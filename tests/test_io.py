"""Instance file format: serialization, parsing, and error reporting."""

from __future__ import annotations

import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsatkit as qk
from qsatkit import cli
from qsatkit import io as qio

from conftest import random_instance


def document_of(instance) -> dict:
    return json.loads(qk.serialize_instance(instance))


class TestSerialize:
    def test_document_layout(self, figure_b):
        doc = document_of(figure_b)
        assert doc["format_version"] == 1
        assert doc["num_qubits"] == 3
        assert doc["epsilon"] == figure_b.promise_gap
        assert len(doc["projectors"]) == 4
        first = doc["projectors"][0]
        assert first["qubits"] == [0, 1]
        assert len(first["amplitudes"]) == 4
        assert all(len(pair) == 2 for pair in first["amplitudes"])

    def test_general_terms_are_refused(self):
        inst = qk.QsatInstance(1, [qk.GeneralTerm((0,), np.eye(2, dtype=complex))])
        with pytest.raises(qk.ArgumentError):
            qk.serialize_instance(inst)

    def test_output_ends_with_newline(self, figure_a):
        assert qk.serialize_instance(figure_a).endswith("\n")


class TestRoundTrip:
    def test_figures_survive(self, figure_a, figure_b):
        for inst in (figure_a, figure_b):
            again = qk.parse_instance(qk.serialize_instance(inst))
            assert again == inst

    def test_awkward_floats_are_bit_exact(self):
        amps = np.array(
            [1 / 3, math.sqrt(2) / 2, -1 / 7, 1 / 3 + 1j * math.pi / 4],
            dtype=np.complex128,
        )
        amps /= np.linalg.norm(amps)
        inst = qk.QsatInstance(2, [qk.RankOneTerm((0, 1), amps)], promise_gap=0.1)
        again = qk.parse_instance(qk.serialize_instance(inst))
        assert np.array_equal(again.terms[0].amplitudes, inst.terms[0].amplitudes)
        assert again.promise_gap == inst.promise_gap

    @pytest.mark.parametrize("seed", range(10))
    def test_random_instances_survive(self, seed):
        rng = np.random.Generator(np.random.Philox(key=seed))
        num_qubits = int(rng.integers(1, 7))
        inst = random_instance(
            rng,
            num_qubits=num_qubits,
            num_terms=int(rng.integers(0, 6)),
            k=int(rng.integers(1, min(num_qubits, 3) + 1)),
            promise_gap=float(rng.uniform(0.01, 1.0)),
        )
        assert qk.parse_instance(qk.serialize_instance(inst)) == inst

    def test_file_round_trip(self, tmp_path, figure_b):
        path = tmp_path / "triangle.json"
        qk.save_instance(path, figure_b)
        assert qk.load_instance(path) == figure_b


class TestParseErrors:
    def test_invalid_json_reports_position(self):
        with pytest.raises(qk.ParseError) as exc:
            qk.parse_instance("{oops", source="broken.json")
        assert "broken.json:1:2" in str(exc.value)

    def test_top_level_must_be_object(self):
        with pytest.raises(qk.ParseError):
            qk.parse_instance("[1, 2]")

    def test_version_must_match(self, figure_a):
        doc = document_of(figure_a)
        doc["format_version"] = 2
        with pytest.raises(qk.ParseError) as exc:
            qio.document_to_instance(doc)
        assert "format_version" in str(exc.value)

    def test_missing_fields_are_named(self, figure_a):
        doc = document_of(figure_a)
        del doc["num_qubits"]
        with pytest.raises(qk.ParseError) as exc:
            qio.document_to_instance(doc)
        assert "num_qubits" in str(exc.value)

    def test_booleans_are_not_numbers(self, figure_a):
        doc = document_of(figure_a)
        doc["epsilon"] = True
        with pytest.raises(qk.ParseError):
            qio.document_to_instance(doc)

    def test_amplitude_length_must_match_support(self, figure_a):
        doc = document_of(figure_a)
        doc["projectors"][0]["amplitudes"].append([0.0, 0.0])
        with pytest.raises(qk.ParseError) as exc:
            qio.document_to_instance(doc)
        assert "projectors[0].amplitudes" in str(exc.value)

    def test_amplitude_entries_must_be_pairs(self, figure_a):
        doc = document_of(figure_a)
        doc["projectors"][1]["amplitudes"][2] = [1.0]
        with pytest.raises(qk.ParseError) as exc:
            qio.document_to_instance(doc)
        assert "projectors[1].amplitudes[2]" in str(exc.value)

    def test_qubits_must_be_integers(self, figure_a):
        doc = document_of(figure_a)
        doc["projectors"][0]["qubits"] = [0, "one"]
        with pytest.raises(qk.ParseError):
            qio.document_to_instance(doc)

    @pytest.mark.parametrize("defect, message", [
        (lambda d: d["projectors"][1]["amplitudes"].__setitem__(2, ["0.0", 0.0]),
         "case.json: projectors[1].amplitudes[2][0] must be a number, got '0.0'"),
        (lambda d: d["projectors"][0]["amplitudes"].__setitem__(3, [0.0, True]),
         "case.json: projectors[0].amplitudes[3][1] must be a number, got True"),
        (lambda d: d["projectors"][1]["amplitudes"].__setitem__(0, [0.0, 0.0, 0.0]),
         "case.json: projectors[1].amplitudes[0] must be a [re, im] pair"),
        (lambda d: d["projectors"][1].__setitem__("qubits", [1, 2.0]),
         "case.json: projectors[1].qubits must be a non-empty list of integers"),
        (lambda d: d["projectors"][0]["amplitudes"].pop(),
         "case.json: projectors[0].amplitudes must have length 4, got 3"),
        (lambda d: d["projectors"][1]["amplitudes"].__setitem__(2, [10**400, 0.0]),
         "case.json: projectors[1].amplitudes[2][0] is an integer too large for a float"),
        (lambda d: d["projectors"][0]["amplitudes"].__setitem__(1, [0.0, -10**400]),
         "case.json: projectors[0].amplitudes[1][1] is an integer too large for a float"),
        (lambda d: d.__setitem__("epsilon", 10**400),
         "case.json: epsilon is an integer too large for a float"),
    ], ids=["string-real-part", "true-imaginary-part", "three-element-pair",
            "non-integer-qubit", "wrong-length", "huge-real-part", "huge-imaginary-part",
            "huge-epsilon"])
    def test_messages_name_the_entry(self, figure_a, defect, message):
        # Messages are built only when they are raised; each still names
        # the projector, the entry and the offending value.
        doc = document_of(figure_a)
        defect(doc)
        with pytest.raises(qk.ParseError) as exc:
            qio.document_to_instance(doc, source="case.json")
        assert str(exc.value) == message

    def test_nan_amplitude_is_a_validation_error(self, figure_a, tmp_path):
        doc = document_of(figure_a)
        doc["projectors"][1]["amplitudes"][3] = [math.nan, 0.0]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["solve", str(path)])
        assert code == cli.EXIT_USAGE == 3
        assert out.getvalue() == ""
        assert err.getvalue().splitlines() == [
            "error: invalid instance: term 1: amplitudes contain non-finite values"
        ]

    def test_integers_past_the_digit_limit_are_parse_errors(self, figure_a):
        # Python's int() refuses more than 4,300 digits by default, inside
        # the JSON decoder.
        text = json.dumps(document_of(figure_a)).replace('"epsilon": 1.0', '"epsilon": ' + "9" * 5000)
        with pytest.raises(qk.ParseError, match="^case.json: invalid JSON: "):
            qk.parse_instance(text, source="case.json")

    def test_unknown_top_level_keys_are_tolerated(self, figure_a):
        doc = document_of(figure_a)
        doc["comment"] = "hand-annotated"
        assert qio.document_to_instance(doc) == figure_a


# Values of the wrong type for each field; none of them can be read as valid.
WRONG_TYPES = {
    "format_version": ["1", 1.5, True, None, [1], 2],
    "num_qubits": ["3", 3.0, True, None, [], {}],
    "epsilon": ["1.0", True, None, [], {}],
    "projectors": [{}, "x", 1, None],
    "projector": [[], "x", 1, None],
    "qubits": ["0", 0, {}, None, [], [0.5], ["0"], [True], [None]],
    "amplitudes": ["x", 0, {}, None],
    "pair": [[1.0], [1.0, 0.0, 0.0], "x", 1.0, None, ["0", 0.0], [None, 0.0], [True, 0.0]],
}


@st.composite
def malformed_documents(draw):
    """The document of a valid instance with one defect that makes it
    unreadable or describes an invalid instance."""
    n = draw(st.integers(1, 4))
    rng = np.random.Generator(np.random.Philox(key=draw(st.integers(0, 1 << 30))))
    inst = random_instance(rng, num_qubits=n, num_terms=draw(st.integers(1, 4)),
                           k=draw(st.integers(1, n)))
    doc = document_of(inst)
    projectors = doc["projectors"]
    at = draw(st.integers(0, len(projectors) - 1))
    entry = projectors[at]
    qubits, amplitudes = entry["qubits"], entry["amplitudes"]
    defect = draw(st.sampled_from([
        "drop key", "wrong type", "qubit out of range", "repeated qubit",
        "non-finite amplitude", "huge integer", "amplitude length", "num_qubits", "epsilon",
    ]))
    if defect == "drop key":
        key = draw(st.sampled_from(
            ["format_version", "num_qubits", "epsilon", "projectors", "qubits", "amplitudes"]))
        del (entry if key in entry else doc)[key]
    elif defect == "wrong type":
        field = draw(st.sampled_from(sorted(WRONG_TYPES)))
        value = draw(st.sampled_from(WRONG_TYPES[field]))
        if field == "projector":
            projectors[at] = value
        elif field == "pair":
            amplitudes[draw(st.integers(0, len(amplitudes) - 1))] = value
        else:
            (entry if field in entry else doc)[field] = value
    elif defect == "qubit out of range":
        qubits[draw(st.integers(0, len(qubits) - 1))] = draw(
            st.one_of(st.integers(n, n + 5), st.integers(-5, -1)))
    elif defect == "repeated qubit":
        # One more qubit, a copy of an existing one; zero amplitudes on it
        # keep the norm, so the repetition is the only defect.
        qubits.append(draw(st.sampled_from(qubits)))
        amplitudes.extend([[0.0, 0.0]] * len(amplitudes))
    elif defect == "non-finite amplitude":
        pair = amplitudes[draw(st.integers(0, len(amplitudes) - 1))]
        pair[draw(st.integers(0, 1))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif defect == "huge integer":
        # Past float range, but within the JSON decoder's digit limit.
        huge = draw(st.sampled_from([10**309, -(10**400), 7 * 10**1000]))
        if draw(st.booleans()):
            doc["epsilon"] = huge
        else:
            amplitudes[draw(st.integers(0, len(amplitudes) - 1))][draw(st.integers(0, 1))] = huge
    elif defect == "amplitude length":
        if draw(st.booleans()):
            amplitudes.append([0.0, 0.0])
        else:
            amplitudes.pop()
    elif defect == "num_qubits":
        doc["num_qubits"] = draw(st.integers(-3, 0))
    else:
        doc["epsilon"] = draw(st.sampled_from([0.0, -0.5, -math.inf, math.nan]))
    return doc


class TestMalformedDocuments:
    @given(malformed_documents())
    @settings(max_examples=200, deadline=None)
    def test_only_parse_or_validation_errors(self, doc):
        with pytest.raises((qk.ParseError, qk.ValidationError)):
            qk.parse_instance(json.dumps(doc))

    @given(malformed_documents())
    @settings(max_examples=60, deadline=None)
    def test_solve_exits_with_one_error_line(self, doc):
        out, err = StringIO(), StringIO()
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "malformed.json"
            path.write_text(json.dumps(doc))
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(["solve", str(path)])
        assert code == cli.EXIT_USAGE == 3
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "internal error" not in lines[0]


class TestSaveReduction:
    def test_annotations_ride_along(self, tmp_path, figure_b_core):
        q = qk.QsatInstance(2, [qk.singlet_term(0, 1)])
        out = qk.build_reduction(q, 3, figure_b_core)
        path = tmp_path / "reduced.json"
        qio.save_reduction(path, out)
        doc = json.loads(path.read_text())
        assert doc["roles"] == list(out.role_map)
        assert doc["penalty_constant"] == out.penalty_constant
        assert doc["epsilon"] == out.adjusted_gap
        # The document is still a loadable instance.
        assert qk.load_instance(path) == out.t_instance
