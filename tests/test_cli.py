"""Command-line interface: subcommands, outputs, and exit codes."""

from __future__ import annotations

import contextlib
import dataclasses
import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import qsatkit as qk
from qsatkit import cli, reduction, spectral

from conftest import linked_figure_b, near_identity_pair, widest_component


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def triangle_file(tmp_path, figure_b):
    path = tmp_path / "triangle.json"
    qk.save_instance(path, figure_b)
    return path


class TestSolve:
    def test_satisfiable_builtin(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "builtin:figure-a")
        assert code == 0
        assert "verdict: satisfiable" in out

    def test_witness_verdict_prints_plain_numbers(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "builtin:figure-a")
        fields = dict(line.split(": ", 1) for line in out.splitlines())
        assert (code, fields["method"]) == (0, "nullspace")
        assert float(fields["lambda0"]) >= 0.0 and float(fields["e0"]) >= 0.0

    def test_unsatisfiable_builtin(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "builtin:figure-b")
        assert code == 1
        assert "verdict: unsatisfiable" in out

    def test_file_input(self, capsys, triangle_file):
        code, out, _ = run_cli(capsys, "solve", str(triangle_file))
        assert code == 1
        assert "lambda0" in out

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "builtin:figure-b", "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["verdict"] == "unsatisfiable"
        assert payload["method"] == "dense"
        assert payload["lambda0"] >= 1e-3
        assert payload["nullspace_dim"] == 0
        assert payload["e0"] == pytest.approx(payload["lambda0"] / 4)

    def test_krylov_method_agrees(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "builtin:figure-b", "--method", "krylov", "--json"
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["method"] == "krylov"
        assert payload["lambda0"] == pytest.approx(0.21922359359558494, abs=1e-7)

    def test_reports_the_route_that_ran(self, capsys, tmp_path, figure_b):
        # A checked null-space witness decides satisfiable inputs; the
        # unsatisfiable ones take the ground-energy route of their widest
        # connected component: figure-b padded with idle qubits stays dense.
        path = tmp_path / "ten.json"
        chain = [qk.singlet_term(q, q + 1) for q in range(0, 10, 2)]
        qk.save_instance(path, qk.QsatInstance(10, chain))
        code, out, _ = run_cli(capsys, "solve", str(path), "--json")
        assert code == 0
        assert json.loads(out)["method"] == "nullspace"
        code, out, _ = run_cli(capsys, "solve", "builtin:figure-a", "--json")
        assert code == 0
        assert json.loads(out)["method"] == "nullspace"
        padded = tmp_path / "ten-frustrated.json"
        qk.save_instance(padded, qk.QsatInstance(10, figure_b.terms))
        code, out, _ = run_cli(capsys, "solve", str(padded), "--json")
        assert code == 1
        assert json.loads(out)["method"] == "dense"
        linked = tmp_path / "ten-linked.json"
        inst = linked_figure_b(10)
        assert widest_component(inst) == 10 > qk.config.DENSE_CUTOFF
        qk.save_instance(linked, inst)
        code, out, _ = run_cli(capsys, "solve", str(linked), "--json")
        assert code == 1
        assert json.loads(out)["method"] == "krylov"
        code, out, _ = run_cli(capsys, "solve", "builtin:figure-b", "--json")
        assert code == 1
        assert json.loads(out)["method"] == "dense"

    def test_nan_amplitude_file_is_a_usage_error(self, capsys, tmp_path):
        # JSON parsers accept the NaN literal, so validation must catch it
        # before any solver sees it; main() returning means no traceback.
        path = tmp_path / "nan.json"
        path.write_text(
            '{"format_version": 1, "num_qubits": 2, "epsilon": 1.0, "projectors": '
            '[{"qubits": [0, 1], "amplitudes": '
            '[[NaN, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}]}\n'
        )
        code, out, err = run_cli(capsys, "solve", str(path), "--json")
        assert code == 3
        assert out == ""
        assert "non-finite" in err

    @pytest.mark.parametrize("field, value", [
        ("amplitudes", '[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [%s, 0.0]]'),
        ("epsilon", "%s"),
    ], ids=["amplitude", "epsilon"])
    def test_integer_past_float_range_is_a_usage_error(self, capsys, tmp_path, field, value):
        amplitudes = "[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]"
        fields = {"amplitudes": amplitudes, "epsilon": "1.0", field: value % ("1" * 401)}
        path = tmp_path / "huge.json"
        path.write_text(
            '{"format_version": 1, "num_qubits": 2, "epsilon": %(epsilon)s, "projectors": '
            '[{"qubits": [0, 1], "amplitudes": %(amplitudes)s}]}\n' % fields
        )
        code, out, err = run_cli(capsys, "solve", str(path))
        assert code == cli.EXIT_USAGE == 3
        assert out == ""
        entry = "projectors[0].amplitudes[3][0]" if field == "amplitudes" else "epsilon"
        assert err.splitlines() == [
            f"error: {path}: {entry} is an integer too large for a float"
        ]

    # No terms means no connected component: the widest has 0 qubits, so
    # auto reports the dense route at any register size.
    @pytest.mark.parametrize("num_qubits, route", [(3, "dense"), (12, "dense")])
    def test_empty_file_reports_the_auto_route(self, capsys, tmp_path, num_qubits, route):
        path = tmp_path / "empty.json"
        qk.save_instance(path, qk.QsatInstance(num_qubits, []))
        code, out, _ = run_cli(capsys, "solve", str(path), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == route
        assert payload["lambda0"] == 0.0
        assert payload["verdict"] == "satisfiable"

    def test_unexpected_error_exits_internal(self, capsys, monkeypatch):
        def fail(num_qubits, supports, actions, max_bytes=None):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(spectral, "_witnesses", fail)
        code, out, err = run_cli(capsys, "solve", "builtin:figure-a")
        assert code == cli.EXIT_INTERNAL == 6
        assert out == ""
        assert err.splitlines() == [
            "error: internal error: LinAlgError: SVD did not converge"
        ]

    def test_non_convergence_reports_the_best_energy(self, capsys, monkeypatch):
        def fail(instance):
            raise qk.ConvergenceError("Lanczos iteration did not converge",
                                      best_lambda0=0.25)

        monkeypatch.setattr(spectral, "_krylov_ground_pair", fail)
        code, out, err = run_cli(capsys, "solve", "builtin:figure-b", "--method", "krylov")
        assert code == cli.EXIT_INDETERMINATE == 2
        assert out == ""
        assert err.startswith("error: Lanczos iteration did not converge")
        assert "0.25" in err

    def test_krylov_beyond_physical_memory_exits_capacity(self, capsys, monkeypatch):
        monkeypatch.setattr(qk.config, "physical_memory", lambda: 1 << 10)
        code, out, err = run_cli(capsys, "solve", "builtin:figure-b", "--method", "krylov")
        assert code == cli.EXIT_CAPACITY == 5
        assert out == ""
        assert "Lanczos iteration" in err

    def test_krylov_method_on_single_qubit_file(self, capsys, tmp_path):
        path = tmp_path / "blocked.json"
        qk.save_instance(
            path,
            qk.QsatInstance(
                1,
                [qk.RankOneTerm((0,), [1.0, 0.0]), qk.RankOneTerm((0,), [0.0, 1.0])],
            ),
        )
        code, out, _ = run_cli(capsys, "solve", str(path), "--method", "krylov", "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["lambda0"] == pytest.approx(1.0, abs=1e-9)
        assert payload["verdict"] == "unsatisfiable"

    def test_indeterminate_band(self, capsys, tmp_path):
        path = tmp_path / "between.json"
        qk.save_instance(path, near_identity_pair())
        code, out, _ = run_cli(capsys, "solve", str(path))
        assert code == 2
        assert "verdict: indeterminate" in out

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "solve", str(tmp_path / "absent.json"))
        assert code == 3
        assert "error:" in err

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "solve", str(path))
        assert code == 3
        assert "broken.json" in err

    def test_unknown_builtin(self, capsys):
        code, _, err = run_cli(capsys, "solve", "builtin:figure-z")
        assert code == 3
        assert "figure-z" in err


class TestAnalyze:
    def test_text_report(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "builtin:figure-b")
        assert code == 0
        assert "num_qubits: 3" in out
        assert "qubit 1: 2" in out
        assert "regular: no" in out

    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "builtin:figure-b", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["degrees"] == [3, 2, 3]
        assert payload["locality"] == 2
        assert payload["max_degree"] == 3
        assert payload["regular"] is False
        assert len(payload["structure_hash"]) == 12

    def test_structure_hash_ignores_amplitudes(self, capsys):
        _, out_a, _ = run_cli(capsys, "analyze", "builtin:figure-a", "--json")
        _, out_b, _ = run_cli(capsys, "analyze", "builtin:figure-b", "--json")
        hash_a = json.loads(out_a)["structure_hash"]
        hash_b = json.loads(out_b)["structure_hash"]
        assert hash_a == hash_b

    def test_huge_register_exits_capacity(self, capsys, monkeypatch, tmp_path, figure_b):
        # analyze and reduce have no qubit ceiling, so a declared register
        # is checked against memory before a per-qubit list is built.
        path = tmp_path / "huge.json"
        qk.save_instance(path, qk.QsatInstance(10**15, figure_b.terms))
        monkeypatch.setattr(qk.config, "physical_memory", lambda: 1 << 33)
        for argv in (["analyze", str(path)], ["analyze", str(path), "--json"],
                     ["reduce", str(path), "--target-k", "3", "--out", str(tmp_path / "out.json")]):
            code, out, err = run_cli(capsys, *argv)
            assert code == cli.EXIT_CAPACITY == 5
            assert out == ""
            assert "on 1000000000000000 qubits would take" in err

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    def test_report_fits_the_bytes_the_check_counts(self, monkeypatch, tmp_path, figure_b, mode):
        # The check counts 16 bytes a qubit, and the report streams, so a
        # register that passes the check also fits the report.
        n = 10**5
        path = tmp_path / "wide.json"
        qk.save_instance(path, qk.QsatInstance(n, figure_b.terms))
        monkeypatch.setattr(qk.config, "physical_memory", lambda: 16 * n)
        report = tmp_path / "report"
        with open(report, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                code = cli.main(["analyze", str(path), *mode])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak <= 16 * n + (1 << 20)
        text = report.read_text()
        if mode:
            assert len(json.loads(text)["degrees"]) == n
        else:
            assert text.count("\n  qubit ") == n


class TestReduce:
    @pytest.fixture()
    def pair_file(self, tmp_path):
        path = tmp_path / "pair.json"
        qk.save_instance(path, qk.QsatInstance(2, [qk.singlet_term(0, 1)]))
        return path

    def test_verified_reduction(self, capsys, pair_file):
        code, out, _ = run_cli(
            capsys, "reduce", str(pair_file), "--target-k", "3", "--verify"
        )
        assert code == 0
        assert "commutation: ok" in out
        assert "energy: ok" in out
        assert "at or below the penalty" in out
        produced = pair_file.with_name("pair.reduced-k3.json")
        assert produced.exists()
        reloaded = qk.load_instance(produced)
        assert reloaded.num_qubits == 6

    def test_json_payload_and_custom_out(self, capsys, pair_file, tmp_path):
        out_path = tmp_path / "custom.json"
        code, out, _ = run_cli(
            capsys, "reduce", str(pair_file), "--target-k", "3",
            "--out", str(out_path), "--verify", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["output"] == str(out_path)
        assert payload["roles"] == {"work": 2, "dummy": 1, "ancilla": 3}
        assert payload["verification"]["commutation_ok"] is True
        assert payload["adjusted_epsilon"] == pytest.approx(
            payload["penalty_constant"]
        )
        assert out_path.exists()

    @pytest.mark.parametrize("target_k", [21, 64, 2000])
    def test_locality_above_the_support_limit_is_refused_before_padding(
            self, capsys, tmp_path, target_k):
        # A padded term holds 2^k amplitudes: 32 MiB at k = 21, and more than
        # numpy can index at 64.  Nothing of that size may be allocated.
        assert target_k > qk.config.max_qubits()
        out_path = tmp_path / "reduced.json"
        argv = ("reduce", "builtin:figure-a", "--target-k", str(target_k),
                "--out", str(out_path))
        run_cli(capsys, *argv)  # imports outside the trace
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, *argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == cli.EXIT_USAGE == 3
        assert out == ""
        assert err.splitlines() == [
            f"error: target locality {target_k} exceeds the support limit of "
            f"{qk.config.max_qubits()} qubits"
        ]
        assert peak < 1 << 20
        assert not out_path.exists()

    def test_satisfiable_core_exits_four(self, capsys, pair_file):
        code, _, err = run_cli(
            capsys, "reduce", str(pair_file), "--target-k", "3",
            "--core", "builtin:figure-a",
        )
        assert code == 4
        assert "satisfiable" in err

    def test_capacity_still_writes_the_construction(self, capsys, tmp_path):
        # Verification decides the input by decide_sat, up to 13 qubits.
        wide_path = tmp_path / "wide.json"
        qk.save_instance(wide_path, qk.QsatInstance(14, [qk.singlet_term(0, 13)]))
        out_path = tmp_path / "wide.k3.json"
        code, _, err = run_cli(
            capsys, "reduce", str(wide_path), "--target-k", "3",
            "--out", str(out_path), "--verify",
        )
        assert code == 5
        assert out_path.exists()
        assert qk.load_instance(out_path).num_qubits == 14 + 1 + 3
        assert "error:" in err
        assert "the input has 14" in err

    @pytest.mark.parametrize("figure", ["figure-a", "figure-b"])
    def test_paper_scale_outputs_are_verified(self, capsys, tmp_path, figure):
        out_path = tmp_path / f"{figure}.k15.json"
        code, out, _ = run_cli(
            capsys, "reduce", f"builtin:{figure}", "--target-k", "15",
            "--out", str(out_path), "--verify", "--json",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["num_qubits"] == 211
        assert payload["verification"]["energy_ok"] is True
        assert payload["verification"]["reduced_method"] == "sectors"

    def test_failed_verification_exits_three_and_still_writes(
        self, capsys, pair_file, tmp_path, monkeypatch
    ):
        real = reduction.verify_reduction
        monkeypatch.setattr(
            reduction,
            "verify_reduction",
            lambda q, out: dataclasses.replace(real(q, out), energy_ok=False),
        )
        out_path = tmp_path / "failed.json"
        code, out, _ = run_cli(
            capsys, "reduce", str(pair_file), "--target-k", "3",
            "--out", str(out_path), "--verify",
        )
        assert code == 3
        assert "energy: FAILED" in out
        assert out_path.exists()

    def test_verification_reports_the_route_of_each_energy(self, capsys, pair_file):
        code, out, _ = run_cli(
            capsys, "reduce", str(pair_file), "--target-k", "3", "--verify", "--json"
        )
        verification = json.loads(out)["verification"]
        assert code == 0
        assert (verification["base_method"], verification["reduced_method"]) == (
            "nullspace", "sectors"
        )
        assert verification["reduced_floor"] <= verification["reduced_energy"]
        _, out, _ = run_cli(
            capsys, "reduce", str(pair_file), "--target-k", "3", "--verify"
        )
        energy_line = next(line for line in out.splitlines() if "energy:" in line)
        assert "[nullspace]" in energy_line
        assert "[sectors]" in energy_line
        assert f"floor {verification['reduced_floor']!r}" in energy_line

    def test_non_minimal_core_needs_opt_in(self, capsys, pair_file, tmp_path, figure_b):
        core_path = tmp_path / "fat-core.json"
        fat = qk.QsatInstance(
            3, list(figure_b.terms) + [figure_b.terms[2]], figure_b.promise_gap
        )
        qk.save_instance(core_path, fat)
        code, _, err = run_cli(
            capsys, "reduce", str(pair_file), "--target-k", "3",
            "--core", str(core_path),
        )
        assert code == 3
        assert "--extract-core" in err
        code, _, _ = run_cli(
            capsys, "reduce", str(pair_file), "--target-k", "3",
            "--core", str(core_path), "--extract-core",
        )
        assert code == 0

    def test_unreachable_target_locality(self, capsys, pair_file):
        code, _, err = run_cli(
            capsys, "reduce", str(pair_file), "--target-k", "1"
        )
        assert code == 3
        assert "2-local" in err

    def test_target_k_is_required(self, capsys, pair_file):
        code, _, _ = run_cli(capsys, "reduce", str(pair_file))
        assert code == 3


class TestBounds:
    def test_wide_clause_table(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "15")
        assert code == 0
        assert "qlll_lower: 803" in out
        assert "gebauer_lower: 1506" in out
        assert "threshold_510: exceeded" in out

    def test_narrow_clause_table(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "8")
        assert code == 0
        assert "qlll_lower: 11" in out
        assert "threshold_510: not exceeded" in out

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "15", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["qlll_lower"] == 803
        assert payload["gebauer_upper_estimate"] == pytest.approx(
            1607.2898037741097
        )
        assert payload["threshold_510"] is True

    def test_invalid_width(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "0")
        assert code == 3
        assert "error:" in err

    def test_widths_past_float_range(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "1022")
        assert code == 0
        assert "tovey_lower: 1022" in out
        code, _, err = run_cli(capsys, "bounds", "1023")
        assert code == 3
        assert err.splitlines() == ["error: locality must be at most 1022, got 1023"]


class TestSample:
    def test_builtin_structure(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "--structure", "builtin:triangle-double",
            "--trials", "5", "--seed", "7",
        )
        assert code == 0
        assert "trials: 5" in out
        assert "seed: 7" in out
        assert "unsatisfiable: 5" in out

    def test_repeat_runs_match_byte_for_byte(self, capsys):
        _, first, _ = run_cli(
            capsys, "sample", "--structure", "builtin:triangle-double",
            "--trials", "6", "--seed", "3", "--json",
        )
        _, second, _ = run_cli(
            capsys, "sample", "--structure", "builtin:triangle-double",
            "--trials", "6", "--seed", "3", "--json",
        )
        assert first == second

    def test_structure_from_file(self, capsys, triangle_file):
        code, out, _ = run_cli(
            capsys, "sample", "--structure", str(triangle_file),
            "--trials", "3", "--seed", "2", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["num_supports"] == 4
        assert (
            payload["satisfiable"]
            + payload["unsatisfiable"]
            + payload["indeterminate"]
            == 3
        )

    def test_default_seed_is_reported(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "--structure", "builtin:triangle-double",
            "--trials", "2",
        )
        assert code == 0
        assert "seed: 101" in out

    def test_seed_beyond_128_bits_is_a_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "sample", "--structure", "builtin:triangle-double",
            "--trials", "2", "--seed", str(1 << 128),
        )
        assert code == 3
        assert out == ""
        assert err.splitlines() == [f"error: seed must be in [0, 2**128), got {1 << 128}"]

    def test_trials_flag_is_required(self, capsys):
        code, _, _ = run_cli(
            capsys, "sample", "--structure", "builtin:triangle-double"
        )
        assert code == 3


class TestTopLevel:
    def test_non_integer_qubit_ceiling_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("QSAT_MAX_QUBITS", "abc")
        code, out, err = run_cli(capsys, "solve", "builtin:figure-a")
        assert code == 3
        assert out == ""
        assert err.splitlines() == ["error: QSAT_MAX_QUBITS must be an integer, got 'abc'"]

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_qubit_ceiling_below_one_is_a_usage_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("QSAT_MAX_QUBITS", value)
        code, out, err = run_cli(capsys, "solve", "builtin:figure-b")
        assert code == 3
        assert out == ""
        assert err.splitlines() == [f"error: QSAT_MAX_QUBITS must be at least 1, got {value!r}"]

    def test_no_command_prints_help(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 3
        assert "usage:" in err

    def test_unknown_command(self, capsys):
        code, _, _ = run_cli(capsys, "transmogrify")
        assert code == 3

    def test_import_leaves_scipy_sparse_unloaded(self):
        # scipy.sparse costs tens of milliseconds on every CLI start.
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, qsatkit, qsatkit.cli; print('scipy.sparse' in sys.modules)"],
            capture_output=True,
            text=True,
            check=True,
        )
        assert proc.stdout.strip() == "False"

    def test_console_script_is_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qsatkit.cli", "bounds", "15"],
            capture_output=True,
            text=True,
            check=False,
        )
        assert proc.returncode == 0
        assert "803" in proc.stdout


class TestRepeatedCalls:
    """main(argv) called again and again in one process, as the benchmark
    and library users do: the parser is built once and no call leaks state
    into the next."""

    def test_the_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("name, forced, route, exit_code", [
        ("figure-b", "dense", "dense", 1),
        ("figure-b", "krylov", "dense", 1),
        ("figure-a", "dense", "nullspace", 0),
    ])
    def test_a_forced_method_does_not_stick(self, capsys, name, forced, route, exit_code):
        # The call after a forced route reports the route auto takes.
        code, out, _ = run_cli(capsys, "solve", f"builtin:{name}", "--method", forced, "--json")
        assert (code, json.loads(out)["method"]) == (exit_code, forced)
        code, out, _ = run_cli(capsys, "solve", f"builtin:{name}", "--json")
        assert (code, json.loads(out)["method"]) == (exit_code, route)

    def test_a_given_seed_does_not_stick(self, capsys):
        argv = ("sample", "--structure", "builtin:triangle-double", "--trials", "2")
        code, out, _ = run_cli(capsys, *argv, "--seed", "5")
        assert code == 0 and "seed: 5" in out.splitlines()
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and "seed: 101" in out.splitlines()

    def test_a_usage_error_leaves_the_next_call_as_a_fresh_one(self, capsys):
        fresh = subprocess.run(
            [sys.executable, "-m", "qsatkit.cli", "solve", "builtin:figure-b"],
            capture_output=True,
            text=True,
            check=False,
        )
        code, out, err = run_cli(capsys, "solve", "builtin:figure-b", "--method", "magic")
        assert code == 3 and out == "" and "invalid choice" in err
        code, out, err = run_cli(capsys, "solve", "builtin:figure-b")
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert code == 1

    def test_dispatch_finds_the_handler_at_call_time(self, capsys, monkeypatch):
        cli.build_parser()
        seen = []

        def handler(args):
            seen.append(args.path)
            return 42

        monkeypatch.setattr(cli, "cmd_solve", handler)
        code, _, _ = run_cli(capsys, "solve", "builtin:figure-a")
        assert (code, seen) == (42, ["builtin:figure-a"])
