"""Reading and writing the versioned instance-file format.

An instance file is a JSON document::

    {
      "format_version": 1,
      "num_qubits": 3,
      "epsilon": 1.0,
      "projectors": [
        {"qubits": [0, 1], "amplitudes": [[0.0, 0.0], [0.7071, 0.0], ...]}
      ]
    }

Amplitudes are [real, imaginary] pairs written with shortest-round-trip
decimal precision, so parse(serialize(x)) reproduces x bit-exactly for
finite values.  Unknown top-level keys are tolerated (reduction outputs
carry extra annotations); unknown required-field types are not.

A malformed document raises ``ParseError``.  A well-formed one that
describes an invalid instance (a qubit out of range or repeated, a
non-finite or unnormalized amplitude, ``num_qubits`` or ``epsilon`` not
positive) raises ``ValidationError`` from the ``QsatInstance`` it builds.
"""

import json

import numpy as np

from .errors import ArgumentError, ParseError
from .instance import QsatInstance, RankOneTerm

FORMAT_VERSION = 1


def instance_to_document(instance: QsatInstance) -> dict:
    """The JSON-ready dictionary form of a rank-1 instance."""
    projectors = []
    for i, term in enumerate(instance.terms):
        if not isinstance(term, RankOneTerm):
            raise ArgumentError(
                f"term {i} is not rank-1; decompose before serializing"
            )
        projectors.append(
            {
                "qubits": list(term.support),
                "amplitudes": [[float(a.real), float(a.imag)] for a in term.amplitudes],
            }
        )
    return {
        "format_version": FORMAT_VERSION,
        "num_qubits": instance.num_qubits,
        "epsilon": instance.promise_gap,
        "projectors": projectors,
    }


def serialize_instance(instance: QsatInstance) -> str:
    return json.dumps(instance_to_document(instance), indent=2) + "\n"


def _require(condition, message, source):
    if not condition:
        raise ParseError(message, location=source)


def _as_int(value, field, source):
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"{field} must be an integer, got {value!r}", source)
    return value


def _as_number(value, field, source):
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        f"{field} must be a number, got {value!r}",
        source,
    )
    return float(value)


def document_to_instance(document, source="<document>") -> QsatInstance:
    _require(isinstance(document, dict), "top level must be an object", source)
    version = _as_int(document.get("format_version"), "format_version", source)
    _require(
        version == FORMAT_VERSION,
        f"unsupported format_version {version} (current: {FORMAT_VERSION})",
        source,
    )
    num_qubits = _as_int(document.get("num_qubits"), "num_qubits", source)
    epsilon = _as_number(document.get("epsilon"), "epsilon", source)
    projectors = document.get("projectors")
    _require(isinstance(projectors, list), "projectors must be a list", source)
    terms = []
    for i, entry in enumerate(projectors):
        field = f"projectors[{i}]"
        _require(isinstance(entry, dict), f"{field} must be an object", source)
        qubits = entry.get("qubits")
        _require(
            isinstance(qubits, list) and qubits
            and all(isinstance(q, int) and not isinstance(q, bool) for q in qubits),
            f"{field}.qubits must be a non-empty list of integers",
            source,
        )
        amplitudes = entry.get("amplitudes")
        _require(isinstance(amplitudes, list), f"{field}.amplitudes must be a list", source)
        _require(
            len(amplitudes) == 1 << len(qubits),
            f"{field}.amplitudes must have length {1 << len(qubits)}, got {len(amplitudes)}",
            source,
        )
        values = np.empty(len(amplitudes), dtype=np.complex128)
        for j, pair in enumerate(amplitudes):
            _require(
                isinstance(pair, list) and len(pair) == 2,
                f"{field}.amplitudes[{j}] must be a [re, im] pair",
                source,
            )
            re = _as_number(pair[0], f"{field}.amplitudes[{j}][0]", source)
            im = _as_number(pair[1], f"{field}.amplitudes[{j}][1]", source)
            values[j] = complex(re, im)
        terms.append(RankOneTerm(tuple(qubits), values))
    return QsatInstance(num_qubits, terms, epsilon)


def parse_instance(text: str, source="<string>") -> QsatInstance:
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON: {exc.msg}", location=f"{source}:{exc.lineno}:{exc.colno}"
        ) from exc
    return document_to_instance(document, source=source)


def load_instance(path) -> QsatInstance:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_instance(handle.read(), source=str(path))


def save_instance(path, instance: QsatInstance) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(serialize_instance(instance))


def save_reduction(path, output) -> None:
    """Write a reduction's instance with its role and penalty annotations."""
    document = instance_to_document(output.t_instance)
    document["roles"] = list(output.role_map)
    document["penalty_constant"] = output.penalty_constant
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(document, indent=2) + "\n")
