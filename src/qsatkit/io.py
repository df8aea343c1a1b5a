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


def _require(condition, source, message, *args):
    """Raise ParseError at ``source`` unless ``condition`` holds.  The
    message is ``message.format(*args)``, built only when it is raised."""
    if not condition:
        raise ParseError(message.format(*args), location=source)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_int(value, field, source):
    _require(_is_int(value), source, "{} must be an integer, got {!r}", field, value)
    return value


def _as_number(value, field, source):
    _require(_is_number(value), source, "{} must be a number, got {!r}", field, value)
    return float(value)


def _amplitude_error(field, j, pair, source) -> ParseError:
    """The error for amplitude entry j, which is not a pair of numbers."""
    if not (isinstance(pair, list) and len(pair) == 2):
        return ParseError(f"{field}.amplitudes[{j}] must be a [re, im] pair", location=source)
    part = 1 if _is_number(pair[0]) else 0
    return ParseError(
        f"{field}.amplitudes[{j}][{part}] must be a number, got {pair[part]!r}",
        location=source,
    )


def document_to_instance(document, source="<document>") -> QsatInstance:
    _require(isinstance(document, dict), source, "top level must be an object")
    version = _as_int(document.get("format_version"), "format_version", source)
    _require(
        version == FORMAT_VERSION, source,
        "unsupported format_version {} (current: {})", version, FORMAT_VERSION,
    )
    num_qubits = _as_int(document.get("num_qubits"), "num_qubits", source)
    epsilon = _as_number(document.get("epsilon"), "epsilon", source)
    projectors = document.get("projectors")
    _require(isinstance(projectors, list), source, "projectors must be a list")
    terms = []
    for i, entry in enumerate(projectors):
        _require(isinstance(entry, dict), source, "projectors[{}] must be an object", i)
        qubits = entry.get("qubits")
        _require(
            isinstance(qubits, list) and qubits and all(map(_is_int, qubits)), source,
            "projectors[{}].qubits must be a non-empty list of integers", i,
        )
        amplitudes = entry.get("amplitudes")
        _require(isinstance(amplitudes, list), source, "projectors[{}].amplitudes must be a list", i)
        _require(
            len(amplitudes) == 1 << len(qubits), source,
            "projectors[{}].amplitudes must have length {}, got {}",
            i, 1 << len(qubits), len(amplitudes),
        )
        values = np.empty(len(amplitudes), dtype=np.complex128)
        for j, pair in enumerate(amplitudes):
            if not (isinstance(pair, list) and len(pair) == 2
                    and _is_number(pair[0]) and _is_number(pair[1])):
                raise _amplitude_error(f"projectors[{i}]", j, pair, source)
            values[j] = complex(float(pair[0]), float(pair[1]))
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
