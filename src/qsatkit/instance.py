"""Instance data model: terms, instances, CNF formulas, and structural analysis.

Conventions used everywhere in the library:

* Qubit indices are 0-based.
* A term's amplitude vector is big-endian over the term's own support order:
  the first support index is the most significant bit of the amplitude index.
* The full 2^n space is likewise big-endian over qubits 0..n-1 (qubit 0 is
  the most significant bit of a basis index).

All types are immutable after construction and safe to share.  The
instance types check their invariants once, when they are built, and raise
rather than exist invalid; terms are checked as part of the instance that
holds them.  A :class:`QsatInstance` that exists has passed :func:`validate`,
so no operation checks it again.
"""

from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import config
from .errors import ArgumentError, ValidationError


def _frozen_array(values, shape_hint=None):
    arr = np.array(values, dtype=np.complex128)
    if shape_hint is not None and arr.ndim == 0:
        arr = arr.reshape(shape_hint)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class RankOneTerm:
    """A rank-1 projector |psi><psi| on an ordered qubit support.

    ``amplitudes`` holds the 2^k coefficients of |psi> in the big-endian
    basis over ``support``.
    """

    support: tuple
    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "support", tuple(int(q) for q in self.support))
        object.__setattr__(self, "amplitudes", _frozen_array(self.amplitudes))

    @property
    def k(self) -> int:
        return len(self.support)

    def dense(self) -> np.ndarray:
        """The 2^k x 2^k projector matrix on the support."""
        v = self.amplitudes
        return np.outer(v, v.conj())

    def action(self) -> np.ndarray:
        """The term's action A, shape (1, 2^k): the row <psi|, whose A^H A
        is |psi><psi|."""
        return self.amplitudes.conj()[None]

    def __eq__(self, other):
        return (
            isinstance(other, RankOneTerm)
            and self.support == other.support
            and np.array_equal(self.amplitudes, other.amplitudes)
        )

    def __repr__(self):
        return f"RankOneTerm(support={self.support}, k={self.k})"


@dataclass(frozen=True, eq=False)
class GeneralTerm:
    """A (not necessarily rank-1) Hermitian projector on a qubit support."""

    support: tuple
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "support", tuple(int(q) for q in self.support))
        object.__setattr__(self, "matrix", _frozen_array(self.matrix))

    @property
    def k(self) -> int:
        return len(self.support)

    def dense(self) -> np.ndarray:
        return np.asarray(self.matrix)

    def action(self) -> np.ndarray:
        """The term's action A, shape (r, 2^k): the image of the projector P,
        its r eigenvectors of eigenvalue above 1/2 as rows sqrt(lambda) v^H.
        A^H A is P up to the Hermiticity and idempotency tolerances an
        instance is validated to, and r rows take the place of 2^k."""
        values, vectors = np.linalg.eigh(self.matrix)
        image = values > 0.5
        return (vectors[:, image] * np.sqrt(values[image])).conj().T

    def __eq__(self, other):
        return (
            isinstance(other, GeneralTerm)
            and self.support == other.support
            and np.array_equal(self.matrix, other.matrix)
        )

    def __repr__(self):
        return f"GeneralTerm(support={self.support}, k={self.k})"


@dataclass(frozen=True, eq=False)
class QsatInstance:
    """n qubits, a list of projector terms, and a promise gap epsilon.

    Construction raises ValidationError unless :func:`validate` passes.
    Beyond being positive, the promise gap is carried as data only; no
    operation rejects an instance because of it. Solver verdicts report it
    alongside the computed ground energy.
    """

    num_qubits: int
    terms: tuple
    promise_gap: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "num_qubits", int(self.num_qubits))
        object.__setattr__(self, "terms", tuple(self.terms))
        object.__setattr__(self, "promise_gap", float(self.promise_gap))
        validate(self)

    @property
    def num_terms(self) -> int:
        return len(self.terms)

    def supports(self) -> list:
        return [t.support for t in self.terms]

    def actions(self) -> list:
        """Each term's action A (see ``RankOneTerm.action``), with A^H A the
        term's projector; every numeric layer reads the terms through it."""
        return [t.action() for t in self.terms]

    def __eq__(self, other):
        return (
            isinstance(other, QsatInstance)
            and self.num_qubits == other.num_qubits
            and self.promise_gap == other.promise_gap
            and self.terms == other.terms
        )

    def __repr__(self):
        return (
            f"QsatInstance(num_qubits={self.num_qubits}, "
            f"num_terms={self.num_terms}, promise_gap={self.promise_gap})"
        )


@dataclass(frozen=True, eq=False)
class QuditInstance:
    """Projectors acting on d-level systems; input to the qubit encoding.

    Each term is a pair ``(support, matrix)`` with a d^k x d^k projector.
    With ``one_dim`` set, every support must be a nearest-neighbour pair
    (j, j+1).
    """

    num_qudits: int
    dimension: int
    terms: tuple
    one_dim: bool = False

    def __post_init__(self):
        object.__setattr__(self, "num_qudits", int(self.num_qudits))
        object.__setattr__(self, "dimension", int(self.dimension))
        if self.dimension < 2:
            raise ArgumentError("qudit dimension must be at least 2")
        coerced = []
        for support, matrix in self.terms:
            support = tuple(int(q) for q in support)
            if len(set(support)) != len(support):
                raise ArgumentError(f"duplicate qudit in support {support}")
            if any(q < 0 or q >= self.num_qudits for q in support):
                raise ArgumentError(f"qudit index out of range in {support}")
            matrix = _frozen_array(matrix)
            want = self.dimension ** len(support)
            if matrix.shape != (want, want):
                raise ArgumentError(
                    f"matrix on support {support} must be {want}x{want}"
                )
            if self.one_dim and not (
                len(support) == 2 and abs(support[0] - support[1]) == 1
            ):
                raise ArgumentError(
                    f"one_dim instance requires nearest-neighbour supports, "
                    f"got {support}"
                )
            coerced.append((support, matrix))
        object.__setattr__(self, "terms", tuple(coerced))


@dataclass(frozen=True, eq=False)
class CnfFormula:
    """A CNF formula: clauses are tuples of (variable index, polarity).

    Polarity ``True`` means the positive literal. Variables within a clause
    must be distinct.
    """

    num_vars: int
    clauses: tuple

    def __post_init__(self):
        object.__setattr__(self, "num_vars", int(self.num_vars))
        if self.num_vars < 1:
            raise ArgumentError("num_vars must be positive")
        coerced = []
        for clause in self.clauses:
            clause = tuple((int(v), bool(p)) for v, p in clause)
            vars_in_clause = [v for v, _ in clause]
            if len(set(vars_in_clause)) != len(vars_in_clause):
                raise ArgumentError(f"clause {clause} repeats a variable")
            if any(v < 0 or v >= self.num_vars for v in vars_in_clause):
                raise ArgumentError(f"variable out of range in clause {clause}")
            coerced.append(clause)
        object.__setattr__(self, "clauses", tuple(coerced))

    def __eq__(self, other):
        return (
            isinstance(other, CnfFormula)
            and self.num_vars == other.num_vars
            and self.clauses == other.clauses
        )


@dataclass(frozen=True)
class Violation:
    """One failed invariant; ``term_index`` is None for instance-level checks."""

    term_index: int | None
    message: str


@dataclass(frozen=True)
class ValidationReport:
    """The violations of an instance that failed :func:`validate`."""

    violations: tuple

    def __str__(self):
        return "; ".join(
            f"term {v.term_index}: {v.message}" if v.term_index is not None
            else v.message
            for v in self.violations
        )


@dataclass(frozen=True)
class DegreeProfile:
    """Per-qubit term counts, the maximum, and whether all counts agree."""

    per_qubit: tuple
    max_degree: int
    is_regular: bool


def validate(instance: QsatInstance) -> None:
    """Raise ValidationError, carrying the itemized report, unless every
    invariant holds; ``QsatInstance`` calls it once, on construction."""
    max_support = config.max_qubits()
    violations = []
    if instance.num_qubits < 1:
        violations.append(Violation(None, "num_qubits must be positive"))
    if not instance.promise_gap > 0:
        violations.append(Violation(None, "promise_gap must be positive"))
    for i, term in enumerate(instance.terms):
        violations.extend(
            Violation(i, msg) for msg in _term_violations(term, instance.num_qubits, max_support)
        )
    if violations:
        report = ValidationReport(tuple(violations))
        raise ValidationError(f"invalid instance: {report}", report=report)


def _term_violations(term, num_qubits, max_support):
    msgs = []
    support = term.support
    if len(support) < 1:
        msgs.append("support must be non-empty")
    if len(set(support)) != len(support):
        msgs.append(f"support {support} has repeated indices")
    if len(support) > max_support:
        msgs.append(f"support size {len(support)} exceeds limit {max_support}")
    if any(q < 0 or q >= num_qubits for q in support):
        msgs.append(f"support {support} out of range for {num_qubits} qubits")
    dim = 2 ** len(support)
    if isinstance(term, RankOneTerm):
        if term.amplitudes.shape != (dim,):
            msgs.append(
                f"amplitudes must have length {dim}, got {term.amplitudes.shape}"
            )
        elif not np.all(np.isfinite(term.amplitudes)):
            msgs.append("amplitudes contain non-finite values")
        else:
            norm = np.linalg.norm(term.amplitudes)
            if abs(norm - 1.0) > config.NORM_TOL:
                msgs.append(f"amplitudes norm {float(norm)!r} not within {config.NORM_TOL} of 1")
    elif isinstance(term, GeneralTerm):
        if term.matrix.shape != (dim, dim):
            msgs.append(f"matrix must be {dim}x{dim}, got {term.matrix.shape}")
        elif not np.all(np.isfinite(term.matrix)):
            msgs.append("matrix contains non-finite values")
        else:
            m = term.matrix
            if np.max(np.abs(m - m.conj().T)) > config.HERMITICITY_TOL:
                msgs.append("matrix is not Hermitian")
            elif np.max(np.abs(m @ m - m)) > config.IDEMPOTENCY_TOL:
                msgs.append("matrix is not idempotent")
    else:
        msgs.append(f"unknown term type {type(term).__name__}")
    return msgs


def degree_profile(instance: QsatInstance) -> DegreeProfile:
    """Count, for each qubit, the terms acting non-trivially on it.

    Raises CapacityError before counting when a list with an entry per
    declared qubit would exceed physical memory.
    """
    config.check_per_qubit_list(instance.num_qubits, "a degree profile")
    counts = [0] * instance.num_qubits
    for term in instance.terms:
        for q in term.support:
            counts[q] += 1
    max_degree = max(counts) if counts else 0
    is_regular = len(set(counts)) <= 1
    return DegreeProfile(tuple(counts), max_degree, is_regular)


def locality(instance: QsatInstance) -> int:
    """The maximum support size over terms; 0 for an empty instance."""
    return max((len(t.support) for t in instance.terms), default=0)


def structure_key(obj):
    """Canonical (size, sorted support multiset) pair for structure comparison.

    Supports are compared as sets of indices; duplicate supports are kept
    as a multiset.
    """
    if isinstance(obj, QsatInstance):
        size = obj.num_qubits
        supports = [tuple(sorted(t.support)) for t in obj.terms]
    elif isinstance(obj, CnfFormula):
        size = obj.num_vars
        supports = [tuple(sorted(v for v, _ in clause)) for clause in obj.clauses]
    else:
        raise ArgumentError(f"cannot extract structure from {type(obj).__name__}")
    return size, tuple(sorted(supports))


def same_structure(a, b) -> bool:
    """True iff both objects share a size and a support multiset.

    Accepts any mix of :class:`QsatInstance` and :class:`CnfFormula`, which
    makes classical and quantum constraint systems directly comparable.
    """
    size_a, supports_a = structure_key(a)
    size_b, supports_b = structure_key(b)
    return size_a == size_b and Counter(supports_a) == Counter(supports_b)
