"""Locality-raising reduction: encoding, splitting, padding, and gadgets.

The pipeline turns an instance of low-locality projectors into one of
exactly ``target_k``-local projectors with the same ground energy below a
penalty floor:

1. ``encode_qudits`` maps d-level systems onto qubit blocks;
2. ``rank_one_decompose`` splits projectors into rank-1 parts;
3. ``pad_with_dummies`` raises each term's locality by tensoring fresh
   qubits pinned to |0>;
4. a minimal unsatisfiable instance R, split once along a Schmidt
   decomposition, becomes an enforcing gadget S whose zero-energy states
   force each dummy into |0>, at penalty c_k = lambda0(R) otherwise;
5. ``build_reduction`` assembles the padded terms plus one relabeled gadget
   copy per dummy, and ``verify_reduction`` checks the construction's
   energy, commutation, and degree claims numerically.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import config
from .errors import (
    ArgumentError,
    IndeterminateError,
    PreconditionError,
    ValidationError,
)
from .instance import (
    GeneralTerm,
    QsatInstance,
    QuditInstance,
    RankOneTerm,
    degree_profile,
    locality,
)
from .spectral import (
    INDETERMINATE,
    SATISFIABLE,
    UNSATISFIABLE,
    _actions,
    _components,
    _pin,
    _pinned_energy,
    decide_sat,
    operator_dominates,
    restricted_ground_energy,
)

ROLE_WORK = "work"
ROLE_DUMMY = "dummy"
ROLE_ANCILLA = "ancilla"


@dataclass(frozen=True)
class CoreCertificate:
    """Solver evidence that a core is minimal: its own ground energy (above
    the unsatisfiability floor) and the energy after each single deletion
    (all at the satisfiability threshold)."""

    core_lambda0: float
    deletion_lambda0: tuple


@dataclass(frozen=True)
class MinimalCore:
    core: QsatInstance
    certificate: CoreCertificate


@dataclass(frozen=True)
class GadgetSource:
    """Which term of which core was split, and along which qubit."""

    core: MinimalCore
    term_index: int
    pivot: int


@dataclass(frozen=True)
class EnforcingGadget:
    """Instance S whose zero-energy states pin the dummy qubit to |0>.

    States with the dummy at |1> pay at least ``penalty_constant``; the
    dummy participates in exactly the split terms, so attaching S raises
    degrees by at most one.
    """

    gadget_instance: QsatInstance
    dummy_qubit: int
    ancilla_qubits: tuple
    penalty_constant: float
    source: GadgetSource


@dataclass(frozen=True)
class RoleSummary:
    role: str
    count: int
    max_degree: int


@dataclass(frozen=True)
class ReductionAccounting:
    target_k: int
    summaries: tuple  # RoleSummary per role present, in work/dummy/ancilla order


@dataclass(frozen=True)
class ReductionOutput:
    t_instance: QsatInstance
    role_map: tuple  # role string per qubit
    adjusted_gap: float
    accounting: ReductionAccounting
    penalty_constant: float
    gadget: EnforcingGadget


@dataclass(frozen=True)
class VerificationReport:
    commutation_ok: bool
    energy_ok: bool
    degree_ok: bool
    base_energy: float
    # The output's energy and a lower bound on its ground energy.  On the
    # "sectors" route (see ``verify_reduction``) reduced_energy is the energy
    # of the sector with every dummy at |0>, an upper bound, and
    # reduced_floor <= lambda0 <= reduced_energy; otherwise both are the
    # output's ``decide_sat`` energy.
    reduced_energy: float
    reduced_floor: float
    penalty_constant: float
    max_degree: int
    degree_bound: int
    # The route that gave each energy: ``SatVerdict.method`` ("nullspace"
    # for a witness whose energy was checked, else "dense" or "krylov"), or
    # "sectors" for an output whose energy came from its dummies' Z-sectors.
    base_method: str
    reduced_method: str

    @property
    def ok(self) -> bool:
        return self.commutation_ok and self.energy_ok and self.degree_ok


def encode_qudits(q: QuditInstance) -> QsatInstance:
    """Map each d-level system to ceil(log2 d) qubits.

    Interaction matrices are embedded on the image of the valid levels; one
    rank-1 exclusion term per invalid level per qudit keeps the two
    satisfiability questions equivalent.
    """
    d = q.dimension
    bits = max(1, math.ceil(math.log2(d)))
    if bits > 4:
        raise ArgumentError(f"qudit dimension {d} exceeds the 4-qubits-per-qudit ceiling")
    terms = []
    for support, matrix in q.terms:
        k = len(support)
        qubit_support = tuple(
            j for s in support for j in range(s * bits, (s + 1) * bits)
        )
        levels = np.array(list(np.ndindex(*(d,) * k)), dtype=np.int64).reshape(d**k, k)
        qubit_idx = levels @ (1 << (bits * np.arange(k - 1, -1, -1, dtype=np.int64)))
        dim = 1 << (bits * k)
        big = np.zeros((dim, dim), dtype=np.complex128)
        big[np.ix_(qubit_idx, qubit_idx)] = matrix
        terms.append(GeneralTerm(qubit_support, big))
    for s in range(q.num_qudits):
        block = tuple(range(s * bits, (s + 1) * bits))
        for level in range(d, 1 << bits):
            amps = np.zeros(1 << bits, dtype=np.complex128)
            amps[level] = 1.0
            terms.append(RankOneTerm(block, amps))
    return QsatInstance(q.num_qudits * bits, terms)


def rank_one_decompose(t) -> list:
    """Split a projector into rank-1 terms via its unit eigenvectors."""
    if isinstance(t, RankOneTerm):
        return [t]
    if not isinstance(t, GeneralTerm):
        raise ArgumentError(f"cannot decompose {type(t).__name__}")
    matrix = np.asarray(t.matrix)
    if np.max(np.abs(matrix - matrix.conj().T)) > config.HERMITICITY_TOL:
        raise ValidationError("matrix is not Hermitian")
    if np.max(np.abs(matrix @ matrix - matrix)) > config.IDEMPOTENCY_TOL:
        raise ValidationError("matrix is not a projector")
    vals, vecs = np.linalg.eigh(matrix)
    parts = [
        RankOneTerm(t.support, vecs[:, i])
        for i in range(len(vals))
        if vals[i] > 0.5
    ]
    total = sum((p.dense() for p in parts), np.zeros_like(matrix))
    if np.max(np.abs(total - matrix)) > config.IDEMPOTENCY_TOL:
        raise ValidationError("rank-1 parts do not reproduce the projector")
    return parts


def schmidt_weights(t: RankOneTerm, pivot: int) -> np.ndarray:
    """Squared singular values of the pivot/rest factorization (sum to 1)."""
    _, sing, _ = _schmidt_factor(t, pivot)
    return sing**2


def _schmidt_factor(t, pivot):
    if not isinstance(t, RankOneTerm):
        raise ArgumentError("only rank-1 terms have a state to factor")
    if t.k < 2:
        raise ArgumentError("a 1-local term has no bipartition to split")
    if pivot not in t.support:
        raise ArgumentError(f"pivot {pivot} not in support {t.support}")
    pos = t.support.index(pivot)
    tensor = t.amplitudes.reshape((2,) * t.k)
    flat = np.moveaxis(tensor, pos, 0).reshape(2, -1)
    return pos, *np.linalg.svd(flat, full_matrices=False)[1:]


def schmidt_split(t: RankOneTerm, pivot: int, check: bool = True) -> list:
    """Factor |psi> across pivot/rest and project onto the rest factors.

    Returns Lambda_i = |beta_i><beta_i| on support minus pivot, one per
    nonzero Schmidt weight (so one or two terms).  Their sum, extended by
    identity on the pivot, dominates the original projector; with ``check``
    set this is verified numerically.
    """
    pos, sing, vh = _schmidt_factor(t, pivot)
    rest_support = t.support[:pos] + t.support[pos + 1:]
    parts = [
        RankOneTerm(rest_support, vh[i])
        for i in range(len(sing))
        if sing[i] ** 2 > config.SCHMIDT_TOL
    ]
    if check:
        rest_positions = tuple(j for j in range(t.k) if j != pos)
        embedded = QsatInstance(
            t.k,
            [RankOneTerm(rest_positions, p.amplitudes) for p in parts],
        )
        if not operator_dominates(embedded, t.dense()):
            raise ValidationError("split terms do not dominate the original projector")
    return parts


def pad_with_dummies(t: RankOneTerm, target_k: int, fresh) -> RankOneTerm:
    """Raise a term's locality by tensoring |0> on fresh qubits.

    A ``target_k`` above ``config.max_qubits()``, the support ceiling every
    instance is validated against, raises ArgumentError before the 2^k
    amplitudes are allocated."""
    if not isinstance(t, RankOneTerm):
        raise ArgumentError("padding requires a rank-1 term")
    limit = config.max_qubits()
    if target_k > limit:
        raise ArgumentError(
            f"target locality {target_k} exceeds the support limit of {limit} qubits"
        )
    fresh = tuple(int(f) for f in fresh)
    if len(fresh) != target_k - t.k:
        raise ArgumentError(
            f"need {target_k - t.k} fresh qubits to reach locality {target_k}, got {len(fresh)}"
        )
    if len(set(fresh)) != len(fresh) or set(fresh) & set(t.support):
        raise ArgumentError("fresh qubits must be distinct and disjoint from the support")
    if not fresh:
        return t
    pad = len(fresh)
    amps = np.zeros(1 << target_k, dtype=np.complex128)
    amps[np.arange(1 << t.k) << pad] = t.amplitudes
    return RankOneTerm(t.support + fresh, amps)


def _without(instance, index):
    terms = instance.terms[:index] + instance.terms[index + 1:]
    return QsatInstance(instance.num_qubits, terms, instance.promise_gap)


def extract_minimal_core(u: QsatInstance) -> MinimalCore:
    """Greedy deletion passes until every remaining term is load-bearing.

    Terms are dropped in input order whenever their removal leaves the
    instance unsatisfiable; passes repeat until one removes nothing.  The
    certificate keeps the ground energies those verdicts computed: the
    core's from the verdict that accepted it, and each deletion's from the
    final pass, which removed nothing.
    """
    verdict = decide_sat(u)
    if verdict.tag == SATISFIABLE:
        raise PreconditionError("instance is satisfiable; it has no unsatisfiable core")
    if verdict.tag == INDETERMINATE:
        raise IndeterminateError(
            f"cannot certify unsatisfiability at lambda0 = {verdict.lambda0!r}"
        )
    current, core_lambda0 = u, verdict.lambda0
    changed = True
    while changed:
        changed = False
        deletions = []
        i = 0
        while i < current.num_terms:
            candidate = _without(current, i)
            v = decide_sat(candidate)
            if v.tag == UNSATISFIABLE:
                current, core_lambda0 = candidate, v.lambda0
                changed = True
            elif v.tag == SATISFIABLE:
                deletions.append(v.lambda0)
                i += 1
            else:
                raise IndeterminateError(
                    f"deletion test landed in the indeterminate band at lambda0 = {v.lambda0!r}"
                )
    return MinimalCore(current, CoreCertificate(core_lambda0, tuple(deletions)))


def build_enforcing_gadget(
    r: MinimalCore,
    lambda_index: int | None = None,
    pivot: int | None = None,
    dummy: int | None = None,
) -> EnforcingGadget:
    """Replace one term of the core by its Schmidt parts tensored with
    |1><1| on a fresh dummy qubit.

    The result S is satisfiable exactly on states with the dummy at |0>;
    with the dummy at |1> every state pays at least c_k, the core's ground
    energy.  Both facts, the dummy's degree, and the degree increase are
    verified numerically on construction.
    """
    core = r.core
    if lambda_index is None:
        lambda_index = next(
            (
                i
                for i, t in enumerate(core.terms)
                if t.k >= 2 and isinstance(t, RankOneTerm)
            ),
            None,
        )
        if lambda_index is None:
            raise ArgumentError("core has no multi-qubit rank-1 term to split")
    if not 0 <= lambda_index < core.num_terms:
        raise ArgumentError(f"term index {lambda_index} out of range")
    chosen = core.terms[lambda_index]
    if not isinstance(chosen, RankOneTerm):
        raise ArgumentError("the split term must be rank-1")
    if pivot is None:
        pivot = chosen.support[0]
    if dummy is None:
        dummy = core.num_qubits
    elif dummy < core.num_qubits:
        raise ArgumentError(f"dummy {dummy} collides with the core's qubits")
    parts = schmidt_split(chosen, pivot)
    terms = [t for i, t in enumerate(core.terms) if i != lambda_index]
    for part in parts:
        amps = np.zeros(1 << (part.k + 1), dtype=np.complex128)
        amps[(np.arange(1 << part.k) << 1) | 1] = part.amplitudes
        terms.append(RankOneTerm(part.support + (dummy,), amps))
    gadget_instance = QsatInstance(dummy + 1, terms, core.promise_gap)
    penalty = r.certificate.core_lambda0
    problems = []
    if penalty <= config.UNSAT_FLOOR:
        problems.append(f"penalty constant {penalty!r} is below the unsatisfiability floor")
    zero_energy = restricted_ground_energy(gadget_instance, {dummy: 0})
    if zero_energy > config.GADGET_SAT_TOL:
        problems.append(f"dummy-at-|0> sector has energy {zero_energy!r}, expected 0")
    one_energy = restricted_ground_energy(gadget_instance, {dummy: 1})
    if one_energy < penalty - config.GADGET_PENALTY_TOL:
        problems.append(
            f"dummy-at-|1> sector has energy {one_energy!r}, below the floor {penalty!r}"
        )
    profile = degree_profile(gadget_instance)
    if profile.per_qubit[dummy] != len(parts):
        problems.append(
            f"dummy participates in {profile.per_qubit[dummy]} terms, expected {len(parts)}"
        )
    if profile.max_degree > degree_profile(core).max_degree + 1:
        problems.append("gadget raises the maximum degree by more than one")
    if problems:
        raise ValidationError("; ".join(problems))
    return EnforcingGadget(
        gadget_instance,
        dummy,
        tuple(range(core.num_qubits)),
        penalty,
        GadgetSource(r, lambda_index, pivot),
    )


def _relabel_term(term, mapping):
    new_support = tuple(mapping[q] for q in term.support)
    if isinstance(term, RankOneTerm):
        return RankOneTerm(new_support, term.amplitudes)
    return GeneralTerm(new_support, term.matrix)


def build_reduction(q: QsatInstance, target_k: int, r: MinimalCore) -> ReductionOutput:
    """Pad every term of ``q`` to ``target_k`` and pin each fresh dummy with
    its own relabeled copy of the enforcing gadget built from ``r``.

    Ground energies agree below c_k and the output never dips below c_k
    otherwise; the adjusted promise gap is min(gap, c_k).  Construction has
    no size ceiling, but it raises CapacityError before building its
    per-qubit role list when that list would exceed physical memory.
    """
    if target_k < 1:
        raise ArgumentError("target locality must be positive")
    if any(not isinstance(t, RankOneTerm) for t in q.terms):
        raise ArgumentError("reduction requires rank-1 terms; decompose first")
    k = locality(q)
    if k > target_k:
        raise ArgumentError(f"instance is {k}-local; cannot reduce to locality {target_k}")
    gadget = build_enforcing_gadget(r)
    penalty = gadget.penalty_constant
    n = q.num_qubits
    # 16 bytes a qubit: an 8-byte slot in the list and in its tuple copy.
    config.require_memory(16 * n, f"a reduction's role list on {n} qubits")
    roles = [ROLE_WORK] * n
    next_free = n
    terms_out = []
    for term in q.terms:
        pad = target_k - term.k
        dummies = tuple(range(next_free, next_free + pad))
        next_free += pad
        roles.extend([ROLE_DUMMY] * pad)
        terms_out.append(pad_with_dummies(term, target_k, dummies))
        for dummy in dummies:
            block = range(next_free, next_free + len(gadget.ancilla_qubits))
            mapping = dict(zip(gadget.ancilla_qubits, block))
            mapping[gadget.dummy_qubit] = dummy
            next_free += len(gadget.ancilla_qubits)
            roles.extend([ROLE_ANCILLA] * len(gadget.ancilla_qubits))
            terms_out.extend(
                _relabel_term(t, mapping) for t in gadget.gadget_instance.terms
            )
    adjusted_gap = min(q.promise_gap, penalty)
    t_instance = QsatInstance(next_free, terms_out, adjusted_gap)
    profile = degree_profile(t_instance).per_qubit
    summaries = tuple(
        RoleSummary(
            role,
            roles.count(role),
            max((profile[i] for i in range(len(roles)) if roles[i] == role), default=0),
        )
        for role in (ROLE_WORK, ROLE_DUMMY, ROLE_ANCILLA)
        if role in roles
    )
    return ReductionOutput(
        t_instance,
        tuple(roles),
        adjusted_gap,
        ReductionAccounting(target_k, summaries),
        penalty,
        gadget,
    )


def _z_commutes(term, qubits) -> bool:
    """Whether the term commutes with the Pauli Z of each of the given qubits
    of its support.

    A rank-1 term does when its state's amplitude mass on one value of the
    qubit is within ``config.Z_COMMUTATION_TOL``.  The squared real and
    imaginary parts are taken once; the support is then walked in order,
    each qubit's two slice masses read off the two halves of the weights
    before the halves are added, which sums that qubit out for the next.
    A general term does when its matrix has no entry above that tolerance
    between the qubit's two values."""
    tol = config.Z_COMMUTATION_TOL
    if isinstance(term, RankOneTerm):
        weight = np.square(term.amplitudes.view(np.float64))
        for qubit in term.support:
            zero, one = weight.reshape(2, -1)
            if qubit in qubits and np.sqrt(min(zero.sum(), one.sum())) > tol:
                return False
            weight = zero + one
        return True
    matrix = np.asarray(term.matrix)
    for qubit in qubits:
        pos = term.support.index(qubit)
        # Rows with the qubit at 0 against columns with it at 1.
        grid = matrix.reshape((1 << pos, 2, 1 << (term.k - 1 - pos)) * 2)
        if np.max(np.abs(grid[:, 0, :, :, 1, :]), initial=0.0) > tol:
            return False
    return True


def _sector_bounds(t, dummies):
    """Bounds (a, floor) with floor <= lambda0(T) <= a, for an output whose
    terms all commute with Z on every dummy, so that T is block diagonal
    over the dummies' Z-sectors and lambda0(T) is the least sector energy.

    a is the energy of the sector with every dummy at |0>.  A sector with
    dummy d at |1> is at least b_d, the energy of a sub-sum of T pinned at
    d = 1 (a sum of PSD terms is at least any sub-sum: Anderson, Phys. Rev.
    83, 1260 (1951)): the terms on d whose pinned action is not zero, and
    every term on no dummy that is connected to them.  In a built output
    that is d's gadget copy, whose dummy-at-|1> energy the gadget's own
    checks put at c_k or more; the terms on d alone can bound 0, as the
    one Schmidt part of a product split term does.  So floor = min(a,
    min_d b_d) takes 1 + d pinned solves, each split into connected
    components (``spectral._pinned_energy``), for any number of sectors;
    the gadget copies' equal components share one dense solve.
    """
    n, supports, actions = t.num_qubits, t.supports(), _actions(t.terms)
    solved = {}
    upper = _pinned_energy(
        n, supports, actions, dict.fromkeys(dummies, 0),
        "energy verification: the output's sector with every dummy at |0>", solved,
    )
    on_dummy = {d: [] for d in sorted(dummies)}
    no_dummy = []
    for j, support in enumerate(supports):
        touched = [q for q in support if q in on_dummy]
        for d in touched:
            on_dummy[d].append(j)
        if not touched:
            no_dummy.append(j)
    components = [
        [no_dummy[i] for i in group] for group in _components([supports[j] for j in no_dummy])
    ]
    component_of = {q: c for c, terms in enumerate(components) for j in terms for q in supports[j]}
    floor = upper
    for d, own in on_dummy.items():
        pinned = _pin(n, [supports[j] for j in own], [actions[j] for j in own], {d: 1})[2]
        own = [j for j, action in zip(own, pinned) if action.any()]
        reached = sorted({component_of[q] for j in own for q in supports[j] if q in component_of})
        sub = own + [j for c in reached for j in components[c]]
        floor = min(floor, _pinned_energy(
            n, [supports[j] for j in sub], [actions[j] for j in sub], {d: 1},
            f"energy verification: the output's sub-sum around dummy {d} at |1>", solved,
        ))
    return upper, floor


def verify_reduction(q: QsatInstance, out: ReductionOutput) -> VerificationReport:
    """Numerically confirm the reduction's claims on a finished output.

    Checks: every term leaves each dummy in a Z eigenstate; the output's
    ground energy matches the input's below the penalty and stays above it
    otherwise; the maximum degree respects the accounting bound.

    The input's energy comes from ``decide_sat``: a satisfiable instance is
    decided by a null-space witness with no eigensolver (``"nullspace"``),
    whose energy is within ``sat_tolerance`` of 0; any other gets the
    ground energy of the ``auto`` route, ``"dense"`` or ``"krylov"``.

    When the commutation check holds, the output's energy comes from its
    dummies' Z-sectors (``"sectors"``, see ``_sector_bounds``): the energy
    a of the sector with every dummy at |0> is ``reduced_energy`` and a
    lower bound on every other sector is ``reduced_floor``, so
    reduced_floor <= lambda0(T) <= reduced_energy.  Only each connected
    component of a pinned solve must fit in memory as a dense operator,
    not the output: figure-b's output at k = 15 has 211 qubits and
    components of at most 3.  Below the penalty the energy check needs a
    within ``REDUCTION_ENERGY_TOL`` of the input's energy and the floor no
    lower; above it, the floor at the penalty.  An output that fails the
    commutation check has no sectors: its energy comes from ``decide_sat``
    as the input's does, with ``reduced_floor == reduced_energy``.
    """
    t = out.t_instance
    dummies = {i for i, role in enumerate(out.role_map) if role == ROLE_DUMMY}
    commutation_ok = all(
        _z_commutes(term, qubits)
        for term in t.terms
        if (qubits := set(term.support) & dummies)
    )
    delta_t = degree_profile(t).max_degree
    delta_q = degree_profile(q).max_degree
    delta_r = degree_profile(out.gadget.source.core.core).max_degree
    degree_bound = max(delta_q, delta_r + 1, 3)
    degree_ok = delta_t <= degree_bound
    base_verdict = decide_sat(q)
    base = base_verdict.lambda0
    if commutation_ok:
        reduced, floor = _sector_bounds(t, dummies)
        reduced_method = "sectors"
    else:
        reduced_verdict = decide_sat(t)
        reduced = floor = reduced_verdict.lambda0
        reduced_method = reduced_verdict.method
    penalty = out.penalty_constant
    tol = config.REDUCTION_ENERGY_TOL
    if base <= penalty:
        energy_ok = abs(reduced - base) <= tol and floor >= base - tol
    else:
        energy_ok = floor >= penalty - tol
    return VerificationReport(
        commutation_ok,
        energy_ok,
        degree_ok,
        base,
        reduced,
        floor,
        penalty,
        delta_t,
        degree_bound,
        base_verdict.method,
        reduced_method,
    )
