"""Ground energies, null-space intersection, and satisfiability verdicts.

Two independent solver routes back every claim in the library:

* a dense route — the full 2^n x 2^n operator is materialized by index
  arithmetic and passed to a Hermitian eigensolver (lowest eigenpair only);
* a matrix-free Krylov route — the plain Lanczos recurrence on Q itself,
  which needs three vectors and no basis, and whose lowest Ritz pair is
  the ground state; the latest vectors, up to ``config.KRYLOV_KEEP_BYTES``,
  are kept to sum the Ritz vector, and a second pass replays any older
  steps.

A third mechanism, singular-value-based null-space intersection, needs no
eigensolve.  It keeps its basis on the qubits the terms seen so far touch,
with the identity on the rest left implicit, so its cost follows the
touched register and the basis width rather than 2^n: 0.5-6.3 ms at
n = 8-10 on qsatbench-style planted, frustrated and Haar instances (one
OpenBLAS thread), where a 2^n-row basis took 0.6-0.7 s at n = 10.  It
decides too: ``decide_sat(method="auto")`` first embeds one basis vector
into the register as a witness and accepts it as a satisfiable verdict when
its energy, summed term by term over the fibers, is within tolerance, so a
satisfiable instance needs no eigensolver (an n = 15 planted verdict took
about 40 ms against seconds of Lanczos).  Otherwise it cross-checks the
spectral verdict.

Every ground energy is a sum over connected components: projectors on
disjoint qubits act on separate tensor factors, so lambda0 is the sum of
the components' ground energies and a ground state is the product of
theirs, with every idle qubit at |0>.  ``_component_pairs`` is the one
ground-state path.  It splits a stack's terms (``_components``), solves each
component on its own qubits through ``_ground_pairs``, once for equal
components, and sums the pairs; a component on the whole register passes
straight through, so a connected instance gets the pairs of an unsplit
solve, bit for bit.  ``ground_energy`` takes its pair from it, ``_decide``,
the one verdict pipeline, tags the pairs it yields, and the gadget
reduction's verification sums ``_pin``'s restrictions with it
(``_pinned_energy``).  ``restricted_ground_energy`` alone solves a pinned
register whole.

``method="auto"`` takes the dense route when the widest component has at
most ``config.DENSE_CUTOFF`` = 7 qubits and Krylov otherwise: in
``BENCH_routes.json`` (written by ``benchmarks/bench_routes.py``, binned by
the widest component) Krylov took a median 1.43x the dense time at a
widest component of 7 qubits and 0.49x at 8.  No solve accepts a register
above ``config.max_qubits()`` qubits.  Memory has one rule: each route
compares its own byte estimate with physical memory
(``config.require_memory``) before it allocates, per component when a
stack is split: ``_dense_bytes`` in ``_assemble_stack``, which every dense
operator passes through, and ``_krylov_bytes`` in ``_krylov_ground_pair``.

The stages work on a stack of instances that share one structure, with a
leading instance axis; ``ground_energy`` and ``decide_sat`` are stacks of
one, and ``sample_ensemble`` decides its trials in stacks.  Every numeric
layer reads a stack as ``(num_qubits, supports, actions)``, with the terms'
own actions A (``QsatInstance.actions``; A^H A is the projector).  Every
dense lowest eigenpair, including the dominance checks, comes from
``_dense_ground_pair``, one call per stack of operators; a single solve is
a stack of one.

The dense and Krylov routes call LAPACK and BLAS directly, through handles
from ``scipy.linalg`` that ``_lapack`` loads on the first dense or Krylov
solve, or the first dense byte estimate.  Everything else runs on numpy
alone: the null-space basis, its witness and the verdicts it decides, so
importing the package, a satisfiable ``decide_sat`` decided by its witness
and the commands that solve nothing load no scipy module.
"""

import bisect
import functools
import itertools
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import config, kernels
from .errors import (
    ArgumentError,
    CapacityError,
    ConvergenceError,
    DimensionMismatchError,
)
from .instance import GeneralTerm, QsatInstance, RankOneTerm

SATISFIABLE = "satisfiable"
UNSATISFIABLE = "unsatisfiable"
INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class SpectralResult:
    """Ground energy, its per-term normalization, and solve diagnostics."""

    lambda0: float
    e0: float
    ground_vector: np.ndarray
    method: str  # "dense" or "krylov"
    residual: float


@dataclass(frozen=True)
class SatVerdict:
    tag: str  # SATISFIABLE | UNSATISFIABLE | INDETERMINATE
    lambda0: float
    nullspace_dim: int | None = None
    # The route that decided: "nullspace" (a witness state whose energy was
    # checked), or the ground-energy route that ran, "dense" or "krylov".
    method: str | None = None


def sat_tolerance(num_terms: int) -> float:
    """Energy below which an instance counts as satisfiable."""
    return config.SAT_TOL_UNIT * max(1, num_terms)


def assemble_dense(instance: QsatInstance) -> np.ndarray:
    """The full 2^n x 2^n operator, built by embedding each term's matrix."""
    return _assemble_stack(instance.num_qubits, instance.supports(), _actions(instance.terms))[0]


def _assemble_stack(num_qubits, supports, actions):
    """The operators of a stack of instances on one structure, shape
    (T, 2^n, 2^n), from the terms' actions A (see ``_actions``) as A^H A,
    summed row by row: a row a adds conj(a) a^T, which for a rank-1 term's
    row <v| is ``np.outer``'s |v><v| entry for entry (``@`` and
    ``np.einsum`` change its last bits).  No terms give a stack of one zero
    operator.

    ``kernels.fiber_layout`` lists the register indices of every fiber of a
    term; one fancy-indexed addition per row scatters it onto all fibers of
    all instances at once.  The addition gathers a copy of the entries it
    adds to, so rows go in pieces whose products and copy take no more than
    the stack: a term on the whole register in two halves, any other whole.
    A stack whose ``_dense_bytes`` exceed physical memory raises
    CapacityError before anything is allocated.
    """
    dim = 1 << num_qubits
    count = len(actions[0]) if actions else 1
    config.require_memory(_dense_bytes(count, dim), f"the dense route on {num_qubits} qubits")
    q = np.zeros((count, dim, dim), dtype=np.complex128)
    for support, action in zip(supports, actions):
        bases, offsets = kernels.fiber_layout(num_qubits, support)
        idx = bases[:, None] + offsets
        width = len(offsets)
        step = max(1, dim * dim // (width + dim))
        for a in action.swapaxes(0, 1):
            for i in range(0, width, step):
                gram = a[:, i:i + step, None].conj() * a[:, None, :]
                q[:, idx[:, i:i + step, None], idx[:, None, :]] += gram[:, None]
    return q


def _dense_bytes(count, size):
    """Bytes a dense solve of a stack of ``count`` size x size operators
    holds at once, from ``_assemble_stack`` to its last pair: the stack
    twice (with assembly's pieces, or with a finiteness mask and then
    ``heevr``'s working copy of one operator), a vector per operator and
    four more (heevr's outputs, a residual), numpy's two fancy-indexing
    buffers of 8,192 complex entries (its default ``np.getbufsize()``), and
    heevr's workspace.  Past 2^20 rows the stack alone is 32 TiB, and the
    workspace query, whose 32-bit sizes overflow from 2^26, is left out."""
    need = 16 * count * size * (2 * size + 1) + 64 * size + (1 << 18)
    if size <= 1 << 20:
        lwork, lrwork, liwork = _heevr_arguments(size)[-3:]
        need += 16 * lwork + 8 * lrwork + 4 * liwork
    return need


def _start_vector(dim: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=config.KRYLOV_SEED))
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


@functools.cache
def _lapack():
    """The ten LAPACK and BLAS routines of the dense and Krylov solves, from
    ``scipy.linalg``, which is imported on the first call: ``heevr`` and
    its workspace query ``heevr_lwork`` (complex); ``stebz`` and ``stein``
    for the exact Ritz check and ``gtsv`` and ``pttrf`` for its filter
    (real); and the complex BLAS ``zdotc``, ``zaxpy``, ``dznrm2`` and
    ``zdscal``.  ``import qsatkit, qsatkit.cli`` took a median 279 ms in a
    fresh process when it imported scipy.linalg, and 112 ms without
    (``BENCH_startup.json``, written by ``benchmarks/bench_startup.py``), so
    a process that decides by the null-space witness alone, or solves
    nothing, does not pay it.  Each function that calls the routines binds
    the ones it needs once per call, not once per Lanczos step."""
    import scipy.linalg

    heevr, heevr_lwork = scipy.linalg.get_lapack_funcs(
        ("heevr", "heevr_lwork"), dtype=np.complex128
    )
    stebz, stein, gtsv, pttrf = scipy.linalg.get_lapack_funcs(
        ("stebz", "stein", "gtsv", "pttrf"), dtype=np.float64
    )
    blas = scipy.linalg.blas
    return SimpleNamespace(
        heevr=heevr, heevr_lwork=heevr_lwork, stebz=stebz, stein=stein,
        gtsv=gtsv, pttrf=pttrf,
        zdotc=blas.zdotc, zaxpy=blas.zaxpy, dznrm2=blas.dznrm2, zdscal=blas.zdscal,
    )


@functools.cache
def _heevr_arguments(size):
    """The arguments after the matrix of a ``heevr`` call for the lowest
    pair of a size x size operator, in the wrapper's order (compute_v,
    range, lower, vl, vu, il, iu, abstol, lwork, lrwork, liwork): the
    workspace is the one LAPACK asks for, as ``scipy.linalg.eigh`` queries
    it, so the pair is the same bit for bit.  Passed by position, they save
    the wrapper 1.2 of 11 us of an 8 x 8 call."""
    lwork, lrwork, liwork, info = _lapack().heevr_lwork(size, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK zheevr_lwork failed with info={info}")
    return 1, "I", 1, 0.0, 1.0, 1, 1, 0.0, int(lwork.real), int(lrwork), int(liwork)


def _dense_ground_pair(stack):
    """The lowest eigenpair of each dense Hermitian operator of a stack
    (T, s, s), and its residual: ``(lambdas, vectors, residuals)`` of shapes
    (T,), (T, s) and (T,).

    LAPACK's ``heevr`` computes that one pair only, called directly once per
    operator.  The stack shares one finiteness check and one workspace
    query, and each residual ||Q v - lambda v|| is taken in place with BLAS:
    a stack of 500 8 x 8 operators took 7.6-7.9 ms, against 11.4-11.7 ms
    when each operator paid its own set-up, and a single 8 x 8 solve 17.8
    against 20.0 us (two paired runs on a 2-core host, one OpenBLAS
    thread).  It keeps the checks of the ``scipy.linalg.eigh`` wrapper: a
    non-finite operator anywhere in the stack raises ValueError before any
    solve, and a failed LAPACK call LinAlgError.

    A stacked ``np.linalg.eigh`` computes every pair of every operator.  In
    ``BENCH_dense.json`` (``benchmarks/bench_dense.py``) it took 0.11-0.91x
    the per-operator time up to 8 x 8, but 1.7-2.7x from 16 x 16 up, and
    its pairs are not ``heevr``'s bit for bit; so every size keeps the one
    ``heevr`` path.
    """
    if not np.isfinite(stack).all():
        raise ValueError("array must not contain infs or NaNs")
    count, size = len(stack), stack.shape[-1]
    arguments = _heevr_arguments(size)
    lapack = _lapack()
    heevr, zaxpy, dznrm2 = lapack.heevr, lapack.zaxpy, lapack.dznrm2
    lambdas, residuals = np.empty(count), np.empty(count)
    vectors = np.empty((count, size), dtype=np.complex128)
    for t, qmat in enumerate(stack):
        vals, vecs, _, _, info = heevr(qmat, *arguments)
        if info != 0:
            raise np.linalg.LinAlgError(f"LAPACK zheevr failed with info={info}")
        vec = vecs[:, 0]
        image = zaxpy(vec, qmat @ vec, a=-vals[0])
        lambdas[t], vectors[t], residuals[t] = vals[0], vec, dznrm2(image)
    return lambdas, vectors, residuals


# Lanczos steps between two checks of the lowest Ritz pair.  The exact
# check solves the tridiagonal for that one pair with LAPACK's stebz and
# stein (``_lowest_tridiagonal_pair``): 11 us at 20 steps, 270 us at 500
# and 545 us at 1,000, against 49 us for a whole step at n = 10 (one
# OpenBLAS thread).  It is O(steps), so exact checks alone would cost the
# square of the steps: 48-50 of them took 13.4 ms of a 61.6 ms
# near-frustration-free n = 10 solve of qsatbench's large_krylov (medians
# of 40 solves, 22%).  So a checkpoint from ``_FILTER_FROM`` steps of its
# pass on runs the warm-started estimate of ``_ritz_estimate`` first, 56 us
# at 100 steps and 60-77 us at 200-900, and the exact check only where the
# estimate cannot show that the pass goes on.  Those solves then make 5-6
# exact and 45-47 filtered checks, 4.1-4.9 ms of a 50-53 ms solve (9%).
# With exact checks alone, an interval of max(20, steps // 8) made 24 checks
# but ran 1,038 steps a pass: 0.91-1.10x the time on the five frames, so
# the interval stays fixed.  A check every step would cost more than the
# steps, and a rarer one runs further past convergence.
_RITZ_CHECK = 20

# A filtered checkpoint skips the exact check when the estimate's beta
# |y_last| is above this many times the tolerance, with the estimate proven
# within (margin - 1) tol / beta of the exact |y_last|, so the exact check
# would have found beta |y_last| > tol.  A margin near 1 needs a wider
# proven gap above the lowest Ritz value, and a large one leaves more of
# the checkpoints just before convergence to the exact check: over the five
# near-frustration-free solves and Haar k = 3, m = n solves at n = 8-12
# (430 filtered checkpoints), margins of 1.25, 1.5, 2, 3 and 4 made 103,
# 61, 34, 37 and 43 exact checks, of which the estimate declined 84, 38,
# 3, 1 and 1.
# Checkpoints before ``_FILTER_FROM`` steps of a pass run the exact check
# alone.  Timed call by call at every checkpoint of the Krylov benchmark's
# population (five near-frustration-free n = 10 solves, Haar k = 2 and 3 at
# n = 8-14, rank-2 general terms; three rounds, one OpenBLAS thread), the
# median estimate against the median exact check at the same step took
# 85 against 31 us at 40 steps (where 35% of the estimates declined and
# the exact check ran too), 53 against 39 us at 60, 58 against 50 us at 80,
# 56 against 62 us at 100 and 60 against 137 us at 200.  The two are within
# 8 us at 80 and 100 steps; starting at 100 would save those 8 us a pass
# and cost the degenerate key-71 instance of the tests a seventh exact
# check, so the filter starts at 80.
_SKIP_MARGIN = 2.0
_FILTER_FROM = 80


def _kept_vectors(num_qubits):
    """Lanczos vectors the first pass of ``_krylov_ground_pair`` keeps:
    as many as ``config.KRYLOV_KEEP_BYTES`` holds, and no more than the
    10 * 2^n steps it may take."""
    return min(config.KRYLOV_KEEP_BYTES // (16 << num_qubits), 10 << num_qubits)


def _krylov_bytes(instance):
    """Bytes the Lanczos iteration of ``_krylov_ground_pair`` holds at once:
    the kept vectors (``_kept_vectors``), six more vectors of the register,
    and the applier's sparse factor with a matvec's temporaries
    (``kernels._applier_bytes``).  Those include a matvec's result, which
    the iteration never allocates: every matvec writes into a vector it
    holds.  The recurrence rotates three vectors and each pass's residual
    takes a fourth; a restarted pass holds its start vector besides, and
    the replay of a pass's older steps runs with the Ritz vector being
    summed in place: at most six.  Drawing the start vector of a first pass
    or of its replay takes two and a half vectors for a moment, before the
    recurrence allocates its other two.
    The tridiagonal's entries, two floats a step, are not counted, nor are
    the Ritz checks' O(steps) floats: the exact check's pair, and the
    filter's warm start, its iterates and its factorization."""
    n = instance.num_qubits
    return (16 * (_kept_vectors(n) + 6) << n) + kernels._applier_bytes(instance)


def _lanczos(applier, dim, alphas=None, betas=None, start=None):
    """The Lanczos recurrence on Q from ``start``, a unit vector left as it
    is, or else from ``_start_vector``: yields each
    vector v_j with the tridiagonal's diagonal entry alpha_j and the
    coupling beta_j to v_{j+1}.  A caller stops at a zero beta, which the
    next step would divide by.

    Given the ``alphas`` and ``betas`` of an earlier call, or their first
    entries, it replays that call's first steps, computing no dot product
    and no norm, and yields the same vectors bit for bit: the matvec and the
    in-place BLAS updates take the same inputs in the same order.
    ``_krylov_ground_pair`` replays the steps older than the vectors it
    keeps.  BLAS works on the matvec's result in place: ``np.vdot``,
    ``np.linalg.norm`` and numpy's in-place operators took 1.0, 3.1 and
    2.5-4.5 us on 2^10 amplitudes, against 0.5-0.9 us for ``zdotc``,
    ``dznrm2``, ``zaxpy`` and ``zdscal`` (one OpenBLAS thread).

    Three vectors of the register rotate: each step's matvec writes
    ``applier(v_j, out)`` into the one that held v_{j-2}, so a step
    allocates nothing but the matvec's B x.  A first pass draws its start
    vector into the first of them; a caller's ``start`` is only read.  A
    yielded vector is valid until the next step: a caller that keeps it
    copies it.
    """
    lapack = _lapack()
    zdotc, zaxpy, dznrm2, zdscal = lapack.zdotc, lapack.zaxpy, lapack.dznrm2, lapack.zdscal
    replay = alphas is not None
    prev, vec = None, _start_vector(dim) if start is None else start
    ring = [vec if start is None else np.empty(dim, dtype=np.complex128)]
    ring += [np.empty(dim, dtype=np.complex128) for _ in range(2)]
    for j in range(len(alphas)) if replay else itertools.count():
        w = applier(vec, ring[(j + 1) % 3])
        alpha = alphas[j] if replay else zdotc(vec, w).real
        zaxpy(vec, w, a=-alpha)
        if prev is not None:
            zaxpy(prev, w, a=-beta)
        beta = betas[j] if replay else dznrm2(w)
        yield vec, alpha, beta
        zdscal(1.0 / beta, w, overwrite_x=1)
        prev, vec = vec, w


def _krylov_ground_pair(instance):
    """The lowest eigenpair of an instance's operator Q, and its residual, by
    the plain Lanczos recurrence on Q.

    No basis is kept and the vectors are not reorthogonalized: lost
    orthogonality adds copies of converged Ritz values but leaves the lowest
    one correct (Paige, J. Inst. Math. Appl. 18, 1976; Cullum and
    Willoughby, 1985).  A pass (``_ritz_pass``) stops when the lowest Ritz
    pair's estimated residual is at most KRYLOV_TOL * m, as the exact Ritz
    check finds it: a cheaper filter settles most checkpoints, but only
    where the exact check would let the pass go on, so every pass stops at
    the step, and with the pair, of one without the filter.  The estimate
    assumes orthonormal vectors; once a degenerate lowest level has several
    copies in the tridiagonal, the Ritz vector can cancel to a small fraction
    of unit norm before it is normalized, and its true residual exceed the
    estimate a hundredfold.  A pair whose true residual exceeds
    ``config.RESIDUAL_TOL`` therefore restarts the recurrence from its Ritz
    vector, until a pair meets that bound or the 10 * 2^n steps, counted
    over all passes, run out; the pair of the last pass is returned.  A pass
    that does not converge within them raises ConvergenceError with its
    lowest Ritz pair.  Before anything is allocated, an iteration that would
    need more bytes than the machine's physical memory raises CapacityError.
    """
    n = instance.num_qubits
    dim = 1 << n
    config.require_memory(_krylov_bytes(instance), f"the Lanczos iteration on {n} qubits")
    applier = kernels.InstanceApplier(instance)
    lapack = _lapack()
    zaxpy, dznrm2 = lapack.zaxpy, lapack.dznrm2
    tol = config.KRYLOV_TOL * instance.num_terms
    # One array rather than a deque of the step vectors: its pages are
    # touched only as rows are written, and it leaves no small blocks behind.
    kept = np.empty((_kept_vectors(n), dim), dtype=np.complex128)
    image = np.empty(dim, dtype=np.complex128)  # each pass's Q v - lam v
    start, budget = None, 10 * dim
    while True:
        lam, vec, steps, converged = _ritz_pass(applier, dim, kept, tol, budget, start)
        budget -= steps
        if not converged:
            raise ConvergenceError(
                f"Lanczos iteration did not converge in {10 * dim - budget} steps",
                best_lambda0=lam,
                best_vector=vec,
            )
        image = applier(vec, image)
        zaxpy(vec, image, a=-lam)
        residual = dznrm2(image)
        if residual <= config.RESIDUAL_TOL or not budget:
            return lam, vec, residual
        start = vec


def _lowest_tridiagonal_pair(alphas, betas):
    """The lowest eigenpair (theta, y) of the real symmetric tridiagonal with
    diagonal ``alphas`` and off-diagonal ``betas`` (one entry fewer), both
    float64 arrays: ``scipy.linalg.eigh_tridiagonal(alphas, betas,
    select="i", select_range=(0, 0))`` bit for bit, from the same LAPACK
    calls (``stebz`` by bisection, then ``stein`` by inverse iteration)
    without the wrapper's conversions and argument checks.  It keeps the
    wrapper's checks on the data: a non-finite entry raises ValueError and a
    failed LAPACK call LinAlgError.
    """
    if not (np.isfinite(alphas).all() and np.isfinite(betas).all()):
        raise ValueError("array must not contain infs or NaNs")
    if len(alphas) == 1:
        return float(alphas[0]), np.ones(1)
    lapack = _lapack()
    stebz, stein = lapack.stebz, lapack.stein
    found, theta, block, split, info = stebz(alphas, betas, 2, 0.0, 1.0, 1, 1, 0.0, "B")
    if info == 0:
        ritz, info = stein(alphas, betas, theta[:found], block, split)
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK stebz/stein failed with info={info}")
    return float(theta[0]), ritz[:, 0]


def _ritz_estimate(alphas, betas, warm, slack):
    """An estimate (theta, y) of the lowest eigenpair of the tridiagonal T of
    ``_lowest_tridiagonal_pair``, from ``warm``, the pair of a leading block
    of T, whose y has a last entry within ``slack`` of that pair's, in
    absolute value; None when that cannot be proven.

    Rayleigh-quotient steps (solves of (T - theta I) x = y with LAPACK's
    ``gtsv``) from warm's vector, padded with zeros, until the residual the
    solve implies is within roundoff, give y, theta = y^T T y and the
    residual r = ||T y - theta y||, computed anew.  Near convergence one
    step does; a checkpoint early in a pass, whose warm start is further
    off, takes three or four, and one that needs more is declined.  Then
    ``pttrf`` factors T - sigma I = L D L^T, sigma = theta + 2 r / slack,
    going on once past the first pivot that is not positive.  If exactly
    one pivot is negative, T has one eigenvalue below sigma (Sylvester's law
    of inertia): its lowest, lambda_1 <= theta, with eigenvector u, and
    every other one lies at least 2 r / slack above theta.  So y's
    component off u has norm at most slack / 2, and so has that of
    ``stein``'s vector, whose residual is roundoff (Parlett, The Symmetric
    Eigenvalue Problem, 1998, ch. 3, 4 and 11).  A warm start in a cluster of close eigenvalues, or in the wrong
    block of a split T, finds more than one below sigma and is declined.
    The residual and the shift carry 8 units of roundoff in ||T||, by which
    the computed residual and the computed pivots may be off.
    """
    lapack = _lapack()
    gtsv, pttrf = lapack.gtsv, lapack.pttrf
    theta, y = warm
    x = np.zeros(len(alphas))
    x[:len(y)] = y
    noise = 8 * np.finfo(float).eps * (np.abs(alphas).max() + 2 * np.abs(betas).max())
    for _ in range(4):
        # (T - theta I) x' = x gives theta' = x'^T T x' / x'^T x' as
        # theta + x'^T x / x'^T x', and (T - theta' I) x' as x - (theta' - theta) x'.
        y, (_, _, _, x, info) = x, gtsv(betas, alphas - theta, betas, x, overwrite_d=1)
        if info:
            return None
        scale = np.linalg.norm(x)
        step = (x @ y) / scale**2
        theta += step
        if np.linalg.norm(y - step * x) <= noise * scale:
            break
    else:
        return None
    image = alphas * x  # T x
    image[:-1] += betas * x[1:]
    image[1:] += betas * x[:-1]
    residual = np.linalg.norm(image - theta * x) / scale + noise
    if not np.isfinite(residual):
        return None
    pivots, _, info = pttrf(alphas - (theta + 2 * residual / slack + noise), betas, overwrite_d=1)
    if not info or pivots[info - 1] == 0:
        return None
    if info < len(alphas):
        rest = pivots[info:]
        rest[0] -= betas[info - 1] ** 2 / pivots[info - 1]
        if rest[0] <= 0 or len(rest) > 1 and pttrf(rest, betas[info:], overwrite_d=1)[2]:
            return None
    return theta, x / scale


def _ritz_pass(applier, dim, kept, tol, budget, start):
    """One pass of ``_krylov_ground_pair``: the lowest Ritz pair
    ``(theta, vector)`` of a Lanczos recurrence from ``start`` (None: from
    ``_start_vector``), the steps it took and whether it converged.

    Every ``_RITZ_CHECK`` steps the lowest pair (theta, y) of the
    tridiagonal is computed (``_lowest_tridiagonal_pair``, on slices of the
    alpha and beta arrays, which double in length when full), and the pass
    stops when its residual estimate beta |y_last| is at most ``tol``, or
    after ``budget`` steps.  A beta within that bound marks an invariant
    subspace; it is checked at once and meets the same test.  A checkpoint
    from ``_FILTER_FROM`` steps on, with ``tol`` < beta and steps to spare,
    first warm-starts ``_ritz_estimate`` from the previous checkpoint's
    pair: if it proves beta |y_last| above ``_SKIP_MARGIN`` * tol within
    the slack the margin leaves, the exact check could not stop the pass and
    is skipped, and the estimate is the next warm start.  Only the exact check
    stops a pass, so the step, theta and y it stops with are those of a
    pass that checks every checkpoint exactly, bit for bit.  The Ritz
    vector is the sum over the steps, in step order, of y_j v_j, normalized.
    The pass copies each vector into row j % keep of the preallocated ring
    ``kept`` of keep rows, so the latest keep vectors are at hand; a second
    pass replays the recurrence for the older steps only, and is skipped
    when there are none.  The ring holds 2,048 vectors at n = 10 and 8 at
    n = 18.  The sum is the same, bit for bit, at any keep.
    """
    lapack = _lapack()
    zaxpy, dznrm2, zdscal = lapack.zaxpy, lapack.dznrm2, lapack.zdscal
    keep = len(kept)
    alphas, betas = np.empty(_RITZ_CHECK), np.empty(_RITZ_CHECK)
    steps = 0
    for vec, alpha, beta in _lanczos(applier, dim, start=start):
        if keep:
            kept[steps % keep] = vec
        if steps == len(alphas):
            alphas, betas = (np.concatenate((a, np.empty_like(a))) for a in (alphas, betas))
        alphas[steps], betas[steps] = alpha, beta
        steps += 1
        if steps % _RITZ_CHECK and beta > tol and steps < budget:
            continue
        if steps >= _FILTER_FROM and 0 < tol < beta and steps < budget:
            warm = _ritz_estimate(
                alphas[:steps], betas[:steps - 1], warm, (_SKIP_MARGIN - 1) * tol / beta
            )
            if warm is not None and beta * abs(warm[1][-1]) > _SKIP_MARGIN * tol:
                continue
        theta, ritz = warm = _lowest_tridiagonal_pair(alphas[:steps], betas[:steps - 1])
        converged = beta * abs(ritz[-1]) <= tol
        if converged or steps == budget:
            break
    # Rebinding vec drops the pass's last vector before the replay.
    vec = np.zeros(dim, dtype=np.complex128)
    replayed = max(steps - keep, 0)
    if replayed:
        for y, (v, _, _) in zip(
            ritz[:replayed],
            _lanczos(applier, dim, alphas[:replayed], betas[:replayed], start=start),
        ):
            zaxpy(v, vec, a=y)
    for j in range(replayed, steps):
        zaxpy(kept[j % keep], vec, a=ritz[j])
    zdscal(1.0 / dznrm2(vec), vec, overwrite_x=1)
    return theta, vec, steps, converged


def _check_method(n, method):
    """Raise on a ``method`` that cannot run on an ``n``-qubit register: one
    above ``config.max_qubits()``, or an unknown method.  The route "auto"
    takes is chosen by ``_component_pairs``, from the widest connected
    component, and each route refuses by its own bytes."""
    if n > config.max_qubits():
        raise CapacityError(f"instance has {n} qubits; the ceiling is {config.max_qubits()}")
    if method not in ("auto", "dense", "krylov"):
        raise ArgumentError(f"unknown method {method!r}")


def ground_energy(instance: QsatInstance, method: str = "auto") -> SpectralResult:
    """The minimum eigenvalue of the instance operator with its eigenvector.

    ``method``: "auto" picks dense when the widest connected component has
    at most ``config.DENSE_CUTOFF`` qubits and the Krylov iteration
    otherwise; "dense"/"krylov" force a route.  Either refuses, before
    allocating, a component whose solve would exceed physical memory.  The
    pair comes from ``_component_pairs``: an instance with no terms has
    energy 0 on the all-zeros basis state.
    """
    _check_method(instance.num_qubits, method)
    route, ((lam, vec, residual),) = _component_pairs(
        instance.num_qubits, instance.supports(), _actions(instance.terms), method, vectors=True
    )
    return SpectralResult(lam, lam / max(1, instance.num_terms), vec, route, residual)


def _ground_pairs(num_qubits, supports, actions, route):
    """The ground-state solve on the whole register: yields the lowest
    eigenpair ``(lambda0, vector, residual)`` of each instance of a stack on
    one structure, with ``actions`` as in ``_local_nullspace_basis`` (at
    least one term on the Krylov route).  The dense route solves each operator of
    one ``_assemble_stack``; the Krylov route iterates on each instance,
    passed as a view with the four members of a ``QsatInstance`` that
    ``kernels.InstanceApplier`` reads.  A pair whose residual exceeds
    ``config.RESIDUAL_TOL`` raises ConvergenceError, carrying the pair as
    the best iterate.  Under ``_component_pairs``, which calls it once per
    connected component, the error of an instance that is not one component
    on its whole register names the failing component's qubits and carries
    that component's pair, on its own qubits.
    """
    if route == "dense":
        lambdas, vectors, residuals = _dense_ground_pair(
            _assemble_stack(num_qubits, supports, actions)
        )
        pairs = zip(lambdas.tolist(), vectors, residuals.tolist())
    else:
        pairs = (_krylov_ground_pair(SimpleNamespace(
            num_qubits=num_qubits, num_terms=len(supports),
            supports=lambda: supports, actions=lambda t=t: [a[t] for a in actions],
        )) for t in range(len(actions[0])))
    for lam, vec, residual in pairs:
        if residual > config.RESIDUAL_TOL:
            raise ConvergenceError(
                f"ground-state residual {residual:.3e} exceeds {config.RESIDUAL_TOL:.1e}",
                best_lambda0=lam,
                best_vector=vec,
            )
        yield lam, vec, residual


def _components(supports) -> list:
    """The connected components of a set of terms, as lists of term indices
    in input order: two terms are connected when they share a qubit
    (union-find over the qubits).  A term on no qubits is in none."""
    parent = {}

    def root(q):
        while parent[q] != q:
            parent[q] = parent[parent[q]]
            q = parent[q]
        return q

    for support in supports:
        for q in support:
            parent.setdefault(q, q)
        for q in support[1:]:
            parent[root(q)] = root(support[0])
    groups = {}
    for j, support in enumerate(supports):
        if support:
            groups.setdefault(root(support[0]), []).append(j)
    return list(groups.values())


def _component_pairs(num_qubits, supports, actions, method, vectors=False,
                     what="the instance", solved=None):
    """The ground-state stage over connected components: ``(route, pairs)``,
    the route that ran and, for each instance of a stack on one structure
    (``actions`` as in ``_local_nullspace_basis``), its pair ``(lambda0,
    vector, residual)``.

    Projectors on disjoint qubits act on separate tensor factors, so lambda0
    is the sum of the components' (``_components``) lambda0s, a term on no
    qubits (which ``_pin`` leaves) adds ||A||^2, and an idle qubit adds 0.
    Each component is relabelled onto its own qubits, in ascending order, and
    its stack goes through ``_ground_pairs``; the residual is
    sqrt(sum r_c^2).  With ``vectors`` the vector is the product of the
    components' vectors, placed by ``kernels.fiber_layout`` on their qubits in
    component order, with every idle qubit at |0>; otherwise it may be None.
    With no components, lambda0 is that of the terms on no qubits (0 when
    there are none) and the vector is |0...0>.

    "auto" takes the dense route when the widest component has at most
    ``config.DENSE_CUTOFF`` qubits and Krylov otherwise, and every component
    takes that route.  A component whose solve the route refuses by its
    bytes raises CapacityError, with ``what`` naming the operator, before
    that solve allocates.  A component's pair that ``_ground_pairs``
    rejects raises ConvergenceError naming the component's qubits and
    carrying its pair, on those qubits.

    One component with every term on the whole register goes to
    ``_ground_pairs`` as it is, so a connected instance gets the unsplit
    solve's pairs bit for bit.  Otherwise ``solved`` (None: a dict of this
    call) maps a component, as its qubit count, relabelled supports and
    action shapes and bytes, to its pairs; a component found there is not
    solved again, so the equal gadget copies of a reduction's output share
    one solve, also across calls on one route that pass the same dict.
    """
    groups = _components(supports)
    qubits = [sorted({q for j in group for q in supports[j]}) for group in groups]
    widest = max(map(len, qubits), default=0)
    route = method
    if method == "auto":
        route = "dense" if widest <= config.DENSE_CUTOFF else "krylov"

    def solve(width, group_supports, group_actions):
        try:
            return list(_ground_pairs(width, group_supports, group_actions, route))
        except CapacityError as exc:
            raise CapacityError(
                f"{what} has a connected component of {width} qubits: {exc}"
            ) from None

    if groups and widest == num_qubits and len(groups[0]) == len(supports):
        return route, solve(num_qubits, supports, actions)
    count = len(actions[0]) if actions else 1
    solved = {} if solved is None else solved
    parts = []
    for group, group_qubits in zip(groups, qubits):
        local = {q: i for i, q in enumerate(group_qubits)}
        group_supports = [tuple(local[q] for q in supports[j]) for j in group]
        group_actions = [actions[j] for j in group]
        key = (
            len(group_qubits),
            tuple(group_supports),
            tuple((a.shape, a.tobytes()) for a in group_actions),
        )
        if key not in solved:
            try:
                solved[key] = tuple(zip(*solve(len(group_qubits), group_supports, group_actions)))
            except ConvergenceError as exc:
                raise ConvergenceError(
                    f"{what}, connected component on qubits {group_qubits}: {exc}",
                    best_lambda0=exc.best_lambda0,
                    best_vector=exc.best_vector,
                ) from None
        parts.append(solved[key])
    lambdas = np.zeros(count)
    for support, action in zip(supports, actions):
        if not support:
            lambdas += (action.real ** 2 + action.imag ** 2).sum(axis=(1, 2))
    # One (components, instances) array each rather than one numpy update per
    # component: the pinned energy of figure-b's k = 4 output (nine
    # components) took 426-430 us so against 458-467 us (one OpenBLAS thread).
    lambdas += np.array([lams for lams, _, _ in parts]).reshape(-1, count).sum(axis=0)
    squares = np.square([res for _, _, res in parts]).reshape(-1, count).sum(axis=0)
    states = [None] * count
    if vectors:
        product = np.ones((count, 1), dtype=np.complex128)
        for _, vecs, _ in parts:
            product = (product[:, :, None] * np.array(vecs)[:, None, :]).reshape(count, -1)
        states = np.zeros((count, 1 << num_qubits), dtype=np.complex128)
        order = [q for group_qubits in qubits for q in group_qubits]
        states[:, kernels.fiber_layout(num_qubits, order)[1]] = product
    return route, list(zip(lambdas.tolist(), states, np.sqrt(squares).tolist()))


def full_spectrum(instance: QsatInstance) -> np.ndarray:
    """All 2^n eigenvalues, ascending."""
    return np.linalg.eigvalsh(assemble_dense(instance))


def _refuse_above(max_bytes, rows, cols, what):
    """Raise CapacityError, before allocating, when a rows x cols complex
    array would exceed ``max_bytes`` (None: no limit)."""
    if max_bytes is not None and 16 * rows * cols > max_bytes:
        raise CapacityError(
            f"null-space {what} would take {16 * rows * cols} bytes; "
            f"the limit is {max_bytes}"
        )


def _null_directions(stack: np.ndarray, max_bytes=None):
    """Right singular vectors of each matrix of a stack (T, rows, cols) whose
    singular values count as zero, as orthonormal columns.

    Returns ``(directions, agree)``: ``agree`` marks the matrices with as many
    zero singular values as the most common count, and ``directions`` holds
    theirs, shape (agreeing T, cols, width).  A wide matrix needs the full
    SVD to return all of them; for a tall one the reduced SVD already does,
    and the full one would build a square left factor that is never used.
    ``max_bytes`` bounds each matrix's arrays.
    """
    _, rows, cols = stack.shape
    wide = rows < cols
    # LAPACK's working copy of the matrix, plus the square right factor.
    _refuse_above(max_bytes, rows + cols if wide else rows, cols, "SVD")
    _, sing, vh = np.linalg.svd(stack, full_matrices=wide)
    cuts = (sing > config.SINGULAR_VALUE_TOL).sum(axis=1)
    cut = np.bincount(cuts).argmax()
    agree = cuts == cut
    if not agree.all():
        vh = vh[agree]
    return vh[:, cut:].conj().swapaxes(1, 2), agree


def _kron(a: np.ndarray, b: np.ndarray, max_bytes=None) -> np.ndarray:
    """np.kron of matching matrices of two stacks (a stack of one
    broadcasts) without its per-call overhead, which the thousands of
    3-qubit verdicts of an ensemble notice."""
    rows, cols = a.shape[1] * b.shape[1], a.shape[2] * b.shape[2]
    _refuse_above(max_bytes, rows, cols, "basis")
    stack = max(len(a), len(b))
    return np.einsum("...tc,...ab->...tacb", a, b).reshape(stack, rows, cols)


def _actions(terms) -> list:
    """Each term's action A (``RankOneTerm.action``), with A^H A the term's
    projector and so its null space the term's, as a stack of one."""
    return [t.action()[None] for t in terms]


def _local_nullspace_basis(supports, actions, max_bytes=None):
    """The intersection of the terms' null spaces, kept on the touched qubits,
    for a stack of instances on one structure.

    ``actions[j]`` holds term j's operator (see ``_actions``) in every
    instance, with a leading stack axis of length T.  Returns
    ``(L, touched, kept)``: ``kept`` indexes the instances decided here,
    L holds one orthonormal basis per kept instance, shape
    (len(kept), 2^len(touched), width), and ``touched`` lists the qubits the
    terms touch, in the order of L's row bits (first most significant); the
    intersection is span(L (x) I) with the identity on the other qubits.

    L starts as the 1 x 1 identity on no qubits.  The next term is the one
    that adds the fewest qubits to T (the earliest on ties), an order that
    depends on the supports only and so serves the whole stack.  A term on
    new qubits only tensors L with its own null space.  Otherwise L is
    tensored with the identity on the term's new qubits, the term is
    contracted over its support axes, and L keeps the right singular vectors
    with zero singular value.  A rank-1 term |v><v| acts through <v| (x) I,
    which has the singular values of its image since |v> (x) I is an
    isometry; a general term acts through its image.  L times the kept right
    singular vectors is again orthonormal.  An instance whose count of zero
    singular values differs from the stack's most common one leaves the
    stack and is not in ``kept``; a stack of one never loses its instance.
    Every ``_kron`` and SVD checks its per-instance size against
    ``max_bytes`` first; the contraction is never larger than L.
    """
    count = len(actions[0]) if actions else 1
    kept = np.arange(count)
    touched: list[int] = []
    basis = np.ones((count, 1, 1), dtype=np.complex128)
    pending = list(range(len(supports)))
    while pending and basis.shape[2]:
        j = pending.pop(
            min(
                range(len(pending)),
                key=lambda i: sum(q not in touched for q in supports[pending[i]]),
            )
        )
        support = supports[j]
        local = actions[j] if len(kept) == count else actions[j][kept]
        new = [q for q in support if q not in touched]
        touched += new
        if len(new) == len(support):
            null, agree = _null_directions(local, max_bytes)
        else:
            if new:
                # Checked before np.eye, which alone holds 4^|new| entries.
                grow = 1 << len(new)
                _refuse_above(max_bytes, basis.shape[1] * grow, basis.shape[2] * grow, "basis")
                basis = _kron(basis, np.eye(grow)[None])
            stack, width = basis.shape[0], basis.shape[2]
            grid = basis.reshape((stack,) + (2,) * len(touched) + (width,))
            # The support's qubit axes first, in support order; the rest keep theirs.
            axes = [1 + touched.index(q) for q in support]
            rest = [a for a in range(1, len(touched) + 2) if a not in axes]
            fibers = grid.transpose([0] + axes + rest)
            action = local @ fibers.reshape(stack, 1 << len(support), -1)
            null, agree = _null_directions(action.reshape(stack, -1, width), max_bytes)
        if not agree.all():
            basis, kept = basis[agree], kept[agree]
        if len(new) == len(support):
            basis = _kron(basis, null, max_bytes)
        else:
            basis = basis @ null
    return basis, touched, kept


def _witnesses(num_qubits, supports, actions, max_bytes=None):
    """The null-space dimension shared by the instances of a stack that
    ``_local_nullspace_basis`` kept, one unit state in the intersection per
    kept instance (None when the dimension is 0), and ``kept``.

    The state is the first column of the instance's local basis L on the
    touched qubits, with every other qubit at |0>.
    """
    basis, touched, kept = _local_nullspace_basis(supports, actions, max_bytes)
    dim = basis.shape[2] << (num_qubits - len(touched))
    if not dim:
        return 0, None, kept
    psi = np.zeros((len(basis), 1 << num_qubits), dtype=np.complex128)
    _, offsets = kernels.fiber_layout(num_qubits, touched)
    psi[:, offsets] = basis[:, :, 0]
    return dim, psi, kept


def _energies(num_qubits, supports, actions, states) -> np.ndarray:
    """<psi|Q|psi> for each state of a stack (T, 2^n), with ``actions`` as
    in ``_local_nullspace_basis``: every term adds the squared norm of its
    operator A on each of its fibers, ||A x||^2 = <x|A^H A|x>."""
    energy = np.zeros(len(states))
    for support, action in zip(supports, actions):
        bases, offsets = kernels.fiber_layout(num_qubits, support)
        image = states[:, bases[:, None] + offsets] @ action.swapaxes(1, 2)
        energy += (image.real ** 2 + image.imag ** 2).sum(axis=(1, 2))
    return energy


def nullspace_witness(instance: QsatInstance, max_bytes=None):
    """Dimension of the intersection of the terms' null spaces, and one unit
    state in it (None when the dimension is 0).

    The state is the first column of the local basis L on the touched qubits,
    with every other qubit at |0>.  No eigensolver is involved, which makes
    this an independent check on ground_energy.  ``max_bytes`` bounds every
    array the basis builds; a larger one raises CapacityError before it is
    allocated.
    """
    dim, psi, _ = _witnesses(
        instance.num_qubits, instance.supports(), _actions(instance.terms), max_bytes
    )
    return dim, None if psi is None else psi[0]


def common_nullspace_dim(instance: QsatInstance) -> int:
    """Dimension of the intersection of the terms' null spaces, from the
    local basis of ``nullspace_witness`` with no witness state built.  No
    array of the basis may exceed physical memory."""
    basis, touched, _ = _local_nullspace_basis(
        instance.supports(), _actions(instance.terms), config.physical_memory()
    )
    return basis.shape[2] << (instance.num_qubits - len(touched))


def _tag(lambda0, num_terms, nullspace_dim):
    """The verdict a ground energy gives: satisfiable up to
    ``sat_tolerance``, unsatisfiable from ``config.UNSAT_FLOOR``,
    indeterminate in between.  A definite tag that the null-space dimension
    (None: not computed) contradicts becomes indeterminate rather than a
    guess."""
    if lambda0 <= sat_tolerance(num_terms):
        tag = SATISFIABLE
    elif lambda0 >= config.UNSAT_FLOOR:
        tag = UNSATISFIABLE
    else:
        return INDETERMINATE
    if nullspace_dim is not None and (nullspace_dim > 0) != (tag == SATISFIABLE):
        return INDETERMINATE
    return tag


def decide_sat(instance: QsatInstance, method: str = "auto") -> SatVerdict:
    """Three-way verdict from the ground energy, with an explicit
    indeterminate band between the satisfiable and unsatisfiable thresholds.

    With ``method="auto"`` a null-space witness comes first: when its energy
    is within ``sat_tolerance``, the instance is satisfiable
    (``method="nullspace"``, the witness energy as ``lambda0``, an upper
    bound on the ground energy) and no eigensolver runs.  Up to
    ``config.NULLSPACE_CROSSCHECK_CUTOFF`` qubits the basis has no size
    limit; above it, no array of it may hold more than
    ``config.WITNESS_MAX_VECTORS`` register-sized vectors.  Otherwise the spectral verdict is cross-checked
    against the null-space dimension, computed on small instances when the
    witness did not run; any disagreement downgrades it to indeterminate
    rather than guessing.
    """
    return _decide(instance.num_qubits, instance.supports(), _actions(instance.terms), method)[0]


def _decide(num_qubits, supports, actions, method="auto") -> list:
    """``decide_sat`` for a stack of instances on one structure, one verdict
    per instance; ``actions`` are as in ``_local_nullspace_basis``.  An
    instance that leaves the stack there is decided alone.  The instances
    that no witness decides are tagged from the pairs of the ground-state
    stage ``_component_pairs``.
    """
    n, m = num_qubits, len(supports)
    _check_method(n, method)
    verdicts = [None] * (len(actions[0]) if m else 1)
    todo = np.arange(len(verdicts))
    dim = psi = None
    witness = method == "auto" and m > 0
    if witness or n <= config.NULLSPACE_CROSSCHECK_CUTOFF:
        max_bytes = None
        if n > config.NULLSPACE_CROSSCHECK_CUTOFF:
            max_bytes = config.WITNESS_MAX_VECTORS * 16 << n
        try:
            dim, psi, todo = _witnesses(n, supports, actions, max_bytes)
        except CapacityError:
            pass  # Over the byte limit: no witness, and no dimension to cross-check.
        # np.setdiff1d alone costs about 50 us, which a stack of one notices.
        if len(todo) < len(verdicts):
            for t in np.setdiff1d(np.arange(len(verdicts)), todo):
                verdicts[t] = _decide(n, supports, [a[t:t + 1] for a in actions], method)[0]
    if witness and psi is not None:
        energies = _energies(n, supports, [a[todo] for a in actions], psi)
        sat = energies <= sat_tolerance(m)
        for t, energy in zip(todo[sat], energies[sat]):
            verdicts[t] = SatVerdict(SATISFIABLE, max(float(energy), 0.0), dim, "nullspace")
        todo = todo[~sat]
    if not len(todo):
        return verdicts
    route, pairs = _component_pairs(n, supports, [a[todo] for a in actions], method)
    for t, (lam, _, _) in zip(todo, pairs):
        verdicts[t] = SatVerdict(_tag(lam, m, dim), lam, dim, route)
    return verdicts


def _as_matrix(operand) -> np.ndarray:
    if isinstance(operand, np.ndarray):
        return operand
    if isinstance(operand, (RankOneTerm, GeneralTerm)):
        return operand.dense()
    if isinstance(operand, QsatInstance):
        return assemble_dense(operand)
    raise ArgumentError(
        f"cannot interpret {type(operand).__name__} as an operator"
    )


def operator_dominates(a, b, tol: float = config.DOMINANCE_TOL) -> bool:
    """True iff A - B is positive semidefinite up to ``tol``.

    Operands may be instances (assembled densely), single terms (their fiber
    matrices), or explicit arrays; both must share a dimension, and A - B
    must be a non-empty square matrix, finite and Hermitian within
    ``config.HERMITICITY_TOL`` entrywise.

    It holds up to three operators at once: one operand's while the other's
    is assembled (``_dense_bytes``), both with their difference, then the
    difference with the Hermiticity check's two temporaries.  An instance
    operand whose operator, with that, would exceed physical memory raises
    CapacityError before anything is allocated.
    """
    for operand in (a, b):
        if isinstance(operand, QsatInstance):
            n = operand.num_qubits
            need = (16 << 2 * n) + _dense_bytes(1, 1 << n)
            config.require_memory(need, f"a dominance check on the dense route on {n} qubits")
    ma = _as_matrix(a)
    mb = _as_matrix(b)
    if ma.shape != mb.shape:
        raise DimensionMismatchError(
            f"operands have shapes {ma.shape} and {mb.shape}"
        )
    diff = ma - mb
    # The operands go before the check's temporaries are made.
    del ma, mb
    if diff.ndim != 2 or diff.shape[0] != diff.shape[1] or not diff.size:
        raise ArgumentError(f"A - B must be a non-empty square matrix, got shape {diff.shape}")
    # Also false on a NaN or infinite entry.
    if not np.all(np.abs(diff - diff.conj().T) <= config.HERMITICITY_TOL):
        raise ArgumentError("A - B is not a finite Hermitian matrix")
    return bool(_dense_ground_pair(diff[None])[0][0] >= -tol)


def _pin(num_qubits, supports, actions, fixed):
    """A stack restricted to the basis states whose qubits in ``fixed``
    (qubit -> bit) hold their bits: ``(free qubit count, supports,
    actions)`` on the free qubits, relabelled in order.

    Each action keeps the columns whose pinned bits match, so with P the
    projector on those states, P Q P = sum (A P)^H (A P) is the principal
    submatrix, entry for entry.  A term pinned on its whole support is left
    on no qubits with the one column A e_b, whose squared norm
    ``fiber_layout(n, ())`` adds to every diagonal entry.
    """
    # A free qubit's new label: its index less the pinned qubits below it.
    pinned = sorted(fixed)
    pinned_supports = [
        tuple(q - bisect.bisect(pinned, q) for q in s if q not in fixed) for s in supports
    ]
    pinned_actions = []
    for support, rest, action in zip(supports, pinned_supports, actions):
        grid = action.reshape(action.shape[:-1] + (2,) * len(support))
        bits = tuple(int(fixed[q]) if q in fixed else slice(None) for q in support)
        pinned_actions.append(grid[(...,) + bits].reshape(action.shape[:-1] + (1 << len(rest),)))
    return num_qubits - len(fixed), pinned_supports, pinned_actions


def _pinned_energy(num_qubits, supports, actions, fixed, what, solved=None) -> float:
    """The ground energy of a stack of one restricted as in ``_pin``, split
    into connected components by ``_component_pairs`` on the dense route,
    each refused by its bytes (``what`` names the restriction when one is
    refused), with its ``solved`` dict.  A term whose pinned action is zero
    is left out, so it links no qubits."""
    free, supports, actions = _pin(num_qubits, supports, actions, fixed)
    kept = [j for j, action in enumerate(actions) if action.any()]
    _, ((energy, _, _),) = _component_pairs(
        free, [supports[j] for j in kept], [actions[j] for j in kept], "dense", what=what,
        solved=solved,
    )
    return energy


def restricted_ground_energy(instance: QsatInstance, fixed) -> float:
    """Ground energy over basis states with the given qubits pinned.

    ``fixed`` maps qubit index -> bit value; ``_pin``'s restriction is solved
    densely, whole, with the register ceiling and the dense route's bytes
    taken on the free qubits, not on the register."""
    n = instance.num_qubits
    for qubit, bit in fixed.items():
        if not isinstance(qubit, (int, np.integer)) or not 0 <= qubit < n:
            raise ArgumentError(f"qubit {qubit!r} out of range for {n} qubits")
        if bit not in (0, 1):
            raise ArgumentError(f"bit value for qubit {qubit} must be 0 or 1")
    free, supports, actions = _pin(n, instance.supports(), _actions(instance.terms), fixed)
    _check_method(free, "dense")
    return next(_ground_pairs(free, supports, actions, "dense"))[0]
