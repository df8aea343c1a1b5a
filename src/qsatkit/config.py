"""Size limits and numerical tolerances shared across the library."""

import os

from .errors import ArgumentError, CapacityError

DEFAULT_MAX_QUBITS = 20

# Widest connected component that method="auto" (ground_energy,
# decide_sat) solves by dense eigendecomposition; an instance whose widest
# component is wider goes to the matrix-free Krylov path.  Either route
# solves each component on its own qubits, so the comparison is with the
# component, not the register.  It is the largest width w at which the dense
# route's summed time beats Krylov's in BENCH_routes.json, written by
# benchmarks/bench_routes.py: forced dense against forced Krylov
# ground_energy, median of 3 alternating calls, on 96 instances per n = 6-10
# (Haar, planted and frustrated; k = 2 and 3; m = n/2 to 2n; 4 seeds each;
# 25-43 of each 96 have a component narrower than n), binned by w, one
# OpenBLAS thread, 2-core x86 host.  7 still holds on that binning: Krylov
# took a median 1.43x the dense time at w = 7 (0.49-2.76x; 259 ms against
# 172 ms in all, 92 instances), 0.49x at w = 8 (0.20-1.86x; 435 against
# 721 ms, 85 instances) and 0.16x at w = 9.  Unsatisfiable instances alone,
# which decide_sat hands to this route, give the same order: 1.40x at w = 7
# and 0.48x at w = 8 (0.28-1.82x).
DENSE_CUTOFF = 7

# Largest register any dense routine accepts: forced method="dense",
# assemble_dense, the null-space intersection, and verify_reduction's input
# and each connected component of its sector solves.  Forced dense is
# refused on the register, even where its components are narrower.
# Computed, not run: at 13 qubits the 8192 x 8192 complex matrix is 1 GiB
# and about 3 GiB with eigh's working copy; at 14 it would be 4 GiB plus a
# copy, more than an 8 GiB machine holds.
DENSE_MAX_QUBITS = 13

# decide_sat double-checks its verdict against the null-space oracle up to
# this size.  The oracle keeps its basis on the touched qubits only and takes
# one SVD per term.  On qsatbench-style instances (k = 2, m = 3n/2 and k = 3,
# m = 2n; five seeds each; one OpenBLAS thread) it takes 0.5-6.3 ms at
# n = 8-10, where a 2^n-row basis took 0.6-0.7 s at n = 10 (m = 15, k = 2).
# Beyond the cutoff, planted instances take 1.9-5.5 ms at n = 11, 2.1-38 ms
# at n = 12 and 2.6-16 ms at n = 13; frustrated and Haar ones 0.6-11 ms.
# The cutoff also marks where the byte limit of decide_sat's null-space
# witness starts: up to it the basis is unlimited, as the cross-check always
# was; above it, no array of the basis may exceed WITNESS_MAX_VECTORS x 2^n
# complex amplitudes.
NULLSPACE_CROSSCHECK_CUTOFF = 10

# Register-sized vectors that one array of the null-space witness may hold
# above NULLSPACE_CROSSCHECK_CUTOFF: 32 MiB at n = 15 and 1 GiB at n = 20.
# A basis that would outgrow it gives no witness, and the spectral route
# decides instead.  The largest array of the planted n = 15 witness of the
# qsatbench large_krylov workload is 1 MiB.
WITNESS_MAX_VECTORS = 64

NORM_TOL = 1e-10          # | ||amplitudes|| - 1 |
HERMITICITY_TOL = 1e-12   # entrywise, projector matrices
IDEMPOTENCY_TOL = 1e-10   # entrywise, M^2 - M
SINGULAR_VALUE_TOL = 1e-10  # singular values below this count as zero
SCHMIDT_TOL = 1e-12       # Schmidt weights below this are dropped
RESIDUAL_TOL = 1e-8       # ||Q v - lambda0 v||
UNSAT_FLOOR = 1e-6
SAT_TOL_UNIT = 1e-9       # scaled by max(1, term count)

DOMINANCE_TOL = 1e-9      # slack allowed when checking A - B >= 0
GADGET_SAT_TOL = 1e-9     # gadget must be satisfiable with the dummy at |0>
GADGET_PENALTY_TOL = 1e-9  # slack on the dummy-at-|1> penalty floor
REDUCTION_ENERGY_TOL = 1e-8  # |E' - E| (or the E' >= c_k slack) in verification
Z_COMMUTATION_TOL = 1e-12  # residual amplitude mass off the dominant dummy slice

# Matrix-free minimum-eigenvalue iteration (plain Lanczos on Q, with an
# iteration cap of 10 x 2^n steps).  It stops when the lowest Ritz pair's
# residual is at most KRYLOV_TOL * m: an absolute bound, the same as a
# relative tolerance of KRYLOV_TOL on the reflected operator m*I - Q, whose
# top eigenvalue is near m.
KRYLOV_TOL = 1e-10
KRYLOV_SEED = 0x6A09E667  # fixed start-vector seed: deterministic iterations

# Bytes of Lanczos vectors the first pass keeps, the latest ones, so that the
# Ritz vector needs no replay of the steps they cover.  The near-frustration-
# free n = 10 solves of qsatbench's large_krylov take 960-1,000 steps of
# 16 KiB vectors, 16 MiB, and fit with room to spare; at n = 18 the budget
# keeps 8 vectors, about 11% of the 289 MiB a forced-Krylov planted solve
# peaks at, and the replay does the rest.
KRYLOV_KEEP_BYTES = 32 << 20


def max_qubits() -> int:
    """Global qubit ceiling; the QSAT_MAX_QUBITS env var overrides it."""
    value = os.environ.get("QSAT_MAX_QUBITS")
    if not value:
        return DEFAULT_MAX_QUBITS
    try:
        ceiling = int(value)
    except ValueError:
        raise ArgumentError(f"QSAT_MAX_QUBITS must be an integer, got {value!r}") from None
    if ceiling < 1:
        raise ArgumentError(f"QSAT_MAX_QUBITS must be at least 1, got {value!r}")
    return ceiling


def physical_memory():
    """Bytes of physical memory on this machine, or None where the operating
    system does not report them."""
    try:
        page, pages = os.sysconf("SC_PAGE_SIZE"), os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None
    return page * pages if page > 0 and pages > 0 else None


def check_per_qubit_list(num_qubits, what):
    """Raise CapacityError if a list with one entry per qubit of a
    ``num_qubits`` register, with the tuple copy its caller returns, would
    exceed physical memory: 16 bytes a qubit, an 8-byte slot in each.  A
    declared register has no ceiling of its own outside the solvers, so this
    is checked before such a list is built."""
    need, have = 16 * num_qubits, physical_memory()
    if have is not None and need > have:
        raise CapacityError(
            f"{what} on {num_qubits} qubits would take {need} bytes; "
            f"this machine has {have}"
        )
