"""Time the dense lowest eigenpair per operator: one heevr call each, or a stacked eigh.

``spectral._dense_ground_pair`` solves a stack (T, s, s) of Hermitian
operators with one LAPACK ``heevr`` call per operator, for the lowest pair
only, after one finiteness check and one workspace query for the whole
stack.  ``np.linalg.eigh`` on the stack computes every pair of every
operator in one call.  This script times both on the operators the library
solves: each stack is ``spectral._assemble_stack`` of T seeded Haar-random
instances on one structure of n = log2(s) qubits, 2n rank-1 terms of
locality min(n, 3).  A time is the median over ``REPEATS`` alternating
runs of the call, each run long enough to time (``MIN_SAMPLE_S``), in us
per operator.  The script raises if any lowest eigenvalue of the two
differs by more than 1e-12.

Sizes s = 2 to 256 and stacks T of 1, 16, 256 and 1,024; a stack above
``MAX_STACK_BYTES`` is left out.  ``--quick`` runs s <= 16 with one repeat.
The JSON written to ``--out`` holds the machine (core count, BLAS,
``OPENBLAS_NUM_THREADS``) and one row per (s, T).

Run as ``python benchmarks/bench_dense.py`` from the repository root; it
imports qsatkit from the checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

# One OpenBLAS thread unless the caller asks for more; read when numpy loads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import qsatkit as qk  # noqa: E402
from qsatkit import spectral  # noqa: E402

QUBITS, QUICK_QUBITS = range(1, 9), range(1, 5)
STACKS = (1, 16, 256, 1024)
REPEATS, QUICK_REPEATS = 5, 1
MAX_STACK_BYTES = 64 << 20
MIN_SAMPLE_S = 0.02
AGREEMENT = 1e-12  # |lambda0 heevr - lambda0 eigh|
BASE_SEED = 20131021


def operator_stack(n, count):
    """``_assemble_stack`` of ``count`` Haar-random instances on one seeded
    structure of n qubits."""
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence([BASE_SEED, n, count])))
    k = min(n, 3)
    supports = [tuple(int(q) for q in gen.choice(n, size=k, replace=False)) for _ in range(2 * n)]
    actions = []
    for _ in supports:
        z = gen.standard_normal((count, 1 << k)) + 1j * gen.standard_normal((count, 1 << k))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        actions.append(z.conj()[:, None, :])
    return spectral._assemble_stack(n, supports, actions)


def lowest_heevr(stack):
    return spectral._dense_ground_pair(stack)[0]


def lowest_eigh(stack):
    return np.linalg.eigh(stack)[0][:, 0]


def sample(solve, stack):
    """Seconds per operator of one timed run of ``solve`` on the stack, the
    call repeated until the run takes ``MIN_SAMPLE_S``; and the lowest
    eigenvalues."""
    calls, elapsed = 0, 0.0
    start = time.perf_counter()
    while elapsed < MIN_SAMPLE_S:
        lambdas = solve(stack)
        calls += 1
        elapsed = time.perf_counter() - start
    return elapsed / (calls * len(stack)), lambdas


def measure(stack, repeats):
    """Median us per operator of each solver over alternating runs, and the
    largest gap between their lowest eigenvalues; raises above AGREEMENT."""
    times = {"heevr": [], "eigh": []}
    solvers = {"heevr": lowest_heevr, "eigh": lowest_eigh}
    for repeat in range(repeats):
        order = ("heevr", "eigh") if repeat % 2 == 0 else ("eigh", "heevr")
        lambdas = {}
        for name in order:
            seconds, lambdas[name] = sample(solvers[name], stack)
            times[name].append(seconds * 1e6)
        gap = float(np.max(np.abs(lambdas["heevr"] - lambdas["eigh"])))
        if gap > AGREEMENT:
            raise AssertionError(
                f"heevr and eigh lowest eigenvalues differ by {gap:.3e} "
                f"on {len(stack)} operators of size {stack.shape[-1]}"
            )
    return statistics.median(times["heevr"]), statistics.median(times["eigh"]), gap


def machine():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="s <= 16, one repeat: an agreement check")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_dense.json")
    args = parser.parse_args()
    qubits, repeats = (QUICK_QUBITS, QUICK_REPEATS) if args.quick else (QUBITS, REPEATS)

    warm = operator_stack(2, 2)
    lowest_heevr(warm)
    lowest_eigh(warm)

    rows, skipped = [], []
    print(f"{'s':>4} {'T':>5}  {'heevr us/op':>11}  {'eigh us/op':>10}  {'eigh/heevr':>10}")
    for n in qubits:
        size = 1 << n
        for count in STACKS:
            if 16 * count * size * size > MAX_STACK_BYTES:
                skipped.append({"size": size, "stack": count})
                continue
            heevr, eigh, gap = measure(operator_stack(n, count), repeats)
            rows.append({
                "size": size, "stack": count,
                "heevr_us_per_op": round(heevr, 3), "eigh_us_per_op": round(eigh, 3),
                "eigh_over_heevr": round(eigh / heevr, 3), "max_lambda0_gap": gap,
            })
            print(f"{size:>4} {count:>5}  {heevr:>11.2f}  {eigh:>10.2f}  {eigh / heevr:>9.2f}x")
    report = {
        "machine": machine(),
        "sweep": {
            "sizes": [1 << n for n in qubits], "stacks": list(STACKS), "repeats": repeats,
            "operators": "_assemble_stack of Haar rank-1 instances, 2n terms of locality min(n, 3)",
            "time": "median over alternating runs, us per operator",
            "max_stack_bytes": MAX_STACK_BYTES,
        },
        "rows": rows,
        "skipped": skipped,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
