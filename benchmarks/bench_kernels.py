"""Benchmark the compiled C99 kernel against the numpy (pure-Python) kernel.

Both backends apply the operator of an instance to a state vector from the
same ``fiber_layout`` plan: the C loops walk it, and the numpy kernel builds
its sparse factor from it.  The comparison is a single matvec loop per
backend on identical inputs.  The script raises if the backends disagree,
or if a backend's <x|Q x> differs from the energy summed term by term over
the fibers.  The compiled backend is timed only when
``src/qsatkit/_fiber.c`` has been built, for example with
``python setup.py build_ext --inplace``.  Output
with ``--repeats 100`` on a 2-core x86 host with gcc and one OpenBLAS
thread::

    qubits  terms   k  backend        best matvec    speedup
         8     20   3  pure-python       0.047 ms       1.0x
         8     20   3  compiled          0.080 ms       0.6x
        10     20   3  pure-python       0.111 ms       1.0x
        10     20   3  compiled          0.181 ms       0.6x
        ...

Run as ``python benchmarks/bench_kernels.py`` from the repository root.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

import qsatkit as qk
from qsatkit.kernels import fiber_layout


def build_case(num_qubits: int, num_terms: int, k: int, seed: int):
    rng = np.random.Generator(np.random.Philox(key=seed))
    terms = [
        qk.haar_random_term(
            tuple(int(q) for q in rng.choice(num_qubits, size=k, replace=False)),
            rng,
        )
        for _ in range(num_terms)
    ]
    instance = qk.QsatInstance(num_qubits, terms)
    state = rng.standard_normal(1 << num_qubits) + 1j * rng.standard_normal(
        1 << num_qubits
    )
    return instance, state / np.linalg.norm(state)


def fiber_energy(instance, state) -> float:
    """<state|Q|state> as the sum over terms and fibers of |<v|fiber>|^2."""
    total = 0.0
    for term in instance.terms:
        bases, offsets = fiber_layout(instance.num_qubits, term.support)
        overlaps = state[bases[:, None] + offsets] @ term.amplitudes.conj()
        total += float(np.sum(overlaps.real ** 2 + overlaps.imag ** 2))
    return total


def best_time(applier, state, repeats: int) -> float:
    out = np.empty_like(state)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        applier(state, out=out)
        best = min(best, time.perf_counter() - start)
    return best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--qubits", type=int, nargs="+", default=[8, 10, 12, 14, 16]
    )
    parser.add_argument("--terms", type=int, default=20)
    parser.add_argument("--k", type=int, default=3)
    parser.add_argument("--repeats", type=int, default=25)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    backends = ["pure-python"]
    if qk.compiled_available():
        backends.append("compiled")
    else:
        print("note: compiled kernels unavailable; timing the fallback only")

    print(f"{'qubits':>6}  {'terms':>5}  {'k':>2}  {'backend':<12}"
          f"{'best matvec':>14}  {'speedup':>9}")
    for n in args.qubits:
        instance, state = build_case(n, args.terms, args.k, args.seed)
        energy = fiber_energy(instance, state)
        baseline = None
        for backend in backends:
            applier = qk.InstanceApplier(instance, backend=backend)
            reference = qk.InstanceApplier(instance, backend=backends[0])(state)
            applied = applier(state)
            if not np.allclose(applied, reference, atol=1e-10):
                raise AssertionError(f"backend {backend} disagrees at n={n}")
            if abs(np.vdot(state, applied).real - energy) > 1e-10 * max(1.0, energy):
                raise AssertionError(f"backend {backend} misses the fiber energy at n={n}")
            elapsed = best_time(applier, state, args.repeats)
            if baseline is None:
                baseline = elapsed
            print(
                f"{n:>6}  {args.terms:>5}  {args.k:>2}  {backend:<12}"
                f"{elapsed * 1e3:>11.3f} ms  {baseline / elapsed:>8.1f}x"
            )


if __name__ == "__main__":
    main()
