"""Time the matvec kernel: one sparse-factor product Q @ x per repeat.

``InstanceApplier`` builds its sparse factor B, with Q = B^H B, from the
terms' ``fiber_layout`` plans.  Before timing, the script raises if
<x|Q x> differs from the energy summed term by term over the fibers, or if
``applier(x, out)``, which writes into a buffer of the caller's as the
Lanczos recurrence does, differs from ``applier(x)`` by a single bit.  It
times both.  Output with ``--repeats 100`` on a 2-core x86 host with one
OpenBLAS thread::

    qubits  terms   k    applier(x)  applier(x, out)
         8     20   3      0.020 ms         0.020 ms
        10     20   3      0.064 ms         0.064 ms
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


def best_time(call, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        call()
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

    print(f"{'qubits':>6}  {'terms':>5}  {'k':>2}  {'applier(x)':>12}  {'applier(x, out)':>15}")
    for n in args.qubits:
        instance, state = build_case(n, args.terms, args.k, args.seed)
        energy = fiber_energy(instance, state)
        applier = qk.InstanceApplier(instance)
        image = applier(state)
        if abs(np.vdot(state, image).real - energy) > 1e-10 * max(1.0, energy):
            raise AssertionError(f"the kernel misses the fiber energy at n={n}")
        out = np.full_like(image, np.nan)
        if not np.array_equal(applier(state, out), image):
            raise AssertionError(f"applier(x, out) differs from applier(x) at n={n}")
        allocating = best_time(lambda: applier(state), args.repeats)
        writing = best_time(lambda: applier(state, out), args.repeats)
        print(f"{n:>6}  {args.terms:>5}  {args.k:>2}  {allocating * 1e3:>9.3f} ms"
              f"  {writing * 1e3:>12.3f} ms")


if __name__ == "__main__":
    main()
