"""Time the dense and Krylov routes of ground_energy, and the cutoff they imply.

Every instance of a seeded population is solved by
``ground_energy(method="dense")`` and ``ground_energy(method="krylov")``,
alternately, ``REPEATS`` times each; an instance's time on a route is the
median of its repeats.  The script raises if the two ground energies differ
by more than 1e-8.  The population, at each register size n:

* Haar: m Haar-random rank-1 terms on random k-subsets, k = 2 and k = 3;
* planted: m random rank-1 terms orthogonal to one drawn product state,
  k = 2 and k = 3, so satisfiable by construction;
* frustrated: figure-b's four terms on three random qubits plus m Haar
  terms of k = 2 or k = 3, so unsatisfiable;

with m in {n/2, n, 3n/2, 2n} (rounded down) and ``SEEDS`` seeds each.

Either route solves each connected component of an instance on its own
qubits, so an instance's times follow its widest component w, the number
of qubits of its largest connected component, rather than n; ``auto``
compares w with ``config.DENSE_CUTOFF``.  The JSON written to ``--out``
holds the machine (core count, BLAS, ``OPENBLAS_NUM_THREADS``), every
instance's n, w and times, the median, quartiles and total of each route at
each w with two or more instances (also split by verdict), and the implied
cutoff: the largest w at which the dense route's summed time beats
Krylov's.  ``config.DENSE_CUTOFF`` is set from it.  ``--quick`` sweeps
n = 4-6 with one seed and one repeat, to check that the routes agree.

Run as ``python benchmarks/bench_routes.py`` from the repository root; it
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
# The cutoff is for that setting, which the README recommends: with one
# thread per core, the idle worker's spin-wait slows both routes.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import qsatkit as qk  # noqa: E402

QUBITS, SEEDS, REPEATS = range(6, 11), 4, 3
QUICK_QUBITS, QUICK_SEEDS, QUICK_REPEATS = range(4, 7), 1, 1
KINDS = ("haar", "planted", "frustrated")
AGREEMENT = 1e-8  # |lambda0 dense - lambda0 krylov|
BASE_SEED = 20131021


def haar_terms(n, m, k, gen):
    return [
        qk.haar_random_term(tuple(int(q) for q in gen.choice(n, size=k, replace=False)), gen)
        for _ in range(m)
    ]


def planted_terms(n, m, k, gen):
    product = [qk.haar_random_term((q,), gen).amplitudes for q in range(n)]
    terms = []
    for _ in range(m):
        support = tuple(int(q) for q in gen.choice(n, size=k, replace=False))
        v = np.ones(1, dtype=np.complex128)
        for q in support:
            v = np.kron(v, product[q])
        z = qk.haar_random_term(support, gen).amplitudes
        z = z - v * np.vdot(v, z)
        terms.append(qk.RankOneTerm(support, z / np.linalg.norm(z)))
    return terms


def frustrated_terms(n, m, k, gen):
    triple = [int(q) for q in gen.choice(n, size=3, replace=False)]
    core = [
        qk.RankOneTerm(tuple(triple[q] for q in term.support), term.amplitudes)
        for term in qk.figure_b().terms
    ]
    return core + haar_terms(n, m, k, gen)


DRAW = {"haar": haar_terms, "planted": planted_terms, "frustrated": frustrated_terms}


def population(qubits, seeds):
    """(n, kind, k, m, seed, instance) for every instance of the sweep."""
    for n in qubits:
        for kind_id, kind in enumerate(KINDS):
            for k in (2, 3):
                for m in (n // 2, n, 3 * n // 2, 2 * n):
                    for seed in range(seeds):
                        gen = np.random.Generator(np.random.PCG64(
                            np.random.SeedSequence([BASE_SEED, n, kind_id, k, m, seed])
                        ))
                        yield n, kind, k, m, seed, qk.QsatInstance(n, DRAW[kind](n, m, k, gen))


def widest(instance):
    """Qubits of the instance's largest connected component."""
    supports = instance.supports()
    return max(
        (len({q for j in group for q in supports[j]})
         for group in qk.spectral._components(supports)),
        default=0,
    )


def timed(instance, method):
    start = time.perf_counter()
    result = qk.ground_energy(instance, method=method)
    elapsed = time.perf_counter() - start
    if result.method != method:
        raise AssertionError(f"method={method!r} ran the {result.method} route")
    return elapsed, result.lambda0


def measure(instance, repeats):
    """Median seconds of each route over ``repeats`` alternating runs, and
    the dense ground energy; raises when the routes disagree."""
    times = {"dense": [], "krylov": []}
    for repeat in range(repeats):
        order = ("dense", "krylov") if repeat % 2 == 0 else ("krylov", "dense")
        energies = {}
        for method in order:
            elapsed, energies[method] = timed(instance, method)
            times[method].append(elapsed)
        gap = abs(energies["dense"] - energies["krylov"])
        if gap > AGREEMENT:
            raise AssertionError(
                f"dense lambda0 {energies['dense']!r} and Krylov lambda0 "
                f"{energies['krylov']!r} differ by {gap:.3e} on n={instance.num_qubits}"
            )
    return statistics.median(times["dense"]), statistics.median(times["krylov"]), energies["dense"]


def spread(values):
    """Median, quartiles and total of a list of times in ms."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "total": sum(values)}


def summarize(rows):
    dense = [r["dense_ms"] for r in rows]
    krylov = [r["krylov_ms"] for r in rows]
    ratios = [r["krylov_ms"] / r["dense_ms"] for r in rows]
    q1, q2, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return {
        "instances": len(rows),
        "dense_ms": spread(dense),
        "krylov_ms": spread(krylov),
        "krylov_over_dense": {"median": q2, "q1": q1, "q3": q3,
                              "min": min(ratios), "max": max(ratios)},
    }


def machine():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def dump(report) -> str:
    """The report as JSON, with one line per instance."""
    head = json.dumps({key: v for key, v in report.items() if key != "instances"}, indent=1)
    lines = ",\n".join("  " + json.dumps(row) for row in report["instances"])
    return f'{head[:-2]},\n "instances": [\n{lines}\n ]\n}}\n'


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="n = 4-6, one seed, one repeat: an agreement check")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_routes.json")
    args = parser.parse_args()
    qubits, seeds, repeats = (
        (QUICK_QUBITS, QUICK_SEEDS, QUICK_REPEATS) if args.quick else (QUBITS, SEEDS, REPEATS)
    )

    # Lazy set-up (the Krylov route imports scipy.sparse) is paid here.
    warm = qk.QsatInstance(3, qk.figure_b().terms)
    for method in ("dense", "krylov"):
        qk.ground_energy(warm, method=method)

    rows = []
    for n, kind, k, m, seed, instance in population(qubits, seeds):
        dense, krylov, lambda0 = measure(instance, repeats)
        rows.append({
            "n": n, "widest": widest(instance), "kind": kind, "k": k,
            "terms": instance.num_terms, "seed": seed,
            "verdict": qk.spectral._tag(lambda0, instance.num_terms, None), "lambda0": lambda0,
            "dense_ms": round(dense * 1e3, 4), "krylov_ms": round(krylov * 1e3, 4),
        })

    per_widest = {}
    print(f"{'w':>3}  {'verdict':<15} {'count':>5}  {'krylov/dense':>12}  "
          f"{'range':>13}  {'dense total':>11}  {'krylov total':>12}")
    for w in sorted({r["widest"] for r in rows}):
        at_w = [r for r in rows if r["widest"] == w]
        if len(at_w) < 2:
            continue
        summary = summarize(at_w)
        groups = {}
        for tag in (qk.UNSATISFIABLE, qk.SATISFIABLE, qk.INDETERMINATE):
            group = [r for r in at_w if r["verdict"] == tag]
            if len(group) > 1:
                groups[tag] = summarize(group)
        summary["by_verdict"] = groups
        summary["dense_beats_krylov"] = summary["dense_ms"]["total"] < summary["krylov_ms"]["total"]
        per_widest[str(w)] = summary
        for label, s in [("all", summary), *groups.items()]:
            ratio = s["krylov_over_dense"]
            span = f"{ratio['min']:.2f}-{ratio['max']:.2f}x"
            print(f"{w:>3}  {label:<15} {s['instances']:>5}  {ratio['median']:>11.2f}x  "
                  f"{span:>13}  "
                  f"{s['dense_ms']['total']:>8.1f} ms  {s['krylov_ms']['total']:>9.1f} ms")

    wins = [int(w) for w, summary in per_widest.items() if summary["dense_beats_krylov"]]
    cutoff = max(wins) if wins else None
    print(f"implied cutoff: {cutoff}")
    report = {
        "machine": machine(),
        "sweep": {
            "qubits": list(qubits), "seeds": seeds, "repeats": repeats,
            "kinds": [f"{kind}-k{k}" for kind in KINDS for k in (2, 3)],
            "terms": "n // 2, n, 3n // 2, 2n (frustrated: figure-b's 4 more)",
            "time": "median of the alternating repeats of ground_energy, ms",
            "bins": "widest connected component w, in qubits; one-instance bins left out",
        },
        "implied_cutoff": cutoff,
        "per_widest": per_widest,
        "instances": rows,
    }
    args.out.write_text(dump(report))


if __name__ == "__main__":
    main()
