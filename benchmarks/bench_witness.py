"""Time witness-decided verdicts and fiber_layout, and check them bit for bit.

A satisfiable instance is decided by its null-space witness: one small SVD
per term, the witness's energy, and no eigensolver.  This script times that
path and the index plan under it, in worker processes that import qsatkit
from one tree's ``src/`` each:

* verdicts: ``decide_sat`` on qsatbench-style planted instances at
  n = 7-10 (k = 2 with m = 3n/2 and k = 3 with m = 2n, ``SEEDS`` each, drawn
  by ``qsatbench/inputs.py``), and ``qsat solve FILE --json`` in-process on
  gadget_cli's 3-qubit solve targets (figure-a, figure-b and the planted,
  frustrated and random files of ``workloads.GadgetCli`` at its seed 1);
  a verdict's time is the median of ``REPEATS`` calls;
* ``kernels.fiber_layout`` at n = 3-20 on one seeded support of k = 1, 3
  and n qubits, in a random order; a call's time is the mean of as many
  calls as take ``MIN_SAMPLE_S``.

With ``--baseline REV`` the ``src/`` tree of git revision REV is extracted
into a temporary directory (``git archive``, local), and a second worker
imports qsatkit from it.  The two workers take each item in turn, in
alternating order, so a slow stretch of the host falls on both sides of a
pair; the JSON gets, per item, the median and quartiles of the checkout's
time over the baseline's in the same round, and the rounds in which the
checkout was faster.  The script raises if any verdict's tag, lambda0
(its repr), null-space dimension or method, or any fiber_layout array,
differs between the trees by a single bit, and, with or without a
baseline, if a planted verdict is not satisfiable by its witness.
``--quick`` runs the verdicts up to n = 8 and the sweep up to n = 12, in one
round: a check, not a measurement.

Run as ``python benchmarks/bench_witness.py [--baseline REV]`` from the
repository root; the workers import qsatkit from each tree's ``src/`` with
one OpenBLAS thread unless ``OPENBLAS_NUM_THREADS`` is set.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

# One OpenBLAS thread unless the caller asks for more: read when numpy loads,
# in the workers, which inherit it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from _common import ROOT, Worker, extract_src, machine, paired, serve, spread  # noqa: E402

QUBITS, QUICK_MAX_QUBITS = range(7, 11), 8
SEEDS = 2
SWEEP, QUICK_MAX_SWEEP = range(3, 21), 12
ROUNDS = 7
REPEATS, QUICK_REPEATS = 25, 3
MIN_SAMPLE_S = 0.02
SEED = 1  # gadget_cli's seed, which draws its solve files
BASE_SEED = 20131021
STREAM = 5  # this script's stream, past qsatbench's three and bench_krylov's
SOLVES = ("builtin:figure-a", "builtin:figure-b", "planted3", "frustrated3", "random3")


def verdicts(qk, quick, workdir):
    """Name -> a call returning (tag, repr(lambda0), dimension, method)."""
    sys.path.insert(0, str(ROOT / "qsatbench"))
    import inputs
    import workloads

    calls = {}
    for n in QUBITS:
        if quick and n > QUICK_MAX_QUBITS:
            continue
        for k, m in ((2, 3 * n // 2), (3, 2 * n)):
            for seed in range(SEEDS):
                spec = inputs.planted_spec(n, m, k, inputs.rng(BASE_SEED, STREAM, n, k, seed))
                instance = workloads.to_instance(qk, spec)

                def decide(instance=instance):
                    v = qk.decide_sat(instance)
                    return v.tag, repr(v.lambda0), v.nullspace_dim, v.method

                calls[f"planted-n{n}-k{k}-m{m}-{seed}"] = decide
    files = workloads.GadgetCli(qk, SEED, workdir)
    files.prepare()
    files.build()
    for target in SOLVES:
        path = target if target.startswith("builtin:") else files.path(target)

        def solve(path=path):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                qk.cli.main(["solve", path, "--json"])
            v = json.loads(out.getvalue())
            return v["verdict"], repr(v["lambda0"]), v["nullspace_dim"], v["method"]

        calls[f"solve {target.removeprefix('builtin:')}"] = solve
    return calls


def supports(quick):
    """Name -> (n, support) of the fiber_layout sweep."""
    import numpy as np

    out = {}
    for n in SWEEP:
        if quick and n > QUICK_MAX_SWEEP:
            continue
        for k in sorted({1, 3, n}):
            gen = np.random.Generator(np.random.PCG64(
                np.random.SeedSequence([BASE_SEED, STREAM, 100, n, k])))
            out[f"fiber_layout n{n} k{k}"] = (n, tuple(int(q) for q in gen.permutation(n)[:k]))
    return out


def worker(quick: bool) -> None:
    """Serve the verdicts and the sweep with the qsatkit on ``sys.path``:
    each line names an item, answered with its seconds and its outcome (a
    verdict, or a digest of fiber_layout's arrays)."""
    import qsatkit as qk
    import qsatkit.cli

    repeats = QUICK_REPEATS if quick else REPEATS
    workdir = tempfile.TemporaryDirectory()
    calls = verdicts(qk, quick, Path(workdir.name))
    plans = supports(quick)
    # Untimed: one call of each, which also fills the file cache.
    for call in calls.values():
        call()

    def answer(words):
        name = " ".join(words)
        if name in calls:
            times = []
            for _ in range(repeats):
                start = time.perf_counter()
                outcome = calls[name]()
                times.append(time.perf_counter() - start)
            return {"s": statistics.median(times), "outcome": outcome}
        n, support = plans[name]
        calls_made, start = 0, time.perf_counter()
        while time.perf_counter() - start < MIN_SAMPLE_S:
            bases, offsets = qk.kernels.fiber_layout(n, support)
            calls_made += 1
        elapsed = time.perf_counter() - start
        digest = hashlib.sha256()
        for array in (bases, offsets):
            digest.update(f"{array.dtype.str}{array.shape}".encode())
            digest.update(array.tobytes())
        return {"s": elapsed / calls_made, "outcome": digest.hexdigest()}

    serve({"file": qk.__file__, "names": list(calls) + list(plans)}, answer)
    workdir.cleanup()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="verdicts up to n = 8, the sweep up to n = 12, one round: a check")
    parser.add_argument("--baseline", metavar="REV",
                        help="also time the src/ tree of this git revision")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_witness.json")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        worker(args.quick)
        return
    rounds = 1 if args.quick else ROUNDS
    flags = ["--quick"] if args.quick else []

    with tempfile.TemporaryDirectory() as scratch:
        trees = {"checkout": ROOT / "src"}
        if args.baseline:
            trees["baseline"] = extract_src(args.baseline, Path(scratch))
        workers = {}
        try:
            for tree, src in trees.items():
                workers[tree] = Worker(__file__, src, *flags)
            names = workers["checkout"].hello["names"]
            runs = {tree: {name: [] for name in names} for tree in trees}
            for r in range(rounds):
                for i, name in enumerate(names):
                    order = list(trees) if (r + i) % 2 == 0 else list(trees)[::-1]
                    for tree in order:
                        runs[tree][name].append(workers[tree].ask(name))
        finally:
            for w in workers.values():
                w.close()

    for name in (name for name in names if name.startswith("planted")):
        tag, _, _, method = runs["checkout"][name][0]["outcome"]
        if (tag, method) != ("satisfiable", "nullspace"):
            raise AssertionError(f"{name}: {tag} by {method}, not satisfiable by its witness")
    differing = [name for name in names if args.baseline and any(
        c["outcome"] != b["outcome"] for c, b in zip(runs["checkout"][name], runs["baseline"][name]))]
    if differing:
        raise AssertionError(f"outcomes differ from {args.baseline}'s: {differing}")

    header = f"{'item':<28} {'ms':>9}"
    if args.baseline:
        header += f" {'baseline ms':>11} {'ratio':>6} {'faster':>6}"
    print(header)
    results, pairs = {tree: {} for tree in trees}, {}
    for name in names:
        for tree in trees:
            row = {"s": spread((r["s"] for r in runs[tree][name]), 9)}
            if not name.startswith("fiber_layout"):
                tag, lambda0, dim, method = runs[tree][name][0]["outcome"]
                row.update(tag=tag, lambda0=lambda0, nullspace_dim=dim, method=method)
            results[tree][name] = row
        line = f"{name:<28} {results['checkout'][name]['s']['median'] * 1e3:>9.4f}"
        if args.baseline:
            pairs[name] = paired([r["s"] for r in runs["checkout"][name]],
                                 [r["s"] for r in runs["baseline"][name]])
            line += (f" {results['baseline'][name]['s']['median'] * 1e3:>11.4f}"
                     f" {pairs[name]['ratio']['median']:>6.3f}"
                     f" {pairs[name]['checkout_faster']:>3}/{rounds}")
        print(line)
    report = {
        "machine": machine(versions=True),
        "settings": {
            "rounds": rounds, "baseline": args.baseline,
            "verdicts": f"median of {QUICK_REPEATS if args.quick else REPEATS} calls a round",
            "fiber_layout": f"mean of the calls that take {MIN_SAMPLE_S} s, a round",
            "s": "median and quartiles over the rounds, seconds",
        },
        "trees": results,
    }
    if args.baseline:
        report["identical_to_baseline"] = True
        report["paired"] = pairs
    args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
