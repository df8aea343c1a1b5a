"""Time the Krylov route's Lanczos passes by part, and check them bit for bit.

Each instance of a fixed population is solved by
``spectral._krylov_ground_pair``, the whole Krylov route on one connected
register, once in each of ``ROUNDS`` rounds, by a worker process that has
loaded scipy with one untimed solve first.  The population:

* qsatbench's ``large_krylov`` near-frustration-free solves: the five local
  frames of one n = 10, k = 3, m = 10 Haar instance, taken from
  ``workloads.LargeKrylov`` at its seed 1;
* Haar rank-1 instances, k = 2 with m = 2n and k = 3 with m = n, at
  n = 8-14;
* one instance of ten rank-2 ``GeneralTerm`` projectors on random 3-qubit
  supports at n = 10.

Per solve it records the Lanczos steps over all passes, the passes, the
matvecs, the exact Ritz checks (``spectral._lowest_tridiagonal_pair``
calls), the filtered ones (``spectral._ritz_estimate`` calls, absent from a
tree without the filter), and the seconds spent in the matvec, in the checks
(exact and filtered) and in the rest: medians over the rounds.  The timers
wrap the matvec and the checks and add well under a microsecond to each
call.  The near-frustration-free solves are also checked against qsatbench's
eigvalsh reference, to 1e-9.

With ``--baseline REV`` the ``src/`` tree of git revision REV is extracted
into a temporary directory (``git archive``, local), and a second worker
imports qsatkit from it.  The two workers solve each instance in turn, in
alternating order, a few milliseconds apart, so a slow stretch of the host
falls on both sides of a pair; the JSON gets, per solve, the median and
quartiles of the checkout's time over the baseline's in the same round, and
the rounds in which the checkout was faster.  The script raises if any
solve's (lambda0, vector, residual) differs between the trees by a single
bit.  ``--quick`` solves the instances up to n = 10 in one round: a check,
not a measurement.

Run as ``python benchmarks/bench_krylov.py [--baseline REV]`` from the
repository root; the workers import qsatkit from each tree's ``src/`` with
one OpenBLAS thread unless ``OPENBLAS_NUM_THREADS`` is set.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from importlib import metadata
from pathlib import Path

# One OpenBLAS thread unless the caller asks for more: read when numpy loads,
# here and in the workers, which inherit it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
QUBITS, QUICK_MAX_QUBITS = range(8, 15), 10
ROUNDS = 7
SEED = 1  # large_krylov's seed, which picks the near-FF frames
BASE_SEED = 20131021
STREAM = 4  # the Haar and general instances' stream, past qsatbench's three
NEAR_FF_TOL = 1e-9  # |lambda0 - eigvalsh reference|
SECONDS = ("total_s", "matvec_s", "checks_s", "rest_s")
COUNTS = ("steps", "passes", "matvec", "exact", "filtered")


def population(qk, quick):
    """Name -> (instance, eigvalsh reference or None), in solve order."""
    sys.path.insert(0, str(ROOT / "qsatbench"))
    import inputs
    import workloads

    with tempfile.TemporaryDirectory() as workdir:
        large = workloads.LargeKrylov(qk, SEED, workdir)
        large.prepare()
        large.build()
    out = {f"near-ff-n10-{j}": (instance, ref) for j, (instance, (_, ref))
           in enumerate(zip(large.near_ff_instances, large.near_ff))}
    for k, terms_per_qubit in ((2, 2), (3, 1)):
        for n in QUBITS:
            if quick and n > QUICK_MAX_QUBITS:
                continue
            spec = inputs.haar_spec(n, terms_per_qubit * n, k, inputs.rng(BASE_SEED, STREAM, k, n))
            out[f"haar-k{k}-n{n}"] = (workloads.to_instance(qk, spec), None)
    gen = inputs.rng(BASE_SEED, STREAM, 0)
    terms = []
    for _ in range(10):
        support = inputs.random_support(10, 3, gen)
        cols = gen.standard_normal((8, 2)) + 1j * gen.standard_normal((8, 2))
        q, _ = np.linalg.qr(cols)
        terms.append(qk.GeneralTerm(support, q @ q.conj().T))
    out["general-rank2-n10"] = (qk.QsatInstance(10, terms), None)
    return out


def instrument(qk, counts, seconds):
    """Count and time the matvec, the exact and filtered Ritz checks, and the
    steps and passes, by wrapping the package's functions in place."""
    spectral, kernels = qk.spectral, qk.kernels

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += time.perf_counter() - start
                counts[name] += 1
        return wrapper

    kernels.InstanceApplier.__call__ = timed("matvec", kernels.InstanceApplier.__call__)
    spectral._lowest_tridiagonal_pair = timed("exact", spectral._lowest_tridiagonal_pair)
    if hasattr(spectral, "_ritz_estimate"):
        spectral._ritz_estimate = timed("filtered", spectral._ritz_estimate)
    ritz_pass = spectral._ritz_pass

    def counted_pass(*args):
        result = ritz_pass(*args)
        counts["steps"] += result[2]
        counts["passes"] += 1
        return result

    spectral._ritz_pass = counted_pass


def worker(quick: bool) -> None:
    """Serve solves with the qsatkit on ``sys.path``: each line read names an
    instance to solve, answered by one line of JSON; ``dump PATH`` writes
    every pair solved so far to PATH, an .npz file."""
    import qsatkit as qk

    instances = population(qk, quick)
    # Untimed: loads scipy.linalg and fills the caches before the first solve.
    qk.spectral._krylov_ground_pair(instances["general-rank2-n10"][0])
    counts, seconds = collections.Counter(), collections.Counter()
    instrument(qk, counts, seconds)
    pairs = {}
    print(json.dumps({"file": qk.__file__, "names": list(instances)}), flush=True)
    for line in sys.stdin:
        command = line.split()
        if command[0] == "dump":
            np.savez(command[1], **pairs)
            print("{}", flush=True)
            continue
        name = command[0]
        instance, ref = instances[name]
        counts.clear()
        seconds.clear()
        start = time.perf_counter()
        lam, vec, residual = qk.spectral._krylov_ground_pair(instance)
        total = time.perf_counter() - start
        if ref is not None and abs(lam - ref) > NEAR_FF_TOL:
            raise AssertionError(f"{name}: lambda0 {lam!r} misses the reference {ref!r}")
        pairs.update({f"{name}/lambda0": np.float64(lam), f"{name}/vector": vec,
                      f"{name}/residual": np.float64(residual)})
        checks = seconds["exact"] + seconds["filtered"]
        print(json.dumps({
            "n": instance.num_qubits, "m": instance.num_terms,
            "total_s": total, "matvec_s": seconds["matvec"], "checks_s": checks,
            "rest_s": total - seconds["matvec"] - checks,
            **{key: counts[key] for key in COUNTS},
        }), flush=True)


class Worker:
    """A worker process on one tree's ``src/``."""

    def __init__(self, src: Path, quick: bool):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src)
        command = [sys.executable, __file__, "--worker"] + (["--quick"] if quick else [])
        self.proc = subprocess.Popen(command, env=env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        hello = self.ask(None)
        if Path(hello["file"]).resolve().parent != (src / "qsatkit").resolve():
            raise RuntimeError(f"imported qsatkit from {hello['file']}, not {src}")
        self.names = hello["names"]

    def ask(self, command):
        if command is not None:
            self.proc.stdin.write(command + "\n")
            self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def extract_src(rev: str, into: Path) -> Path:
    """The ``src/`` tree of git revision ``rev``, extracted under ``into``."""
    archive = into / "src.tar"
    subprocess.run(["git", "-C", str(ROOT), "archive", "-o", str(archive), rev, "src"],
                   check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(into, filter="data")
    return into / "src"


def differences(checkout: Path, baseline: Path) -> list:
    """The names of the pairs that differ between two trees' dumps."""
    with np.load(checkout) as ours, np.load(baseline) as theirs:
        if set(ours.files) != set(theirs.files):
            return sorted(set(ours.files) ^ set(theirs.files))
        return [key for key in ours.files if not np.array_equal(ours[key], theirs[key])]


def spread(values) -> dict:
    """Median and quartiles."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def summarize(runs: list) -> dict:
    """One solve's counts, the same in every round, and median seconds."""
    first = runs[0]
    if any(run[key] != first[key] for run in runs for key in COUNTS):
        raise AssertionError("counts differ between rounds")
    return {"n": first["n"], "m": first["m"], **{key: first[key] for key in COUNTS},
            **{key: round(statistics.median(run[key] for run in runs), 6) for key in SECONDS}}


def paired(checkout: list, baseline: list) -> dict:
    """The checkout's time over the baseline's, round by round."""
    ratios = [c["total_s"] / b["total_s"] for c, b in zip(checkout, baseline)]
    return {"ratio": spread(ratios), "rounds": len(ratios),
            "checkout_faster": sum(r < 1 for r in ratios)}


def machine() -> dict:
    def version(name):
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="n <= 10, one round: a check")
    parser.add_argument("--baseline", metavar="REV",
                        help="also solve with the src/ tree of this git revision")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_krylov.json")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        worker(args.quick)
        return
    rounds = 1 if args.quick else ROUNDS

    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        trees = {"checkout": ROOT / "src"}
        if args.baseline:
            trees["baseline"] = extract_src(args.baseline, scratch)
        workers = {}
        try:
            for tree, src in trees.items():
                workers[tree] = Worker(src, args.quick)
            names = workers["checkout"].names
            runs = {tree: {name: [] for name in names} for tree in trees}
            for r in range(rounds):
                for i, name in enumerate(names):
                    order = list(trees) if (r + i) % 2 == 0 else list(trees)[::-1]
                    for tree in order:
                        runs[tree][name].append(workers[tree].ask(name))
            for tree, w in workers.items():
                w.ask(f"dump {scratch / tree}.npz")
        finally:
            for w in workers.values():
                w.close()
        differing = (differences(scratch / "checkout.npz", scratch / "baseline.npz")
                     if args.baseline else [])
    if differing:
        raise AssertionError(f"pairs differ from {args.baseline}'s: {differing}")
    results = {tree: {name: summarize(r) for name, r in solves.items()}
               for tree, solves in runs.items()}

    header = f"{'solve':<20} {'steps':>6} {'exact':>6} {'filtered':>8} {'total ms':>9} {'checks ms':>9}"
    if args.baseline:
        header += f" {'baseline ms':>11} {'ratio':>6} {'faster':>6}"
    print(header)
    pairs = {}
    for name, row in results["checkout"].items():
        line = (f"{name:<20} {row['steps']:>6} {row['exact']:>6} {row['filtered']:>8}"
                f" {row['total_s'] * 1e3:>9.2f} {row['checks_s'] * 1e3:>9.2f}")
        if args.baseline:
            pairs[name] = paired(runs["checkout"][name], runs["baseline"][name])
            line += (f" {results['baseline'][name]['total_s'] * 1e3:>11.2f}"
                     f" {pairs[name]['ratio']['median']:>6.3f}"
                     f" {pairs[name]['checkout_faster']:>3}/{rounds}")
        print(line)
    report = {
        "machine": machine(),
        "settings": {
            "rounds": rounds, "baseline": args.baseline,
            "seconds": "median over the rounds of each solve",
            "checks_s": "exact (_lowest_tridiagonal_pair) and filtered (_ritz_estimate) checks",
        },
        "trees": results,
    }
    if args.baseline:
        report["identical_to_baseline"] = True
        report["paired"] = pairs
    args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
