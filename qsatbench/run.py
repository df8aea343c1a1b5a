"""qsatkit benchmark: one workload, one seed, one result line.

    python3 qsatbench/run.py --workload small_dense --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and nothing needs installing.  The run

1. imports qsatkit (and ``qsatkit.cli``, the ``qsat`` command), timed;
2. draws the workload's inputs from ``--seed`` and computes the references
   the checks need (benchmark code, untimed);
3. builds the instances through the package several times (timed; setup_s
   is the import time plus the median build);
4. runs whole rounds of the workload's operations for ``--seconds``: after
   the first MIN_ROUNDS rounds, a round starts only while the previous
   round's length still fits in the window.  The speed probe of
   ``pace.py`` runs before every operation;
5. checks every output, then prints one JSON line: ``correct``,
   ``attempted``, ``failed`` and the metrics.

``--trace 0`` reports the end-to-end metrics with tracing off, every time in
reference seconds (``pace.py``); ``--trace 1`` installs spans around the
package's functions and reports the per-layer metrics instead (median over
rounds, measured seconds), and writes a per-span summary to
``.qsatbench/trace-<workload>-seed<seed>.json``.
"""

import argparse
import ctypes
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path
from statistics import median

from pace import Pace
from tracing import Tracer, layer_metrics, summary, unit_of

# One OpenBLAS thread unless the caller asks for more; read when numpy loads.
# With the default of one thread per core, the idle worker's spin-wait slows
# the main thread: on a 2-core machine an n = 15 Krylov verdict took 4.4-5.1 s
# against 2.0-2.1 s, and an n = 8 dense verdict 0.27-0.32 s with a quartile
# spread of 30-68% of its median against 0.144 s with 1-2%.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".qsatbench"
SETUP_REPEATS = 5
MIN_ROUNDS = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description="qsatkit benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("small_dense", "large_krylov", "gadget_cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import qsatkit from this checkout's src/; returns (package, seconds)."""
    if not (SRC / "qsatkit" / "__init__.py").is_file():
        raise SystemExit(f"error: no qsatkit package under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import qsatkit
    import qsatkit.cli  # noqa: F401  (the qsat command)
    seconds = time.perf_counter() - start
    if Path(qsatkit.__file__).resolve().parent != SRC / "qsatkit":
        raise SystemExit(f"error: imported qsatkit from {qsatkit.__file__}, not {SRC}")
    return qsatkit, seconds


def blas_threads():
    """Threads of each OpenBLAS the process has loaded (numpy's and scipy's)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if "openblas" in line and ".so" in line})
    except OSError:
        return {}
    threads = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            query = getattr(lib, name, None)
            if query is not None:
                query.restype = ctypes.c_int
                threads[Path(path).name] = query()
                break
    return threads


def machine(qk):
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "backend": qk.backend_name(),
    }


class Round:
    def __init__(self):
        self.times = []  # (op, seconds) for every operation, failed ones too
        self.failed = 0
        self.wrong = []
        self.spans = None
        self.elapsed = 0.0

    @property
    def wall(self):
        return sum(t for _, t in self.times)


def trim_heap():
    """Hand the heap's free memory back to the system (glibc), so that each
    operation's peak resident memory does not depend on what earlier ones
    left behind: without it, peak_rss_mib of small_dense moved between 237
    and 255 MiB for the same seed."""
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


def run_round(ops, tracer, errors, pace):
    result = Round()
    start = time.perf_counter()
    for op in ops:
        trim_heap()
        pace.sample()
        ok = True
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = op.call()
            else:
                with tracer.span(f"bench.{op.group}"):
                    out = op.call()
        except Exception:  # an operation that fails is counted, not fatal
            ok = False
            if op.label not in errors:
                errors[op.label] = traceback.format_exc(limit=3)
        result.times.append((op, time.perf_counter() - t0))
        if not ok:
            result.failed += 1
            continue
        try:
            op.check(out)
        except Exception as exc:  # a wrong output, or one that cannot be read
            result.wrong.append(f"{op.label}: {exc!r}")
    pace.sample()
    if tracer is not None:
        result.spans = tracer.take()
    result.elapsed = time.perf_counter() - start
    return result


def end_to_end(workload, rounds, setup_s, pace):
    """The end-to-end metrics of an untraced run, in reference seconds.

    Each operation's time is scaled by the run's probe slowdown.  A p50 is
    the median over every call of its group in the run: on a shared host a
    single call can take twice its usual time, and the median of all calls,
    made at moments seconds apart, is not moved by that.  The throughput is
    a ratio of sums over the whole run.
    """
    scaled = [[(op, pace.scale(t, op.python_share)) for op, t in r.times] for r in rounds]
    timed = [pair for r in scaled for pair in r]

    def p50(group):
        return median(t for op, t in timed if op.group == group)

    throughput = [(op, t) for op, t in timed if op.group == workload.throughput_group]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (median(sum(t for _, t in r) for r in scaled), "s"),
        "verdict_p50_s": (p50("verdict"), "s"),
        "verdicts_per_s": (sum(op.verdicts for op, _ in throughput)
                           / sum(t for _, t in throughput), "1/s"),
        "reduce_verify_p50_s": (p50("reduce_verify"), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def per_layer(args, info, rounds):
    """Median over rounds of each per-layer figure; writes the trace file."""
    per_round = [layer_metrics(r.spans) for r in rounds]
    document = {
        "workload": args.workload,
        "seed": args.seed,
        "machine": info,
        "per_round": per_round,
        "spans": summary([s for r in rounds for s in r.spans]),
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    return {name: (median(m[name] for m in per_round), unit_of(name)) for name in per_round[0]}


def main(argv=None):
    args = parse_args(argv)
    pace = Pace()
    pace.sample()  # warm-up, before the probes that count
    pace = Pace()
    pace.sample()
    qk, import_s = import_package()
    pace.sample()
    pace.enable_lapack()

    from workloads import WORKLOADS  # imports numpy: after the timed import

    info = machine(qk)
    print(f"machine: {json.dumps(info)}", file=sys.stderr)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workload = WORKLOADS[args.workload](qk, args.seed, workdir)
    try:
        workload.prepare()
        builds = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.build()
            builds.append(time.perf_counter() - start)
            pace.sample()
        setup_raw = import_s + median(builds)
        workload.warmup()
        ops = workload.ops()

        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        errors = {}
        rounds = []
        window = time.perf_counter()
        try:
            while True:
                rounds.append(run_round(ops, tracer, errors, pace))
                used = time.perf_counter() - window
                if len(rounds) >= MIN_ROUNDS and used + rounds[-1].elapsed > args.seconds:
                    break
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for label, text in errors.items():
        print(f"failed: {label}\n{text}", file=sys.stderr)
    wrong = [w for r in rounds for w in r.wrong]
    for line in wrong:
        print(f"wrong: {line}", file=sys.stderr)
    print(f"rounds: {len(rounds)}, ops per round: {len(ops)}, "
          f"measured round wall: {[round(r.wall, 3) for r in rounds]}, "
          f"measured setup: {setup_raw:.4f} s, probe slowdown: {pace.overall()}",
          file=sys.stderr)
    for i, op in enumerate(ops):
        print(f"  {median(r.times[i][1] for r in rounds):9.4f} s  {op.label} (measured)",
              file=sys.stderr)

    if args.trace:
        metrics = per_layer(args, info, rounds)
    else:
        metrics = end_to_end(workload, rounds, setup_raw / pace.factor(), pace)
    result = {
        "correct": not wrong,
        "attempted": len(rounds) * len(ops),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
