"""Time qsatkit's fixed start-up cost: fresh processes, one command each.

Every ``qsat`` command runs in a new interpreter, so each pays the import of
``qsatkit`` and ``qsatkit.cli`` and whatever its work loads on top.  This
script runs each case of ``CASES`` in a fresh process: the import alone, and
``qsat analyze builtin:figure-a``, ``qsat bounds 15``, ``qsat solve
builtin:figure-a`` (a null-space witness) and ``qsat solve builtin:figure-b``
(a dense eigensolve).  For each it records the median and quartiles of the
process's wall time, measured from this script around the whole process,
and of the import inside it; the exit code; and whether any ``scipy``
module was loaded by the end.  It also records the modules with the largest
cumulative ``python -X importtime`` figures for the import, the median over
its runs.

With ``--baseline REV`` the ``src/`` tree of git revision REV is extracted
into a temporary directory (``git archive``, local) and measured in the
same runs, the two trees alternating which goes first, and the JSON gets,
per case, the ratio of the checkout's time to the baseline's in each run.
The script raises if a case of the checkout's tree exits with another code
than the command's, or if a case listed as scipy-free loads scipy there.  ``--quick`` runs each case three times with
one importtime run: a check, not a measurement.

Run as ``python benchmarks/bench_startup.py [--baseline REV]`` from the
repository root; the children import qsatkit from each tree's ``src/`` with
one OpenBLAS thread unless ``OPENBLAS_NUM_THREADS`` is set.
"""

from __future__ import annotations

import argparse
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

ROOT = Path(__file__).resolve().parent.parent

# name -> (qsat arguments, or None for the import alone; exit code; scipy-free)
CASES = {
    "import": (None, 0, True),
    "analyze builtin:figure-a": (["analyze", "builtin:figure-a"], 0, True),
    "bounds 15": (["bounds", "15"], 0, True),
    "solve builtin:figure-a": (["solve", "builtin:figure-a"], 0, True),
    "solve builtin:figure-b": (["solve", "builtin:figure-b"], 1, False),
}
RUNS, QUICK_RUNS = 21, 3
IMPORTTIME_RUNS, QUICK_IMPORTTIME_RUNS = 7, 1
TOP_IMPORTS = 12

# The child: times the import, runs the command with its output discarded,
# and reports on the last line of stderr.
DRIVER = """
import contextlib, io, json, sys, time
start = time.perf_counter()
import qsatkit, qsatkit.cli
import_s = time.perf_counter() - start
code = 0
if len(sys.argv) > 1:
    with contextlib.redirect_stdout(io.StringIO()):
        code = qsatkit.cli.main(sys.argv[1:])
report = {"import_s": import_s, "scipy": "scipy" in sys.modules, "file": qsatkit.__file__}
print(json.dumps(report), file=sys.stderr)
sys.exit(code)
"""


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    return env


def run_case(src: Path, argv) -> dict:
    """One fresh process of a case: wall and import seconds, exit code and
    whether scipy was loaded.  Raises if qsatkit came from another tree."""
    command = [sys.executable, "-c", DRIVER, *(argv or [])]
    start = time.perf_counter()
    proc = subprocess.run(command, env=child_env(src), capture_output=True, text=True)
    wall = time.perf_counter() - start
    try:
        report = json.loads(proc.stderr.splitlines()[-1])
    except (IndexError, ValueError):
        raise RuntimeError(f"{argv} under {src} printed no report:\n{proc.stderr}") from None
    if Path(report["file"]).resolve().parent != (src / "qsatkit").resolve():
        raise RuntimeError(f"imported qsatkit from {report['file']}, not {src}")
    return {"wall_s": wall, "import_s": report["import_s"], "exit": proc.returncode,
            "scipy": report["scipy"]}


def importtime(src: Path) -> dict:
    """Module -> (self us, cumulative us) of one ``-X importtime`` import."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import qsatkit, qsatkit.cli"],
        env=child_env(src), capture_output=True, text=True, check=True,
    )
    modules = {}
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[0].strip().isdigit():
            modules[fields[2].strip()] = (int(fields[0]), int(fields[1]))
    return modules


def spread(values, scale=1e3) -> dict:
    """Median and quartiles, in milliseconds by default."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": round(median * scale, 3), "q1": round(q1 * scale, 3),
            "q3": round(q3 * scale, 3)}


def top_imports(samples) -> list:
    """The modules with the largest median cumulative import time."""
    names = set().union(*samples)
    rows = []
    for name in names:
        timed = [s[name] for s in samples if name in s]
        rows.append({
            "module": name,
            "self_ms": round(statistics.median(t[0] for t in timed) / 1e3, 2),
            "cumulative_ms": round(statistics.median(t[1] for t in timed) / 1e3, 2),
        })
    rows.sort(key=lambda row: -row["cumulative_ms"])
    return rows[:TOP_IMPORTS]


def extract_src(rev: str, into: Path) -> Path:
    """The ``src/`` tree of git revision ``rev``, extracted under ``into``."""
    archive = into / "src.tar"
    subprocess.run(["git", "-C", str(ROOT), "archive", "-o", str(archive), rev, "src"],
                   check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(into, filter="data")
    return into / "src"


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
        "OPENBLAS_NUM_THREADS": child_env(ROOT / "src")["OPENBLAS_NUM_THREADS"],
        # Set, every process compiles qsatkit's modules from source.
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }


def measure(trees: dict, runs: int, importtime_runs: int):
    """The raw runs of each tree and case, and their summary per tree."""
    # Untimed: fills the file cache and, where bytecode may be written,
    # compiles a fresh tree's.
    for src in trees.values():
        for argv, _, _ in CASES.values():
            run_case(src, argv)
    samples = {tree: {case: [] for case in CASES} for tree in trees}
    for run in range(runs):
        order = list(trees) if run % 2 == 0 else list(trees)[::-1]
        for case, (argv, _, _) in CASES.items():
            for tree in order:
                samples[tree][case].append(run_case(trees[tree], argv))
    results = {}
    for tree, src in trees.items():
        cases = {}
        for case, runs_of_case in samples[tree].items():
            cases[case] = {
                "wall_ms": spread([r["wall_s"] for r in runs_of_case]),
                "import_ms": spread([r["import_s"] for r in runs_of_case]),
                "exit": sorted({r["exit"] for r in runs_of_case}),
                "loads_scipy": sorted({r["scipy"] for r in runs_of_case}),
            }
        results[tree] = {
            "cases": cases,
            "importtime": top_imports([importtime(src) for _ in range(importtime_runs)]),
        }
    return samples, results


def paired(samples) -> dict:
    """Per case, the checkout's wall time over the baseline's in the same
    run, the two processes adjacent: median and quartiles of the ratio, and
    the runs in which the checkout was faster.  The host's slow stretches
    move both sides of a pair alike."""
    rows = {}
    for case in CASES:
        ratios = [c["wall_s"] / b["wall_s"]
                  for c, b in zip(samples["checkout"][case], samples["baseline"][case])]
        rows[case] = {
            "ratio": spread(ratios, scale=1), "runs": len(ratios),
            "checkout_faster": sum(r < 1 for r in ratios),
        }
    return rows


def check(cases: dict) -> None:
    """Raise when a case of the checkout's tree exits with an unexpected
    code, or loads scipy although it is listed as scipy-free."""
    for case, (_, code, scipy_free) in CASES.items():
        row = cases[case]
        if row["exit"] != [code]:
            raise AssertionError(f"{case}: exit codes {row['exit']}, expected {code}")
        if scipy_free and row["loads_scipy"] != [False]:
            raise AssertionError(f"{case} loaded scipy; it is listed as scipy-free")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="three runs per case and one importtime run: a check")
    parser.add_argument("--baseline", metavar="REV",
                        help="also measure the src/ tree of this git revision")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_startup.json")
    args = parser.parse_args()
    runs, importtime_runs = (
        (QUICK_RUNS, QUICK_IMPORTTIME_RUNS) if args.quick else (RUNS, IMPORTTIME_RUNS)
    )

    with tempfile.TemporaryDirectory() as scratch:
        trees = {"checkout": ROOT / "src"}
        if args.baseline:
            trees["baseline"] = extract_src(args.baseline, Path(scratch))
        samples, results = measure(trees, runs, importtime_runs)
    check(results["checkout"]["cases"])

    print(f"{'case':<26} " + "  ".join(f"{tree + ' ms':>14}" for tree in trees))
    for case in CASES:
        medians = [results[tree]["cases"][case]["wall_ms"]["median"] for tree in trees]
        print(f"{case:<26} " + "  ".join(f"{m:>14.1f}" for m in medians))
    report = {
        "machine": machine(),
        "settings": {
            "runs": runs, "importtime_runs": importtime_runs,
            "wall": "fresh process, timed around it by the parent, median and quartiles in ms",
            "import": "import qsatkit, qsatkit.cli timed inside the process",
            "importtime": f"top {TOP_IMPORTS} modules by median cumulative -X importtime",
            "baseline": args.baseline,
        },
        "trees": results,
    }
    if args.baseline:
        report["paired"] = paired(samples)
    args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
