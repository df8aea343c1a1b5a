"""Plumbing shared by the benchmark scripts.

``extract_src`` checks out the ``src/`` tree of a git revision for a
``--baseline``, ``machine`` describes the host of a report, ``spread`` and
``paired`` summarize timings, and ``Worker`` and ``serve`` are the two ends of
a worker process: a script re-run with ``--worker`` under one tree's
``src/``, which answers each command line with one line of JSON.

The scripts import it as ``_common``, from their own directory, which Python
puts first on ``sys.path`` when it runs one of them.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def extract_src(rev: str, into: Path) -> Path:
    """The ``src/`` tree of git revision ``rev``, extracted under ``into``."""
    archive = into / "src.tar"
    subprocess.run(["git", "-C", str(ROOT), "archive", "-o", str(archive), rev, "src"],
                   check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(into, filter="data")
    return into / "src"


def machine(versions=False, blas=False, **more) -> dict:
    """The host: its core count; with ``versions`` Python's, numpy's and
    scipy's versions, with ``blas`` numpy's BLAS; ``OPENBLAS_NUM_THREADS``;
    then ``more`` as given."""
    row = {"nproc": os.cpu_count()}
    if versions:
        row["python"] = platform.python_version()
        for name in ("numpy", "scipy"):
            try:
                row[name] = metadata.version(name)
            except metadata.PackageNotFoundError:
                row[name] = None
    if blas:
        import numpy as np

        build = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        row["blas"] = f"{build.get('name')} {build.get('version')}"
    row["OPENBLAS_NUM_THREADS"] = os.environ.get("OPENBLAS_NUM_THREADS")
    return {**row, **more}


def spread(values, digits=6, scale=1, method="exclusive") -> dict:
    """Median and quartiles of ``values`` (statistics.quantiles' ``method``)
    times ``scale``, rounded to ``digits`` (None: not rounded); one value
    is its own median and quartiles."""
    values = list(values)
    q1, median, q3 = (statistics.quantiles(values, n=4, method=method)
                      if len(values) > 1 else values * 3)
    row = {"median": median * scale, "q1": q1 * scale, "q3": q3 * scale}
    return row if digits is None else {key: round(v, digits) for key, v in row.items()}


def paired(checkout, baseline, digits=6, count="rounds") -> dict:
    """The checkout's time over the baseline's, pair by pair, each pair
    measured moments apart so that a slow stretch of the host falls on both
    sides: the ratio's ``spread``, the number of pairs (under ``count``) and
    the pairs in which the checkout was faster."""
    ratios = [c / b for c, b in zip(checkout, baseline)]
    return {"ratio": spread(ratios, digits), count: len(ratios),
            "checkout_faster": sum(r < 1 for r in ratios)}


class Worker:
    """A worker process: ``script --worker *args`` importing qsatkit from
    ``src``.  Its first line, ``hello``, names the qsatkit file it imported
    (``"file"``), which must come from ``src``; ``ask`` sends one command
    line and returns the JSON line that answers it."""

    def __init__(self, script, src: Path, *args):
        env = {**os.environ, "PYTHONPATH": str(src)}
        self.proc = subprocess.Popen([sys.executable, str(script), "--worker", *args], env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.hello = self.ask(None)
        if Path(self.hello["file"]).resolve().parent != (src / "qsatkit").resolve():
            raise RuntimeError(f"imported qsatkit from {self.hello['file']}, not {src}")

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


def serve(hello: dict, answer) -> None:
    """The worker's end: print ``hello``, then answer each command line read
    with ``answer(words)`` as one line of JSON."""
    print(json.dumps(hello), flush=True)
    for line in sys.stdin:
        print(json.dumps(answer(line.split())), flush=True)
