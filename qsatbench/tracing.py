"""Spans around calls into qsatkit's modules, installed from outside.

Nothing in the package is edited.  ``Tracer.install`` replaces every public
function of each traced module (a *layer*) with a wrapper that records a
span: name, start, end and the enclosing span.  Names bound again by
``from ... import`` (``spectral.require_valid``, ``reduction.decide_sat``,
``qsatkit.decide_sat``, ...) are found by identity in every loaded qsatkit
module and replaced there too, so a call is traced whichever binding it goes
through.  A few private helpers that carry a stage of their own, and the
two ``InstanceApplier`` methods, are wrapped by name.

Spans stay in memory; ``layer_metrics`` reduces one round's spans to the
per-layer figures and ``summary`` keeps per-name totals for the trace file.
"""

import inspect
import os
import sys
import time
import weakref
from contextlib import contextmanager
from statistics import median

LAYERS = ("instance", "io", "kernels", "spectral", "reduction", "ensembles", "cli", "catalog")

# Private helpers whose time is a stage of its own.
HELPERS = {
    ("spectral", "_dense_ground_pair"): "spectral.dense_solve",
    ("spectral", "_krylov_ground_pair"): "spectral.krylov",
}

METHODS = {
    ("kernels", "InstanceApplier", "__init__"): "kernels.plan_build",
    ("kernels", "InstanceApplier", "__call__"): "kernels.matvec",
}

# A matvec reads the state and reads and writes the output once per term;
# kernels.matvec.gbytes_per_s is computed from this model, not measured.
MATVEC_BYTES_PER_TERM_AMPLITUDE = 3 * 16


class Span:
    __slots__ = ("name", "start", "end", "parent", "nbytes")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.nbytes = 0


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []
        self._patches = []
        self._applier_terms = weakref.WeakKeyDictionary()

    def _begin(self, name):
        span = Span(name, time.perf_counter_ns(), self._open[-1] if self._open else None)
        self.spans.append(span)
        self._open.append(span)
        return span

    def _end(self, span):
        span.end = time.perf_counter_ns()
        self._open.pop()

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself (one per operation)."""
        span = self._begin(name)
        try:
            yield span
        finally:
            self._end(span)

    def wrap(self, name, fn, nbytes=None):
        def traced(*args, **kwargs):
            span = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(span)
            if nbytes is not None:
                span.nbytes = nbytes(args)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the layers' functions in every loaded qsatkit module."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "qsatkit" or name.startswith("qsatkit."))]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"qsatkit.{layer}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj, self._nbytes(layer, attr))
        for (layer, attr), name in HELPERS.items():
            fn = getattr(sys.modules[f"qsatkit.{layer}"], attr)
            wrappers[fn] = self.wrap(name, fn)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, attr, wrappers[obj])
        for (layer, cls_name, attr), name in METHODS.items():
            cls = getattr(sys.modules[f"qsatkit.{layer}"], cls_name)
            nbytes = self._matvec_bytes if attr == "__call__" else None
            wrapped = self.wrap(name, getattr(cls, attr), nbytes)
            if attr == "__init__":
                wrapped = self._remember_terms(wrapped)
            self._patch(cls, attr, wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _remember_terms(self, init):
        def plan_build(applier, instance, *args, **kwargs):
            init(applier, instance, *args, **kwargs)
            self._applier_terms[applier] = instance.num_terms

        return plan_build

    def _matvec_bytes(self, args):
        applier, state = args[0], args[1]
        terms = self._applier_terms.get(applier, 0)
        return MATVEC_BYTES_PER_TERM_AMPLITUDE * terms * len(state)

    @staticmethod
    def _nbytes(layer, attr):
        if layer == "spectral" and attr == "assemble_dense":
            return lambda args: 16 * 4 ** args[0].num_qubits  # computed
        if layer == "io" and attr.startswith("save_"):
            return lambda args: os.path.getsize(args[0])
        return None

    def take(self):
        """The spans recorded so far; the tracer starts afresh."""
        spans, self.spans = self.spans, []
        return spans


def _layer(name):
    return name.split(".", 1)[0]


def layer_metrics(spans):
    """Per-layer figures for one round of spans (times in seconds).

    A span's self time is its duration minus that of its direct children;
    the self times of all spans add up to the duration of the root spans,
    which the benchmark opens around each operation (layer ``bench``).
    """
    index = {id(s): i for i, s in enumerate(spans)}
    parent = [index[id(s.parent)] if s.parent is not None else -1 for s in spans]
    dur = [(s.end - s.start) * 1e-9 for s in spans]
    child = [0.0] * len(spans)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[i]
    self_s = [d - c for d, c in zip(dur, child)]

    def under(i, name):
        p = parent[i]
        while p >= 0:
            if spans[p].name == name:
                return True
            p = parent[p]
        return False

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    def total(*names):
        return sum(d for s, d in zip(spans, dur) if s.name in names)

    def own(name):
        return sum(t for s, t in zip(spans, self_s) if s.name == name)

    def layer_self(layer):
        return sum(t for s, t in zip(spans, self_s) if _layer(s.name) == layer)

    matvec = [d for s, d in zip(spans, dur) if s.name == "kernels.matvec"]
    matvec_bytes = sum(s.nbytes for s in spans if s.name == "kernels.matvec")
    decide_calls = calls("spectral.decide_sat")
    validate_calls = calls("instance.validate")
    metrics = {
        "instance.validate.calls": validate_calls,
        "instance.validate.s": total("instance.validate"),
        "instance.validate.per_verdict": validate_calls / decide_calls if decide_calls else 0.0,
        "io.load.s": total("io.load_instance"),
        "io.save.s": total("io.save_instance", "io.save_reduction"),
        "io.bytes_written": sum(s.nbytes for s in spans if s.name.startswith("io.save_")),
        "kernels.plan_build.calls": calls("kernels.plan_build"),
        "kernels.plan_build.s": total("kernels.plan_build"),
        "kernels.matvec.calls": len(matvec),
        "kernels.matvec.s": sum(matvec),
        "kernels.matvec.p50_ms": median(matvec) * 1e3 if matvec else 0.0,
        "kernels.matvec.gbytes_per_s": matvec_bytes / sum(matvec) / 1e9 if matvec else 0.0,
        "spectral.assemble_dense.s": total("spectral.assemble_dense"),
        "spectral.assemble_dense.bytes": sum(
            s.nbytes for s in spans if s.name == "spectral.assemble_dense"),
        "spectral.dense_solve.self_s": own("spectral.dense_solve"),
        "spectral.krylov.calls": calls("spectral.krylov"),
        "spectral.krylov.matvecs": sum(
            1 for i, s in enumerate(spans)
            if s.name == "kernels.matvec" and under(i, "spectral.krylov")),
        "spectral.krylov.self_s": own("spectral.krylov"),
        "spectral.nullspace.calls": calls("spectral.common_nullspace_dim"),
        "spectral.nullspace.s": total("spectral.common_nullspace_dim"),
        "spectral.decide_sat.calls": decide_calls,
        "spectral.decide_sat.s": total("spectral.decide_sat"),
        "reduction.extract_core.s": total("reduction.extract_minimal_core"),
        "reduction.extract_core.decide_calls": sum(
            1 for i, s in enumerate(spans)
            if s.name == "spectral.decide_sat" and under(i, "reduction.extract_minimal_core")),
        "reduction.build.s": total("reduction.build_reduction"),
        "reduction.verify.s": total("reduction.verify_reduction"),
        "ensembles.sample.s": total("ensembles.sample_ensemble"),
        "ensembles.trials": sum(
            1 for i, s in enumerate(spans)
            if s.name == "spectral.decide_sat" and under(i, "ensembles.sample_ensemble")),
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_s": layer_self("cli"),
    }
    for layer in ("instance", "io", "kernels", "spectral", "reduction", "ensembles",
                  "catalog", "bench"):
        metrics[f"{layer}.self_s"] = layer_self(layer)
    metrics["trace.wall_s"] = sum(d for p, d in zip(parent, dur) if p < 0)
    metrics["trace.spans"] = len(spans)
    return metrics


UNITS = {
    "calls": "count", "per_verdict": "ratio", "bytes_written": "bytes", "bytes": "bytes",
    "p50_ms": "ms", "gbytes_per_s": "GB/s", "matvecs": "count", "decide_calls": "count",
    "trials": "count", "spans": "count",
}


def unit_of(metric):
    return UNITS.get(metric.rsplit(".", 1)[1], "s")


def summary(spans):
    """Per-name call counts, total and self seconds, for the trace file."""
    out = {}
    children = {}
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)] = children.get(id(s.parent), 0) + (s.end - s.start)
    for s in spans:
        entry = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        dur = s.end - s.start
        entry["calls"] += 1
        entry["total_s"] += dur * 1e-9
        entry["self_s"] += (dur - children.get(id(s), 0)) * 1e-9
    return out
