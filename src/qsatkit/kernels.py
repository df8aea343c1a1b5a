"""Backend selection and matrix-free application of instances to states.

Both backends compute ``Q @ state`` over the same per-term ``fiber_layout``
plan, which ``assemble_dense`` also uses:

* ``compiled`` — the C99 gather/scatter loops of ``_fiber.c``, loaded with
  ctypes (built at install time when a C compiler is present, absent
  otherwise);
* ``pure-python`` — the same gather/scatter as numpy fancy indexing.

The compiled backend is selected when its library is present.
``InstanceApplier`` also accepts an explicit ``backend=`` so the two can be
compared in one process.
"""

import ctypes
from pathlib import Path

import numpy as np

from .errors import ArgumentError, DimensionMismatchError
from .instance import GeneralTerm, QsatInstance, RankOneTerm


def load_compiled(directory):
    """The ``_fiber`` library in ``directory`` with its argument types
    declared, or None if it was not built there.

    Arrays pass as bare addresses: numpy's checked ``ndpointer`` arguments
    cost about 35 us a call against 3 us, more than a whole small fiber
    loop.  ``InstanceApplier`` checks shape, dtype and contiguity instead.
    """
    try:
        lib = np.ctypeslib.load_library("_fiber", directory)
    except OSError:
        return None
    address, count = ctypes.c_void_p, ctypes.c_int64
    for fn in (lib.apply_rank_one, lib.apply_general):
        fn.argtypes = [address, address, address, count, address, count, address]
        fn.restype = None
    return lib


_compiled = load_compiled(Path(__file__).parent)


def compiled_available() -> bool:
    return _compiled is not None


def backend_name() -> str:
    """The backend InstanceApplier uses by default."""
    return "compiled" if _compiled is not None else "pure-python"


def fiber_layout(num_qubits, support):
    """Index arrays that embed a term on ``support`` into the register.

    Returns ``(bases, offsets)``: ``bases`` holds the global index of the
    first fiber element for every configuration of the non-support qubits,
    ``offsets`` the index displacement of each of the 2^k fiber amplitudes
    (big-endian over the support order).  ``bases[:, None] + offsets`` lists
    every fiber's indices; the compiled kernels and ``assemble_dense`` both
    use it.
    """
    n = num_qubits
    k = len(support)
    amp = np.arange(1 << k, dtype=np.int64)
    offsets = np.zeros(1 << k, dtype=np.int64)
    for j, q in enumerate(support):
        offsets |= ((amp >> (k - 1 - j)) & 1) << (n - 1 - q)
    rest = [q for q in range(n) if q not in set(support)]
    cfg = np.arange(1 << len(rest), dtype=np.int64)
    bases = np.zeros(1 << len(rest), dtype=np.int64)
    for j, q in enumerate(rest):
        bases |= ((cfg >> (len(rest) - 1 - j)) & 1) << (n - 1 - q)
    return bases, offsets


class InstanceApplier:
    """Callable computing ``Q @ state`` for a fixed instance.

    Per-term fiber plans are computed once at construction, so repeated
    applications (Krylov iterations) pay only the arithmetic.  A batch of
    states (shape ``(dim, batch)``) is applied column by column; any other
    shape raises DimensionMismatchError.
    """

    def __init__(self, instance: QsatInstance, backend: str = "auto"):
        if backend == "auto":
            backend = backend_name()
        elif backend == "compiled" and _compiled is None:
            raise ArgumentError("compiled kernels are not available in this build")
        elif backend not in ("compiled", "pure-python"):
            raise ArgumentError(f"unknown backend {backend!r}")
        self.backend = backend
        self.num_qubits = instance.num_qubits
        self.dim = 1 << instance.num_qubits
        self._plans = []
        for term in instance.terms:
            # Row-major complex128: the C loops read the matrix row by row,
            # and a term keeps the memory order it was given.
            if isinstance(term, RankOneTerm):
                payload, rank_one = np.ascontiguousarray(term.amplitudes, np.complex128), True
            elif isinstance(term, GeneralTerm):
                payload, rank_one = np.ascontiguousarray(term.matrix, np.complex128), False
            else:
                raise ArgumentError(f"unsupported term type {type(term).__name__}")
            # The plan must tile the register and the payload must match the
            # fiber: the C loops index without bounds checks, and the numpy
            # kernel relies on each term overwriting its scratch whole.
            bases, offsets = fiber_layout(self.num_qubits, term.support)
            fiber = len(offsets)
            if (len(bases) * fiber != self.dim
                    or payload.shape != ((fiber,) if rank_one else (fiber, fiber))):
                raise ArgumentError(
                    f"term on {term.support} does not fit {self.num_qubits} qubits"
                )
            self._plans.append((rank_one, bases, offsets, payload))
        self._addresses = None
        if backend == "compiled":
            # The plans stay referenced here while the kernel holds their addresses.
            self._addresses = tuple(
                (_compiled.apply_rank_one if rank_one else _compiled.apply_general,
                 (bases.ctypes.data, len(bases), offsets.ctypes.data, len(offsets),
                  payload.ctypes.data))
                for rank_one, bases, offsets, payload in self._plans
            )

    def __call__(self, state, out=None):
        state = np.asarray(state)
        if state.ndim not in (1, 2) or state.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"state has shape {state.shape}, expected ({self.dim},) "
                f"or ({self.dim}, batch)"
            )
        if out is None:
            out = np.zeros(state.shape, dtype=np.complex128)
        else:
            # Checked before any kernel writes: the C loops trust the buffer.
            if (not isinstance(out, np.ndarray) or out.dtype != np.complex128
                    or not out.flags.c_contiguous or not out.flags.writeable):
                raise ArgumentError("out must be a writeable, C-contiguous complex128 array")
            if out.shape != state.shape:
                raise DimensionMismatchError(
                    f"out has shape {out.shape}, expected {state.shape}"
                )
            # out is zeroed before state is read, so the two must not overlap.
            if np.shares_memory(out, state):
                raise ArgumentError("out must not share memory with state")
            out[...] = 0
        if state.ndim == 1:
            self._accumulate(out, np.ascontiguousarray(state, dtype=np.complex128))
            return out
        # One contiguous row per column, so both backends see plain vectors.
        sources = np.ascontiguousarray(state.reshape(self.dim, -1).T, dtype=np.complex128)
        results = np.zeros_like(sources)
        for source, result in zip(sources, results):
            self._accumulate(result, source)
        out.reshape(self.dim, -1)[...] = results.T
        return out

    def _accumulate(self, out, state):
        """out += Q @ state for contiguous complex128 vectors."""
        if self._addresses is not None:
            out_at, state_at = out.ctypes.data, state.ctypes.data
            for kernel, args in self._addresses:
                kernel(out_at, state_at, *args)
            return
        scratch = np.empty_like(out)
        for rank_one, bases, offsets, payload in self._plans:
            # Row b of idx lists the indices of fiber b.
            idx = bases[:, None] + offsets
            fibers = state.take(idx)
            if rank_one:
                scratch[idx] = np.multiply.outer(fibers @ payload.conj(), payload)
            else:
                scratch[idx] = fibers @ payload.T
            out += scratch


def apply_instance(instance, state):
    """One-shot ``Q @ state``; build an InstanceApplier for repeated use."""
    return InstanceApplier(instance)(state)


def expectation(instance, state):
    """<state| Q |state> as a real number (state need not be normalized)."""
    state = np.asarray(state, dtype=np.complex128)
    return float(np.vdot(state, apply_instance(instance, state)).real)
