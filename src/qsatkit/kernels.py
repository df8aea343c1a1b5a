"""Backend selection and matrix-free application of instances to states.

Two interchangeable backends compute ``Q @ state``:

* ``compiled`` — the C99 gather/scatter loops of ``_fiber.c`` over the
  ``fiber_layout`` plan, loaded with ctypes (built at install time when a C
  compiler is present, absent otherwise);
* ``pure-python`` — numpy reshape/``moveaxis`` arithmetic, which also
  handles batched states.

The compiled backend is selected when its library is present.
``InstanceApplier`` also accepts an explicit ``backend=`` so the two can be
compared in one process.
"""

import ctypes
from pathlib import Path

import numpy as np

from . import _kernels_py
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

    Per-term index plans are computed once at construction, so repeated
    applications (Krylov iterations) pay only the arithmetic.  Batched
    states (shape ``(dim, batch)``) are handled by the pure backend.
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
        self._fiber_plans = []
        for term in instance.terms:
            # Row-major complex128: the C loops read the matrix row by row,
            # and a term keeps the memory order it was given.
            if isinstance(term, RankOneTerm):
                payload, rank_one = np.ascontiguousarray(term.amplitudes, np.complex128), True
            elif isinstance(term, GeneralTerm):
                payload, rank_one = np.ascontiguousarray(term.matrix, np.complex128), False
            else:
                raise ArgumentError(f"unsupported term type {type(term).__name__}")
            self._plans.append((rank_one, term.support, payload))
            if self.backend == "compiled":
                # The C loops index without bounds checks: the plan must
                # tile the register and the payload must match the fiber.
                bases, offsets = fiber_layout(self.num_qubits, term.support)
                fiber = len(offsets)
                if (len(bases) * fiber != self.dim
                        or payload.shape != ((fiber,) if rank_one else (fiber, fiber))):
                    raise ArgumentError(
                        f"term on {term.support} does not fit {self.num_qubits} qubits"
                    )
                kernel = _compiled.apply_rank_one if rank_one else _compiled.apply_general
                # The arrays stay referenced here while the kernel holds their addresses.
                self._fiber_plans.append((kernel, (bases, offsets, payload), (
                    bases.ctypes.data, len(bases), offsets.ctypes.data, fiber,
                    payload.ctypes.data)))

    def __call__(self, state, out=None):
        state = np.asarray(state)
        if state.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"state has leading dimension {state.shape[0]}, expected {self.dim}"
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
            out[...] = 0
        if self.backend == "compiled" and state.ndim == 1:
            state = np.ascontiguousarray(state, dtype=np.complex128)
            out_at, state_at = out.ctypes.data, state.ctypes.data
            for kernel, _, args in self._fiber_plans:
                kernel(out_at, state_at, *args)
            return out
        state = state.astype(np.complex128, copy=False)
        for rank_one, support, payload in self._plans:
            kernel = _kernels_py.apply_rank_one if rank_one else _kernels_py.apply_general
            kernel(out, state, self.num_qubits, support, payload)
        return out


def apply_instance(instance, state, out=None, backend="auto"):
    """One-shot ``Q @ state``; build an InstanceApplier for repeated use."""
    return InstanceApplier(instance, backend=backend)(state, out=out)


def expectation(instance, state, backend="auto"):
    """<state| Q |state> as a real number (state need not be normalized)."""
    state = np.asarray(state, dtype=np.complex128)
    return float(np.vdot(state, apply_instance(instance, state, backend=backend)).real)
