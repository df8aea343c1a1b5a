"""Backend selection and matrix-free application of instances to states.

Both backends compute ``Q @ state`` over the same per-term ``fiber_layout``
plan, which ``assemble_dense`` also uses:

* ``compiled`` — the C99 gather/scatter loops of ``_fiber.c``, loaded with
  ctypes (built at install time when a C compiler is present, absent
  otherwise);
* ``pure-python`` — one sparse factor B with Q = B^H B, built once from the
  plans, whose two products run in scipy's compiled CSR loops.  B has a row
  per term and fiber for a rank-1 term |v><v| (the row <v| on that fiber's
  indices) and r for a general term of rank r, so a matvec is
  conj(B^T conj(B x)): at n = 10, m = 10, k = 3 its median took 46-76 us
  against 223-225 us for the per-term numpy gather/scatter it replaced
  (one OpenBLAS thread).

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

    Per-term fiber plans, and on the ``pure-python`` backend the sparse
    factor B, are built once at construction, so repeated applications
    (Krylov iterations) pay only the arithmetic.  A batch of states (shape
    ``(dim, batch)``) goes through B whole, and column by column through the
    C loops; any other shape raises DimensionMismatchError.

    B holds a general term M through its image: its r eigenvectors of
    eigenvalue above 1/2, each scaled by the square root of its eigenvalue.
    That takes r rows per fiber instead of 2^k, and the term's part of
    B^H B is M up to the Hermiticity and idempotency tolerances an instance
    is validated to.
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
        plans = []
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
            # fiber: neither the C loops nor scipy's CSR products check their
            # indices.
            bases, offsets = fiber_layout(self.num_qubits, term.support)
            fiber = len(offsets)
            if (len(bases) * fiber != self.dim
                    or payload.shape != ((fiber,) if rank_one else (fiber, fiber))):
                raise ArgumentError(
                    f"term on {term.support} does not fit {self.num_qubits} qubits"
                )
            plans.append((rank_one, bases, offsets, payload))
        self._factor = None
        if backend == "compiled":
            # The plans stay referenced here while the kernel holds their addresses.
            self._plans = plans
            self._addresses = tuple(
                (_compiled.apply_rank_one if rank_one else _compiled.apply_general,
                 (bases.ctypes.data, len(bases), offsets.ctypes.data, len(offsets),
                  payload.ctypes.data))
                for rank_one, bases, offsets, payload in plans
            )
        else:
            self._factor = _sparse_factor(self.dim, plans)

    def __call__(self, state, out=None):
        state = np.asarray(state)
        if state.ndim not in (1, 2) or state.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"state has shape {state.shape}, expected ({self.dim},) "
                f"or ({self.dim}, batch)"
            )
        if out is None:
            out = np.empty(state.shape, dtype=np.complex128)
        else:
            # Checked before any kernel writes: the C loops trust the buffer.
            if (not isinstance(out, np.ndarray) or out.dtype != np.complex128
                    or not out.flags.c_contiguous or not out.flags.writeable):
                raise ArgumentError("out must be a writeable, C-contiguous complex128 array")
            if out.shape != state.shape:
                raise DimensionMismatchError(
                    f"out has shape {out.shape}, expected {state.shape}"
                )
            # The C path zeroes out before it reads state, so the two must
            # not overlap.
            if np.shares_memory(out, state):
                raise ArgumentError("out must not share memory with state")
        if self._factor is not None:
            factor, adjoint = self._factor
            image = factor @ np.ascontiguousarray(state, dtype=np.complex128)
            np.conjugate(image, out=image)
            # B^H y = conj(B^T conj(y)), with B^T the CSC view of B's arrays.
            np.conjugate(adjoint @ image, out=out)
            return out
        out[...] = 0
        if state.ndim == 1:
            self._accumulate(out, np.ascontiguousarray(state, dtype=np.complex128))
            return out
        # One contiguous row per column, so the C loops see plain vectors.
        sources = np.ascontiguousarray(state.reshape(self.dim, -1).T, dtype=np.complex128)
        results = np.zeros_like(sources)
        for source, result in zip(sources, results):
            self._accumulate(result, source)
        out.reshape(self.dim, -1)[...] = results.T
        return out

    def _accumulate(self, out, state):
        """out += Q @ state for contiguous complex128 vectors, by the C loops."""
        out_at, state_at = out.ctypes.data, state.ctypes.data
        for kernel, args in self._addresses:
            kernel(out_at, state_at, *args)


def _sparse_factor(dim, plans):
    """B and its transpose, with Q = B^H B, from the terms' fiber plans.

    Each term adds its action on every fiber, as rows whose columns are that
    fiber's indices ``bases[b] + offsets``: the row <v| of a rank-1 term,
    and for a general term its image (see ``InstanceApplier``).  Every row
    of a term has 2^k nonzeros, so the arrays are sized up front and filled
    term by term; B costs 20 bytes per nonzero (a complex value and an int32
    column), with int64 indices only when the nonzeros outgrow int32.  scipy.sparse is imported
    here, on first use: importing it takes 15-20 ms, which a CLI start that
    runs no Lanczos iteration does not pay.
    """
    import scipy.sparse

    actions = []
    for rank_one, _, _, payload in plans:
        if rank_one:
            actions.append(payload.conj()[None])
        else:
            values, vectors = np.linalg.eigh(payload)
            image = values > 0.5
            actions.append((vectors[:, image] * np.sqrt(values[image])).conj().T)
    rows = sum(len(bases) * len(action) for (_, bases, _, _), action in zip(plans, actions))
    nnz = sum(dim * len(action) for action in actions)
    index = np.int32 if nnz < 1 << 31 else np.int64
    data = np.empty(nnz, dtype=np.complex128)
    indices = np.empty(nnz, dtype=index)
    indptr = np.empty(rows + 1, dtype=index)
    indptr[0] = row = at = 0
    for (_, bases, offsets, _), action in zip(plans, actions):
        fiber, count = len(offsets), len(bases) * len(action)
        end = at + count * fiber
        shape = (len(bases), len(action), fiber)
        np.add(bases[:, None, None], offsets, out=indices[at:end].reshape(shape))
        data[at:end].reshape(shape)[...] = action
        indptr[row + 1:row + 1 + count] = np.arange(at + fiber, end + 1, fiber)
        row, at = row + count, end
    factor = scipy.sparse.csr_array((data, indices, indptr), shape=(rows, dim), copy=False)
    return factor, factor.T


def _applier_bytes(instance):
    """Bytes an InstanceApplier on the default backend holds for
    ``instance``, with a matvec's temporaries.  On the C kernel: each term's
    int64 bases and offsets and its complex payload.  On the numpy kernel:
    the sparse factor B of ``_sparse_factor``, with a general term at its
    largest rank, and a matvec's B x and result."""
    dim = 1 << instance.num_qubits
    plans = rows = nnz = 0
    for term in instance.terms:
        k = len(term.support)
        # Rows of B per fiber: <v| for a rank-1 term, at most 2^k for a general one.
        width = 1 if isinstance(term, RankOneTerm) else 1 << k
        plans += 8 * ((dim >> k) + (1 << k)) + 16 * (width << k)
        rows += (dim >> k) * width
        nnz += dim * width
    if _compiled is not None:
        return plans
    index = 4 if nnz < 1 << 31 else 8
    return (16 + index) * nnz + index * (rows + 1) + 16 * (rows + dim)


def apply_instance(instance, state):
    """One-shot ``Q @ state``; build an InstanceApplier for repeated use."""
    return InstanceApplier(instance)(state)


def expectation(instance, state):
    """<state| Q |state> as a real number (state need not be normalized)."""
    state = np.asarray(state, dtype=np.complex128)
    return float(np.vdot(state, apply_instance(instance, state)).real)
