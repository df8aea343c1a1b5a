"""Matrix-free application of instances to states.

``InstanceApplier`` computes ``Q @ state`` through one sparse factor B with
Q = B^H B, built once from the terms' actions A (``QsatInstance.actions``,
with A^H A the term's projector) and the per-term ``fiber_layout`` plans
that ``assemble_dense`` also uses; its two products run in scipy's compiled
CSR and CSC loops.  B has a row per row of A and fiber: one for a rank-1 term
|v><v| (the row <v| on that fiber's indices) and r for a general term of
rank r, so a matvec is conj(B^T conj(B x)): at n = 10, m = 10, k = 3 its
median took 46-76 us against 223-225 us for the per-term numpy
gather/scatter it replaced (one OpenBLAS thread).  Whole forced-Krylov
solves at n = 18 took 31.4-32.7 s on it against 27.4-34.0 s on C99
gather/scatter loops over the same plans, so the package has no compiled
extension.

The applier calls those loops (``scipy.sparse._sparsetools``) on B's own
arrays, the loops ``B @ x`` and ``B.T @ y`` reach, without the sparse
array's dispatch.  A caller that passes ``out`` gets the result written
there: the Lanczos recurrence rotates three vectors of its own through it
and allocates nothing a step but B x.  A step's matvec on large_krylov's
near-frustration-free n = 10 instances took 34.8-35.5 us, against
39.1-40.2 us through the sparse arrays' ``@`` with an allocated result,
bit for bit the same (``BENCH_krylov.json``, one OpenBLAS thread).

``fiber_layout`` is the one plan of the index arithmetic that embeds a term
into the register: dense assembly, this sparse factor, and the null-space
witness's state and energy all take their indices from it.  It cuts both
index arrays out of one axis permutation of the register's indices, with no
Python loop over the qubits: 3-9 us at n = 3-10 against 11-55 us for the
per-qubit loop it replaced, and 1.0 ms against 22 ms at n = 20 with one
qubit on the support (``BENCH_witness.json``, written by
``benchmarks/bench_witness.py``, 2-core host, one OpenBLAS thread).
"""

import numpy as np

from .errors import ArgumentError, DimensionMismatchError


def backend_name() -> str:
    """The name of the matvec kernel: the sparse factor's products in scipy's
    compiled CSR and CSC loops (``scipy.sparse._sparsetools``)."""
    return "scipy-sparsetools"


def fiber_layout(num_qubits, support):
    """Index arrays that embed a term on ``support`` into the register.

    Returns ``(bases, offsets)``: ``bases`` holds the global index of the
    first fiber element for every configuration of the non-support qubits,
    ``offsets`` the index displacement of each of the 2^k fiber amplitudes
    (big-endian over the support order).  ``bases[:, None] + offsets`` lists
    every fiber's indices; ``InstanceApplier``'s sparse factor and
    ``assemble_dense`` are both built from it.  A support that is not k
    distinct qubits of the register raises ArgumentError.

    Both come from one permutation of the register's indices: ``arange(2^n)``
    as an n-axis grid, its axes ordered as the other qubits (ascending), then
    the support, so ``bases`` is the grid at support bits 0 and ``offsets``
    at the other bits 0, each copied out in order.  That is one pass over
    2^n indices and no Python loop over the qubits; the grid, 8 bytes an
    index, half a state vector of the register, is held while it runs.  At
    every n = 3-20 and k = 1, 3 and n it beat the loop it replaced, one
    numpy pass over 2^(n-k) entries per idle qubit (``BENCH_witness.json``,
    medians of seven rounds, one OpenBLAS thread): 3-9 us at n = 3-10
    against 11-55 us; 0.2-1.0 ms at n = 18-20 for k = 1 and 3 against
    0.7-22 ms; and for the whole register, as the witness and the product
    of components place their states, 1.3-10 ms against 11-54 ms.  No size
    needs another rule.
    """
    n, k = num_qubits, len(support)
    rest = [q for q in range(n) if q not in support]
    if len(rest) + k != n:
        raise ArgumentError(f"term on {tuple(support)} does not fit {n} qubits")
    grid = np.arange(1 << n, dtype=np.int64).reshape((2,) * n).transpose(rest + list(support))
    # flatten copies, so neither array keeps the 2^n grid alive.
    return grid[(...,) + (0,) * k].flatten(), grid[(0,) * (n - k)].flatten()


class InstanceApplier:
    """Callable computing ``Q @ state`` for a fixed instance.

    The sparse factor B is built once at construction, so repeated
    applications (Krylov iterations) pay only the arithmetic.  A state of
    shape ``(dim,)`` or a batch of shape ``(dim, batch)`` goes through B
    whole; any other shape raises DimensionMismatchError.

    ``applier(state, out)`` writes the result into ``out`` and returns it;
    ``out`` may be ``state`` itself.  The compiled loops check no bounds, so
    an ``out`` that is not a writeable, C-contiguous complex128 array of the
    state's shape raises DimensionMismatchError before anything is written.
    ``applier(state)`` allocates the result.  Either way each call allocates
    its own B x, rows of B times the batch, so one applier may run
    re-entrantly.

    The one argument is a ``QsatInstance`` or any object with its four
    members ``num_qubits``, ``num_terms``, ``supports()`` and ``actions()``:
    the Krylov route passes one instance of a stack that way.  The
    constructor reads ``num_qubits``, ``supports()`` and ``actions()``;
    ``num_terms`` is there for the benchmark's tracer
    (``qsatbench/tracing.py``), which wraps this constructor and reads it.
    """

    def __init__(self, instance):
        self.num_qubits = instance.num_qubits
        self.dim = 1 << instance.num_qubits
        plans = []
        for support, action in zip(instance.supports(), instance.actions()):
            # The plan must tile the register (fiber_layout refuses a support
            # that does not) and the action must match the fiber: scipy's
            # CSR loops do not check their indices.
            bases, offsets = fiber_layout(self.num_qubits, support)
            if action.shape[1] != len(offsets):
                raise ArgumentError(f"term on {support} does not fit {self.num_qubits} qubits")
            plans.append((bases, offsets, action))
        self._factor, self._loops = _sparse_factor(self.dim, plans)

    def __call__(self, state, out=None):
        state = np.asarray(state)
        if state.ndim not in (1, 2) or state.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"state has shape {state.shape}, expected ({self.dim},) "
                f"or ({self.dim}, batch)"
            )
        if out is None:
            out = np.empty(state.shape, dtype=np.complex128)
        elif not (isinstance(out, np.ndarray) and out.dtype == np.complex128
                  and out.flags.c_contiguous and out.flags.writeable
                  and out.shape == state.shape):
            raise DimensionMismatchError(
                f"out must be a writeable C-contiguous complex128 array of shape "
                f"{state.shape}"
            )
        state = np.ascontiguousarray(state, dtype=np.complex128)
        factor, loops = self._factor, self._loops
        rows, dim = factor.shape
        batch = state.shape[1] if state.ndim == 2 else 1
        # scipy's own dispatch: one column goes through the vector loops.
        if batch == 1:
            forward, backward, vecs = loops.csr_matvec, loops.csc_matvec, ()
        else:
            forward, backward, vecs = loops.csr_matvecs, loops.csc_matvecs, (batch,)
        arrays = factor.indptr, factor.indices, factor.data
        # The loops add into their output, which starts at zero, as in B @ x.
        image = np.zeros(rows * batch, dtype=np.complex128)
        forward(rows, dim, *vecs, *arrays, state.reshape(-1), image)
        np.conjugate(image, out=image)
        # B^H y = conj(B^T conj(y)), with B^T the CSC reading of B's arrays.
        # out is cleared only now: it may be the state.
        result = out.reshape(-1)
        result.fill(0)
        backward(dim, rows, *vecs, *arrays, image, result)
        return np.conjugate(out, out=out)


def _sparse_factor(dim, plans):
    """B, with Q = B^H B, from ``(bases, offsets, action)`` plans, one per
    term, and the module of scipy's compiled loops that apply it.

    Each term adds its action on every fiber, as rows whose columns are that
    fiber's indices ``bases[b] + offsets``.  Every row of a term has 2^k
    nonzeros, so the arrays are sized up front and filled term by term; B
    costs 20 bytes per nonzero (a complex value and an int32 column), with
    int64 indices only when the nonzeros outgrow int32.  scipy.sparse, and
    with it ``_sparsetools``, is imported here, on first use: after
    ``import qsatkit, qsatkit.cli`` the import took 122-160 ms (median
    153 ms of seven fresh processes, one OpenBLAS thread), most of it
    scipy's start-up, which it shares with ``scipy.linalg``; with that
    already loaded it took 11-16 ms.  A process that runs no Lanczos
    iteration does not pay it.
    """
    import scipy.sparse
    from scipy.sparse import _sparsetools

    rows = sum(len(bases) * len(action) for bases, _, action in plans)
    nnz = sum(dim * len(action) for _, _, action in plans)
    index = np.int32 if nnz < 1 << 31 else np.int64
    data = np.empty(nnz, dtype=np.complex128)
    indices = np.empty(nnz, dtype=index)
    indptr = np.empty(rows + 1, dtype=index)
    indptr[0] = row = at = 0
    for bases, offsets, action in plans:
        fiber, count = len(offsets), len(bases) * len(action)
        end = at + count * fiber
        shape = (len(bases), len(action), fiber)
        np.add(bases[:, None, None], offsets, out=indices[at:end].reshape(shape))
        data[at:end].reshape(shape)[...] = action
        indptr[row + 1:row + 1 + count] = np.arange(at + fiber, end + 1, fiber)
        row, at = row + count, end
    factor = scipy.sparse.csr_array((data, indices, indptr), shape=(rows, dim), copy=False)
    return factor, _sparsetools


def _applier_bytes(instance):
    """Bytes an InstanceApplier holds for ``instance``, which it takes as
    the applier does, with a matvec's temporaries: the arrays of the sparse
    factor B of ``_sparse_factor``, a row per row of a term's action and
    fiber, and a matvec's B x and result."""
    n = instance.num_qubits
    rows = nnz = 0
    for support, action in zip(instance.supports(), instance.actions()):
        rows += len(action) << (n - len(support))
        nnz += len(action) << n
    index = 4 if nnz < 1 << 31 else 8
    return (16 + index) * nnz + index * (rows + 1) + 16 * (rows + (1 << n))


def apply_instance(instance, state):
    """One-shot ``Q @ state``; build an InstanceApplier for repeated use."""
    return InstanceApplier(instance)(state)


def expectation(instance, state):
    """<state| Q |state> as a real number (state need not be normalized)."""
    state = np.asarray(state, dtype=np.complex128)
    return float(np.vdot(state, apply_instance(instance, state)).real)
