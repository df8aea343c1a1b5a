"""Operator application: fiber layout, the sparse-factor kernel, and oracle agreement."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsatkit as qk
from qsatkit import kernels
from qsatkit.kernels import fiber_layout

from conftest import KERNELS, embed_matrix, mixed_instances, oracle_matrix, random_instance

# Supports and fiber sizes of rank-1 terms that do not fit 3 qubits.
MISFITS = [((0, 3), 4), ((1, 1), 4), ((-1,), 2), ((0, 1), 2)]


def _rank_two_term(rng, support):
    """A rank-2 projector on ``support`` as a GeneralTerm."""
    cols = rng.standard_normal((1 << len(support), 2)) + 1j * rng.standard_normal(
        (1 << len(support), 2))
    q, _ = np.linalg.qr(cols)
    return qk.GeneralTerm(support, q @ q.conj().T)


def rand_state(rng, num_qubits, cols=None):
    shape = (1 << num_qubits,) if cols is None else (1 << num_qubits, cols)
    vec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return vec / np.linalg.norm(vec)


class TestFiberLayout:
    @pytest.mark.parametrize("support", [(0,), (2,), (2, 0), (1, 3), (3, 1, 0)])
    def test_bases_and_offsets_partition_all_indices(self, support):
        num_qubits = 4
        bases, offsets = fiber_layout(num_qubits, support)
        assert len(bases) == 1 << (num_qubits - len(support))
        assert len(offsets) == 1 << len(support)
        everything = (bases[:, None] + offsets[None, :]).ravel()
        assert sorted(everything.tolist()) == list(range(1 << num_qubits))

    def test_offsets_follow_big_endian_support_order(self):
        # Support (2, 0) on 4 qubits: the first support qubit carries the
        # most significant bit of the local index.
        _, offsets = fiber_layout(4, (2, 0))
        bit_q2 = 1 << (4 - 1 - 2)
        bit_q0 = 1 << (4 - 1 - 0)
        assert offsets.tolist() == [0, bit_q0, bit_q2, bit_q2 | bit_q0]


class TestApplier:
    @pytest.mark.parametrize("kernel", KERNELS, indirect=True)
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_independent_embedding(self, kernel, seed):
        rng = np.random.Generator(np.random.Philox(key=seed))
        n = int(rng.integers(2, 6))
        inst = random_instance(rng, n, num_terms=int(rng.integers(1, 5)),
                               k=int(rng.integers(1, min(n, 3) + 1)))
        state = rand_state(rng, n)
        applier = kernel(inst)
        expected = oracle_matrix(inst) @ state
        assert np.allclose(applier(state), expected, atol=1e-12)

    @pytest.mark.parametrize("kernel", KERNELS, indirect=True)
    def test_general_terms_are_supported(self, kernel):
        rng = np.random.Generator(np.random.Philox(key=77))
        mat = np.zeros((4, 4), dtype=np.complex128)
        mat[0, 0] = mat[3, 3] = 1.0
        inst = qk.QsatInstance(3, [qk.GeneralTerm((2, 0), mat)])
        state = rand_state(rng, 3)
        applier = kernel(inst)
        expected = embed_matrix(3, (2, 0), mat) @ state
        assert np.allclose(applier(state), expected, atol=1e-12)

    @pytest.mark.parametrize("kernel", KERNELS, indirect=True)
    def test_general_terms_in_fortran_order(self, kernel):
        # A conjugate transpose is a column-major view, and the term keeps
        # that order; reading it as row-major would apply conj(P), not P.
        rng = np.random.Generator(np.random.Philox(key=78))
        vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        vec /= np.linalg.norm(vec)
        proj = np.outer(vec.conj(), vec)
        term = qk.GeneralTerm((2, 0), proj.conj().T)
        assert term.matrix.flags.f_contiguous and not term.matrix.flags.c_contiguous
        inst = qk.QsatInstance(3, [term])
        state = rand_state(rng, 3)
        expected = embed_matrix(3, (2, 0), proj.conj().T) @ state
        applied = kernel(inst)(state)
        assert np.abs(applied - expected).max() <= 1e-12

    @pytest.mark.parametrize("kernel", KERNELS, indirect=True)
    def test_batched_states_apply_columnwise(self, kernel):
        rng = np.random.Generator(np.random.Philox(key=9))
        inst = random_instance(rng, 4, num_terms=3)
        block = rand_state(rng, 4, cols=5)
        applier = kernel(inst)
        batched = applier(block)
        for j in range(5):
            assert np.allclose(batched[:, j], applier(block[:, j]), atol=1e-12)

    @pytest.mark.parametrize("support, fiber", MISFITS)
    def test_numpy_plans_must_fit_the_register(self, support, fiber):
        # Out-of-range and repeated qubits, and a payload shorter than the
        # fiber: scipy's CSR products do not check their indices.  A
        # QsatInstance refuses these terms itself, so a stand-in with the
        # four members the applier takes carries them to the plan check.
        amplitudes = np.zeros(fiber)
        amplitudes[0] = 1.0
        action = qk.RankOneTerm(support, amplitudes).action()
        inst = SimpleNamespace(num_qubits=3, num_terms=1,
                               supports=lambda: [support], actions=lambda: [action])
        with pytest.raises(qk.ArgumentError):
            qk.InstanceApplier(inst)

    def test_dimension_mismatch_is_rejected(self):
        inst = qk.QsatInstance(3, [qk.basis_term((0,), "0")])
        with pytest.raises(qk.DimensionMismatchError):
            qk.InstanceApplier(inst)(np.zeros(4, dtype=np.complex128))

    @pytest.mark.parametrize("kernel", KERNELS, indirect=True)
    @pytest.mark.parametrize("state", [np.complex128(1), np.ones((2, 1, 1))],
                             ids=["0-d", "3-d"])
    def test_states_of_other_ranks_are_rejected(self, kernel, state):
        inst = qk.QsatInstance(1, [qk.basis_term((0,), "0")])
        with pytest.raises(qk.DimensionMismatchError):
            kernel(inst)(state)

    @pytest.mark.parametrize("general", [False, True], ids=["rank-1", "general"])
    @pytest.mark.parametrize("batch", [None, 1, 3], ids=["1-d", "batch-1", "batch-3"])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_out_receives_the_allocated_result_bit_for_bit(self, general, batch, order):
        rng = np.random.Generator(np.random.Philox(key=31))
        if general:
            inst = qk.QsatInstance(5, [_rank_two_term(rng, (3, 0, 4)),
                                       _rank_two_term(rng, (1, 2))])
        else:
            inst = random_instance(rng, 5, num_terms=4, k=3)
        state = np.asarray(rand_state(rng, 5, cols=batch), order=order)
        applier = qk.InstanceApplier(inst)
        allocated = applier(state)
        out = np.full(state.shape, np.nan, dtype=np.complex128)
        assert applier(state, out) is out
        assert np.array_equal(out, allocated)
        assert np.array_equal(out, qk.apply_instance(inst, state))

    @pytest.mark.parametrize("batch", [None, 3], ids=["1-d", "batch-3"])
    def test_out_may_be_the_state(self, batch):
        rng = np.random.Generator(np.random.Philox(key=32))
        inst = random_instance(rng, 4, num_terms=3)
        state = rand_state(rng, 4, cols=batch)
        applier = qk.InstanceApplier(inst)
        expected = applier(state)
        assert applier(state, state) is state
        assert np.array_equal(state, expected)

    @pytest.mark.parametrize("batch", [None, 3], ids=["1-d", "batch-3"])
    @pytest.mark.parametrize("bad", ["complex64", "float64", "strided", "fortran",
                                     "short", "long", "extra-axis", "read-only"])
    def test_a_bad_out_raises_before_anything_is_written(self, batch, bad):
        # The compiled loops check no bounds: a wrong dtype, a strided or
        # column-major buffer or a wrong shape must be refused first.
        rng = np.random.Generator(np.random.Philox(key=33))
        inst = random_instance(rng, 4, num_terms=3)
        state = rand_state(rng, 4, cols=batch)
        shape = state.shape
        if bad == "complex64":
            out = np.full(shape, 7, dtype=np.complex64)
        elif bad == "float64":
            out = np.full(shape, 7.0)
        elif bad == "strided":
            out = np.full((2 * shape[0],) + shape[1:], 7, dtype=np.complex128)[::2]
        elif bad == "fortran":
            # A 1-D array is C-contiguous in either order: against a 1-D
            # state the column-major out has a second axis too.
            out = np.full(shape if batch else (shape[0], 2), 7, dtype=np.complex128, order="F")
        elif bad in ("short", "long"):
            rows = shape[0] // 2 if bad == "short" else 2 * shape[0]
            out = np.full((rows,) + shape[1:], 7, dtype=np.complex128)
        elif bad == "extra-axis":
            out = np.full(shape + (1,), 7, dtype=np.complex128)
        else:
            out = np.full(shape, 7, dtype=np.complex128)
            out.flags.writeable = False
        before = out.copy()
        with pytest.raises(qk.DimensionMismatchError):
            qk.InstanceApplier(inst)(state, out)
        assert np.array_equal(out, before)

    def test_the_compiled_loops_are_where_scipy_keeps_them(self):
        # The applier calls these four entry points of scipy's private
        # _sparsetools module, the loops B @ x and B.T @ y reach; a scipy
        # that moves or renames them fails here.
        from scipy.sparse import _sparsetools

        applier = qk.InstanceApplier(qk.QsatInstance(2, [qk.basis_term((0,), "1")]))
        assert applier._loops is _sparsetools
        for name in ("csr_matvec", "csc_matvec", "csr_matvecs", "csc_matvecs"):
            assert callable(getattr(_sparsetools, name))

    def test_backend_name_reports_selection(self):
        assert qk.backend_name() == "pure-python"


class TestConvenience:
    def test_apply_instance_matches_assembled_matrix(self, figure_b):
        rng = np.random.Generator(np.random.Philox(key=21))
        state = rand_state(rng, 3)
        dense = qk.assemble_dense(figure_b)
        assert np.allclose(qk.apply_instance(figure_b, state), dense @ state,
                           atol=1e-12)

    def test_expectation_of_witness_is_zero(self, figure_a):
        witness = np.zeros(8, dtype=np.complex128)
        witness[0] = 1.0
        assert qk.expectation(figure_a, witness) <= 1e-12

    def test_expectation_is_real_and_nonnegative(self):
        rng = np.random.Generator(np.random.Philox(key=23))
        inst = random_instance(rng, 4, num_terms=5)
        state = rand_state(rng, 4)
        value = qk.expectation(inst, state)
        assert isinstance(value, float)
        assert value >= -1e-12


@given(mixed_instances(max_qubits=7))
@settings(max_examples=60, deadline=None)
def test_kernels_and_assembly_match_the_oracle(inst):
    """The numpy kernel and assemble_dense against the Kronecker oracle:
    rank-1 and general terms, any support order, k = 1..n."""
    rng = np.random.Generator(np.random.Philox(key=inst.num_qubits))
    state = rand_state(rng, inst.num_qubits)
    oracle = oracle_matrix(inst)
    assert np.abs(qk.assemble_dense(inst) - oracle).max() <= 1e-12
    applied = qk.InstanceApplier(inst)(state)
    assert np.abs(applied - oracle @ state).max(initial=0.0) <= 1e-12


@given(mixed_instances(max_qubits=6), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_numpy_kernel_matches_assembly_on_batches(inst, batch):
    """The numpy kernel's sparse factor against assemble_dense, on single
    states and on (dim, batch) blocks, which go through the factor whole."""
    rng = np.random.Generator(np.random.Philox(key=batch))
    states = rand_state(rng, inst.num_qubits, cols=batch or None)
    applied = qk.InstanceApplier(inst)(states)
    expected = qk.assemble_dense(inst) @ states
    assert applied.shape == states.shape
    assert np.abs(applied - expected).max(initial=0.0) <= 1e-12


@given(mixed_instances(max_qubits=6))
@settings(max_examples=60, deadline=None)
def test_applier_bytes_are_the_built_factor_and_two_vectors(inst):
    """``_applier_bytes`` counts B's arrays exactly, a row per row of each
    term's action and fiber (r for a general term of rank r, not 2^k), plus
    a matvec's B x and result."""
    factor = qk.InstanceApplier(inst)._factor
    built = factor.data.nbytes + factor.indices.nbytes + factor.indptr.nbytes
    vectors = 16 * (factor.shape[0] + (1 << inst.num_qubits))
    assert kernels._applier_bytes(inst) == built + vectors
