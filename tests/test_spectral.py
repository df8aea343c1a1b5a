"""Assembly, ground energies, verdicts, nullspace counting, dominance."""

from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qsatkit as qk

from conftest import (
    KERNELS,
    embed_matrix,
    linked_figure_b,
    mixed_instances,
    near_identity_pair,
    oracle_lambda0,
    oracle_matrix,
    random_instance,
    widest_component,
)
from qsatkit import kernels, spectral
from qsatkit.spectral import _actions, _local_nullspace_basis, _null_directions, sat_tolerance

# Ground-state doublet of the frustrated triangle instance, frozen from an
# independent 8x8 eigendecomposition; agrees with (5 - sqrt(17)) / 4.
TRIANGLE_LAMBDA0 = 0.21922359359558494
TRIANGLE_TOP = (5 + math.sqrt(17)) / 4


def _singlet_chain(num_qubits):
    return qk.QsatInstance(
        num_qubits, [qk.singlet_term(q, q + 1) for q in range(num_qubits - 1)]
    )


def _planted_instance(num_qubits, num_terms, k, seed):
    """Haar rank-1 terms, each projected off one random product state."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    product = rng.standard_normal((num_qubits, 2)) + 1j * rng.standard_normal((num_qubits, 2))
    product /= np.linalg.norm(product, axis=1, keepdims=True)
    terms = []
    for _ in range(num_terms):
        support = tuple(int(q) for q in rng.choice(num_qubits, size=k, replace=False))
        local = product[support[0]]
        for q in support[1:]:
            local = np.kron(local, product[q])
        v = rng.standard_normal(1 << k) + 1j * rng.standard_normal(1 << k)
        v -= np.vdot(local, v) * local
        terms.append(qk.RankOneTerm(support, v / np.linalg.norm(v)))
    return qk.QsatInstance(num_qubits, terms)


def _traced_krylov_solve(warmup):
    """A forced-Krylov solve of an n = 12, k = 3, m = 24 instance, its
    result and its peak traced bytes; a solve of ``warmup`` first imports
    scipy.sparse outside the trace."""
    inst = random_instance(np.random.Generator(np.random.Philox(key=12)), 12, 24, k=3)
    qk.ground_energy(warmup, method="krylov")
    tracemalloc.start()
    try:
        result = qk.ground_energy(inst, method="krylov")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return inst, result, peak


def _broadcast_gram(inst):
    """The reference operator of a rank-1 instance: each term's row a = <v|
    adds the broadcast product conj(a)[:, None] * a[None, :], embedded by
    the Kronecker oracle, in term order."""
    n = inst.num_qubits
    total = np.zeros((1 << n, 1 << n), dtype=np.complex128)
    for term in inst.terms:
        a = term.amplitudes.conj()
        total += embed_matrix(n, term.support, a.conj()[:, None] * a[None, :])
    return total


def _masked_ground_energy(inst, fixed):
    """The reference for a pinned energy: the lowest eigenvalue of the
    principal submatrix of the whole assembled operator on the basis states
    whose pinned qubits hold their bits."""
    n = inst.num_qubits
    idx = np.arange(1 << n)
    mask = np.ones(1 << n, dtype=bool)
    for qubit, bit in fixed.items():
        mask &= ((idx >> (n - 1 - qubit)) & 1) == bit
    sel = np.flatnonzero(mask)
    return spectral._dense_ground_pair(qk.assemble_dense(inst)[np.ix_(sel, sel)][None])[0][0]


def _moved(inst, image, num_qubits):
    """``inst`` on a ``num_qubits`` register, its qubit q sent to image[q]."""
    terms = []
    for term in inst.terms:
        support = tuple(int(image[q]) for q in term.support)
        if isinstance(term, qk.RankOneTerm):
            terms.append(qk.RankOneTerm(support, term.amplitudes))
        else:
            terms.append(qk.GeneralTerm(support, term.matrix))
    return qk.QsatInstance(num_qubits, terms)


@st.composite
def split_instances(draw):
    """Two mixed instances on disjoint qubits of one register, with up to
    two idle qubits and the qubits shuffled: several components, in no
    particular qubit order, each also of any shape ``mixed_instances``
    draws."""
    first, second = draw(mixed_instances(max_qubits=3)), draw(mixed_instances(max_qubits=3))
    n = first.num_qubits + second.num_qubits + draw(st.integers(0, 2))
    order = draw(st.permutations(range(n)))
    placed = _moved(first, order, n).terms + _moved(second, order[first.num_qubits:], n).terms
    return qk.QsatInstance(n, placed)


def _unsplit_pair(inst, route):
    """The ground-state stage on the whole register, with no split."""
    return next(spectral._ground_pairs(
        inst.num_qubits, inst.supports(), _actions(inst.terms), route
    ))


@st.composite
def pinned_instances(draw):
    """A mixed instance and pins on none, all, or some of its qubits, the
    latter with or without the whole support of one of its terms."""
    inst = draw(mixed_instances(max_qubits=6))
    n = inst.num_qubits
    kind = draw(st.sampled_from(["none", "all", "some", "whole-term"]))
    qubits = set(range(n)) if kind == "all" else set()
    if kind in ("some", "whole-term"):
        qubits = set(draw(st.permutations(range(n)))[:draw(st.integers(0, n))])
    if kind == "whole-term" and inst.terms:
        qubits |= set(inst.terms[draw(st.integers(0, inst.num_terms - 1))].support)
    return inst, {q: draw(st.integers(0, 1)) for q in sorted(qubits)}


def _register_basis(inst):
    """The local null-space basis L, expanded to L (x) I on the register in
    the register's qubit order."""
    local, touched, _ = _local_nullspace_basis(inst.supports(), _actions(inst.terms))
    local = local[0]
    n = inst.num_qubits
    order = touched + [q for q in range(n) if q not in touched]
    full = np.kron(local, np.eye(1 << (n - len(touched))))
    full = np.moveaxis(full.reshape((2,) * n + (-1,)), range(n), order)
    return full.reshape(1 << n, -1)


class TestAssemble:
    def test_single_projector_on_first_qubit(self):
        inst = qk.QsatInstance(2, [qk.basis_term((0,), "0")])
        assert np.allclose(qk.assemble_dense(inst), np.diag([1.0, 1.0, 0.0, 0.0]))

    def test_repeated_term_doubles_the_operator(self):
        once = qk.QsatInstance(2, [qk.basis_term((0, 1), "01")])
        twice = qk.QsatInstance(2, [qk.basis_term((0, 1), "01")] * 2)
        assert np.allclose(qk.assemble_dense(twice), 2 * qk.assemble_dense(once))

    def test_empty_instance_assembles_to_zero(self):
        assert not qk.assemble_dense(qk.QsatInstance(2, [])).any()

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_independent_embedding(self, seed):
        rng = np.random.Generator(np.random.Philox(key=seed))
        n = int(rng.integers(1, 6))
        inst = random_instance(rng, n, num_terms=int(rng.integers(1, 6)),
                               k=int(rng.integers(1, min(n, 3) + 1)))
        assert np.allclose(qk.assemble_dense(inst), oracle_matrix(inst),
                           atol=1e-12)

    @pytest.mark.parametrize("seed", range(12))
    def test_rank_one_terms_assemble_to_the_broadcast_product(self, seed):
        # Bit for bit: ``@`` or ``np.einsum`` in place of the broadcast
        # product change the last bits of the operator.
        rng = np.random.Generator(np.random.Philox(key=300 + seed))
        n = int(rng.integers(1, 6))
        inst = random_instance(rng, n, num_terms=int(rng.integers(1, 7)),
                               k=int(rng.integers(1, min(n, 3) + 1)))
        assert np.array_equal(qk.assemble_dense(inst), _broadcast_gram(inst))

    def test_assembled_operator_is_hermitian_psd(self):
        rng = np.random.Generator(np.random.Philox(key=99))
        inst = random_instance(rng, 4, num_terms=6, k=2)
        q = qk.assemble_dense(inst)
        assert np.allclose(q, q.conj().T)
        assert np.linalg.eigvalsh(q)[0] >= -1e-12

    def test_dense_routines_refuse_before_allocating(self):
        # 14 qubits would need a 4 GiB matrix plus eigh's copy.
        inst = _singlet_chain(qk.config.DENSE_MAX_QUBITS + 1)
        tracemalloc.start()
        try:
            with pytest.raises(qk.CapacityError):
                qk.ground_energy(inst, method="dense")
            with pytest.raises(qk.CapacityError):
                qk.ground_energy(qk.QsatInstance(inst.num_qubits, []), method="dense")
            with pytest.raises(qk.CapacityError):
                qk.assemble_dense(inst)
            with pytest.raises(qk.CapacityError):
                qk.common_nullspace_dim(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestGroundEnergy:
    def test_complementary_projectors_cost_one(self):
        inst = qk.QsatInstance(
            1, [qk.basis_term((0,), "0"), qk.basis_term((0,), "1")]
        )
        result = qk.ground_energy(inst)
        assert abs(result.lambda0 - 1.0) <= 1e-12
        assert abs(result.e0 - 0.5) <= 1e-12

    def test_single_entangled_projector_is_satisfiable(self):
        inst = qk.QsatInstance(2, [qk.singlet_term(0, 1)])
        assert qk.ground_energy(inst).lambda0 <= 1e-12

    def test_triangle_ground_energy_matches_frozen_value(self, figure_b):
        result = qk.ground_energy(figure_b)
        assert abs(result.lambda0 - TRIANGLE_LAMBDA0) <= 1e-10
        assert abs(result.lambda0 - qk.FIGURE_B_GROUND_ENERGY) <= 1e-10
        assert result.method == "dense"

    def test_reports_unit_ground_vector_and_small_residual(self, figure_b):
        result = qk.ground_energy(figure_b)
        assert abs(np.linalg.norm(result.ground_vector) - 1.0) <= 1e-10
        applied = qk.apply_instance(figure_b, result.ground_vector)
        residual = np.linalg.norm(applied - result.lambda0 * result.ground_vector)
        assert residual <= 1e-8
        assert result.residual <= 1e-8

    def test_empty_instance_has_zero_energy(self):
        result = qk.ground_energy(qk.QsatInstance(3, []))
        assert result.lambda0 == 0.0
        assert result.e0 == 0.0

    def test_normalized_energy_divides_by_term_count(self, figure_b):
        result = qk.ground_energy(figure_b)
        assert result.e0 == result.lambda0 / figure_b.num_terms

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_independent_eigensolve(self, seed):
        rng = np.random.Generator(np.random.Philox(key=1000 + seed))
        inst = random_instance(rng, int(rng.integers(2, 6)),
                               num_terms=int(rng.integers(1, 7)))
        result = qk.ground_energy(inst)
        assert abs(result.lambda0 - oracle_lambda0(inst)) <= 1e-10

    @given(st.integers(0, 1 << 30))
    @settings(max_examples=25, deadline=None)
    def test_positivity(self, seed):
        rng = np.random.Generator(np.random.Philox(key=seed))
        inst = random_instance(rng, 4, num_terms=int(rng.integers(0, 6)))
        assert qk.ground_energy(inst).lambda0 >= -1e-9

    @given(st.integers(0, 1 << 30))
    @settings(max_examples=15, deadline=None)
    def test_monotone_under_added_terms(self, seed):
        rng = np.random.Generator(np.random.Philox(key=seed))
        inst = random_instance(rng, 4, num_terms=int(rng.integers(1, 5)))
        extra = qk.haar_random_term(
            tuple(int(q) for q in rng.choice(4, size=2, replace=False)), rng
        )
        bigger = qk.QsatInstance(4, list(inst.terms) + [extra])
        assert (qk.ground_energy(bigger).lambda0
                >= qk.ground_energy(inst).lambda0 - 1e-9)

    def test_auto_route_follows_the_dense_cutoff(self):
        cutoff = qk.config.DENSE_CUTOFF
        assert qk.ground_energy(_singlet_chain(cutoff)).method == "dense"
        above = qk.ground_energy(_singlet_chain(cutoff + 1))
        assert above.method == "krylov"
        assert above.lambda0 <= 1e-9

    def test_dense_and_krylov_agree(self):
        rng = np.random.Generator(np.random.Philox(key=42))
        inst = random_instance(rng, 8, num_terms=8)
        dense = qk.ground_energy(inst, method="dense")
        krylov = qk.ground_energy(inst, method="krylov")
        assert krylov.method == "krylov"
        assert abs(dense.lambda0 - krylov.lambda0) <= 1e-7

    def test_krylov_is_deterministic(self):
        rng = np.random.Generator(np.random.Philox(key=43))
        inst = random_instance(rng, 8, num_terms=8)
        first = qk.ground_energy(inst, method="krylov")
        second = qk.ground_energy(inst, method="krylov")
        assert first.lambda0 == second.lambda0

    def test_lanczos_replay_yields_the_same_vectors(self):
        # The Ritz vector sums the replayed vectors with the first pass's
        # Ritz coefficients, so the replay must match the first pass bit
        # for bit, here far past the loss of orthogonality.
        inst = random_instance(np.random.Generator(np.random.Philox(key=9)), 9, 18, k=3)
        applier, dim = kernels.InstanceApplier(inst), 1 << 9
        first = list(itertools.islice(spectral._lanczos(applier, dim), 300))
        alphas = [alpha for _, alpha, _ in first]
        betas = [beta for _, _, beta in first]
        replay = list(spectral._lanczos(applier, dim, alphas, betas))
        assert len(replay) == 300
        for (v, _, _), (w, _, _) in zip(first, replay):
            assert np.array_equal(v, w)

    def test_kept_vectors_leave_the_krylov_pair_bit_for_bit(self, monkeypatch):
        # The Ritz vector sums the replayed vectors, then the ring's, in step
        # order.  The solve takes 160 steps: no vector kept, 7 or 100 kept
        # (the ring wraps and the replay covers the rest) and the default
        # budget (all kept, no replay) give the same pair.  The last steps
        # weigh little in the sum, so only a ring that wraps over the heavy
        # early ones shows a sum in the ring's row order instead.
        inst = random_instance(np.random.Generator(np.random.Philox(key=9)), 9, 18, k=3)
        pairs = []
        for budget in (0, 7 * 16 << 9, 100 * 16 << 9, qk.config.KRYLOV_KEEP_BYTES):
            monkeypatch.setattr(qk.config, "KRYLOV_KEEP_BYTES", budget)
            pairs.append(spectral._krylov_ground_pair(inst))
        for lam, vec, residual in pairs[1:]:
            assert lam == pairs[0][0]
            assert np.array_equal(vec, pairs[0][1])
            assert residual == pairs[0][2]

    def test_kept_vectors_spare_the_replay(self, monkeypatch):
        # At the default budget every vector of an n = 9 solve is kept: one
        # matvec a step and one for the residual, and no second pass.
        inst = random_instance(np.random.Generator(np.random.Philox(key=9)), 9, 18, k=3)
        matvecs, passes = [], []
        apply, lanczos = kernels.InstanceApplier.__call__, spectral._lanczos

        def counted_apply(self, state):
            matvecs.append(1)
            return apply(self, state)

        def counted_lanczos(applier, dim, alphas=None, betas=None, start=None):
            passes.append(0)
            for item in lanczos(applier, dim, alphas, betas, start):
                passes[-1] += 1
                yield item

        monkeypatch.setattr(kernels.InstanceApplier, "__call__", counted_apply)
        monkeypatch.setattr(spectral, "_lanczos", counted_lanczos)
        spectral._krylov_ground_pair(inst)
        assert len(matvecs) == passes[0] + 1
        assert len(passes) == 1

    def test_krylov_handles_single_qubit_instances(self):
        blocked = qk.QsatInstance(
            1,
            [qk.RankOneTerm((0,), [1.0, 0.0]), qk.RankOneTerm((0,), [0.0, 1.0])],
        )
        result = qk.ground_energy(blocked, method="krylov")
        assert result.lambda0 == pytest.approx(1.0, abs=1e-12)
        assert result.residual <= 1e-8

        open_level = qk.QsatInstance(1, [qk.RankOneTerm((0,), [1.0, 0.0])])
        result = qk.ground_energy(open_level, method="krylov")
        assert result.lambda0 == pytest.approx(0.0, abs=1e-12)

    @given(mixed_instances(max_qubits=3))
    @settings(max_examples=40, deadline=None)
    def test_forced_krylov_matches_dense_on_small_registers(self, inst):
        # A space of at most 8 dimensions ends in an invariant subspace
        # within 8 steps, down to one qubit, with no dense detour.
        dense = qk.ground_energy(inst, method="dense")
        krylov = qk.ground_energy(inst, method="krylov")
        assert krylov.method == "krylov"
        assert abs(krylov.lambda0 - dense.lambda0) <= 1e-12

    def test_forced_krylov_restarts_on_general_terms(self):
        # 2^7 dimensions and general terms: the recurrence runs past its
        # first Ritz checks with no reorthogonalization.
        rng = np.random.Generator(np.random.Philox(key=7))
        terms = []
        for support in ((0, 1, 2), (2, 3), (3, 4, 5), (5, 6), (6, 0), (1, 4)):
            cols = rng.standard_normal((1 << len(support), 2)) + 1j * rng.standard_normal(
                (1 << len(support), 2))
            q, _ = np.linalg.qr(cols)
            terms.append(qk.GeneralTerm(support, q @ q.conj().T))
        inst = qk.QsatInstance(7, terms)
        krylov = qk.ground_energy(inst, method="krylov")
        assert krylov.method == "krylov"
        assert abs(krylov.lambda0 - oracle_lambda0(inst)) <= 1e-12
        assert krylov.residual <= qk.config.RESIDUAL_TOL

    def test_krylov_restarts_when_the_ritz_vector_cancels(self, monkeypatch, figure_b_core):
        # A frustrated qubit reduced through figure-b's core: 9 qubits, 12
        # terms, a 4-fold lowest level at 1.0e-3.  The first pass meets its
        # estimate at 100 steps, but the copies of that level in the
        # tridiagonal cancel the Ritz vector to a norm near 0.02 and its true
        # residual is 1.0e-8; the pass restarted from it meets RESIDUAL_TOL.
        v = [1.0 - 0.0010089236585973825, 0.0]
        v[1] = np.sqrt(1.0 - v[0] ** 2) * np.exp(1j)
        q = qk.QsatInstance(1, [qk.basis_term((0,), "0"), qk.RankOneTerm((0,), v)])
        inst = qk.build_reduction(q, 2, figure_b_core).t_instance
        passes, ritz_pass = [], spectral._ritz_pass

        def counted_pass(*args):
            passes.append(args[-1] is None)
            return ritz_pass(*args)

        monkeypatch.setattr(spectral, "_ritz_pass", counted_pass)
        lam, vec, residual = spectral._krylov_ground_pair(inst)
        assert passes == [True, False]
        assert residual <= qk.config.RESIDUAL_TOL
        assert abs(lam - qk.ground_energy(inst, method="dense").lambda0) <= 1e-12
        assert np.linalg.norm(vec) == pytest.approx(1.0)

    def test_krylov_on_a_degenerate_near_frustration_free_instance(self):
        # k = 3, m = n = 10: a 24-dimensional null space, next eigenvalue 2.0e-4.
        inst = random_instance(np.random.Generator(np.random.Philox(key=71)), 10, 10, k=3)
        spectrum = np.linalg.eigvalsh(oracle_matrix(inst))
        assert (spectrum < 1e-9).sum() == 24 and spectrum[24] > 1e-4
        result = qk.ground_energy(inst, method="krylov")
        assert abs(result.lambda0 - spectrum[0]) <= 1e-10
        assert result.residual <= qk.config.RESIDUAL_TOL

    def test_krylov_restart_cap_raises_with_the_best_iterate(self, monkeypatch):
        # No pair meets a zero tolerance, so the 10 * 2^n steps run out.
        monkeypatch.setattr(qk.config, "KRYLOV_TOL", 0.0)
        inst = random_instance(np.random.Generator(np.random.Philox(key=5)), 4, 5)
        with pytest.raises(qk.ConvergenceError, match="160 steps") as exc:
            spectral._krylov_ground_pair(inst)
        assert abs(exc.value.best_lambda0 - oracle_lambda0(inst)) <= 1e-9
        assert exc.value.best_vector.shape == (16,)
        assert np.linalg.norm(exc.value.best_vector) == pytest.approx(1.0)

    def test_krylov_refuses_more_than_physical_memory(self, monkeypatch, figure_b):
        # The estimate counts six vectors and the applier's sparse factor,
        # more than nine vectors of 2^n amplitudes at n = 3 and less than
        # 36, and the 80 kept vectors, one a step up to the 10 * 2^n cap.
        n = figure_b.num_qubits
        basis = 9 * 16 << n
        monkeypatch.setattr(qk.config, "physical_memory", lambda: basis)
        with pytest.raises(qk.CapacityError, match="Lanczos"):
            qk.ground_energy(figure_b, method="krylov")
        monkeypatch.setattr(qk.config, "physical_memory", lambda: 4 * basis + (80 * 16 << n))
        assert qk.ground_energy(figure_b, method="krylov").method == "krylov"

    @pytest.mark.parametrize("kernel", KERNELS, indirect=True)
    def test_krylov_estimate_covers_the_traced_peak(self, kernel, figure_b):
        inst, result, peak = _traced_krylov_solve(figure_b)
        assert result.method == "krylov"
        assert spectral._krylov_bytes(inst) >= peak

    def test_krylov_holds_a_few_vectors_besides_the_applier(self, monkeypatch, figure_b):
        # The recurrence keeps no basis: with no vectors kept, the solve at
        # n = 12 peaks within eight vectors of 2^n amplitudes over the
        # applier's bytes.
        monkeypatch.setattr(qk.config, "KRYLOV_KEEP_BYTES", 0)
        inst, result, peak = _traced_krylov_solve(figure_b)
        assert result.residual <= qk.config.RESIDUAL_TOL
        assert peak <= kernels._applier_bytes(inst) + 8 * 16 * (1 << inst.num_qubits)

    def test_krylov_holds_its_kept_vectors_besides_the_applier(self, figure_b):
        # The default budget adds its own bytes to that bound and no more.
        inst, result, peak = _traced_krylov_solve(figure_b)
        assert result.residual <= qk.config.RESIDUAL_TOL
        assert peak <= (kernels._applier_bytes(inst) + 8 * 16 * (1 << inst.num_qubits)
                        + qk.config.KRYLOV_KEEP_BYTES)

    def test_unknown_method_is_rejected(self, figure_a):
        with pytest.raises(qk.ArgumentError):
            qk.ground_energy(figure_a, method="magic")

    def test_capacity_ceiling(self, monkeypatch):
        monkeypatch.setenv("QSAT_MAX_QUBITS", "3")
        inst = qk.QsatInstance(4, [qk.basis_term((0,), "0")])
        with pytest.raises(qk.CapacityError):
            qk.ground_energy(inst)

    def test_full_spectrum_of_triangle(self, figure_b):
        expected = sorted([TRIANGLE_LAMBDA0, TRIANGLE_LAMBDA0, 0.5, 0.5,
                           1.0, 1.0, TRIANGLE_TOP, TRIANGLE_TOP])
        assert np.allclose(qk.full_spectrum(figure_b), expected, atol=1e-9)


class TestNullspace:
    def test_empty_instance_has_full_nullspace(self):
        assert qk.common_nullspace_dim(qk.QsatInstance(3, [])) == 8

    def test_single_projector_on_one_qubit(self):
        inst = qk.QsatInstance(1, [qk.basis_term((0,), "0")])
        assert qk.common_nullspace_dim(inst) == 1

    def test_triangle_instances(self, figure_a, figure_b):
        # The satisfiable triangle annihilates exactly |000> and |010>.
        assert qk.common_nullspace_dim(figure_a) == 2
        assert qk.common_nullspace_dim(figure_b) == 0

    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_ground_energy(self, seed):
        rng = np.random.Generator(np.random.Philox(key=2000 + seed))
        n = int(rng.integers(2, 6))
        inst = random_instance(rng, n, num_terms=int(rng.integers(1, 2 * n)))
        dim = qk.common_nullspace_dim(inst)
        lam = qk.ground_energy(inst).lambda0
        assert (dim >= 1) == (lam <= 1e-9)

    @given(mixed_instances())
    @settings(max_examples=80, deadline=None)
    def test_basis_spans_the_oracle_kernel(self, inst):
        basis = _register_basis(inst)
        eigenvalues = np.linalg.eigvalsh(oracle_matrix(inst))
        assert basis.shape[1] == int(np.count_nonzero(eigenvalues <= 1e-9))
        assert qk.common_nullspace_dim(inst) == basis.shape[1]
        gram = basis.conj().T @ basis
        assert np.abs(gram - np.eye(basis.shape[1])).max(initial=0.0) <= 1e-12
        for term in inst.terms:
            embedded = embed_matrix(inst.num_qubits, term.support, term.dense())
            assert np.abs(embedded @ basis).max(initial=0.0) <= 1e-9

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_term_order_leaves_the_dimension(self, data):
        inst = data.draw(mixed_instances())
        shuffled = qk.QsatInstance(inst.num_qubits, data.draw(st.permutations(inst.terms)))
        assert qk.common_nullspace_dim(shuffled) == qk.common_nullspace_dim(inst)

    def test_untouched_qubits_are_never_materialized(self):
        # A basis with 2^13 rows would take hundreds of MiB here.
        rng = np.random.Generator(np.random.Philox(key=13))
        terms = [qk.haar_random_term(s, rng) for s in ((0, 1), (1, 2), (2, 0))]
        eigenvalues = np.linalg.eigvalsh(oracle_matrix(qk.QsatInstance(3, terms)))
        expected = int(np.count_nonzero(eigenvalues <= 1e-9)) << 10
        tracemalloc.start()
        try:
            dim = qk.common_nullspace_dim(qk.QsatInstance(13, terms))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert dim == expected
        assert peak < 1 << 20

    def test_capacity_points_to_variational_route(self):
        rng = np.random.Generator(np.random.Philox(key=8))
        inst = random_instance(rng, 15, num_terms=2)
        with pytest.raises(qk.CapacityError):
            qk.common_nullspace_dim(inst)


class TestDecideSat:
    def test_satisfiable_triangle(self, figure_a):
        verdict = qk.decide_sat(figure_a)
        assert verdict.tag == qk.SATISFIABLE
        assert verdict.nullspace_dim == 2

    def test_unsatisfiable_triangle(self, figure_b):
        verdict = qk.decide_sat(figure_b)
        assert verdict.tag == qk.UNSATISFIABLE
        assert verdict.lambda0 >= 1e-3

    def test_empty_instance_is_satisfiable(self):
        assert qk.decide_sat(qk.QsatInstance(2, [])).tag == qk.SATISFIABLE

    @pytest.mark.parametrize("k, terms_per_qubit, seed, frustrated", [
        (3, 2, 1, True), (2, 2, 3, False), (3, 2, 3, False),
    ], ids=["frustrated", "haar-k2", "haar-k3"])
    def test_unsatisfiable_instances_above_the_cutoff_go_krylov(
            self, k, terms_per_qubit, seed, frustrated):
        # One connected component one qubit above the dense cutoff and no
        # witness exists, so Krylov decides, with the dense route's tag and
        # ground energy.  A k = 2 instance needs more terms than qubits to
        # be connected and unsatisfiable (a component with one cycle is
        # generically satisfiable); at m = 2n, lambda0 = 0.54.
        n = qk.config.DENSE_CUTOFF + 1
        rng = np.random.Generator(np.random.Philox(key=seed))
        if frustrated:
            extra = random_instance(rng, n, terms_per_qubit * n - 4, k=k).terms
            inst = qk.QsatInstance(n, qk.figure_b().terms + extra)
        else:
            inst = random_instance(rng, n, terms_per_qubit * n, k=k)
        assert widest_component(inst) == n
        verdict = qk.decide_sat(inst)
        dense = qk.decide_sat(inst, method="dense")
        assert verdict.method == "krylov"
        assert verdict.tag == dense.tag == qk.UNSATISFIABLE
        assert abs(verdict.lambda0 - dense.lambda0) <= 1e-10

    def test_eight_qubit_verdicts_near_the_threshold_match_the_dense_route(self):
        # Haar k = 3 at m = n to 3n/2 straddles satisfiability at n = 8.
        # auto decides the satisfiable ones by a witness and hands the rest
        # to Krylov when their widest connected component is above
        # DENSE_CUTOFF = 7, and to dense otherwise (an idle qubit leaves 7);
        # no solve may fail to converge, and every tag is the forced dense
        # route's.
        n, methods = 8, []
        for seed in range(200):
            rng = np.random.Generator(np.random.Philox(key=seed))
            inst = random_instance(rng, n, int(rng.integers(n, 3 * n // 2 + 1)), k=3)
            verdict = qk.decide_sat(inst)
            dense = qk.decide_sat(inst, method="dense")
            assert verdict.tag == dense.tag, seed
            if verdict.method != "nullspace":
                assert abs(verdict.lambda0 - dense.lambda0) <= 1e-10, seed
                above = widest_component(inst) > qk.config.DENSE_CUTOFF
                assert verdict.method == ("krylov" if above else "dense"), seed
            methods.append(verdict.method)
        assert set(methods) == {"nullspace", "krylov", "dense"}

    def test_energy_between_bands_is_indeterminate(self):
        verdict = qk.decide_sat(near_identity_pair())
        assert verdict.tag == qk.INDETERMINATE
        assert 2e-9 < verdict.lambda0 < 1e-6

    @pytest.mark.parametrize("term", [
        qk.basis_term((0, 3), "01"),
        qk.RankOneTerm((0, 1), [np.nan, 1.0, 0.0, 0.0]),
    ], ids=["support-out-of-range", "nan-amplitude"])
    def test_invalid_instance_is_rejected(self, term):
        with pytest.raises(qk.ValidationError):
            qk.decide_sat(qk.QsatInstance(3, [term]))

    @given(mixed_instances())
    @settings(max_examples=60, deadline=None)
    def test_nullspace_verdicts_carry_a_checked_witness(self, inst):
        verdict = qk.decide_sat(inst)
        m = inst.num_terms
        dim, psi = qk.nullspace_witness(inst)
        assert verdict.nullspace_dim == dim == qk.common_nullspace_dim(inst)
        assert (psi is None) == (dim == 0)
        if verdict.method != "nullspace":
            return
        assert verdict.tag == qk.SATISFIABLE
        assert 0.0 <= verdict.lambda0 <= sat_tolerance(m)
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12
        assert qk.expectation(inst, psi) <= sat_tolerance(m)
        assert np.linalg.norm(oracle_matrix(inst) @ psi) <= 1e-9
        assert qk.ground_energy(inst, method="dense").lambda0 <= sat_tolerance(m)

    def test_planted_n16_is_decided_without_an_eigensolver(self, monkeypatch):
        def no_eigensolver(*args, **kwargs):
            raise AssertionError("the witness route ran an eigensolver")

        monkeypatch.setattr(spectral, "_dense_ground_pair", no_eigensolver)
        monkeypatch.setattr(spectral, "_krylov_ground_pair", no_eigensolver)
        inst = _planted_instance(16, 24, k=2, seed=16)
        verdict = qk.decide_sat(inst)
        assert verdict.method == "nullspace"
        assert verdict.tag == qk.SATISFIABLE
        assert verdict.nullspace_dim >= 1
        assert 0.0 <= verdict.lambda0 <= sat_tolerance(inst.num_terms)

    def test_byte_refusal_falls_back_to_krylov(self):
        # A 10-local term after a 2-local one widens the basis by the identity
        # on 9 new qubits: 2048 x 1536 amplitudes, 48 MiB against the 2 MiB
        # of WITNESS_MAX_VECTORS vectors at n = 11.
        rng = np.random.Generator(np.random.Philox(key=11))
        inst = qk.QsatInstance(11, [
            qk.haar_random_term((0, 1), rng),
            qk.haar_random_term(tuple(range(1, 11)), rng),
        ])
        limit = qk.config.WITNESS_MAX_VECTORS * 16 << inst.num_qubits
        tracemalloc.start()
        try:
            with pytest.raises(qk.CapacityError):
                qk.nullspace_witness(inst, max_bytes=limit)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < limit
        assert qk.nullspace_witness(inst)[0] >= 1
        verdict = qk.decide_sat(inst)
        assert verdict.tag == qk.SATISFIABLE
        assert verdict.method == "krylov"
        assert verdict.nullspace_dim is None

    def test_wide_svd_counts_its_right_factor(self):
        # One row of 64 columns: the full SVD returns a 64 x 64 right factor.
        wide = np.zeros((1, 64), dtype=np.complex128)
        wide[0, 0] = 1.0
        with pytest.raises(qk.CapacityError):
            _null_directions(wide[None], max_bytes=16 * 64 * 64)
        assert _null_directions(wide[None], max_bytes=16 * 65 * 64)[0].shape == (1, 64, 63)

    def test_limit_starts_above_the_crosscheck_cutoff(self, monkeypatch):
        limits = []
        witnesses = spectral._witnesses

        def refuse_any_limit(num_qubits, supports, actions, max_bytes=None):
            limits.append(max_bytes)
            if max_bytes is not None:
                raise qk.CapacityError("refused")
            return witnesses(num_qubits, supports, actions)

        monkeypatch.setattr(spectral, "_witnesses", refuse_any_limit)
        cutoff = qk.config.NULLSPACE_CROSSCHECK_CUTOFF
        assert qk.decide_sat(_singlet_chain(cutoff)).method == "nullspace"
        above = qk.decide_sat(_singlet_chain(cutoff + 1))
        assert (above.tag, above.method, above.nullspace_dim) == (qk.SATISFIABLE, "krylov", None)
        assert limits == [None, qk.config.WITNESS_MAX_VECTORS * 16 << (cutoff + 1)]

    def test_failed_witness_check_falls_back(self, monkeypatch, figure_a):
        # A witness whose energy is too high never becomes a verdict.
        monkeypatch.setattr(spectral, "_energies", lambda *args: np.ones(1))
        verdict = qk.decide_sat(figure_a)
        assert verdict.tag == qk.SATISFIABLE
        assert verdict.method == "dense"
        assert verdict.nullspace_dim == 2

    def test_forced_routes_skip_the_witness(self, figure_a):
        for method in ("dense", "krylov"):
            verdict = qk.decide_sat(figure_a, method=method)
            assert verdict.method == method
            assert verdict.tag == qk.SATISFIABLE
            assert verdict.nullspace_dim == 2

    def test_tolerance_scales_with_term_count(self):
        assert sat_tolerance(400) == 400 * 1e-9
        assert sat_tolerance(0) == 1e-9
        # Many stacked copies of a satisfiable projector must stay sat.
        inst = qk.QsatInstance(2, [qk.singlet_term(0, 1)] * 400)
        assert qk.decide_sat(inst).tag == qk.SATISFIABLE


class TestDominance:
    def test_every_operator_dominates_itself(self, figure_b):
        q = qk.assemble_dense(figure_b)
        assert qk.operator_dominates(q, q)

    def test_identity_dominates_projector(self):
        proj = qk.basis_term((0,), "0")
        assert qk.operator_dominates(np.eye(2), proj)
        assert not qk.operator_dominates(proj, np.eye(2))

    def test_respects_tolerance_argument(self):
        a = np.diag([1.0, 1.0])
        b = np.diag([1.0, 1.0 + 1e-6])
        assert not qk.operator_dominates(a, b)
        assert qk.operator_dominates(a, b, tol=1e-5)

    def test_instances_are_accepted(self, figure_b):
        doubled = qk.QsatInstance(3, list(figure_b.terms) * 2)
        assert qk.operator_dominates(doubled, figure_b)
        assert not qk.operator_dominates(figure_b, doubled)

    def test_shape_mismatch_is_rejected(self):
        with pytest.raises(qk.DimensionMismatchError):
            qk.operator_dominates(np.eye(2), np.eye(4))

    @pytest.mark.parametrize("swap", [False, True], ids=["N-0", "0-N"])
    def test_non_hermitian_difference_is_rejected_before_solving(self, monkeypatch, swap):
        # An eigensolver reading one triangle of N sees 0 and would answer True.
        def no_eigensolver(*args):
            raise AssertionError("a non-Hermitian operand reached the eigensolver")

        monkeypatch.setattr(spectral, "_dense_ground_pair", no_eigensolver)
        operands = [np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2))]
        with pytest.raises(qk.ArgumentError):
            qk.operator_dominates(*(operands[::-1] if swap else operands))

    @pytest.mark.parametrize("a", [
        np.ones((2, 3)), np.ones(4), np.zeros((0, 0)), np.array([[np.nan]]),
    ], ids=["2x3", "1-D", "empty", "nan"])
    def test_operands_that_are_not_square_hermitian_are_rejected(self, a):
        with pytest.raises(qk.ArgumentError):
            qk.operator_dominates(a, np.zeros_like(a))


class TestRestrictedGroundEnergy:
    def test_pinning_selects_subspace(self):
        inst = qk.QsatInstance(2, [qk.basis_term((0,), "1")])
        assert abs(qk.restricted_ground_energy(inst, {0: 1}) - 1.0) <= 1e-12
        assert qk.restricted_ground_energy(inst, {0: 0}) <= 1e-12

    def test_pinning_everything_gives_diagonal_entry(self, figure_a):
        value = qk.restricted_ground_energy(figure_a, {0: 0, 1: 0, 2: 0})
        assert value <= 1e-12

    def test_invalid_bit_is_rejected(self, figure_a):
        with pytest.raises(qk.ArgumentError):
            qk.restricted_ground_energy(figure_a, {0: 2})

    def test_invalid_qubit_is_rejected(self, figure_a):
        with pytest.raises(qk.ArgumentError):
            qk.restricted_ground_energy(figure_a, {7: 0})

    def test_non_integer_qubit_is_rejected(self, figure_a):
        # 1.5 would match no qubit and pin nothing.
        with pytest.raises(qk.ArgumentError):
            qk.restricted_ground_energy(figure_a, {1.5: 0})

    @given(pinned_instances())
    @settings(max_examples=100, deadline=None)
    def test_pinning_is_the_masked_principal_submatrix(self, case):
        # Slicing the actions' columns gives the masked submatrix entry for
        # entry on rank-1 terms; general terms' image rows agree to 1e-12.
        inst, fixed = case
        pinned = qk.restricted_ground_energy(inst, fixed)
        masked = _masked_ground_energy(inst, fixed)
        if all(isinstance(t, qk.RankOneTerm) for t in inst.terms):
            assert pinned == masked
        else:
            assert abs(pinned - masked) <= 1e-12

    @given(pinned_instances())
    @settings(max_examples=100, deadline=None)
    def test_components_sum_to_the_masked_ground_energy(self, case):
        # Each connected component is solved on its own qubits; a term
        # pinned on its whole support adds a constant, an idle qubit 0.
        inst, fixed = case
        split = spectral._pinned_energy(
            inst.num_qubits, inst.supports(), _actions(inst.terms), fixed, "the case"
        )
        assert abs(split - _masked_ground_energy(inst, fixed)) <= 1e-12

    def test_equal_components_share_one_solve(self, monkeypatch):
        # Two copies of one 3-qubit block share a solve.  A block on the same
        # supports with other amplitudes gets its own, and every energy is
        # the one solved without sharing.
        rng = np.random.Generator(np.random.Philox(key=23))

        def block():
            amplitudes = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
            return [qk.RankOneTerm(s, a / np.linalg.norm(a))
                    for s, a in zip(((0, 1), (1, 2), (0, 2)), amplitudes)]

        def placed(*blocks):
            supports = [tuple(3 * i + q for q in t.support)
                        for i, b in enumerate(blocks) for t in b]
            return 3 * len(blocks), supports, _actions([t for b in blocks for t in b])

        first, second = block(), block()
        ground_pairs, calls = spectral._ground_pairs, []
        monkeypatch.setattr(spectral, "_ground_pairs",
                            lambda *a: calls.append(a[0]) or ground_pairs(*a))
        solved = {}
        twice = spectral._pinned_energy(*placed(first, first), {}, "twice", solved)
        assert len(calls) == 1
        mixed = spectral._pinned_energy(*placed(second, first), {}, "mixed", solved)
        assert len(calls) == 2
        assert twice == 2 * spectral._pinned_energy(*placed(first), {}, "first")
        assert mixed == spectral._pinned_energy(*placed(second, first), {}, "unshared")

    def test_components_link_terms_that_share_a_qubit(self):
        supports = [(0, 1), (2,), (1, 3), (), (4, 2), (5,)]
        assert spectral._components(supports) == [[0, 2], [1, 4], [5]]

    def test_the_dense_cap_applies_to_the_free_qubits(self):
        # 15 qubits, 7 of them pinned: a dense solve on 8.  The reference
        # takes the pinned states' columns of the applier's factor B, whose
        # B^H B is the principal submatrix.
        rng = np.random.Generator(np.random.Philox(key=15))
        inst = random_instance(rng, 15, 15, k=3)
        fixed = {q: int(rng.integers(0, 2)) for q in range(0, 14, 2)}
        idx = np.arange(1 << 15)
        mask = np.ones(1 << 15, dtype=bool)
        for qubit, bit in fixed.items():
            mask &= ((idx >> (14 - qubit)) & 1) == bit
        columns = kernels.InstanceApplier(inst)._factor[:, np.flatnonzero(mask)]
        block = (columns.conj().T @ columns).toarray()
        reference = np.linalg.eigvalsh(block)[0]
        assert abs(qk.restricted_ground_energy(inst, fixed) - reference) <= 1e-12

    def test_pins_are_checked_before_the_dense_cap(self):
        inst = _singlet_chain(qk.config.DENSE_MAX_QUBITS + 1)
        with pytest.raises(qk.ArgumentError, match="out of range"):
            qk.restricted_ground_energy(inst, {inst.num_qubits: 0})


class TestComponents:
    """Every ground energy and verdict splits into connected components
    (``_component_pairs``): the sum of the components' pairs must be the
    unsplit solve's, and a connected instance must be that solve."""

    @staticmethod
    def _assert_a_ground_state(inst, result):
        vec = result.ground_vector
        assert vec.shape == (1 << inst.num_qubits,)
        assert abs(np.linalg.norm(vec) - 1.0) <= 1e-10
        actual = np.linalg.norm(qk.apply_instance(inst, vec) - result.lambda0 * vec)
        assert actual <= qk.config.RESIDUAL_TOL
        assert result.residual <= qk.config.RESIDUAL_TOL
        # The reported residual is sqrt(sum r_c^2) of the components' pairs.
        assert abs(actual - result.residual) <= 1e-10

    @given(split_instances())
    @settings(max_examples=80, deadline=None)
    def test_dense_split_matches_the_unsplit_solve(self, inst):
        result = qk.ground_energy(inst, method="dense")
        lam, _, _ = _unsplit_pair(inst, "dense")
        assert result.method == "dense"
        assert abs(result.lambda0 - lam) <= 1e-10
        self._assert_a_ground_state(inst, result)
        assert abs(qk.ground_energy(inst).lambda0 - lam) <= 1e-10

    @pytest.mark.parametrize("seed", range(3))
    def test_krylov_split_matches_the_unsplit_solve(self, seed):
        # Blocks of 4 and 3 qubits and two idle qubits, scattered over 9.
        rng = np.random.Generator(np.random.Philox(key=900 + seed))
        order = rng.permutation(9)
        blocks = [random_instance(rng, 4, 5), random_instance(rng, 3, 4)]
        inst = qk.QsatInstance(
            9, _moved(blocks[0], order, 9).terms + _moved(blocks[1], order[4:], 9).terms
        )
        assert widest_component(inst) <= 4
        result = qk.ground_energy(inst, method="krylov")
        lam, _, _ = _unsplit_pair(inst, "krylov")
        assert result.method == "krylov"
        assert abs(result.lambda0 - lam) <= 1e-8
        assert abs(result.lambda0 - _unsplit_pair(inst, "dense")[0]) <= 1e-8
        self._assert_a_ground_state(inst, result)

    def test_auto_routes_by_the_widest_component(self, figure_b):
        # figure-b padded to 12 qubits is one 3-qubit component: dense, with
        # the unpadded lambda0; a component above the cutoff goes Krylov.
        padded = qk.QsatInstance(12, figure_b.terms)
        result = qk.ground_energy(padded)
        assert result.method == qk.decide_sat(padded).method == "dense"
        assert abs(result.lambda0 - TRIANGLE_LAMBDA0) <= 1e-10
        self._assert_a_ground_state(padded, result)
        linked = linked_figure_b(qk.config.DENSE_CUTOFF + 1)
        assert qk.ground_energy(linked).method == qk.decide_sat(linked).method == "krylov"

    def test_no_terms_is_the_zero_state_on_the_dense_route(self):
        for method, route in (("auto", "dense"), ("dense", "dense"), ("krylov", "krylov")):
            result = qk.ground_energy(qk.QsatInstance(12, []), method=method)
            assert (result.lambda0, result.e0, result.residual) == (0.0, 0.0, 0.0)
            assert result.method == route
            assert result.ground_vector[0] == 1.0
            assert np.count_nonzero(result.ground_vector) == 1

    @given(mixed_instances(), st.sampled_from(["dense", "krylov"]))
    @settings(max_examples=60, deadline=None)
    def test_a_connected_instance_is_the_unsplit_solve_bit_for_bit(self, inst, route):
        # One component on the whole register passes straight through: no
        # relabelling, embedding or sum touches a bit of its pair.
        assume(inst.num_terms and widest_component(inst) == inst.num_qubits)
        lam, vec, residual = _unsplit_pair(inst, route)
        result = qk.ground_energy(inst, method=route)
        assert result.lambda0 == lam
        assert np.array_equal(result.ground_vector, vec)
        assert result.residual == residual
        verdict = qk.decide_sat(inst, method=route)
        assert verdict.lambda0 == lam

    def test_a_failed_component_is_named_with_its_pair(self, monkeypatch, figure_b):
        # figure-b on qubits 0, 2 and 4, a singlet on 1 and 3, qubit 5 idle:
        # the 2-qubit component's pair misses the residual bound.
        inst = _moved(figure_b, (0, 2, 4), 6)
        inst = qk.QsatInstance(6, inst.terms + (qk.singlet_term(1, 3),))
        alone = qk.ground_energy(qk.QsatInstance(2, [qk.singlet_term(0, 1)]))
        pair = spectral._dense_ground_pair

        def flawed(stack):
            lambdas, vectors, residuals = pair(stack)
            return lambdas, vectors, residuals + (stack.shape[-1] == 4)

        monkeypatch.setattr(spectral, "_dense_ground_pair", flawed)
        for run in (qk.ground_energy, qk.decide_sat):
            with pytest.raises(qk.ConvergenceError, match=r"on qubits \[1, 3\]") as exc:
                run(inst)
            assert exc.value.best_lambda0 == alone.lambda0
            assert np.array_equal(exc.value.best_vector, alone.ground_vector)


class TestGroundStage:
    """Every ground energy and verdict takes its pairs from ``_ground_pairs``,
    and every dense lowest pair comes from ``_dense_ground_pair``."""

    @pytest.mark.parametrize("size", [1, 2, 8, 64])
    def test_dense_pair_is_the_eigh_pair(self, size):
        # The direct LAPACK call asks for the workspace the wrapper used.
        rng = np.random.Generator(np.random.Philox(key=size))
        a = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        qmat = a + a.conj().T
        vals, vecs = scipy.linalg.eigh(qmat, subset_by_index=[0, 0])
        (lam,), (vec,), (residual,) = spectral._dense_ground_pair(qmat[None])
        assert lam == vals[0]
        assert np.array_equal(vec, vecs[:, 0])
        assert residual <= 1e-12

    def test_dense_pair_refuses_non_finite_operators(self):
        with pytest.raises(ValueError, match="infs or NaNs"):
            spectral._dense_ground_pair(np.array([[[1.0, np.nan], [np.nan, 0.0]]]))

    @pytest.mark.parametrize("count", [1, 3, 500])
    @pytest.mark.parametrize("size", [1, 2, 8, 64])
    def test_a_stack_solves_as_its_operators_alone(self, size, count):
        # One finiteness check and one workspace for the stack; each pair as
        # the same operator gets it in a stack of one.
        rng = np.random.Generator(np.random.Philox(key=[size, count]))
        a = rng.standard_normal((count, size, size)) + 1j * rng.standard_normal((count, size, size))
        stack = a + a.conj().swapaxes(1, 2)
        lambdas, vectors, residuals = spectral._dense_ground_pair(stack)
        assert lambdas.shape == residuals.shape == (count,)
        assert vectors.shape == (count, size)
        for t in range(count):
            (lam,), (vec,), (residual,) = spectral._dense_ground_pair(stack[t:t + 1])
            assert lambdas[t] == lam
            assert np.array_equal(vectors[t], vec)
            assert abs(residuals[t] - residual) <= 1e-15

    def test_a_non_finite_last_operator_stops_the_stack_before_any_solve(self, monkeypatch):
        calls = []
        heevr = spectral._HEEVR

        def counted(*args, **kwargs):
            calls.append(1)
            return heevr(*args, **kwargs)

        monkeypatch.setattr(spectral, "_HEEVR", counted)
        stack = np.tile(np.eye(4, dtype=np.complex128), (5, 1, 1))
        stack[-1, 3, 2] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            spectral._dense_ground_pair(stack)
        assert calls == []
        spectral._dense_ground_pair(stack[:-1])
        assert len(calls) == 4

    @staticmethod
    def _unconverged(*args):
        return 0.25, np.zeros(1, dtype=np.complex128), 1.0

    @staticmethod
    def _unconverged_stack(stack):
        count = len(stack)
        return np.full(count, 0.25), np.zeros((count, 1), dtype=np.complex128), np.ones(count)

    @pytest.mark.parametrize("run", [
        lambda b: qk.ground_energy(b),
        lambda b: qk.ground_energy(b, method="krylov"),
        lambda b: qk.decide_sat(b),
        lambda b: qk.decide_sat(b, method="krylov"),
        lambda b: qk.sample_ensemble(*qk.triangle_double_structure(), 20, seed=3),
    ], ids=["ground-energy", "ground-energy-krylov", "decide-dense", "decide-krylov",
            "stacked-sample"])
    def test_a_residual_over_the_tolerance_raises(self, monkeypatch, figure_b, run):
        monkeypatch.setattr(spectral, "_dense_ground_pair", self._unconverged_stack)
        monkeypatch.setattr(spectral, "_krylov_ground_pair", self._unconverged)
        with pytest.raises(qk.ConvergenceError) as exc:
            run(figure_b)
        assert exc.value.best_lambda0 == 0.25

    @pytest.mark.parametrize("run, solves", [
        (lambda b: qk.decide_sat(b), 1),
        (lambda b: qk.ground_energy(b, method="dense"), 1),
        (lambda b: qk.sample_ensemble(*qk.triangle_double_structure(), 20, seed=3), 20),
        (lambda b: qk.restricted_ground_energy(b, {0: 1}), 1),
        (lambda b: qk.operator_dominates(b, b), 1),
    ], ids=["decide-sat", "ground-energy", "stacked-sample", "restricted",
            "dominance"])
    def test_every_dense_solve_reaches_one_function(self, monkeypatch, figure_b, run, solves):
        operators = []
        pair = spectral._dense_ground_pair

        def counted(stack):
            operators.append(len(stack))
            return pair(stack)

        monkeypatch.setattr(spectral, "_dense_ground_pair", counted)
        run(figure_b)
        assert sum(operators) == solves


class TestRitzCheck:
    """The Lanczos pass's Ritz check calls LAPACK's ``stebz`` and ``stein``
    itself and must give ``scipy.linalg.eigh_tridiagonal``'s pair."""

    @staticmethod
    def _tridiagonal(steps, key):
        rng = np.random.Generator(np.random.Philox(key=key))
        return rng.uniform(0.0, 4.0, steps), rng.uniform(0.05, 1.0, steps - 1)

    @staticmethod
    def _assert_eigh_tridiagonal_pair(alphas, betas):
        vals, vecs = scipy.linalg.eigh_tridiagonal(
            alphas, betas, select="i", select_range=(0, 0)
        )
        theta, ritz = spectral._lowest_tridiagonal_pair(alphas, betas)
        assert theta == vals[0]
        assert np.array_equal(ritz, vecs[:, 0])

    @pytest.mark.parametrize("steps", [1, 2, 20, 1000])
    def test_pair_is_the_eigh_tridiagonal_pair(self, steps):
        self._assert_eigh_tridiagonal_pair(*self._tridiagonal(steps, steps))

    def test_pair_of_a_tridiagonal_that_splits(self):
        # A zero beta splits it into blocks, which stebz solves one by one.
        alphas, betas = self._tridiagonal(60, 7)
        betas[[10, 41]] = 0.0
        self._assert_eigh_tridiagonal_pair(alphas, betas)
        alphas[:11] -= 5.0  # the lowest pair in the first block
        self._assert_eigh_tridiagonal_pair(alphas, betas)

    @pytest.mark.parametrize("where", ["alpha", "beta"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entries_are_refused(self, where, value):
        alphas, betas = self._tridiagonal(30, 3)
        (alphas if where == "alpha" else betas)[-1] = value
        with pytest.raises(ValueError, match="infs or NaNs"):
            spectral._lowest_tridiagonal_pair(alphas, betas)
