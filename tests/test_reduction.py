"""Qudit encoding, decompositions, cores, gadgets, and the full reduction."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsatkit as qk
from qsatkit import spectral
from qsatkit.reduction import (
    ROLE_ANCILLA,
    ROLE_DUMMY,
    ROLE_WORK,
    CoreCertificate,
)

from conftest import embed_matrix, near_identity_pair

# Ground energy of the minimal frustrated-triangle core, i.e. the penalty
# constant of the builtin gadget.
CORE_PENALTY = 0.21922359359558494


def qudit_projector(dim, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    vec /= np.linalg.norm(vec)
    return np.outer(vec, vec.conj())


class TestEncodeQudits:
    def test_qubits_pass_through_unchanged(self):
        mat = qudit_projector(2, 1)
        enc = qk.encode_qudits(qk.QuditInstance(2, 2, [((1,), mat)]))
        assert enc.num_qubits == 2
        assert enc.num_terms == 1
        term = enc.terms[0]
        assert term.support == (1,)
        assert np.allclose(term.matrix, mat)

    def test_three_levels_use_two_qubits_and_one_exclusion(self):
        mat = np.diag([0.0, 0.0, 1.0]).astype(complex)
        enc = qk.encode_qudits(qk.QuditInstance(1, 3, [((0,), mat)]))
        assert enc.num_qubits == 2
        assert enc.num_terms == 2
        embedded, exclusion = enc.terms
        # Levels 0..2 land on qubit-pair states 0..2; state 3 is invalid.
        expected = np.zeros((4, 4), dtype=complex)
        expected[:3, :3] = mat
        assert np.allclose(embedded.matrix, expected)
        assert isinstance(exclusion, qk.RankOneTerm)
        assert exclusion.support == (0, 1)
        assert np.allclose(exclusion.amplitudes, [0, 0, 0, 1])

    def test_exclusion_count_tracks_invalid_levels(self):
        enc = qk.encode_qudits(qk.QuditInstance(2, 5, []))
        # Five of eight three-bit patterns are valid; three are excluded,
        # per qudit.
        assert enc.num_qubits == 6
        assert enc.num_terms == 6
        assert all(isinstance(t, qk.RankOneTerm) for t in enc.terms)

    def test_two_local_interaction_lands_on_qubit_blocks(self):
        mat = qudit_projector(9, 2)
        enc = qk.encode_qudits(qk.QuditInstance(2, 3, [((0, 1), mat)]))
        big = enc.terms[0]
        assert big.support == (0, 1, 2, 3)
        # Level pair (a, b) maps to qubit-block index 4a + b.
        dense = np.asarray(big.matrix)
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    for d in range(3):
                        assert dense[4 * a + b, 4 * c + d] == pytest.approx(
                            mat[3 * a + b, 3 * c + d]
                        )
        # Rows touching an invalid level stay zero.
        assert not dense[3].any()
        assert enc.num_terms == 1 + 2  # one exclusion per qudit

    def test_encoded_instances_validate(self):
        enc = qk.encode_qudits(
            qk.QuditInstance(2, 3, [((0, 1), qudit_projector(9, 3))])
        )
        qk.instance.validate(enc)

    def test_satisfiability_is_preserved(self):
        forbid_top = qk.QuditInstance(1, 3, [((0,), np.diag([0, 0, 1.0]).astype(complex))])
        assert qk.decide_sat(qk.encode_qudits(forbid_top)).tag == qk.SATISFIABLE
        forbid_all = qk.QuditInstance(1, 3, [((0,), np.eye(3, dtype=complex))])
        assert qk.decide_sat(qk.encode_qudits(forbid_all)).tag == qk.UNSATISFIABLE

    def test_dimension_ceiling(self):
        with pytest.raises(qk.ArgumentError):
            qk.encode_qudits(qk.QuditInstance(1, 17, []))
        enc = qk.encode_qudits(qk.QuditInstance(1, 16, []))
        assert enc.num_qubits == 4
        assert enc.num_terms == 0


class TestRankOneDecompose:
    def test_rank_one_terms_pass_through(self):
        term = qk.singlet_term(0, 1)
        assert qk.rank_one_decompose(term) == [term]

    def test_identity_splits_into_a_basis(self):
        term = qk.GeneralTerm((2,), np.eye(2, dtype=complex))
        parts = qk.rank_one_decompose(term)
        assert len(parts) == 2
        assert all(p.support == (2,) for p in parts)
        total = sum(p.dense() for p in parts)
        assert np.allclose(total, np.eye(2), atol=1e-12)

    def test_random_rank_three_projector(self):
        rng = np.random.Generator(np.random.Philox(key=4))
        raw = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        frame, _ = np.linalg.qr(raw)
        projector = frame @ frame.conj().T
        parts = qk.rank_one_decompose(qk.GeneralTerm((0, 1, 2), projector))
        assert len(parts) == 3
        total = sum(p.dense() for p in parts)
        assert np.allclose(total, projector, atol=1e-10)
        for p in parts:
            assert abs(np.linalg.norm(p.amplitudes) - 1.0) <= 1e-10

    def test_zero_projector_has_no_parts(self):
        term = qk.GeneralTerm((0,), np.zeros((2, 2), dtype=complex))
        assert qk.rank_one_decompose(term) == []

    def test_non_hermitian_is_rejected(self):
        mat = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(qk.ValidationError):
            qk.rank_one_decompose(qk.GeneralTerm((0,), mat))

    def test_non_idempotent_is_rejected(self):
        with pytest.raises(qk.ValidationError):
            qk.rank_one_decompose(qk.GeneralTerm((0,), 0.5 * np.eye(2, dtype=complex)))


class TestSchmidtSplit:
    def test_entangled_term_splits_into_orthogonal_pair(self):
        parts = qk.schmidt_split(qk.singlet_term(0, 1), pivot=0)
        assert len(parts) == 2
        assert all(p.support == (1,) for p in parts)
        assert abs(np.vdot(parts[0].amplitudes, parts[1].amplitudes)) <= 1e-10
        # Together the parts project onto everything the other qubit can hold.
        assert np.allclose(sum(p.dense() for p in parts), np.eye(2), atol=1e-12)

    def test_weights_of_maximally_entangled_state(self):
        weights = qk.schmidt_weights(qk.singlet_term(0, 1), pivot=0)
        assert np.allclose(sorted(weights), [0.5, 0.5], atol=1e-12)

    def test_product_term_yields_single_part(self):
        plus = np.array([1, 1, 0, 0], dtype=complex) / np.sqrt(2)  # |0> x |+>
        parts = qk.schmidt_split(qk.RankOneTerm((0, 1), plus), pivot=0)
        assert len(parts) == 1
        assert np.allclose(parts[0].dense(), np.full((2, 2), 0.5), atol=1e-12)

    def test_basis_term_splits_to_basis_projector(self):
        parts = qk.schmidt_split(qk.basis_term((4, 7), "01"), pivot=7)
        assert len(parts) == 1
        assert parts[0].support == (4,)
        assert np.allclose(parts[0].dense(), np.diag([1.0, 0.0]), atol=1e-12)

    def test_middle_pivot_preserves_rest_order(self):
        rng = np.random.Generator(np.random.Philox(key=6))
        term = qk.haar_random_term((2, 5, 9), rng)
        parts = qk.schmidt_split(term, pivot=5)
        assert all(p.support == (2, 9) for p in parts)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_weights_sum_to_one(self, seed, k):
        rng = np.random.Generator(np.random.Philox(key=[seed, k]))
        term = qk.haar_random_term(tuple(range(k)), rng)
        for pivot in term.support:
            weights = qk.schmidt_weights(term, pivot)
            assert abs(float(np.sum(weights)) - 1.0) <= 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_parts_dominate_original(self, seed):
        rng = np.random.Generator(np.random.Philox(key=100 + seed))
        k = int(rng.integers(2, 5))
        term = qk.haar_random_term(tuple(range(k)), rng)
        for pivot in term.support:
            parts = qk.schmidt_split(term, pivot)
            rest = tuple(j for j in range(k) if j != pivot)
            blanket = sum(
                embed_matrix(k, rest, p.dense()) for p in parts
            )
            gap = np.linalg.eigvalsh(blanket - term.dense())[0]
            assert gap >= -1e-9

    def test_requires_multi_qubit_rank_one_input(self):
        with pytest.raises(qk.ArgumentError):
            qk.schmidt_split(qk.basis_term((0,), "0"), pivot=0)
        with pytest.raises(qk.ArgumentError):
            qk.schmidt_split(qk.singlet_term(0, 1), pivot=9)
        with pytest.raises(qk.ArgumentError):
            qk.schmidt_split(
                qk.GeneralTerm((0, 1), np.eye(4, dtype=complex)), pivot=0
            )


class TestPadWithDummies:
    def test_padding_appends_zero_state_qubits(self):
        term = qk.singlet_term(0, 1)
        padded = qk.pad_with_dummies(term, 3, (5,))
        assert padded.support == (0, 1, 5)
        zero = np.array([1.0, 0.0])
        assert np.allclose(padded.amplitudes, np.kron(term.amplitudes, zero))

    def test_noop_when_already_at_target(self):
        term = qk.singlet_term(0, 1)
        assert qk.pad_with_dummies(term, 2, ()) is term

    def test_zero_sector_keeps_the_original_operator(self):
        term = qk.singlet_term(0, 1)
        padded = qk.pad_with_dummies(term, 3, (2,))
        full = qk.assemble_dense(qk.QsatInstance(3, [padded]))
        idx = np.arange(8)
        sector = full[np.ix_(idx % 2 == 0, idx % 2 == 0)]
        original = qk.assemble_dense(qk.QsatInstance(2, [term]))
        assert np.allclose(sector, original, atol=1e-12)

    def test_fresh_qubit_bookkeeping_is_checked(self):
        term = qk.singlet_term(0, 1)
        with pytest.raises(qk.ArgumentError):
            qk.pad_with_dummies(term, 3, ())
        with pytest.raises(qk.ArgumentError):
            qk.pad_with_dummies(term, 4, (2, 2))
        with pytest.raises(qk.ArgumentError):
            qk.pad_with_dummies(term, 3, (1,))

    def test_locality_above_the_support_limit_is_refused(self, monkeypatch):
        # Checked before the fresh qubits, as the 2^k amplitudes would be
        # allocated before validation could refuse the term.
        monkeypatch.setenv("QSAT_MAX_QUBITS", "3")
        term = qk.singlet_term(0, 1)
        assert qk.pad_with_dummies(term, 3, (2,)).k == 3
        with pytest.raises(qk.ArgumentError, match="support limit of 3"):
            qk.pad_with_dummies(term, 4, (2, 3))
        with pytest.raises(qk.ArgumentError, match="support limit of 3"):
            qk.pad_with_dummies(term, 64, ())


class TestExtractMinimalCore:
    def test_triangle_is_already_minimal(self, figure_b, figure_b_core):
        assert figure_b_core.core.num_terms == 4
        assert qk.same_structure(figure_b_core.core, figure_b)
        cert = figure_b_core.certificate
        assert abs(cert.core_lambda0 - CORE_PENALTY) <= 1e-9
        assert len(cert.deletion_lambda0) == 4
        assert all(lam <= 1e-8 for lam in cert.deletion_lambda0)

    def test_duplicate_term_is_stripped(self, figure_b):
        padded = qk.QsatInstance(
            3, list(figure_b.terms) + [figure_b.terms[2]], figure_b.promise_gap
        )
        result = qk.extract_minimal_core(padded)
        assert result.core.num_terms == 4

    def test_certificate_is_self_verifying(self, figure_b_core):
        core = figure_b_core.core
        assert qk.decide_sat(core).tag == qk.UNSATISFIABLE
        for i in range(core.num_terms):
            weakened = qk.QsatInstance(
                core.num_qubits,
                core.terms[:i] + core.terms[i + 1:],
                core.promise_gap,
            )
            assert qk.decide_sat(weakened).tag == qk.SATISFIABLE

    def test_certificate_holds_the_cores_own_energies(self, figure_b):
        # The extra term raises the input's energy to about 0.33; the core's
        # is about 0.22.
        padded = qk.QsatInstance(
            3, [qk.basis_term((0,), "0"), *figure_b.terms], figure_b.promise_gap
        )
        result = qk.extract_minimal_core(padded)
        core, cert = result.core, result.certificate
        assert abs(cert.core_lambda0 - qk.ground_energy(core).lambda0) <= 1e-12
        assert len(cert.deletion_lambda0) == core.num_terms
        for i, lam in enumerate(cert.deletion_lambda0):
            weakened = qk.QsatInstance(
                core.num_qubits, core.terms[:i] + core.terms[i + 1:], core.promise_gap
            )
            assert abs(lam - qk.ground_energy(weakened).lambda0) <= 1e-12

    def test_satisfiable_input_is_refused(self, figure_a):
        with pytest.raises(qk.PreconditionError):
            qk.extract_minimal_core(figure_a)

    def test_indeterminate_input_is_refused(self):
        with pytest.raises(qk.IndeterminateError):
            qk.extract_minimal_core(near_identity_pair())


class TestEnforcingGadget:
    def test_builtin_gadget_shape(self, builtin_gadget):
        g = builtin_gadget
        assert g.dummy_qubit == 3
        assert g.ancilla_qubits == (0, 1, 2)
        assert g.gadget_instance.num_qubits == 4
        assert g.gadget_instance.num_terms == 5
        assert abs(g.penalty_constant - CORE_PENALTY) <= 1e-9

    def test_dummy_participates_in_exactly_the_split_terms(self, builtin_gadget):
        g = builtin_gadget
        profile = qk.degree_profile(g.gadget_instance)
        assert profile.per_qubit[g.dummy_qubit] == 2
        touching = [t for t in g.gadget_instance.terms if g.dummy_qubit in t.support]
        # Regardless of the basis the split picked, the two dummy terms sum
        # to (identity on the partner) x |1><1| on the dummy.
        total = sum(t.dense() for t in touching)
        assert np.allclose(total, np.diag([0.0, 1.0, 0.0, 1.0]), atol=1e-10)

    def test_degree_rises_by_at_most_one(self, figure_b_core, builtin_gadget):
        before = qk.degree_profile(figure_b_core.core).max_degree
        after = qk.degree_profile(builtin_gadget.gadget_instance).max_degree
        assert after <= before + 1

    def test_gadget_is_satisfiable_only_with_dummy_low(self, builtin_gadget):
        g = builtin_gadget
        assert qk.ground_energy(g.gadget_instance).lambda0 <= 1e-9
        low = qk.restricted_ground_energy(g.gadget_instance, {g.dummy_qubit: 0})
        high = qk.restricted_ground_energy(g.gadget_instance, {g.dummy_qubit: 1})
        assert low <= 1e-9
        assert high >= g.penalty_constant - 1e-9

    def test_explicit_split_choice(self, figure_b_core):
        g = qk.build_enforcing_gadget(figure_b_core, lambda_index=1, pivot=2)
        assert g.source.term_index == 1
        assert g.source.pivot == 2
        profile = qk.degree_profile(g.gadget_instance)
        assert profile.per_qubit[g.dummy_qubit] == 2

    def test_custom_dummy_position(self, figure_b_core):
        g = qk.build_enforcing_gadget(figure_b_core, dummy=7)
        assert g.dummy_qubit == 7
        assert g.gadget_instance.num_qubits == 8
        with pytest.raises(qk.ArgumentError):
            qk.build_enforcing_gadget(figure_b_core, dummy=1)

    def test_bad_term_choices_are_rejected(self, figure_b_core):
        with pytest.raises(qk.ArgumentError):
            qk.build_enforcing_gadget(figure_b_core, lambda_index=99)
        with pytest.raises(qk.ArgumentError):
            qk.build_enforcing_gadget(figure_b_core, pivot=9)

    def test_product_split_term_gives_degree_one_dummy(self):
        # A core whose chosen term is a product state has Schmidt rank 1,
        # so the dummy ends up in a single term.
        core_instance = qk.QsatInstance(
            2,
            [
                qk.basis_term((0, 1), "00"),
                qk.basis_term((0, 1), "01"),
                qk.basis_term((0,), "1"),
            ],
        )
        core = qk.extract_minimal_core(core_instance)
        assert core.core.num_terms == 3
        g = qk.build_enforcing_gadget(core, lambda_index=0)
        profile = qk.degree_profile(g.gadget_instance)
        assert profile.per_qubit[g.dummy_qubit] == 1
        assert abs(g.penalty_constant - 1.0) <= 1e-9

    def test_construction_checks_catch_bogus_certificates(self, figure_a, figure_b):
        sat_core = qk.MinimalCore(figure_a, CoreCertificate(0.0, ()))
        with pytest.raises(qk.ValidationError):
            qk.build_enforcing_gadget(sat_core)
        inflated = qk.MinimalCore(figure_a, CoreCertificate(0.5, ()))
        with pytest.raises(qk.ValidationError):
            qk.build_enforcing_gadget(inflated)


class TestBuildReduction:
    def test_single_term_reduction_layout(self, figure_b_core):
        q = qk.QsatInstance(2, [qk.singlet_term(0, 1)], promise_gap=0.7)
        out = qk.build_reduction(q, 3, figure_b_core)
        t = out.t_instance
        assert t.num_qubits == 6
        assert t.num_terms == 1 + 5
        assert out.role_map == (
            ROLE_WORK, ROLE_WORK, ROLE_DUMMY,
            ROLE_ANCILLA, ROLE_ANCILLA, ROLE_ANCILLA,
        )
        assert out.adjusted_gap == pytest.approx(out.penalty_constant)
        assert t.promise_gap == out.adjusted_gap
        # The padded term plus the two split copies meet on the dummy.
        assert qk.degree_profile(t).per_qubit[2] == 3
        assert qk.locality(t) == 3

    def test_huge_register_is_refused_before_building(self, monkeypatch, figure_b,
                                                      figure_b_core):
        monkeypatch.setattr(qk.config, "physical_memory", lambda: 1 << 33)
        with pytest.raises(qk.CapacityError, match="role list"):
            qk.build_reduction(qk.QsatInstance(10**15, figure_b.terms), 3, figure_b_core)

    def test_accounting_summaries(self, figure_b_core):
        q = qk.QsatInstance(2, [qk.singlet_term(0, 1)])
        out = qk.build_reduction(q, 3, figure_b_core)
        summary = {s.role: s for s in out.accounting.summaries}
        assert out.accounting.target_k == 3
        assert summary[ROLE_WORK].count == 2
        assert summary[ROLE_DUMMY].count == 1
        assert summary[ROLE_DUMMY].max_degree == 3
        assert summary[ROLE_ANCILLA].count == 3

    def test_terms_already_at_target_are_untouched(self, figure_b_core):
        q = qk.QsatInstance(2, [qk.singlet_term(0, 1)], promise_gap=0.05)
        out = qk.build_reduction(q, 2, figure_b_core)
        assert out.t_instance.terms == q.terms
        assert out.role_map == (ROLE_WORK, ROLE_WORK)
        assert out.adjusted_gap == pytest.approx(0.05)

    def test_every_dummy_reaches_degree_three(self, figure_b_core):
        q = qk.QsatInstance(
            2, [qk.basis_term((0,), "0"), qk.basis_term((1,), "0")]
        )
        out = qk.build_reduction(q, 2, figure_b_core)
        t = out.t_instance
        assert t.num_qubits == 2 + 2 * (1 + 3)
        profile = qk.degree_profile(t)
        for qubit, role in enumerate(out.role_map):
            if role == ROLE_DUMMY:
                assert profile.per_qubit[qubit] == 3

    def test_verification_passes_on_satisfiable_input(self, figure_b_core):
        q = qk.QsatInstance(2, [qk.singlet_term(0, 1)])
        out = qk.build_reduction(q, 3, figure_b_core)
        report = qk.verify_reduction(q, out)
        assert report.ok
        assert report.base_energy <= 1e-9
        assert abs(report.reduced_energy - report.base_energy) <= 1e-8

    def test_high_energy_input_is_clamped_at_the_penalty(self, figure_b_core):
        q = qk.QsatInstance(
            1, [qk.basis_term((0,), "0"), qk.basis_term((0,), "1")]
        )
        out = qk.build_reduction(q, 2, figure_b_core)
        report = qk.verify_reduction(q, out)
        assert report.ok
        assert abs(report.base_energy - 1.0) <= 1e-9
        assert report.reduced_energy >= out.penalty_constant - 1e-8

    def test_rejects_unreachable_target(self, figure_b, figure_b_core):
        with pytest.raises(qk.ArgumentError):
            qk.build_reduction(figure_b, 1, figure_b_core)
        with pytest.raises(qk.ArgumentError):
            qk.build_reduction(figure_b, 0, figure_b_core)

    def test_rejects_general_terms(self, figure_b_core):
        q = qk.QsatInstance(1, [qk.GeneralTerm((0,), np.eye(2, dtype=complex))])
        with pytest.raises(qk.ArgumentError):
            qk.build_reduction(q, 2, figure_b_core)

    def test_rejects_invalid_instances(self, figure_b_core):
        # An invalid instance is refused when it is built, before any reduction.
        with pytest.raises(qk.ValidationError) as exc:
            qk.build_reduction(qk.QsatInstance(1, [qk.RankOneTerm((0,), [0.5, 0.0])]), 2,
                               figure_b_core)
        assert [v.term_index for v in exc.value.report.violations] == [0]
        assert "norm" in exc.value.report.violations[0].message

    def test_construction_has_no_size_ceiling(self, figure_a, figure_b_core):
        out = qk.build_reduction(figure_a, 3, figure_b_core)
        assert out.t_instance.num_qubits == 3 + 4 * (1 + 3)
        assert out.t_instance.num_terms == 4 + 4 * 5
        assert qk.verify_reduction(figure_a, out).ok
        # Verification still caps the input, which decide_sat decides whole...
        wide = qk.QsatInstance(14, [qk.singlet_term(0, 13)])
        with pytest.raises(qk.CapacityError, match="the input has 14"):
            qk.verify_reduction(wide, qk.build_reduction(wide, 3, figure_b_core))
        # ...and an output with a dummy left in a superposition, which has no
        # Z-sectors to split.
        padded = out.t_instance.terms[0]
        spread = np.kron(padded.amplitudes.reshape(-1, 2)[:, 0], np.ones(2) / np.sqrt(2))
        tampered = with_terms(
            out, [qk.RankOneTerm(padded.support, spread), *out.t_instance.terms[1:]]
        )
        with pytest.raises(qk.CapacityError, match="the output has 19"):
            qk.verify_reduction(figure_a, tampered)


def with_terms(out, terms):
    """The output with its terms replaced, on the same register and roles."""
    t = out.t_instance
    return dataclasses.replace(out, t_instance=qk.QsatInstance(t.num_qubits, terms, t.promise_gap))


def frustrated_qubit(lambda0, num_qubits=2, qubit=0, phase=0.0):
    """|0><0| + |v><v| on one qubit, with ground energy 1 - |<0|v>|."""
    overlap = 1.0 - lambda0
    v = [overlap, np.sqrt(1.0 - overlap**2) * np.exp(1j * phase)]
    return qk.QsatInstance(
        num_qubits, [qk.basis_term((qubit,), "0"), qk.RankOneTerm((qubit,), v)]
    )


class TestVerifyReduction:
    @pytest.fixture()
    def small_output(self, figure_b_core):
        q = qk.QsatInstance(2, [qk.singlet_term(0, 1)])
        return q, qk.build_reduction(q, 3, figure_b_core)

    def test_detects_dummy_left_in_superposition(self, small_output):
        q, out = small_output
        tampered_terms = list(out.t_instance.terms)
        spread = np.kron(
            qk.singlet_term(0, 1).amplitudes,
            np.array([1.0, 1.0]) / np.sqrt(2),
        )
        tampered_terms[0] = qk.RankOneTerm((0, 1, 2), spread)
        tampered = dataclasses.replace(
            out,
            t_instance=qk.QsatInstance(
                out.t_instance.num_qubits, tampered_terms, out.adjusted_gap
            ),
        )
        report = qk.verify_reduction(q, tampered)
        assert not report.commutation_ok
        assert not report.ok
        # No Z-sectors: the output's energy is decide_sat's, route and all.
        assert report.reduced_method != "sectors"
        assert report.reduced_method == qk.decide_sat(tampered.t_instance).method
        assert report.reduced_floor == report.reduced_energy

    def test_detects_energy_mismatch(self, small_output):
        q, out = small_output
        extra = [qk.basis_term((0,), "0"), qk.basis_term((0,), "1")]
        tampered = dataclasses.replace(
            out,
            t_instance=qk.QsatInstance(
                out.t_instance.num_qubits,
                list(out.t_instance.terms) + extra,
                out.adjusted_gap,
            ),
        )
        report = qk.verify_reduction(q, tampered)
        assert not report.energy_ok

    def test_detects_degree_violations(self, small_output):
        q, out = small_output
        extra = [qk.basis_term((3, 5), "00")] * 2
        tampered = dataclasses.replace(
            out,
            t_instance=qk.QsatInstance(
                out.t_instance.num_qubits,
                list(out.t_instance.terms) + extra,
                out.adjusted_gap,
            ),
        )
        report = qk.verify_reduction(q, tampered)
        assert not report.degree_ok
        assert report.commutation_ok

    def test_satisfiable_output_needs_only_small_dense_solves(self, figure_b_core,
                                                              monkeypatch):
        rng = np.random.Generator(np.random.Philox(key=1310))
        q = qk.QsatInstance(3, [qk.haar_random_term(e, rng) for e in ((0, 1), (1, 2))])
        out = qk.build_reduction(q, 3, figure_b_core)
        t = out.t_instance
        assert t.num_qubits == 11

        def refuse(*_):
            raise AssertionError("Lanczos ran")

        sizes = []
        dense = spectral._dense_ground_pair

        def counted(stack):
            sizes.extend([stack.shape[-1]] * len(stack))
            return dense(stack)

        monkeypatch.setattr(spectral, "_dense_ground_pair", counted)
        monkeypatch.setattr(spectral, "_krylov_ground_pair", refuse)
        report = qk.verify_reduction(q, out)
        assert report.ok
        assert (report.base_method, report.reduced_method) == ("nullspace", "sectors")
        # Three 3-qubit components with every dummy at |0>, one gadget copy
        # per dummy at |1>: no solve sees the 11-qubit register.
        assert 0 < max(sizes) <= 8
        assert abs(report.reduced_energy) <= spectral.sat_tolerance(t.num_terms)

    def test_unsatisfiable_output_keeps_the_spectral_energy(self, figure_b_core):
        # lambda0(q) = 1 - 0.9 = 0.1: above the unsatisfiability floor and
        # below the penalty, so the 10-qubit output's whole-register solve
        # goes to Lanczos.
        q = frustrated_qubit(0.1)
        out = qk.build_reduction(q, 2, figure_b_core)
        report = qk.verify_reduction(q, out)
        assert report.reduced_method == "sectors"
        full = qk.ground_energy(out.t_instance)
        assert full.method == "krylov"
        assert abs(report.reduced_energy - full.lambda0) <= 1e-10
        assert report.reduced_floor == report.reduced_energy
        assert report.energy_ok
        assert abs(report.reduced_energy - 0.1) <= 1e-8

    def test_detects_a_gadget_missing_a_schmidt_part(self, figure_b_core):
        q = frustrated_qubit(0.1)
        out = qk.build_reduction(q, 2, figure_b_core)
        dummy = out.role_map.index(ROLE_DUMMY)
        terms = list(out.t_instance.terms)
        # The padded term comes first, then the gadget copy's split parts.
        split = [j for j, term in enumerate(terms) if dummy in term.support][1:]
        assert len(split) == 2
        tampered = with_terms(out, terms[:split[-1]] + terms[split[-1] + 1:])
        report = qk.verify_reduction(q, tampered)
        assert report.commutation_ok
        assert abs(report.reduced_energy - 0.1) <= 1e-8
        assert report.reduced_floor < 0.1 - qk.config.REDUCTION_ENERGY_TOL
        assert not report.energy_ok
        # The whole output's ground energy, which a verdict on the whole
        # register checks, misses 0.1 as well.
        whole = qk.decide_sat(tampered.t_instance).lambda0
        assert abs(whole - 0.1) > qk.config.REDUCTION_ENERGY_TOL

    def test_product_split_gadget_keeps_its_floor(self):
        # The split term |00> has one Schmidt part, |0> on the partner, so
        # the terms on the dummy alone bound the dummy-at-|1> sectors by 0;
        # with the rest of the gadget copy the bound is the penalty, 1.
        core = qk.extract_minimal_core(qk.QsatInstance(2, [
            qk.basis_term((0, 1), "00"),
            qk.basis_term((0, 1), "01"),
            qk.basis_term((0,), "1"),
        ]))
        q = frustrated_qubit(0.1)
        out = qk.build_reduction(q, 2, core)
        report = qk.verify_reduction(q, out)
        assert report.ok
        assert abs(report.reduced_energy - 0.1) <= 1e-8
        assert report.reduced_floor == report.reduced_energy
        q = frustrated_qubit(0.9)
        report = qk.verify_reduction(q, qk.build_reduction(q, 2, core))
        assert report.ok
        assert abs(report.reduced_floor - 0.9) <= 1e-8

    def test_cap_names_the_component_over_it(self, figure_a, figure_b_core):
        out = qk.build_reduction(figure_a, 3, figure_b_core)
        # A chain through every work and ancilla qubit touches no dummy, so
        # the output keeps its Z-sectors, and one component holds all 15.
        chain = [q for q, role in enumerate(out.role_map) if role != ROLE_DUMMY]
        links = [qk.basis_term(pair, "00") for pair in zip(chain, chain[1:])]
        tampered = with_terms(out, list(out.t_instance.terms) + links)
        with pytest.raises(qk.CapacityError, match=r"every dummy at \|0>.*component of 15 qubits"):
            qk.verify_reduction(figure_a, tampered)


class TestPaperScale:
    @pytest.mark.parametrize("target_k", [3, 15])
    def test_figure_a_output_is_satisfiable(self, figure_a, figure_b_core, target_k):
        out = qk.build_reduction(figure_a, target_k, figure_b_core)
        report = qk.verify_reduction(figure_a, out)
        assert report.ok
        assert report.reduced_method == "sectors"
        assert abs(report.reduced_energy) <= spectral.sat_tolerance(out.t_instance.num_terms)

    @pytest.mark.parametrize("target_k", [3, 15])
    def test_figure_b_output_keeps_the_penalty(self, figure_b, figure_b_core, target_k):
        out = qk.build_reduction(figure_b, target_k, figure_b_core)
        assert out.t_instance.num_qubits == {3: 19, 15: 211}[target_k]
        report = qk.verify_reduction(figure_b, out)
        assert report.ok
        assert report.reduced_method == "sectors"
        assert abs(report.reduced_energy - CORE_PENALTY) <= qk.config.REDUCTION_ENERGY_TOL
        assert report.reduced_floor == report.reduced_energy


@st.composite
def reducible_inputs(draw):
    """Haar rank-1 instances on at most 3 qubits whose reduction to 3-local
    terms with the figure-b gadget (a dummy and 3 ancillas per padded
    qubit) stays within 11 qubits: one or two 2-local terms, or a single
    1-local term."""
    rng = np.random.Generator(np.random.Philox(key=draw(st.integers(0, 1 << 30))))
    k, count = draw(st.sampled_from([(2, 1), (2, 2), (1, 1)]))
    n = draw(st.integers(k, 3))
    supports = [tuple(draw(st.permutations(range(n)))[:k]) for _ in range(count)]
    return qk.QsatInstance(n, [qk.haar_random_term(s, rng) for s in supports])


class TestReductionProperties:
    @given(q=reducible_inputs())
    @settings(max_examples=25, deadline=None)
    def test_reduction_keeps_commutation_degree_and_energy(self, figure_b_core, q):
        out = qk.build_reduction(q, 3, figure_b_core)
        assert out.t_instance.num_qubits <= 11
        report = qk.verify_reduction(q, out)
        assert report.commutation_ok
        assert report.degree_ok
        assert report.energy_ok
        assert report.reduced_method == "sectors"
        # Against the whole register: dense up to the cutoff, Lanczos beyond.
        full = qk.ground_energy(out.t_instance).lambda0
        assert abs(report.reduced_energy - full) <= 1e-10

    @given(
        lambda0=st.one_of(
            st.floats(qk.config.UNSAT_FLOOR, CORE_PENALTY, exclude_max=True),
            st.floats(CORE_PENALTY, 1.0, exclude_min=True),
        ),
        num_qubits=st.integers(1, 2),
        phase=st.floats(0.0, 2 * np.pi),
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_frustrated_input_keeps_its_energy_or_the_penalty(
        self, figure_b_core, lambda0, num_qubits, phase, data
    ):
        qubit = data.draw(st.integers(0, num_qubits - 1))
        q = frustrated_qubit(lambda0, num_qubits, qubit, phase)
        out = qk.build_reduction(q, 2, figure_b_core)
        assert out.t_instance.num_qubits == num_qubits + 2 * (1 + 3)
        report = qk.verify_reduction(q, out)
        assert report.ok
        assert report.reduced_method == "sectors"
        assert abs(report.base_energy - lambda0) <= 1e-8
        full = qk.ground_energy(out.t_instance).lambda0
        assert abs(report.reduced_energy - full) <= 1e-10
        if lambda0 <= CORE_PENALTY:
            assert abs(report.reduced_energy - lambda0) <= qk.config.REDUCTION_ENERGY_TOL
        else:
            assert report.reduced_floor >= CORE_PENALTY - qk.config.REDUCTION_ENERGY_TOL
