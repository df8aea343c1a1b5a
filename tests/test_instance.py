"""Instance containers, validation, degree profiles, and structure equality."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsatkit as qk

from conftest import random_instance


class TestRankOneTerm:
    def test_support_and_amplitudes_are_frozen(self):
        term = qk.RankOneTerm((1, 0), [1.0, 0.0, 0.0, 0.0])
        assert term.support == (1, 0)
        assert term.amplitudes.dtype == np.complex128
        with pytest.raises((ValueError, RuntimeError)):
            term.amplitudes[0] = 5.0

    def test_k_counts_support_size(self):
        assert qk.RankOneTerm((3,), [1.0, 0.0]).k == 1
        assert qk.basis_term((0, 1, 2), "101").k == 3

    def test_dense_is_outer_product(self):
        vec = np.array([0.6, 0.8j], dtype=np.complex128)
        term = qk.RankOneTerm((0,), vec)
        assert np.allclose(term.dense(), np.outer(vec, vec.conj()))

    def test_equality_is_structural(self):
        a = qk.RankOneTerm((0, 1), [0.0, 1.0, 0.0, 0.0])
        b = qk.RankOneTerm((0, 1), [0.0, 1.0, 0.0, 0.0])
        c = qk.RankOneTerm((0, 1), [0.0, 0.0, 1.0, 0.0])
        assert a == b
        assert a != c


class TestValidate:
    def test_clean_instance_has_empty_report(self, figure_b):
        report = qk.validate(figure_b)
        assert report.ok
        assert report.violations == ()

    def test_norm_violation_is_reported_with_term_index(self):
        bad = qk.QsatInstance(2, [qk.RankOneTerm((0,), [0.5, 0.0])])
        report = qk.validate(bad)
        assert not report.ok
        assert report.violations[0].term_index == 0
        assert "norm" in report.violations[0].message

    def test_support_out_of_range(self):
        inst = qk.QsatInstance(2, [qk.basis_term((0, 2), "00")])
        report = qk.validate(inst)
        assert any(v.term_index == 0 for v in report.violations)

    def test_duplicate_support_entry(self):
        inst = qk.QsatInstance(3, [qk.basis_term((1, 1), "00")])
        assert not qk.validate(inst).ok

    def test_support_size_cap(self):
        inst = qk.QsatInstance(4, [qk.basis_term((0, 1, 2), "000")])
        assert qk.validate(inst, max_support=3).ok
        assert not qk.validate(inst, max_support=2).ok

    def test_general_term_must_be_hermitian(self):
        mat = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
        inst = qk.QsatInstance(1, [qk.GeneralTerm((0,), mat)])
        report = qk.validate(inst)
        assert any("ermitian" in v.message for v in report.violations)

    def test_general_term_must_be_idempotent(self):
        mat = np.diag([2.0, 0.0]).astype(np.complex128)
        inst = qk.QsatInstance(1, [qk.GeneralTerm((0,), mat)])
        report = qk.validate(inst)
        assert any("projector" in v.message or "idempotent" in v.message
                   for v in report.violations)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_amplitude_is_a_violation(self, bad):
        inst = qk.QsatInstance(2, [qk.RankOneTerm((0, 1), [bad, 1.0, 0.0, 0.0])])
        report = qk.validate(inst)
        assert not report.ok
        assert report.violations[0].term_index == 0
        assert "non-finite" in report.violations[0].message

    def test_non_finite_matrix_entry_is_a_violation(self):
        mat = np.diag([1.0, math.nan]).astype(np.complex128)
        report = qk.validate(qk.QsatInstance(1, [qk.GeneralTerm((0,), mat)]))
        assert [v.message for v in report.violations] == [
            "matrix contains non-finite values"
        ]

    def test_instance_level_violations(self):
        report = qk.validate(qk.QsatInstance(0, []))
        assert not report.ok
        report = qk.validate(qk.QsatInstance(1, [], promise_gap=0.0))
        assert not report.ok

    def test_require_valid_raises_with_report(self):
        bad = qk.QsatInstance(2, [qk.RankOneTerm((0,), [0.5, 0.0])])
        with pytest.raises(qk.ValidationError) as exc:
            qk.require_valid(bad)
        assert exc.value.report is not None
        assert not exc.value.report.ok

    def test_require_valid_accepts_clean_instances(self, figure_a):
        qk.require_valid(figure_a)


class TestDegreeProfile:
    def test_triangle_profile(self, figure_b):
        profile = qk.degree_profile(figure_b)
        assert profile.per_qubit == (3, 2, 3)
        assert profile.max_degree == 3
        assert not profile.is_regular

    def test_empty_instance_is_regular(self):
        profile = qk.degree_profile(qk.QsatInstance(3, []))
        assert profile.per_qubit == (0, 0, 0)
        assert profile.max_degree == 0
        assert profile.is_regular

    def test_uniform_stack_is_regular(self):
        terms = [qk.basis_term((0, 1), "00"), qk.basis_term((0, 1), "11")]
        profile = qk.degree_profile(qk.QsatInstance(2, terms))
        assert profile.per_qubit == (2, 2)
        assert profile.is_regular

    @given(st.integers(0, 1 << 30))
    @settings(max_examples=25, deadline=None)
    def test_degree_sum_equals_support_sum(self, seed):
        rng = np.random.Generator(np.random.Philox(key=seed))
        inst = random_instance(rng, num_qubits=5, num_terms=int(rng.integers(0, 7)))
        profile = qk.degree_profile(inst)
        assert sum(profile.per_qubit) == sum(t.k for t in inst.terms)

    def test_locality(self, figure_b):
        assert qk.locality(figure_b) == 2
        assert qk.locality(qk.QsatInstance(4, [])) == 0
        five = qk.RankOneTerm(tuple(range(5)), np.eye(32)[0])
        assert qk.locality(qk.QsatInstance(5, [five])) == 5


class TestSameStructure:
    def test_figures_share_structure(self, figure_a, figure_b):
        assert qk.same_structure(figure_a, figure_b)

    def test_reflexive(self, figure_a):
        assert qk.same_structure(figure_a, figure_a)

    def test_amplitudes_are_ignored(self):
        a = qk.QsatInstance(2, [qk.basis_term((0, 1), "00")])
        b = qk.QsatInstance(2, [qk.singlet_term(0, 1)])
        assert qk.same_structure(a, b)

    def test_qubit_count_matters(self):
        a = qk.QsatInstance(2, [qk.basis_term((0, 1), "00")])
        b = qk.QsatInstance(3, [qk.basis_term((0, 1), "00")])
        assert not qk.same_structure(a, b)

    def test_multiplicity_matters(self):
        once = qk.QsatInstance(2, [qk.basis_term((0, 1), "00")])
        twice = qk.QsatInstance(
            2, [qk.basis_term((0, 1), "00"), qk.basis_term((0, 1), "11")]
        )
        assert not qk.same_structure(once, twice)

    def test_support_order_is_ignored(self):
        a = qk.QsatInstance(2, [qk.RankOneTerm((0, 1), [1, 0, 0, 0])])
        b = qk.QsatInstance(2, [qk.RankOneTerm((1, 0), [1, 0, 0, 0])])
        assert qk.same_structure(a, b)

    def test_formula_and_instance_can_share_structure(self, figure_a):
        phi = qk.figure_a_formula()
        assert qk.same_structure(figure_a, phi)
        assert qk.same_structure(phi, figure_a)

    @given(st.integers(0, 1 << 30))
    @settings(max_examples=20, deadline=None)
    def test_equivalence_relation(self, seed):
        rng = np.random.Generator(np.random.Philox(key=seed))
        pool = [
            random_instance(rng, num_qubits=4, num_terms=3)
            for _ in range(3)
        ]
        relabeled = qk.QsatInstance(
            4, [qk.haar_random_term(t.support, rng) for t in pool[0].terms]
        )
        pool.append(relabeled)
        for x in pool:
            assert qk.same_structure(x, x)
        for x in pool:
            for y in pool:
                assert qk.same_structure(x, y) == qk.same_structure(y, x)
        for x in pool:
            for y in pool:
                for z in pool:
                    if qk.same_structure(x, y) and qk.same_structure(y, z):
                        assert qk.same_structure(x, z)


class TestQuditInstance:
    def test_dimension_and_shape_checks(self):
        qk.QuditInstance(1, 3, [((0,), np.diag([1.0, 0, 0]).astype(complex))])
        with pytest.raises(qk.ArgumentError):
            qk.QuditInstance(1, 1, [])
        with pytest.raises(qk.ArgumentError):
            qk.QuditInstance(1, 3, [((0,), np.eye(2, dtype=complex))])

    def test_one_dim_requires_neighbouring_supports(self):
        mat = np.zeros((9, 9), dtype=complex)
        mat[0, 0] = 1.0
        qk.QuditInstance(4, 3, [((1, 2), mat)], one_dim=True)
        with pytest.raises(qk.ArgumentError):
            qk.QuditInstance(4, 3, [((0, 2), mat)], one_dim=True)
        # Without the flag the same support is fine.
        qk.QuditInstance(4, 3, [((0, 2), mat)])


class TestCnfFormula:
    def test_rejects_repeated_variable_in_clause(self):
        with pytest.raises(qk.ArgumentError):
            qk.CnfFormula(2, [((0, True), (0, False))])

    def test_rejects_out_of_range_variable(self):
        with pytest.raises(qk.ArgumentError):
            qk.CnfFormula(2, [((2, True),)])

    def test_rejects_empty_variable_count(self):
        with pytest.raises(qk.ArgumentError):
            qk.CnfFormula(0, [])
