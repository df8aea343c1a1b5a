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
    """A QsatInstance checks its invariants once, on construction, and an
    invalid one is never built: its violations travel on the error."""

    @staticmethod
    def violations(*args, **kwargs):
        with pytest.raises(qk.ValidationError) as exc:
            qk.QsatInstance(*args, **kwargs)
        return exc.value.report.violations

    def test_clean_instance_has_empty_report(self, figure_b):
        assert qk.instance.validate(figure_b) is None

    def test_norm_violation_is_reported_with_term_index(self):
        violations = self.violations(2, [qk.RankOneTerm((0,), [0.5, 0.0])])
        assert violations[0].term_index == 0
        assert "norm" in violations[0].message

    def test_support_out_of_range(self):
        violations = self.violations(2, [qk.basis_term((0, 2), "00")])
        assert any(v.term_index == 0 for v in violations)

    def test_duplicate_support_entry(self):
        assert self.violations(3, [qk.basis_term((1, 1), "00")])

    def test_support_size_cap(self, monkeypatch):
        terms = [qk.basis_term((0, 1, 2), "000")]
        monkeypatch.setenv("QSAT_MAX_QUBITS", "3")
        qk.QsatInstance(4, terms)
        monkeypatch.setenv("QSAT_MAX_QUBITS", "2")
        assert [v.message for v in self.violations(4, terms)] == [
            "support size 3 exceeds limit 2"
        ]

    def test_general_term_must_be_hermitian(self):
        mat = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
        violations = self.violations(1, [qk.GeneralTerm((0,), mat)])
        assert any("ermitian" in v.message for v in violations)

    def test_general_term_must_be_idempotent(self):
        mat = np.diag([2.0, 0.0]).astype(np.complex128)
        violations = self.violations(1, [qk.GeneralTerm((0,), mat)])
        assert any("projector" in v.message or "idempotent" in v.message
                   for v in violations)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_amplitude_is_a_violation(self, bad):
        violations = self.violations(2, [qk.RankOneTerm((0, 1), [bad, 1.0, 0.0, 0.0])])
        assert violations[0].term_index == 0
        assert "non-finite" in violations[0].message

    def test_non_finite_matrix_entry_is_a_violation(self):
        mat = np.diag([1.0, math.nan]).astype(np.complex128)
        violations = self.violations(1, [qk.GeneralTerm((0,), mat)])
        assert [v.message for v in violations] == ["matrix contains non-finite values"]

    def test_instance_level_violations(self):
        assert [v.message for v in self.violations(0, [])] == [
            "num_qubits must be positive"
        ]
        assert [v.message for v in self.violations(1, [], promise_gap=0.0)] == [
            "promise_gap must be positive"
        ]

    def test_invalid_instance_raises_with_report(self):
        with pytest.raises(qk.ValidationError) as exc:
            qk.QsatInstance(2, [qk.RankOneTerm((0,), [0.5, 0.0])])
        assert [v.term_index for v in exc.value.report.violations] == [0]
        assert str(exc.value) == f"invalid instance: {exc.value.report}"

    def test_clean_instances_construct(self, figure_a):
        rebuilt = qk.QsatInstance(figure_a.num_qubits, figure_a.terms, figure_a.promise_gap)
        assert rebuilt == figure_a


class TestValidateOnce:
    """Operations trust an instance that exists: only construction validates."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        calls = []
        original = qk.instance.validate

        def counting(instance):
            calls.append(instance)
            original(instance)

        monkeypatch.setattr(qk.instance, "validate", counting)
        return calls

    def test_a_dense_verdict_does_not_validate(self, figure_b, calls):
        verdict = qk.decide_sat(figure_b)
        assert (verdict.tag, verdict.method) == (qk.UNSATISFIABLE, "dense")
        assert calls == []

    def test_a_krylov_verdict_does_not_validate(self, figure_b, calls):
        # The Krylov route runs on the instance decide_sat was handed.
        above = qk.QsatInstance(qk.config.DENSE_CUTOFF + 1, figure_b.terms)
        calls.clear()
        for inst, method in ((figure_b, "krylov"), (above, "auto")):
            verdict = qk.decide_sat(inst, method=method)
            assert (verdict.tag, verdict.method) == (qk.UNSATISFIABLE, "krylov")
        assert calls == []

    def test_an_ensemble_validates_its_structure_once(self, calls):
        num_qubits, supports = qk.triangle_double_structure()
        result = qk.sample_ensemble(num_qubits, supports, trials=7, seed=3)
        assert result.trials == 7
        assert len(calls) == 1


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

    def test_huge_register_is_refused_before_counting(self, monkeypatch, figure_b):
        monkeypatch.setattr(qk.config, "physical_memory", lambda: 1 << 33)
        with pytest.raises(qk.CapacityError, match="degree profile"):
            qk.degree_profile(qk.QsatInstance(10**15, figure_b.terms))

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
