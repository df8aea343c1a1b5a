"""Haar sampling and structured random ensembles."""

from __future__ import annotations

import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

import qsatkit as qk
from qsatkit.ensembles import _draw
from qsatkit.spectral import _actions, _decide, _ground_pairs


def trial_instance(num_qubits, supports, seed, trial):
    """A trial as its own instance, each term drawn by haar_random_term on
    stream seed ^ trial."""
    rng = np.random.Generator(np.random.Philox(key=seed ^ trial))
    return qk.QsatInstance(num_qubits, [qk.haar_random_term(s, rng) for s in supports])


def per_trial_tally(num_qubits, supports, trials, seed):
    """The reference route: one instance and one decide_sat call per trial."""
    tags = Counter(
        qk.decide_sat(trial_instance(num_qubits, supports, seed, trial)).tag
        for trial in range(trials)
    )
    return tags[qk.SATISFIABLE], tags[qk.UNSATISFIABLE], tags[qk.INDETERMINATE]


def tally(result):
    return result.sat_count, result.unsat_count, result.indeterminate_count


@st.composite
def structures(draw):
    """Up to six qubits and eight supports of one to three qubits, in any
    order, with repeated supports."""
    n = draw(st.integers(1, 6))
    supports = []
    for _ in range(draw(st.integers(0, 8))):
        if supports and draw(st.booleans()):
            supports.append(draw(st.sampled_from(supports)))
        else:
            k = draw(st.integers(1, min(3, n)))
            supports.append(tuple(draw(st.permutations(range(n)))[:k]))
    return n, supports


class TestHaarRandomTerm:
    def test_support_and_normalization(self):
        term = qk.haar_random_term((3, 1, 5), 99)
        assert term.support == (3, 1, 5)
        assert abs(np.linalg.norm(term.amplitudes) - 1.0) <= 1e-12

    def test_seed_determinism(self):
        a = qk.haar_random_term((0, 1), 7)
        b = qk.haar_random_term((0, 1), 7)
        c = qk.haar_random_term((0, 1), 8)
        assert np.array_equal(a.amplitudes, b.amplitudes)
        assert not np.array_equal(a.amplitudes, c.amplitudes)

    def test_accepts_generators(self):
        rng = np.random.Generator(np.random.Philox(key=7))
        term = qk.haar_random_term((0,), rng)
        assert abs(np.linalg.norm(term.amplitudes) - 1.0) <= 1e-12

    def test_single_qubit_marginal_is_uniform(self):
        # For Haar states on one qubit, |amplitude_0|^2 is uniform on [0, 1].
        rng = np.random.Generator(np.random.Philox(key=2024))
        draws = np.array(
            [
                abs(qk.haar_random_term((0,), rng).amplitudes[0]) ** 2
                for _ in range(10_000)
            ]
        )
        assert kstest(draws, "uniform").pvalue > 0.01

    def test_phases_cover_the_complex_plane(self):
        rng = np.random.Generator(np.random.Philox(key=31))
        draws = np.array(
            [qk.haar_random_term((0,), rng).amplitudes for _ in range(2000)]
        )
        # Real and imaginary parts of both components change sign.
        assert (draws.real > 0).any() and (draws.real < 0).any()
        assert (draws.imag > 0).any() and (draws.imag < 0).any()


class TestSampleEnsemble:
    def test_counts_add_up(self):
        result = qk.sample_ensemble(3, qk.triangle_double_structure()[1], 25, seed=5)
        assert result.trials == 25
        assert (
            result.sat_count + result.unsat_count + result.indeterminate_count
            == 25
        )
        assert result.seed == 5

    def test_single_projector_structures_are_always_satisfiable(self):
        result = qk.sample_ensemble(2, [(0, 1)], 30, seed=1)
        assert result.sat_count == 30

    def test_empty_structure_is_satisfiable(self):
        result = qk.sample_ensemble(2, [], 3, seed=1)
        assert result.sat_count == 3

    def test_doubled_triangle_is_generically_unsatisfiable(self):
        num_qubits, supports = qk.triangle_double_structure()
        result = qk.sample_ensemble(num_qubits, supports, 40, seed=7)
        assert result.unsat_count == 40

    def test_runs_are_reproducible(self):
        _, supports = qk.triangle_double_structure()
        first = qk.sample_ensemble(3, supports, 12, seed=3)
        second = qk.sample_ensemble(3, supports, 12, seed=3)
        assert first == second

    def test_trials_are_independent_streams(self):
        # A longer run must agree with a shorter one on the shared prefix;
        # per-trial tallies come from per-trial generator keys.
        _, supports = qk.triangle_double_structure()
        short = qk.sample_ensemble(3, supports, 5, seed=11)
        long = qk.sample_ensemble(3, supports, 9, seed=11)
        assert short.unsat_count <= long.unsat_count
        assert short.trials == 5 and long.trials == 9

    def test_relabeled_structures_tally_identically(self):
        # Permuting qubit labels permutes each instance's spectrum-preserving
        # embedding, so identical seeds must give identical tallies.
        plain = [(0, 1), (1, 2), (0, 2), (0, 2)]
        swapped = [(2, 1), (1, 0), (2, 0), (2, 0)]
        a = qk.sample_ensemble(3, plain, 20, seed=13)
        b = qk.sample_ensemble(3, swapped, 20, seed=13)
        assert a.sat_count == b.sat_count
        assert a.unsat_count == b.unsat_count

    @given(structures(), st.integers(1, 12), st.integers(0, (1 << 128) - 1))
    @settings(max_examples=60, deadline=None)
    def test_stacks_tally_like_one_verdict_per_trial(self, structure, trials, seed):
        num_qubits, supports = structure
        result = qk.sample_ensemble(num_qubits, supports, trials, seed)
        assert tally(result) == per_trial_tally(num_qubits, supports, trials, seed)

    @pytest.mark.parametrize("num_qubits, supports, trials, seed", [
        # 70 trials at n = 6 span five stacks of 4^(8 - 6) = 16.
        (6, [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5)], 70, 31),
        (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 3), (1, 4), (2, 5)], 70, 7),
        # Trial 0 of seed 470 lands in the indeterminate band; so does trial
        # 17 of seed 455, the same stream, in the second stack at n = 6.
        (3, [(0, 1), (0, 1), (0, 1), (1, 2)], 20, 470),
        (6, [(0, 1), (0, 1), (0, 1), (1, 2)], 70, 455),
        # A doubled-edge triangle, a chain and two idle qubits, scattered.
        (8, [(5, 1), (1, 6), (5, 6), (6, 5), (0, 3), (3, 7)], 40, 17),
    ], ids=["sat-chain", "unsat-graph", "indeterminate", "indeterminate-in-second-stack",
            "disconnected"])
    def test_stacks_tally_like_one_verdict_per_trial_on_fixed_structures(
            self, num_qubits, supports, trials, seed):
        result = qk.sample_ensemble(num_qubits, supports, trials, seed)
        assert tally(result) == per_trial_tally(num_qubits, supports, trials, seed)

    def test_trials_above_the_dense_cutoff_tally_like_one_verdict_per_trial(self, monkeypatch):
        # Every trial is a stack of one here, and unsatisfiable: Krylov
        # decides, on a view of the stack's actions, and each lambda0 is
        # that of decide_sat on the trial's own instance, bit for bit.
        n = qk.config.DENSE_CUTOFF + 1
        supports = ([(q, (q + 1) % n, (q + 3) % n) for q in range(n)]
                    + [(q, (q + 2) % n, (q + 5) % n) for q in range(n)])
        verdicts = []

        def recorded(*args):
            stack = _decide(*args)
            verdicts.extend(stack)
            return stack

        monkeypatch.setattr(qk.ensembles, "_decide", recorded)
        result = qk.sample_ensemble(n, supports, 4, seed=5)
        assert tally(result) == per_trial_tally(n, supports, 4, 5) == (0, 4, 0)
        assert [v.method for v in verdicts] == ["krylov"] * 4
        assert [v.lambda0 for v in verdicts] == [
            qk.decide_sat(trial_instance(n, supports, 5, trial)).lambda0 for trial in range(4)
        ]

    def test_disconnected_trials_split_like_the_unsplit_solve(self, monkeypatch):
        # Two doubled-edge triangles and an idle qubit: each stack splits
        # into its two components on the dense route, and each trial's
        # lambda0 is the whole register's dense one.
        n, supports = 7, [(0, 1), (1, 2), (0, 2), (0, 2), (3, 4), (4, 5), (3, 5), (3, 5)]
        verdicts = []

        def recorded(*args):
            stack = _decide(*args)
            verdicts.extend(stack)
            return stack

        monkeypatch.setattr(qk.ensembles, "_decide", recorded)
        result = qk.sample_ensemble(n, supports, 30, seed=9)
        assert tally(result) == per_trial_tally(n, supports, 30, 9) == (0, 30, 0)
        assert [v.method for v in verdicts] == ["dense"] * 30
        for trial, verdict in enumerate(verdicts):
            inst = trial_instance(n, supports, 9, trial)
            (whole, _, _), = _ground_pairs(n, inst.supports(), _actions(inst.terms), "dense")
            assert abs(verdict.lambda0 - whole) <= 1e-10

    @pytest.mark.parametrize("cutoff", [7, 8])
    def test_stack_size_does_not_follow_the_dense_cutoff(self, monkeypatch, cutoff):
        # 4^(8 - 3) = 1,024 triangle-double trials fill one stack whatever
        # the cutoff.
        calls = []

        def recorded(*args):
            calls.append(len(args[2][0]))
            return _decide(*args)

        monkeypatch.setattr(qk.config, "DENSE_CUTOFF", cutoff)
        monkeypatch.setattr(qk.ensembles, "_decide", recorded)
        num_qubits, supports = qk.triangle_double_structure()
        result = qk.sample_ensemble(num_qubits, supports, 1024, seed=3)
        assert calls == [1024]
        assert result.trials == 1024
        # On 10 qubits the (T, 2^10) witness states bound the stack, not the
        # 3 touched qubits: 64 trials.
        calls.clear()
        assert qk.sample_ensemble(10, supports, 128, seed=3).trials == 128
        assert calls == [64, 64]

    def test_structures_above_the_ceiling_are_refused_before_drawing(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("trials were drawn")

        monkeypatch.setenv("QSAT_MAX_QUBITS", "4")
        monkeypatch.setattr(qk.ensembles, "_draw", no_draw)
        with pytest.raises(qk.CapacityError, match="ceiling is 4"):
            qk.sample_ensemble(5, [(0, 1), (3, 4)], 10**9, seed=1)

    def test_trials_off_the_stack_are_decided_alone(self):
        # Trial 1 repeats its first projector, so its null space is one
        # direction wider than the others' and it leaves the stack.
        rng = np.random.Generator(np.random.Philox(key=5))
        supports = [(0, 1), (0, 1), (1, 2)]
        rows = [[qk.haar_random_term(s, rng).amplitudes for s in supports] for _ in range(3)]
        rows[1][1] = rows[1][0]
        amplitudes = [np.array([row[j] for row in rows]) for j in range(len(supports))]
        verdicts = _decide(3, supports, [a.conj()[:, None, :] for a in amplitudes])
        dims = [
            qk.common_nullspace_dim(qk.QsatInstance(3, [
                qk.RankOneTerm(s, a[t]) for s, a in zip(supports, amplitudes)
            ]))
            for t in range(3)
        ]
        assert dims[1] != dims[0] == dims[2]
        assert [v.nullspace_dim for v in verdicts] == dims

    def test_stacked_draws_are_haar_random_term_bit_for_bit(self):
        supports = [(0, 1), (2,), (0, 1, 2), (3, 1), tuple(range(5))]
        seed = 20481
        stacked = _draw(seed, range(200), [1 << len(s) for s in supports])
        for trial in range(200):
            rng = np.random.Generator(np.random.Philox(key=seed ^ trial))
            for support, states in zip(supports, stacked):
                drawn = qk.haar_random_term(support, rng).amplitudes
                assert np.array_equal(drawn, states[trial])

    def test_memory_does_not_grow_with_trials(self):
        # A stack holds 4^(8 - 3) = 1,024 triangle-double trials, so both
        # runs fill whole stacks: four of them, and twelve.
        num_qubits, supports = qk.triangle_double_structure()
        peaks = []
        for trials in (4_100, 12_300):
            tracemalloc.start()
            try:
                qk.sample_ensemble(num_qubits, supports, trials, seed=9)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]

    def test_seeds_beyond_128_bits_are_rejected(self):
        with pytest.raises(qk.ArgumentError, match="2\\*\\*128"):
            qk.sample_ensemble(3, [(0, 1)], 5, seed=1 << 128)
        with pytest.raises(qk.ArgumentError, match="2\\*\\*128"):
            qk.haar_random_term((0, 1), 1 << 128)
        assert qk.sample_ensemble(3, [(0, 1)], 2, seed=(1 << 128) - 1).sat_count == 2

    def test_argument_checks(self):
        with pytest.raises(qk.ArgumentError):
            qk.sample_ensemble(3, [(0, 1)], 0, seed=1)
        with pytest.raises(qk.ArgumentError):
            qk.sample_ensemble(3, [(0, 1)], 5, seed=-1)
        with pytest.raises(qk.ValidationError):
            qk.sample_ensemble(2, [(0, 5)], 5, seed=1)
