"""Clause-count bounds and the width-threshold check."""

from __future__ import annotations

import math

import pytest

import qsatkit as qk


class TestBoundReport:
    def test_width_eight(self):
        report = qk.bound_report(8)
        assert report.k == 8
        assert report.qlll_lower == 11
        assert report.tovey_lower == 8

    def test_width_fifteen(self):
        report = qk.bound_report(15)
        assert report.qlll_lower == 803
        assert report.gebauer_lower == 1506
        assert report.gebauer_upper_estimate == pytest.approx(
            1607.2898037741097, abs=1e-10
        )

    def test_small_widths(self):
        assert qk.bound_report(1).qlll_lower == 0
        assert qk.bound_report(1).tovey_lower == 1
        assert qk.bound_report(3).gebauer_lower == 1

    def test_closed_forms(self):
        for k in range(1, 31):
            report = qk.bound_report(k)
            assert report.qlll_lower == math.floor(2**k / (math.e * k))
            assert report.gebauer_lower == math.floor(2 ** (k + 1) / (math.e * (k + 1)))
            assert report.gebauer_upper_estimate == pytest.approx(
                2 ** (k + 1) / (math.e * k)
            )
            assert report.tovey_lower == k

    def test_lower_bounds_sit_below_the_upper_estimate(self):
        for k in range(1, 31):
            report = qk.bound_report(k)
            assert report.qlll_lower <= report.gebauer_upper_estimate

    def test_sharpened_bound_wins_for_wide_clauses(self):
        for k in range(4, 31):
            report = qk.bound_report(k)
            assert report.gebauer_lower >= report.qlll_lower

    def test_rejects_non_positive_width(self):
        with pytest.raises(qk.ArgumentError):
            qk.bound_report(0)
        with pytest.raises(qk.ArgumentError):
            qk.bound_report(-3)

    def test_widest_width_is_1022(self):
        # 2^(k+1) must convert to a float; k = 1023 would overflow it.
        report = qk.bound_report(1022)
        assert report.gebauer_upper_estimate == pytest.approx(2.0**1023 / (math.e * 1022))
        assert report.qlll_lower == math.floor(2.0**1022 / (math.e * 1022))
        for k in (1023, 1024, 10**6):
            with pytest.raises(qk.ArgumentError, match="at most 1022"):
                qk.bound_report(k)


class TestThresholdCheck:
    def test_flips_exactly_at_fifteen(self):
        for k in range(1, 15):
            assert not qk.threshold_check(k)
        for k in range(15, 31):
            assert qk.threshold_check(k)

    def test_monotone(self):
        values = [qk.threshold_check(k) for k in range(1, 31)]
        assert values == sorted(values)

    def test_rejects_non_positive_width(self):
        with pytest.raises(qk.ArgumentError):
            qk.threshold_check(0)
