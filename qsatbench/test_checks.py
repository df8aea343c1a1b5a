"""The checkers reject wrong outputs: a flipped verdict or a shifted energy.

Run with ``python3 -m pytest qsatbench``; needs numpy only.
"""

import math

import numpy as np
import pytest

import checks
import inputs
from checks import SATISFIABLE, UNSATISFIABLE, CheckError
from inputs import FIGURE_B_ENERGY, rng

SHIFT = 1e-6  # far above ENERGY_TOL, far below any gap the checks rely on


def test_planted():
    checks.check_planted(SATISFIABLE, 1e-14, 2)
    checks.check_planted(SATISFIABLE, 1e-14, None)
    with pytest.raises(CheckError):
        checks.check_planted(UNSATISFIABLE, 1e-14, 2)
    with pytest.raises(CheckError):
        checks.check_planted(SATISFIABLE, SHIFT, 2)
    with pytest.raises(CheckError):
        checks.check_planted(SATISFIABLE, 1e-14, 0)


def test_frustrated():
    checks.check_frustrated(UNSATISFIABLE, FIGURE_B_ENERGY, 0)
    checks.check_frustrated(UNSATISFIABLE, 0.5, None)
    with pytest.raises(CheckError):
        checks.check_frustrated(SATISFIABLE, FIGURE_B_ENERGY, 0)
    with pytest.raises(CheckError):
        checks.check_frustrated(UNSATISFIABLE, FIGURE_B_ENERGY - SHIFT, 0)
    with pytest.raises(CheckError):
        checks.check_frustrated(UNSATISFIABLE, FIGURE_B_ENERGY, 1)


def test_reference():
    checks.check_reference(UNSATISFIABLE, 0.05, 0, 0.05, UNSATISFIABLE)
    with pytest.raises(CheckError):
        checks.check_reference(SATISFIABLE, 0.05, 0, 0.05, UNSATISFIABLE)
    with pytest.raises(CheckError):
        checks.check_reference(UNSATISFIABLE, 0.05 + SHIFT, 0, 0.05, UNSATISFIABLE)
    with pytest.raises(CheckError):
        checks.check_reference(SATISFIABLE, 0.0, 0, 0.0, SATISFIABLE)
    with pytest.raises(CheckError):
        checks.check_energy(0.3 + SHIFT, 0.3)


def counts(sat, unsat, indeterminate=0):
    return {"trials": sat + unsat + indeterminate, "satisfiable": sat,
            "unsatisfiable": unsat, "indeterminate": indeterminate}


def test_sample():
    checks.check_sample(counts(0, 10), 10, "frustrated")
    checks.check_sample(counts(0, 9, 1), 10, "frustrated")
    checks.check_sample(counts(10, 0), 10, "satisfiable")
    with pytest.raises(CheckError):
        checks.check_sample(counts(1, 9), 10, "frustrated")
    with pytest.raises(CheckError):
        checks.check_sample(counts(9, 1), 10, "satisfiable")
    with pytest.raises(CheckError):
        checks.check_sample(counts(0, 9), 10, "frustrated")


def verification(base, reduced):
    return {"commutation_ok": True, "energy_ok": True, "degree_ok": True,
            "base_energy": base, "reduced_energy": reduced}


def test_reduction():
    checks.check_reduction(verification(0.0, 1e-15), FIGURE_B_ENERGY, 0.0)
    with pytest.raises(CheckError):
        checks.check_reduction(verification(0.0, SHIFT), FIGURE_B_ENERGY, 0.0)
    with pytest.raises(CheckError):
        checks.check_reduction(verification(SHIFT, SHIFT), FIGURE_B_ENERGY, 0.0)
    with pytest.raises(CheckError):
        checks.check_reduction(verification(0.0, 0.0), FIGURE_B_ENERGY + SHIFT, 0.0)
    failed = dict(verification(0.0, 0.0), energy_ok=False)
    with pytest.raises(CheckError):
        checks.check_reduction(failed, FIGURE_B_ENERGY, 0.0)


def test_rejected():
    checks.check_rejected(3)
    for code in (0, 1, 2):
        with pytest.raises(CheckError):
            checks.check_rejected(code)


def test_reference_spectrum_knows_figure_b():
    spec = inputs.spec_of(3, inputs.FIGURE_B_TERMS)
    assert math.isclose(inputs.reference_lambda0(spec), FIGURE_B_ENERGY, abs_tol=1e-12)
    spec = inputs.spec_of(3, inputs.FIGURE_A_TERMS)
    assert abs(inputs.reference_lambda0(spec)) < 1e-12


def test_generators_keep_their_promises():
    planted = inputs.planted_spec(6, 12, 3, rng(1, 0))
    assert abs(inputs.reference_lambda0(planted)) < 1e-10
    frustrated = inputs.frustrated_spec(5, 8, 3, rng(1, 1))
    assert inputs.reference_lambda0(frustrated) >= FIGURE_B_ENERGY - 1e-9
    base = inputs.haar_spec(5, 7, 3, rng(1, 2))
    framed = inputs.local_frame(base, rng(1, 3))
    np.testing.assert_allclose(np.linalg.eigvalsh(inputs.operator(framed)),
                               np.linalg.eigvalsh(inputs.operator(base)), atol=1e-10)
    assert not np.allclose(framed[1][0][1], base[1][0][1])


def test_same_seed_same_inputs():
    a = inputs.haar_spec(6, 5, 2, rng(7, 1, 2))
    b = inputs.haar_spec(6, 5, 2, rng(7, 1, 2))
    assert [s for s, _ in a[1]] == [s for s, _ in b[1]]
    assert all(np.array_equal(x, y) for (_, x), (_, y) in zip(a[1], b[1]))
