"""Haar-random instance sampling and reproducible satisfiability tallies.

Generically, whether a randomly drawn rank-1 instance is satisfiable
depends only on its interaction structure (which supports appear, with
multiplicity), not on the drawn amplitudes — sampling a structure many
times and tallying verdicts makes that observable.

Randomness is counter-based (Philox) with the per-trial stream keyed by
``seed XOR trial_index``, so tallies are reproducible across platforms and
independent of evaluation order.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError
from .instance import QsatInstance, RankOneTerm
from .spectral import SATISFIABLE, UNSATISFIABLE, decide_sat


@dataclass(frozen=True)
class EnsembleResult:
    trials: int
    unsat_count: int
    sat_count: int
    indeterminate_count: int
    seed: int


def _generator(seed: int) -> np.random.Generator:
    if seed < 0:
        raise ArgumentError("seed must be non-negative")
    return np.random.Generator(np.random.Philox(key=seed))


def haar_random_term(support, rng) -> RankOneTerm:
    """A rank-1 term whose state is uniform on the unit sphere of the fiber.

    ``rng`` is either an integer seed or a numpy Generator.  Independent
    standard complex Gaussians, normalized, give the rotation-invariant
    distribution.
    """
    if isinstance(rng, (int, np.integer)):
        rng = _generator(int(rng))
    dim = 1 << len(support)
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return RankOneTerm(tuple(support), z / np.linalg.norm(z))


def sample_ensemble(num_qubits, supports, trials, seed) -> EnsembleResult:
    """Draw every term fresh per trial, decide satisfiability, and tally.

    Indeterminate verdicts are counted, never coerced into a side.
    """
    if trials < 1:
        raise ArgumentError("trials must be positive")
    if seed < 0:
        raise ArgumentError("seed must be non-negative")
    supports = [tuple(int(q) for q in s) for s in supports]
    sat_count = unsat_count = indeterminate_count = 0
    for trial in range(trials):
        rng = _generator(seed ^ trial)
        terms = [haar_random_term(s, rng) for s in supports]
        verdict = decide_sat(QsatInstance(num_qubits, terms))
        if verdict.tag == SATISFIABLE:
            sat_count += 1
        elif verdict.tag == UNSATISFIABLE:
            unsat_count += 1
        else:
            indeterminate_count += 1
    return EnsembleResult(trials, unsat_count, sat_count, indeterminate_count, seed)
