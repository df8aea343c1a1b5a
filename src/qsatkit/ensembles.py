"""Haar-random instance sampling and reproducible satisfiability tallies.

Generically, whether a randomly drawn rank-1 instance is satisfiable
depends only on its interaction structure (which supports appear, with
multiplicity), not on the drawn amplitudes — sampling a structure many
times and tallying verdicts makes that observable.

Randomness is counter-based (Philox) with the per-trial stream keyed by
``seed XOR trial_index``, so tallies are reproducible across platforms and
independent of evaluation order.  A trial draws all its terms with one
``standard_normal`` call, which yields the same values as one call per term.

The structure is validated once, before anything is drawn, and the trials
are decided as stacks on it: ``spectral._decide_stack`` takes
``decide_sat(method="auto")``'s route with one stacked SVD per term, one
stacked witness energy and one stacked dense assembly.  A stack holds at
most 4^(``config.DENSE_CUTOFF`` - n) trials, so its dense operators never
exceed the 4^``DENSE_CUTOFF`` complex entries of the one operator ``auto``
builds at the cutoff, and memory does not grow with the trial count.  Structures above the cutoff, or with no
terms, are decided one trial at a time with ``decide_sat``.
"""

from dataclasses import dataclass

import numpy as np

from . import config
from .errors import ArgumentError
from .instance import QsatInstance, RankOneTerm
from .spectral import INDETERMINATE, SATISFIABLE, UNSATISFIABLE, _decide_stack, decide_sat


@dataclass(frozen=True)
class EnsembleResult:
    trials: int
    unsat_count: int
    sat_count: int
    indeterminate_count: int
    seed: int


def _check_seed(seed: int) -> None:
    # Philox keys are 128 bits; seed XOR trial stays below 2^128 with them.
    if not 0 <= seed < 1 << 128:
        raise ArgumentError(f"seed must be in [0, 2**128), got {seed}")


def _generator(seed: int) -> np.random.Generator:
    _check_seed(seed)
    return np.random.Generator(np.random.Philox(key=seed))


def _haar_states(normals: np.ndarray, dims) -> list:
    """Split rows of standard normals into unit states, one (T, d) array per
    entry of ``dims``: each state takes d real parts, then d imaginary parts.

    Each row is normalized by a sum along that row alone, so a row gives
    the same bits whatever the number of rows.
    """
    states, start = [], 0
    for d in dims:
        re, im = normals[:, start:start + d], normals[:, start + d:start + 2 * d]
        start += 2 * d
        norm = np.sqrt(np.sum(re * re + im * im, axis=1, keepdims=True))
        states.append((re + 1j * im) / norm)
    return states


def _draw(seed: int, block: range, dims) -> list:
    """The terms' states for the trials in ``block``, one (T, d) array per
    entry of ``dims``: trial t draws all its terms with one call on stream
    ``seed ^ t``, in the order and with the values of one ``haar_random_term``
    call per term."""
    normals = np.array([_generator(seed ^ t).standard_normal(2 * sum(dims)) for t in block])
    return _haar_states(normals, dims)


def haar_random_term(support, rng) -> RankOneTerm:
    """A rank-1 term whose state is uniform on the unit sphere of the fiber.

    ``rng`` is either an integer seed in [0, 2^128) or a numpy Generator.
    Independent standard complex Gaussians, normalized, give the
    rotation-invariant distribution.
    """
    if isinstance(rng, (int, np.integer)):
        rng = _generator(int(rng))
    dim = 1 << len(support)
    state = _haar_states(rng.standard_normal((1, 2 * dim)), [dim])[0][0]
    return RankOneTerm(tuple(support), state)


def sample_ensemble(num_qubits, supports, trials, seed) -> EnsembleResult:
    """Draw every term fresh per trial, decide satisfiability, and tally.

    Indeterminate verdicts are counted, never coerced into a side.
    """
    if trials < 1:
        raise ArgumentError("trials must be positive")
    _check_seed(seed)
    supports = [tuple(int(q) for q in s) for s in supports]
    dims = [1 << len(s) for s in supports]
    # Raises ValidationError for a bad structure before anything is drawn.
    QsatInstance(num_qubits, [RankOneTerm(s, np.eye(1, d)[0]) for s, d in zip(supports, dims)])
    # Above the qubit ceiling each trial's decide_sat raises CapacityError.
    stacked = bool(supports) and num_qubits <= min(config.DENSE_CUTOFF, config.max_qubits())
    chunk = 4 ** (config.DENSE_CUTOFF - num_qubits) if stacked else 1
    counts = {SATISFIABLE: 0, UNSATISFIABLE: 0, INDETERMINATE: 0}
    for start in range(0, trials, chunk):
        block = range(start, min(trials, start + chunk))
        states = _draw(seed, block, dims)
        if stacked:
            verdicts = _decide_stack(num_qubits, supports, states)
        else:
            verdicts = [
                decide_sat(QsatInstance(num_qubits, [
                    RankOneTerm(s, a[i]) for s, a in zip(supports, states)
                ]))
                for i in range(len(block))
            ]
        for verdict in verdicts:
            counts[verdict.tag] += 1
    return EnsembleResult(
        trials, counts[UNSATISFIABLE], counts[SATISFIABLE], counts[INDETERMINATE], seed
    )
