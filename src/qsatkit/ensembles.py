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
are decided by ``spectral._decide``, the pipeline ``decide_sat`` runs on a
stack of one, in stacks of as many trials as ``STACK_BYTES`` of 2^n x 2^n
complex operators hold: 4^(8 - n) trials up to 8 qubits, and one beyond.
The bound does not follow ``config.DENSE_CUTOFF``, and memory does not grow
with the trial count.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError
from .instance import QsatInstance, RankOneTerm
from .spectral import INDETERMINATE, SATISFIABLE, UNSATISFIABLE, _check_method, _decide

# Bytes of dense operators one stack of trials holds: 1 MiB, a stack of 1,024
# on a 3-qubit structure.  Smaller stacks cost more per trial: a 500-trial
# triangle-double sample took 21.0-21.9 ms in stacks of 256, against
# 19.9-20.4 ms in stacks of 1,024 (median of 9 calls, 8 alternating runs,
# one OpenBLAS thread).
STACK_BYTES = 1 << 20


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
    call per term.  Building a Philox generator also reads OS entropy, so
    one generator is re-keyed per trial to the state a new one starts in."""
    bits = np.random.Philox(key=0)
    rng, state = np.random.Generator(bits), bits.state
    rows = []
    for t in block:
        key = seed ^ t
        state["state"]["key"] = np.array([key & (1 << 64) - 1, key >> 64], dtype=np.uint64)
        bits.state = state
        rows.append(rng.standard_normal(2 * sum(dims)))
    return _haar_states(np.array(rows), dims)


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
    # Raises ValidationError for a bad structure, or CapacityError above the
    # qubit ceiling, before anything is drawn.
    QsatInstance(num_qubits, [RankOneTerm(s, np.eye(1, d)[0]) for s, d in zip(supports, dims)])
    _check_method(num_qubits, "auto")
    # A structure with no terms has no stack axis: one trial at a time.
    chunk = max(1, STACK_BYTES // (16 << 2 * num_qubits)) if supports else 1
    counts = {SATISFIABLE: 0, UNSATISFIABLE: 0, INDETERMINATE: 0}
    for start in range(0, trials, chunk):
        states = _draw(seed, range(start, min(trials, start + chunk)), dims)
        for verdict in _decide(num_qubits, supports, [a.conj()[:, None, :] for a in states]):
            counts[verdict.tag] += 1
    return EnsembleResult(
        trials, counts[UNSATISFIABLE], counts[SATISFIABLE], counts[INDETERMINATE], seed
    )
