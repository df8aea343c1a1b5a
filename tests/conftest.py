"""Shared fixtures and an independent matrix-embedding oracle.

The helpers here deliberately avoid the package's own application kernels
and assembly routines: terms are embedded by explicit per-index bit
manipulation and a Kronecker product, so that agreement between the
package and these helpers is a meaningful cross-check rather than a
tautology.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import strategies as st

import qsatkit as qk


def embed_matrix(num_qubits: int, support, matrix: np.ndarray) -> np.ndarray:
    """Embed ``matrix`` acting on ``support`` into the full register.

    Built as ``kron(matrix, identity)`` followed by an explicit index
    relabelling computed bit by bit, independent of the package's
    fiber plans and sparse factor.
    """
    support = tuple(support)
    k = len(support)
    rest = [q for q in range(num_qubits) if q not in support]
    dim = 1 << num_qubits
    grouped = np.empty(dim, dtype=np.int64)
    for i in range(dim):
        g = 0
        for q in support:
            g = (g << 1) | ((i >> (num_qubits - 1 - q)) & 1)
        for q in rest:
            g = (g << 1) | ((i >> (num_qubits - 1 - q)) & 1)
        grouped[i] = g
    full = np.kron(np.asarray(matrix, dtype=np.complex128), np.eye(1 << len(rest)))
    return full[np.ix_(grouped, grouped)]


def oracle_matrix(instance: qk.QsatInstance) -> np.ndarray:
    """Assemble the full operator of ``instance`` via ``embed_matrix``."""
    dim = 1 << instance.num_qubits
    total = np.zeros((dim, dim), dtype=np.complex128)
    for term in instance.terms:
        total += embed_matrix(instance.num_qubits, term.support, _term_matrix(term))
    return total


def _term_matrix(term) -> np.ndarray:
    if isinstance(term, qk.RankOneTerm):
        return np.outer(term.amplitudes, term.amplitudes.conj())
    return np.asarray(term.matrix)


def oracle_lambda0(instance: qk.QsatInstance) -> float:
    """Smallest eigenvalue of the assembled operator, straight eigvalsh."""
    if not instance.terms:
        return 0.0
    return float(np.linalg.eigvalsh(oracle_matrix(instance))[0])


def near_identity_pair() -> qk.QsatInstance:
    """Two almost-parallel single-qubit projectors: lambda0 = 5e-7.

    The gap between the satisfiable tolerance (2e-9 for two terms) and the
    unsatisfiable floor (1e-6) brackets this value, so the verdict must be
    indeterminate.
    """
    c = 1.0 - 5e-7
    s = math.sqrt(1.0 - c * c)
    return qk.QsatInstance(
        1,
        [qk.basis_term((0,), "0"), qk.RankOneTerm((0,), [c, s])],
    )


def random_supports(rng: np.random.Generator, num_qubits: int, num_terms: int, k: int):
    """Draw ``num_terms`` supports of size ``k`` over ``num_qubits`` qubits."""
    return [
        tuple(int(q) for q in rng.choice(num_qubits, size=k, replace=False))
        for _ in range(num_terms)
    ]


def random_instance(
    rng: np.random.Generator,
    num_qubits: int,
    num_terms: int,
    k: int = 2,
    promise_gap: float = 1.0,
) -> qk.QsatInstance:
    """Random rank-one instance with Haar amplitudes and random supports."""
    terms = [
        qk.haar_random_term(support, rng)
        for support in random_supports(rng, num_qubits, num_terms, k)
    ]
    return qk.QsatInstance(num_qubits, terms, promise_gap=promise_gap)


@st.composite
def mixed_instances(draw, max_qubits=5):
    """Rank-1 and general projectors on supports of any size and qubit
    order, general ones stored row- or column-major, with repeated terms,
    down to the empty instance."""
    n = draw(st.integers(1, max_qubits))
    rng = np.random.Generator(np.random.Philox(key=draw(st.integers(0, 1 << 30))))
    terms = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["rank-one", "general", "repeat"]))
        if kind == "repeat" and terms:
            terms.append(terms[draw(st.integers(0, len(terms) - 1))])
            continue
        k = draw(st.integers(1, n))
        support = tuple(draw(st.permutations(range(n)))[:k])
        if kind == "general":
            rank = draw(st.integers(1, 1 << k))
            cols = rng.standard_normal((1 << k, rank)) + 1j * rng.standard_normal((1 << k, rank))
            q, _ = np.linalg.qr(cols)
            proj = q @ q.conj().T
            order = draw(st.sampled_from("CF"))
            matrix = np.asarray((proj + proj.conj().T) / 2, order=order)
            terms.append(qk.GeneralTerm(support, matrix))
        else:
            terms.append(qk.haar_random_term(support, rng))
    return qk.QsatInstance(n, terms)


# Kernel tests run once per matvec kernel, with the name backend_name()
# reports in their ids; the sparse factor Q = B^H B is the one kernel.
KERNELS = [qk.backend_name()]


@pytest.fixture
def kernel(request):
    """Indirect parameter naming a matvec kernel; the applier class that runs it."""
    assert request.param == qk.backend_name()
    return qk.InstanceApplier


@pytest.fixture(scope="session")
def figure_a() -> qk.QsatInstance:
    return qk.builtin_instance("figure-a")


@pytest.fixture(scope="session")
def figure_b() -> qk.QsatInstance:
    return qk.builtin_instance("figure-b")


@pytest.fixture(scope="session")
def figure_b_core(figure_b) -> qk.MinimalCore:
    return qk.extract_minimal_core(figure_b)


@pytest.fixture(scope="session")
def builtin_gadget(figure_b_core) -> qk.EnforcingGadget:
    return qk.build_enforcing_gadget(figure_b_core)
