"""Seeded benchmark inputs and a reference spectrum, made without qsatkit.

An input is a *spec*: ``(num_qubits, terms)`` with each term a
``(support, amplitudes)`` pair, the amplitudes of a rank-1 projector's state
over its support (first support qubit most significant).  Specs are plain
data; the workloads turn them into package objects or files.

Every random draw comes from ``rng(seed, *keys)``, so one seed gives the same
specs on every platform.  Keys name the stream (workload and slot), so adding
a slot does not shift the draws of the others.
"""

import math

import numpy as np

#: Ground energy of figure-b, (5 - sqrt(17)) / 4: a lower bound on the ground
#: energy of every instance that contains figure-b's four terms.
FIGURE_B_ENERGY = (5.0 - math.sqrt(17.0)) / 4.0

_S = 1.0 / math.sqrt(2.0)

#: figure-b on qubits (0, 1, 2): singlets on two edges, |00> and |11> on the
#: doubled third edge.
FIGURE_B_TERMS = (
    ((0, 1), (0.0, _S, -_S, 0.0)),
    ((1, 2), (0.0, _S, -_S, 0.0)),
    ((0, 2), (1.0, 0.0, 0.0, 0.0)),
    ((0, 2), (0.0, 0.0, 0.0, 1.0)),
)

#: figure-a: computational-basis projectors on the same doubled triangle.
FIGURE_A_TERMS = (
    ((0, 1), (0.0, 0.0, 1.0, 0.0)),
    ((1, 2), (0.0, 0.0, 0.0, 1.0)),
    ((0, 2), (0.0, 1.0, 0.0, 0.0)),
    ((0, 2), (0.0, 0.0, 1.0, 0.0)),
)


def rng(seed, *keys):
    """The generator of one named stream under one seed."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *keys])))


def haar_state(dim, gen):
    z = gen.standard_normal(dim) + 1j * gen.standard_normal(dim)
    return z / np.linalg.norm(z)


def random_support(n, k, gen):
    return tuple(int(q) for q in gen.choice(n, size=k, replace=False))


def product_amplitudes(factors):
    out = np.ones(1, dtype=np.complex128)
    for f in factors:
        out = np.kron(out, f)
    return out


def spec_of(num_qubits, terms):
    return num_qubits, [(tuple(s), np.asarray(a, dtype=np.complex128)) for s, a in terms]


def haar_spec(n, m, k, gen):
    """m Haar-random rank-1 terms on random k-subsets of n qubits."""
    return n, [(s, haar_state(1 << k, gen)) for s in (random_support(n, k, gen) for _ in range(m))]


def planted_spec(n, m, k, gen):
    """m random terms, each orthogonal to one drawn product state, so the
    instance is satisfiable by construction."""
    product = [haar_state(2, gen) for _ in range(n)]
    terms = []
    for _ in range(m):
        support = random_support(n, k, gen)
        v = product_amplitudes(product[q] for q in support)
        z = haar_state(1 << k, gen)
        z = z - v * np.vdot(v, z)
        terms.append((support, z / np.linalg.norm(z)))
    return n, terms


def frustrated_spec(n, m, k, gen):
    """figure-b's four terms on three random qubits plus m - 4 Haar terms.
    Adding positive terms cannot lower the ground energy, so lambda0 is at
    least FIGURE_B_ENERGY."""
    triple = random_support(n, 3, gen)
    terms = [(tuple(triple[q] for q in s), np.asarray(a, dtype=np.complex128))
             for s, a in FIGURE_B_TERMS]
    terms += haar_spec(n, m - 4, k, gen)[1]
    return n, terms


def haar_unitary_2(gen):
    z = (gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def local_frame(spec, gen):
    """The spec seen in a random local frame: a Haar single-qubit unitary per
    qubit.

    The frame changes every amplitude but not the spectrum, so Krylov
    iteration counts (which depend on the spectrum) stay close across seeds
    while the inputs themselves differ.  Supports are kept: the matvec's cost
    depends on where a term's qubits sit in the state, and relabelling them
    moved an n = 15 verdict between 5.7 s and 7.9 s from seed to seed.
    """
    n, terms = spec
    unitaries = [haar_unitary_2(gen) for _ in range(n)]
    framed = []
    for support, amps in terms:
        u = np.ones((1, 1), dtype=np.complex128)
        for q in support:
            u = np.kron(u, unitaries[q])
        framed.append((support, u @ amps))
    return n, framed


def operator(spec):
    """The full operator by Kronecker embedding: ``kron(P, I)`` puts the
    support qubits first, and an axis transpose moves them into place."""
    n, terms = spec
    dim = 1 << n
    total = np.zeros((dim, dim), dtype=np.complex128)
    for support, amps in terms:
        rest = [q for q in range(n) if q not in support]
        full = np.kron(np.outer(amps, np.conj(amps)), np.eye(1 << len(rest)))
        where = np.argsort(list(support) + rest)
        axes = list(where) + [n + int(a) for a in where]
        total += full.reshape((2,) * (2 * n)).transpose(axes).reshape(dim, dim)
    return total


def reference_lambda0(spec):
    return float(np.linalg.eigvalsh(operator(spec))[0])


def degrees(spec):
    n, terms = spec
    counts = [0] * n
    for support, _ in terms:
        for q in support:
            counts[q] += 1
    return counts


def clear_of_thresholds(lambda0, sat_tol, unsat_floor):
    """True when lambda0 is more than a factor of 10 away from both verdict
    thresholds and not between them."""
    return lambda0 < sat_tol / 10.0 or lambda0 > 10.0 * unsat_floor


def reference_random_spec(n, m, k, gen, sat_tol, unsat_floor, tries=50):
    """A Haar spec whose reference lambda0 is clear of the verdict
    thresholds, redrawn from the same stream until it is."""
    for _ in range(tries):
        spec = haar_spec(n, m, k, gen)
        lam = reference_lambda0(spec)
        if clear_of_thresholds(lam, sat_tol, unsat_floor):
            return spec, lam
    raise RuntimeError(f"no Haar instance clear of the thresholds in {tries} draws")
