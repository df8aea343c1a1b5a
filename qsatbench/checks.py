"""Output checks that rest on facts established apart from the program.

Each checker raises ``CheckError`` with a reason when an output disagrees
with the construction of its input or with the benchmark's own reference
spectrum.  None of them compares against a stored copy of earlier output.
"""

from inputs import FIGURE_B_ENERGY

SATISFIABLE = "satisfiable"
UNSATISFIABLE = "unsatisfiable"

ENERGY_TOL = 1e-8  # reference comparisons and planted zeros
BOUND_SLACK = 1e-9  # figure-b lower bound and penalty constant


class CheckError(Exception):
    """An output that contradicts what the benchmark knows about its input."""


def _require(condition, message):
    if not condition:
        raise CheckError(message)


def check_planted(tag, lambda0, nullspace_dim):
    """Every term is orthogonal to a known product state: satisfiable."""
    _require(tag == SATISFIABLE, f"planted instance came back {tag}")
    _require(abs(lambda0) <= ENERGY_TOL, f"planted instance has lambda0 {lambda0!r}")
    _require(nullspace_dim is None or nullspace_dim >= 1,
             f"planted instance has nullspace_dim {nullspace_dim}")


def check_frustrated(tag, lambda0, nullspace_dim):
    """figure-b's terms are present, so lambda0 >= (5 - sqrt(17)) / 4."""
    _require(tag == UNSATISFIABLE, f"instance containing figure-b came back {tag}")
    _require(lambda0 >= FIGURE_B_ENERGY - BOUND_SLACK,
             f"lambda0 {lambda0!r} is below figure-b's {FIGURE_B_ENERGY!r}")
    _require(nullspace_dim is None or nullspace_dim == 0,
             f"unsatisfiable instance has nullspace_dim {nullspace_dim}")


def check_energy(lambda0, reference):
    _require(abs(lambda0 - reference) <= ENERGY_TOL,
             f"lambda0 {lambda0!r} differs from the reference {reference!r}")


def check_reference(tag, lambda0, nullspace_dim, reference, expected_tag):
    """A Haar instance against the Kronecker-embedding eigvalsh."""
    check_energy(lambda0, reference)
    _require(tag == expected_tag, f"verdict {tag}, reference says {expected_tag}")
    if nullspace_dim is not None:
        _require((nullspace_dim > 0) == (expected_tag == SATISFIABLE),
                 f"nullspace_dim {nullspace_dim} contradicts {expected_tag}")


def check_sample(counts, trials, expect):
    """Verdict tallies from ``qsat sample``.

    ``expect`` is "frustrated" (no trial may be satisfiable: the structure
    is generically frustrated) or "satisfiable" (a 2-local tree or path is
    always satisfiable).
    """
    total = counts["satisfiable"] + counts["unsatisfiable"] + counts["indeterminate"]
    _require(counts["trials"] == trials and total == trials,
             f"tallies {counts} do not add up to {trials} trials")
    if expect == "frustrated":
        _require(counts["satisfiable"] == 0,
                 f"{counts['satisfiable']} satisfiable trials on a frustrated structure")
    else:
        _require(counts["satisfiable"] == trials,
                 f"only {counts['satisfiable']} of {trials} trials satisfiable on a tree")


def check_reduction(verification, penalty, reference):
    """``qsat reduce --verify``: the penalty is figure-b's ground energy and
    the output's ground energy equals the input's (below the penalty)."""
    check_penalty(penalty)
    for flag in ("commutation_ok", "energy_ok", "degree_ok"):
        _require(verification[flag] is True, f"verification reports {flag} false")
    check_energy(verification["base_energy"], reference)
    if reference <= penalty:
        check_energy(verification["reduced_energy"], reference)
    else:
        _require(verification["reduced_energy"] >= penalty - ENERGY_TOL,
                 "output energy dips below the penalty")


def check_analysis(payload, num_qubits, degrees, num_terms, locality):
    _require(payload["num_qubits"] == num_qubits, "num_qubits differs")
    _require(payload["num_terms"] == num_terms, "num_terms differs")
    _require(payload["locality"] == locality, "locality differs")
    _require(list(payload["degrees"]) == list(degrees),
             f"degrees {payload['degrees']} differ from {degrees}")
    _require(payload["max_degree"] == max(degrees), "max_degree differs")


def check_penalty(penalty):
    _require(abs(penalty - FIGURE_B_ENERGY) <= BOUND_SLACK,
             f"penalty constant {penalty!r}, expected {FIGURE_B_ENERGY!r}")


def check_equal(what, got, expected):
    _require(got == expected, f"{what} is {got!r}, expected {expected!r}")


def check_rejected(code):
    """Bad input must end with an exit code that is not a verdict (0, 1, 2)."""
    _require(code not in (0, 1, 2), f"bad input ended with verdict exit code {code}")
