"""Command-line front end: solve, analyze, reduce, bounds, and sample.

Exit codes: 0 satisfiable / success, 1 unsatisfiable, 2 indeterminate
(including solver non-convergence), 3 parse or argument errors, or a
requested verification whose check failed (the construction file is still
written), 4 the supplied reduction core is satisfiable, 5 a computation
exceeds capacity, such as a Lanczos iteration larger than physical memory
(after a requested verification the construction file is still written), 6
an internal error (any other exception, such as a LAPACK routine that did
not converge).

``main(argv)`` returns the exit code instead of exiting, and can be called
repeatedly in one process: each call parses its own arguments and shares
no state with the calls before it.  The parser is built on the first call
and kept for the life of the process, not at import.
"""

import argparse
import functools
import hashlib
import itertools
import json
import logging
import sys
from pathlib import Path

from . import bounds as bounds_mod
from . import catalog, ensembles, reduction, spectral
from . import io as io_mod
from .errors import (
    ArgumentError,
    CapacityError,
    ConvergenceError,
    IndeterminateError,
    ParseError,
    PreconditionError,
    QsatError,
    ValidationError,
)
from .instance import degree_profile, locality, structure_key

EXIT_SATISFIABLE = 0
EXIT_UNSATISFIABLE = 1
EXIT_INDETERMINATE = 2
EXIT_USAGE = 3
EXIT_SATISFIABLE_CORE = 4
EXIT_CAPACITY = 5
EXIT_INTERNAL = 6

DEFAULT_SAMPLE_SEED = 101

_VERDICT_EXIT = {
    spectral.SATISFIABLE: EXIT_SATISFIABLE,
    spectral.UNSATISFIABLE: EXIT_UNSATISFIABLE,
    spectral.INDETERMINATE: EXIT_INDETERMINATE,
}

BUILTIN_PREFIX = "builtin:"


def _load_instance(path: str):
    if path.startswith(BUILTIN_PREFIX):
        return catalog.builtin_instance(path[len(BUILTIN_PREFIX):])
    return io_mod.load_instance(path)


def _structure_hash(instance) -> str:
    size, supports = structure_key(instance)
    canonical = json.dumps([size, [list(s) for s in supports]])
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def _emit(args, payload: dict, text_lines) -> None:
    """Print the payload as JSON under ``--json``, else the text lines,
    piece by piece: neither is ever held whole as text."""
    if getattr(args, "json", False):
        json.dump(payload, sys.stdout, indent=2)
        print()
    else:
        for line in text_lines:
            print(line)


def cmd_solve(args) -> int:
    instance = _load_instance(args.path)
    verdict = spectral.decide_sat(instance, method=args.method)
    m = instance.num_terms
    payload = {
        "method": verdict.method,
        "lambda0": verdict.lambda0,
        "e0": verdict.lambda0 / m if m else 0.0,
        "nullspace_dim": verdict.nullspace_dim,
        "verdict": verdict.tag,
    }
    lines = [
        f"method: {payload['method']}",
        f"lambda0: {payload['lambda0']!r}",
        f"e0: {payload['e0']!r}",
    ]
    if verdict.nullspace_dim is not None:
        lines.append(f"nullspace_dim: {verdict.nullspace_dim}")
    lines.append(f"verdict: {verdict.tag}")
    _emit(args, payload, lines)
    return _VERDICT_EXIT[verdict.tag]


def cmd_analyze(args) -> int:
    instance = _load_instance(args.path)
    profile = degree_profile(instance)
    payload = {
        "num_qubits": instance.num_qubits,
        "num_terms": instance.num_terms,
        "locality": locality(instance),
        "degrees": profile.per_qubit,
        "max_degree": profile.max_degree,
        "regular": profile.is_regular,
        "structure_hash": _structure_hash(instance),
    }
    # Streamed, so the checked degree profile is its only per-qubit list.
    lines = itertools.chain(
        [
            f"num_qubits: {payload['num_qubits']}",
            f"num_terms: {payload['num_terms']}",
            f"locality: {payload['locality']}",
            "degrees:",
        ],
        (f"  qubit {i}: {d}" for i, d in enumerate(profile.per_qubit)),
        [
            f"max_degree: {profile.max_degree}",
            f"regular: {'yes' if profile.is_regular else 'no'}",
            f"structure_hash: {payload['structure_hash']}",
        ],
    )
    _emit(args, payload, lines)
    return EXIT_SATISFIABLE


def _resolve_core(args) -> reduction.MinimalCore:
    core_instance = _load_instance(args.core)
    extracted = reduction.extract_minimal_core(core_instance)
    if not args.extract_core and extracted.core.num_terms != core_instance.num_terms:
        raise ArgumentError(
            f"core {args.core} is unsatisfiable but not minimal "
            f"({core_instance.num_terms} terms, minimal has {extracted.core.num_terms}); "
            "pass --extract-core to shrink it"
        )
    return extracted


def _default_reduce_out(path: str, target_k: int) -> Path:
    if path.startswith(BUILTIN_PREFIX):
        return Path(f"{path[len(BUILTIN_PREFIX):]}.reduced-k{target_k}.json")
    source = Path(path)
    return source.with_name(f"{source.stem}.reduced-k{target_k}.json")


def cmd_reduce(args) -> int:
    instance = _load_instance(args.path)
    core = _resolve_core(args)
    output = reduction.build_reduction(instance, args.target_k, core)
    out_path = Path(args.out) if args.out else _default_reduce_out(args.path, args.target_k)
    io_mod.save_reduction(out_path, output)
    summary = {s.role: s for s in output.accounting.summaries}
    role_text = ", ".join(
        f"{summary[role].count} {role}" for role in summary
    )
    payload = {
        "target_k": args.target_k,
        "num_qubits": output.t_instance.num_qubits,
        "num_terms": output.t_instance.num_terms,
        "roles": {role: summary[role].count for role in summary},
        "penalty_constant": output.penalty_constant,
        "adjusted_epsilon": output.adjusted_gap,
        "output": str(out_path),
    }
    lines = [
        f"target locality: {args.target_k}",
        f"output qubits: {output.t_instance.num_qubits} ({role_text})",
        f"output terms: {output.t_instance.num_terms}",
        f"penalty constant: {output.penalty_constant!r}",
        f"adjusted epsilon: {output.adjusted_gap!r}",
        f"wrote: {out_path}",
    ]
    verify_failed = False
    if args.verify:
        report = reduction.verify_reduction(instance, output)
        payload["verification"] = {
            "commutation_ok": report.commutation_ok,
            "energy_ok": report.energy_ok,
            "degree_ok": report.degree_ok,
            "base_energy": report.base_energy,
            "reduced_energy": report.reduced_energy,
            "reduced_floor": report.reduced_floor,
            "penalty_constant": report.penalty_constant,
            "max_degree": report.max_degree,
            "degree_bound": report.degree_bound,
            "base_method": report.base_method,
            "reduced_method": report.reduced_method,
        }
        branch = (
            "input energy at or below the penalty: energies must agree"
            if report.base_energy <= report.penalty_constant
            else "input energy above the penalty: output must stay above it"
        )
        lines.extend(
            [
                "verification:",
                f"  commutation: {'ok' if report.commutation_ok else 'FAILED'}",
                f"  degrees: {'ok' if report.degree_ok else 'FAILED'} "
                f"(max {report.max_degree} <= bound {report.degree_bound})",
                f"  energy: {'ok' if report.energy_ok else 'FAILED'} "
                f"(input {report.base_energy!r} [{report.base_method}], "
                f"output {report.reduced_energy!r}, floor {report.reduced_floor!r} "
                f"[{report.reduced_method}])",
                f"  branch: {branch}",
            ]
        )
        verify_failed = not report.ok
    _emit(args, payload, lines)
    return EXIT_USAGE if verify_failed else EXIT_SATISFIABLE


def cmd_bounds(args) -> int:
    report = bounds_mod.bound_report(args.k)
    exceeded = bounds_mod.threshold_check(args.k)
    payload = {
        "k": report.k,
        "qlll_lower": report.qlll_lower,
        "gebauer_lower": report.gebauer_lower,
        "gebauer_upper_estimate": report.gebauer_upper_estimate,
        "tovey_lower": report.tovey_lower,
        "threshold_510": exceeded,
    }
    lines = [
        f"k: {report.k}",
        f"qlll_lower: {report.qlll_lower}",
        f"gebauer_lower: {report.gebauer_lower}",
        f"gebauer_upper_estimate: {report.gebauer_upper_estimate!r}",
        f"tovey_lower: {report.tovey_lower}",
        f"threshold_510: {'exceeded' if exceeded else 'not exceeded'}",
    ]
    _emit(args, payload, lines)
    return EXIT_SATISFIABLE


def _resolve_structure(spec_string: str):
    if spec_string.startswith(BUILTIN_PREFIX):
        name = spec_string[len(BUILTIN_PREFIX):]
        num_qubits, supports = catalog.builtin_structure(name)
        return name, num_qubits, supports
    instance = _load_instance(spec_string)
    return spec_string, instance.num_qubits, tuple(t.support for t in instance.terms)


def cmd_sample(args) -> int:
    name, num_qubits, supports = _resolve_structure(args.structure)
    result = ensembles.sample_ensemble(num_qubits, supports, args.trials, args.seed)
    payload = {
        "structure": name,
        "num_qubits": num_qubits,
        "num_supports": len(supports),
        "trials": result.trials,
        "seed": result.seed,
        "satisfiable": result.sat_count,
        "unsatisfiable": result.unsat_count,
        "indeterminate": result.indeterminate_count,
    }
    lines = [
        f"structure: {name} ({num_qubits} qubits, {len(supports)} supports)",
        f"trials: {result.trials}",
        f"seed: {result.seed}",
        f"satisfiable: {result.sat_count}",
        f"unsatisfiable: {result.unsat_count}",
        f"indeterminate: {result.indeterminate_count}",
    ]
    _emit(args, payload, lines)
    return EXIT_SATISFIABLE


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ArgumentError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``qsat`` parser, built on the first call; later calls return the
    same object.  A subcommand's handler is not bound here: ``main`` looks
    up ``cmd_<command>`` when it dispatches, so a replaced handler is the
    one that runs."""
    parser = _Parser(
        prog="qsat",
        description="Decide, analyze, transform, and sample local-projector instances.",
    )
    sub = parser.add_subparsers(dest="command")

    solve = sub.add_parser("solve", help="decide satisfiability of an instance file")
    solve.add_argument("path", help="instance file or builtin:<name>")
    solve.add_argument(
        "--method", choices=("auto", "dense", "krylov"), default="auto",
        help="auto tries a checked null-space witness first (reported as "
        "method nullspace); dense and krylov force a ground-energy route",
    )
    solve.add_argument("--json", action="store_true", help="machine-readable output")

    analyze = sub.add_parser("analyze", help="degree/locality/structure report")
    analyze.add_argument("path", help="instance file or builtin:<name>")
    analyze.add_argument("--json", action="store_true")

    reduce_cmd = sub.add_parser(
        "reduce", help="raise an instance's locality with enforcing gadgets"
    )
    reduce_cmd.add_argument("path", help="instance file or builtin:<name>")
    reduce_cmd.add_argument("--target-k", type=int, required=True)
    reduce_cmd.add_argument(
        "--core",
        default="builtin:figure-b",
        help="unsatisfiable core instance (file or builtin:figure-b)",
    )
    reduce_cmd.add_argument(
        "--extract-core",
        action="store_true",
        help="shrink a non-minimal core instead of rejecting it",
    )
    reduce_cmd.add_argument("--out", help="output path (default: derived from input)")
    reduce_cmd.add_argument(
        "--verify",
        action="store_true",
        help="check commutation, degrees and ground energies numerically "
        "(small sizes only; exit 3 when a check fails)",
    )
    reduce_cmd.add_argument("--json", action="store_true")

    bounds_cmd = sub.add_parser("bounds", help="occurrence-bound table at locality k")
    bounds_cmd.add_argument("k", type=int)
    bounds_cmd.add_argument("--json", action="store_true")

    sample = sub.add_parser(
        "sample", help="tally verdicts over a Haar-sampled structure"
    )
    sample.add_argument(
        "--structure",
        required=True,
        help="instance file or builtin:<triangle-double|figure-a|figure-b>",
    )
    sample.add_argument("--trials", type=int, required=True)
    sample.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SAMPLE_SEED,
        help=f"ensemble seed (default {DEFAULT_SAMPLE_SEED}, always reported)",
    )
    sample.add_argument("--json", action="store_true")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help(sys.stderr)
            return EXIT_USAGE
        return globals()[f"cmd_{args.command}"](args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SATISFIABLE_CORE
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except ConvergenceError as exc:
        best = "" if exc.best_lambda0 is None else f" (best lambda0 {exc.best_lambda0!r})"
        print(f"error: {exc}{best}", file=sys.stderr)
        return EXIT_INDETERMINATE
    except IndeterminateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE
    except (ArgumentError, ValidationError, QsatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # Not a verdict: keep it off exit codes 0-2 and out of a traceback;
        # the traceback goes to the qsatkit logger for whoever configures it.
        logging.getLogger("qsatkit").debug("internal error", exc_info=True)
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
