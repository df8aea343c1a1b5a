"""The three workloads: what each round runs and how each output is checked.

A workload is made once per run from ``--seed``: ``prepare`` draws the
specs and computes the references (benchmark code, untimed), ``build`` turns
them into package objects or instance files (timed as part of ``setup_s``),
and ``ops`` lists one round of operations.  Every round runs the same
operations, so each run attempts whole rounds.

Op groups: ``verdict`` (one decide_sat / ground_energy call, or one
``qsat solve``), ``reduce_verify`` (one reduction with verification),
``sample`` (one ``qsat sample``), ``cli`` (other commands) and ``fault`` (an
operation that fails every time because of a known fault in the program).
"""

import contextlib
import io
import json
from pathlib import Path

import checks
import inputs
from inputs import FIGURE_A_TERMS, FIGURE_B_TERMS, rng, spec_of

# Stream keys: the workload, then the slot within it.
SMALL_DENSE, LARGE_KRYLOV, GADGET_CLI = 1, 2, 3
# Krylov bases are fixed; the seed only picks their local frame.
BASE_SEED = 20131021


# Share of an operation's time that slows like pure-Python code in a slow
# stretch of the machine (pace.py): the qsat commands on 3-qubit files are
# interpreter work, dense verdicts at n = 8-10 are LAPACK work on matrices
# that stay in cache, and the rest (reductions, Krylov, the n = 11 dense
# verdict, small dense verdicts) is between.
PYTHON, MIXED, LAPACK = 1.0, 0.5, 0.0


class Op:
    """One operation: ``call`` is timed, ``check`` runs on its result after."""

    __slots__ = ("label", "group", "call", "check", "verdicts", "python_share")

    def __init__(self, label, group, call, check, verdicts=1, python_share=MIXED):
        self.label = label
        self.group = group
        self.call = call
        self.check = check
        self.verdicts = verdicts
        self.python_share = python_share


def spread(main, fillers):
    """The main operations in order, with the fillers spread evenly between
    them.  Short operations sampled at many moments of a round average out
    the machine's second-to-second speed changes."""
    after = [[] for _ in main]
    for j, op in enumerate(fillers):
        after[j * len(main) // len(fillers)].append(op)
    return [op for m, extra in zip(main, after) for op in (m, *extra)]


def to_instance(qk, spec):
    n, terms = spec
    return qk.QsatInstance(n, [qk.RankOneTerm(s, a) for s, a in terms])


def _thresholds(qk, m):
    return qk.config.SAT_TOL_UNIT * max(1, m), qk.config.UNSAT_FLOOR


def _expected_tag(qk, lam, m):
    sat_tol, _ = _thresholds(qk, m)
    return checks.SATISFIABLE if lam < sat_tol else checks.UNSATISFIABLE


class Workload:
    throughput_group = "verdict"

    def __init__(self, qk, seed, workdir):
        self.qk = qk
        self.seed = seed
        self.workdir = Path(workdir)

    def random_with_reference(self, n, m, k, gen):
        sat_tol, floor = _thresholds(self.qk, m)
        return inputs.reference_random_spec(n, m, k, gen, sat_tol, floor)

    def reduce_inputs(self, key, count):
        """2-term 3-qubit inputs for library reductions: 11 output qubits (3
        work, one dummy per term, 3 ancillas per dummy), verified by dense
        solves at 3 and 11, as the 2-term inputs of gadget_cli.  A 10-qubit
        output took 0.26-0.37 s a call with OpenBLAS's default threads, and
        its median moved by 15% from run to run; an 11-qubit one moves by
        about 1%."""
        out = []
        for j in range(count):
            gen = rng(self.seed, key, 100 + j)
            spec = spec_of(3, [(e, inputs.haar_state(4, gen)) for e in ((0, 1), (1, 2))])
            out.append((spec, inputs.reference_lambda0(spec)))
        return out

    def library_reduce_ops(self):
        qk = self.qk
        ops = []
        for j, instance in enumerate(self.reduce_instances):
            ref = self.reduce_refs[j]

            def call(instance=instance):
                core = qk.extract_minimal_core(qk.figure_b())
                output = qk.build_reduction(instance, 3, core)
                return output, qk.verify_reduction(instance, output)

            def check(result, ref=ref):
                output, report = result
                checks.check_reduction(vars(report), report.penalty_constant, ref)
                checks.check_equal("output qubits", output.t_instance.num_qubits, 11)

            ops.append(Op(f"reduce-verify-{j}", "reduce_verify", call, check))
        return ops


class SmallDense(Workload):
    """decide_sat(auto) at n = 6-10: dense eigh plus the null-space check.

    The mix puts five n = 8 instances in the middle of each round's sorted
    verdict times, so verdict_p50_s is an n = 8 verdict; the n = 10 one
    carries most of wall_s.
    """

    MIX = (  # kind, n, k, m; the n = 8 ones spread through the round
        ("planted", 8, 3, 16), ("random", 6, 2, 9), ("frustrated", 8, 2, 12),
        ("planted", 10, 2, 15), ("random", 8, 3, 16), ("planted", 7, 3, 14),
        ("planted", 8, 2, 12), ("frustrated", 9, 3, 18), ("random", 8, 2, 12),
        ("frustrated", 6, 3, 8), ("random", 7, 3, 14),
    )

    def prepare(self):
        self.slots = []
        for slot, (kind, n, k, m) in enumerate(self.MIX):
            spec, ref = self.draw(kind, n, k, m, rng(self.seed, SMALL_DENSE, slot))
            self.slots.append((kind, spec, ref))
        self.reduce_specs = self.reduce_inputs(SMALL_DENSE, 1)

    def build(self):
        self.instances = [to_instance(self.qk, spec) for _, spec, _ in self.slots]
        self.reduce_instances = [to_instance(self.qk, s) for s, _ in self.reduce_specs]
        self.reduce_refs = [r for _, r in self.reduce_specs]

    def draw(self, kind, n, k, m, gen):
        """(spec, reference lambda0 or None) of one slot."""
        if kind == "planted":
            return inputs.planted_spec(n, m, k, gen), None
        if kind == "frustrated":
            return inputs.frustrated_spec(n, m, k, gen), None
        return self.random_with_reference(n, m, k, gen)

    def verdict_check(self, kind, spec, ref):
        if kind == "planted":
            return lambda v: checks.check_planted(v.tag, v.lambda0, v.nullspace_dim)
        if kind == "frustrated":
            return lambda v: checks.check_frustrated(v.tag, v.lambda0, v.nullspace_dim)
        expected = _expected_tag(self.qk, ref, len(spec[1]))
        return lambda v: checks.check_reference(v.tag, v.lambda0, v.nullspace_dim, ref, expected)

    def warmup(self):
        small = to_instance(self.qk, inputs.planted_spec(5, 8, 2, rng(BASE_SEED, 0)))
        self.qk.decide_sat(small)
        self.library_reduce_ops()[0].call()

    def ops(self):
        qk = self.qk
        ops = []
        for (kind, spec, ref), instance in zip(self.slots, self.instances):
            ops.append(Op(f"{kind}-n{spec[0]}-m{len(spec[1])}", "verdict",
                          lambda instance=instance: qk.decide_sat(instance),
                          self.verdict_check(kind, spec, ref),
                          python_share=LAPACK if 8 <= spec[0] <= 10 else MIXED))
        return spread(ops, self.library_reduce_ops())


class LargeKrylov(Workload):
    """Krylov-route verdicts and the dense route just below the cutoff.

    * decide_sat(auto) at n = 15 (Krylov), planted, m = 2n;
    * decide_sat(auto) at n = 11 (dense), containing figure-b;
    * ground_energy(krylov) on a near-frustration-free instance, m = n = 10,
      k = 3, in five local frames, checked against eigvalsh.

    The Krylov instances are fixed bases seen in a local frame drawn from the
    seed: the frame leaves the spectrum, and so the matvec count, nearly
    unchanged, while every amplitude differs from seed to seed.  The near-FF
    calls are five of the seven verdicts, so verdict_p50_s is one of them.
    """

    NEAR_FF_FRAMES = 5

    def prepare(self):
        base15 = inputs.planted_spec(15, 30, 3, rng(BASE_SEED, LARGE_KRYLOV, 15))
        self.spec15 = inputs.local_frame(base15, rng(self.seed, LARGE_KRYLOV, 0))
        self.spec11 = inputs.frustrated_spec(11, 22, 3, rng(self.seed, LARGE_KRYLOV, 1))
        base = inputs.haar_spec(10, 10, 3, rng(BASE_SEED, LARGE_KRYLOV, 10, 2))
        self.near_ff = []
        for j in range(self.NEAR_FF_FRAMES):
            spec = inputs.local_frame(base, rng(self.seed, LARGE_KRYLOV, 2 + j))
            self.near_ff.append((spec, inputs.reference_lambda0(spec)))
        self.reduce_specs = self.reduce_inputs(LARGE_KRYLOV, 1)

    def build(self):
        qk = self.qk
        self.instance15 = to_instance(qk, self.spec15)
        self.instance11 = to_instance(qk, self.spec11)
        self.near_ff_instances = [to_instance(qk, s) for s, _ in self.near_ff]
        self.reduce_instances = [to_instance(qk, s) for s, _ in self.reduce_specs]
        self.reduce_refs = [r for _, r in self.reduce_specs]

    def warmup(self):
        small = to_instance(self.qk, inputs.haar_spec(6, 6, 3, rng(BASE_SEED, 0)))
        self.qk.ground_energy(small, method="krylov")
        self.qk.decide_sat(small)
        self.library_reduce_ops()[0].call()

    def ops(self):
        qk = self.qk
        near_ff = [
            Op(f"near-ff-n10-{j}", "verdict",
               lambda instance=instance: qk.ground_energy(instance, method="krylov"),
               lambda r, ref=ref: checks.check_energy(r.lambda0, ref))
            for j, ((_, ref), instance) in enumerate(zip(self.near_ff, self.near_ff_instances))
        ]
        ops = [
            near_ff[0],
            Op("planted-n15-krylov", "verdict",
               lambda: qk.decide_sat(self.instance15),
               lambda v: checks.check_planted(v.tag, v.lambda0, v.nullspace_dim)),
            near_ff[1],
            near_ff[2],
            Op("frustrated-n11-dense", "verdict",
               lambda: qk.decide_sat(self.instance11),
               lambda v: checks.check_frustrated(v.tag, v.lambda0, v.nullspace_dim)),
            near_ff[3],
            near_ff[4],
        ]
        return spread(ops, self.library_reduce_ops())


NAN_DOCUMENT = (
    '{"format_version": 1, "num_qubits": 2, "epsilon": 1.0, "projectors": '
    '[{"qubits": [0, 1], "amplitudes": [[NaN, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}]}\n'
)

_EXIT = {checks.SATISFIABLE: 0, checks.UNSATISFIABLE: 1}


class GadgetCli(Workload):
    """The qsat subcommands in-process, through ``qsatkit.cli.main(argv)``.

    Thousands of tiny verdicts and parses make per-call overhead (validation,
    plan build, io, cli) the cost.  This is the only workload that writes
    files.  ``solve`` on a file with a NaN amplitude fails every round: the
    program raises instead of rejecting the file.
    """

    throughput_group = "sample"
    # Trials per `qsat sample` command: three on triangle-double and two on
    # the path per round, 2,000 trials in all.
    TRIANGLE_TRIALS = 500
    PATH_TRIALS = 250
    REDUCE_INPUTS = (
        ("one", ((0, 1),)),
        ("two_a", ((0, 1), (1, 2))),
        ("two_b", ((0, 2), (1, 2))),
        ("one_core", ((1, 2),)),
    )

    def prepare(self):
        s = self.seed
        # Solve files have three qubits, like the built-ins, so every solve
        # costs about the same and their median does not hinge on the seed.
        self.files = {
            "planted3": (inputs.planted_spec(3, 3, 2, rng(s, GADGET_CLI, 0)), None),
            "frustrated3": (inputs.frustrated_spec(3, 5, 2, rng(s, GADGET_CLI, 1)), None),
            "random3": self.random_with_reference(3, 4, 2, rng(s, GADGET_CLI, 2)),
            "path4": (spec_of(4, [(e, inputs.haar_state(4, rng(s, GADGET_CLI, 3, i)))
                                  for i, e in enumerate(((0, 1), (1, 2), (2, 3)))]), None),
        }
        # Reduction inputs on 3 qubits: one term gives 7 output qubits, two
        # terms 11 (3 work, one dummy per term, 3 ancillas per dummy).
        for j, (name, edges) in enumerate(self.REDUCE_INPUTS):
            gen = rng(s, GADGET_CLI, 4, j)
            spec = spec_of(3, [(e, inputs.haar_state(4, gen)) for e in edges])
            self.files[name] = (spec, inputs.reference_lambda0(spec))
        padding = inputs.haar_spec(3, 2, 2, rng(s, GADGET_CLI, 5))[1]
        self.files["core"] = (spec_of(3, padding + list(FIGURE_B_TERMS)), None)
        self.figure_a = spec_of(3, FIGURE_A_TERMS)
        self.figure_b = spec_of(3, FIGURE_B_TERMS)
        self.refs = {"figure-a": inputs.reference_lambda0(self.figure_a),
                     "figure-b": inputs.reference_lambda0(self.figure_b)}

    def path(self, name):
        return str(self.workdir / f"{name}.json")

    def build(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        for name, (spec, _) in self.files.items():
            self.qk.save_instance(self.path(name), to_instance(self.qk, spec))
        Path(self.path("nan")).write_text(NAN_DOCUMENT, encoding="utf-8")

    def warmup(self):
        """One small call of each command."""
        self.cli("solve", "builtin:figure-b", "--json")
        self.cli("analyze", "builtin:figure-a", "--json")
        self.cli("sample", "--structure", "builtin:triangle-double", "--trials", "20", "--json")
        self.cli("reduce", self.path("one"), "--target-k", "3", "--verify",
                 "--out", self.path("warmup.k3"), "--json")

    def cli(self, *argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = self.qk.cli.main(list(argv))
        text = out.getvalue()
        return code, json.loads(text) if text else None

    def solve_op(self, target, check):
        def verify(result):
            code, payload = result
            check(payload)
            checks.check_equal("exit code", code, _EXIT[payload["verdict"]])

        return Op(f"solve {target}", "verdict",
                  lambda: self.cli("solve", target, "--json"), verify, python_share=PYTHON)

    def ops(self):
        files, refs = self.files, self.refs
        sat, unsat = checks.SATISFIABLE, checks.UNSATISFIABLE

        def verdict(p):
            return p["verdict"], p["lambda0"], p["nullspace_dim"]

        random3, ref3 = files["random3"]
        tag3 = _expected_tag(self.qk, ref3, len(random3[1]))
        solves = [
            self.solve_op("builtin:figure-a",
                          lambda p: checks.check_reference(*verdict(p), refs["figure-a"], sat)),
            self.solve_op("builtin:figure-b", lambda p: (
                checks.check_frustrated(*verdict(p)),
                checks.check_reference(*verdict(p), refs["figure-b"], unsat))),
            self.solve_op(self.path("planted3"), lambda p: checks.check_planted(*verdict(p))),
            self.solve_op(self.path("frustrated3"),
                          lambda p: checks.check_frustrated(*verdict(p))),
            self.solve_op(self.path("random3"),
                          lambda p: checks.check_reference(*verdict(p), ref3, tag3)),
        ]
        triangle = [self.sample_op("builtin:triangle-double", self.TRIANGLE_TRIALS,
                                   "frustrated", j) for j in range(3)]
        path = [self.sample_op(self.path("path4"), self.PATH_TRIALS, "satisfiable", j)
                for j in range(2)]
        main = [
            triangle[0],
            self.reduce_op("two_a", files["two_a"][1], 11),
            path[0],
            self.analyze_op("builtin:figure-a", self.figure_a),
            triangle[1],
            Op("solve nan-amplitude file", "fault",
               lambda: self.cli("solve", self.path("nan"), "--json"),
               lambda r: checks.check_rejected(r[0]), python_share=PYTHON),
            self.reduce_op("one", files["one"][1], 7),
            triangle[2],
            self.analyze_op(self.path("frustrated3"), files["frustrated3"][0]),
            self.reduce_op("two_b", files["two_b"][1], 11),
            path[1],
            self.extract_core_op(),
        ]
        # Each solve runs six times a round, at moments seconds apart.
        return spread(main, solves * 6)

    def analyze_op(self, target, spec):
        degrees = inputs.degrees(spec)
        locality = max(len(s) for s, _ in spec[1])

        def check(result):
            code, payload = result
            checks.check_equal("exit code", code, 0)
            checks.check_analysis(payload, spec[0], degrees, len(spec[1]), locality)

        return Op(f"analyze {target}", "cli", lambda: self.cli("analyze", target, "--json"),
                  check, python_share=PYTHON)

    def sample_op(self, structure, trials, expect, j):
        # Trial t of ensemble seed e draws from stream e XOR t; seeds 4096
        # apart give distinct streams for up to 4,096 trials.
        argv = ("sample", "--structure", structure, "--trials", str(trials),
                "--seed", str(4096 * self.seed + j), "--json")

        def check(result):
            code, payload = result
            checks.check_equal("exit code", code, 0)
            checks.check_sample(payload, trials, expect)

        return Op(f"sample {structure}", "sample", lambda: self.cli(*argv), check, trials,
                  python_share=PYTHON)

    def reduce_op(self, name, ref, qubits):
        out = self.path(f"{name}.k3")
        argv = ("reduce", self.path(name), "--target-k", "3", "--verify", "--out", out, "--json")

        def check(result):
            code, payload = result
            checks.check_equal("exit code", code, 0)
            checks.check_reduction(payload["verification"], payload["penalty_constant"], ref)
            self.check_written(out, payload, qubits)

        return Op(f"reduce --verify {name}", "reduce_verify", lambda: self.cli(*argv), check)

    def extract_core_op(self):
        out = self.path("one_core.k3")
        argv = ("reduce", self.path("one_core"), "--target-k", "3", "--core", self.path("core"),
                "--extract-core", "--out", out, "--json")

        def check(result):
            code, payload = result
            checks.check_equal("exit code", code, 0)
            checks.check_penalty(payload["penalty_constant"])
            self.check_written(out, payload, 7)

        return Op("reduce --extract-core", "cli", lambda: self.cli(*argv), check,
                  python_share=PYTHON)

    @staticmethod
    def check_written(path, payload, qubits):
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        checks.check_equal("reported qubits", payload["num_qubits"], qubits)
        checks.check_equal("written qubits", document["num_qubits"], qubits)
        checks.check_equal("written terms", len(document["projectors"]), payload["num_terms"])


WORKLOADS = {"small_dense": SmallDense, "large_krylov": LargeKrylov, "gadget_cli": GadgetCli}
