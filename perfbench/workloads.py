"""The benchmark's three workloads and the per-layer probes.

Each workload is a closed loop: one client runs one operation after
another. Its inputs come from the seed, except for a few fixed anchor
problems that open every run, so the accuracy figures compare across
seeds. Every operation's output is checked against the closed-form exact
solution of its manufactured problem (see problems.py).
"""

import contextlib
import io
import json
import math
import os
import random
import statistics
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

from hilferbvp import (
    NoConvergenceError,
    SolveConfig,
    WeightedGrid,
    apply_T,
    certificate,
    derive_params,
    evaluate,
    hilfer_derivative_num,
    hoelder_constants,
    parse,
    pretty,
    problem_mesh,
    rho_lp_norm,
    rl_integral_quad,
    serialize_spec,
    solve_picard,
    verify_bc,
    verify_ode,
)
from hilferbvp import cli
from hilferbvp.existence import sweep_certificates
from hilferbvp.problemio import load_problem_document

import problems

# A converged solve (tol 1e-8) leaves residual_bc near 1e-10.
BC_TOL = 1e-6
# Exit code `check` must return for each verdict of its report.
VERDICT_EXIT = {"satisfied": 0, "violated": 2, "inadmissible": 3}
SCALING_SIZES = (256, 512, 1024, 2048)


@dataclass
class Case:
    """One problem as the operations and the probes see it."""

    m: problems.Manufactured
    config: SolveConfig
    path: str  # problem file
    anchor: bool
    table: str = None  # solution table (check-verify only)
    grid: WeightedGrid = None  # solution on the problem mesh
    history: tuple = ()


@dataclass
class Outcome:
    """What one operation took, and which of its checks failed."""

    seconds: dict  # kind of call -> seconds
    failures: list
    anchor: bool
    w_err: float = math.nan
    za_err: float = math.nan


def write_problem(m, config, path):
    doc = serialize_spec(m.spec)
    doc["solver"] = {"n_base": config.n_base, "tol": config.tol}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _rng(*parts):
    return random.Random("/".join(str(p) for p in parts))


def _check_solution(case, grid, init_coeff, residual_bc, w_tol, failures):
    w_err = case.m.w_error(grid.mesh.nodes, grid.w)
    za_err = abs(float(init_coeff) - case.m.za_exact)
    if not residual_bc <= BC_TOL:
        failures.append(f"residual_bc {residual_bc:.3e} > {BC_TOL:.1e}")
    if not w_err <= w_tol:
        failures.append(f"w_err {w_err:.3e} > {w_tol:.1e}")
    return w_err, za_err


class SolveWorkload:
    """A stream of solve_picard calls on manufactured problems."""

    setup_reps = 7
    pool = 8  # problems drawn and written to disk during set-up
    anchors = 1

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.cases = []

    def draw(self, rng):
        raise NotImplementedError

    def case(self, i):
        while len(self.cases) <= i:
            j = len(self.cases)
            anchor = j < self.anchors
            rng = _rng(self.name, "anchor" if anchor else self.seed, j)
            m, config = self.draw(rng)
            path = os.path.join(self.workdir, f"{self.name}-{j}.json")
            write_problem(m, config, path)
            self.cases.append(Case(m, config, path, anchor))
        return self.cases[i]

    def setup(self):
        """Draw the first problems, round-trip them through problem files and
        warm the solver up on a coarse mesh."""
        self.cases = []
        outcomes = []
        for i in range(self.pool):
            case = self.case(i)
            spec, config, _ = load_problem_document(case.path)
            ok = spec == case.m.spec and config == case.config
            outcomes.append(Outcome({}, [] if ok else [f"{case.path} does not round-trip"],
                                    case.anchor))
        solve_picard(self.cases[0].m.spec, SolveConfig(n_base=32))
        return outcomes

    def run(self, i) -> Outcome:
        case = self.case(i)
        t0 = time.perf_counter()
        try:
            report = solve_picard(case.m.spec, case.config)
        except NoConvergenceError as exc:
            seconds = time.perf_counter() - t0
            return Outcome({"solve": seconds}, [f"problem {i}: {exc}"], case.anchor)
        seconds = time.perf_counter() - t0
        failures = []
        w_err, za_err = _check_solution(
            case, report.solution, report.init_coeff, report.residual_bc, self.w_tol, failures
        )
        case.grid = report.solution
        case.history = report.history
        return Outcome({"solve": seconds}, [f"problem {i}: {f}" for f in failures],
                       case.anchor, w_err, za_err)


class SolveLarge(SolveWorkload):
    """n_base = 2048: dense kernel moments and verification dominate."""

    name = "solve-large"
    w_tol = 1e-3

    def draw(self, rng):
        return problems.large_problem(rng), SolveConfig(n_base=2048)


class SolveSmallBatch(SolveWorkload):
    """Varied problems at n_base 128-256: f evaluation and the Picard loop
    dominate."""

    name = "solve-small-batch"
    pool = 32
    anchors = 4
    w_tol = 2e-2

    def draw(self, rng):
        m = problems.batch_problem(rng)
        return m, SolveConfig(n_base=rng.randint(128, 256))


def _cli(argv):
    """cli.main in-process with its output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


class CheckVerify:
    """`check --sweep-p` and `verify` against tables solved during set-up."""

    name = "check-verify"
    setup_reps = 3
    n_base = 512
    w_tol = 3e-3
    # (anchor, kinked rho) for each problem; the anchors are fixed
    layout = ((True, False), (True, True), (False, False), (False, True))

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.cases = []

    def setup(self):
        """Write the problem files and solve each to a table with the CLI."""
        self.cases = []
        outcomes = []
        config = SolveConfig(n_base=self.n_base)
        for j, (anchor, kinked) in enumerate(self.layout):
            rng = _rng(self.name, "anchor" if anchor else self.seed, j)
            m = problems.certify_problem(rng, kinked)
            stem = os.path.join(self.workdir, f"{self.name}-{j}")
            case = Case(m, config, stem + ".json", anchor, table=stem + ".csv")
            write_problem(m, config, case.path)
            code, _ = _cli(["solve", case.path, "--out", case.table,
                            "--report", stem + "-report.json"])
            failures = []
            w_err = za_err = math.nan
            if code != 0:
                failures.append(f"solve {case.path} exited {code}")
            else:
                with open(stem + "-report.json", encoding="utf-8") as fh:
                    report = json.load(fh)
                _, w = cli.parse_table(case.table)
                case.grid = WeightedGrid(mesh=problem_mesh(m.spec, config),
                                         gamma=m.gamma, w=w)
                case.history = tuple(report["history"])
                w_err, za_err = _check_solution(case, case.grid, report["init_coeff"],
                                                report["residual_bc"], self.w_tol, failures)
            outcomes.append(Outcome({}, failures, anchor, w_err, za_err))
            self.cases.append(case)
        return outcomes

    def case(self, i):
        return self.cases[i % len(self.cases)]

    def run(self, i) -> Outcome:
        case = self.case(i)
        failures = []
        t0 = time.perf_counter()
        code, text = _cli(["check", case.path, "--sweep-p"])
        t1 = time.perf_counter()
        try:
            verdict = json.loads(text)["verdict"]
        except (ValueError, KeyError):
            verdict = None
        if VERDICT_EXIT.get(verdict) != code:
            failures.append(f"check {case.path} exited {code} with verdict {verdict!r}")
        t2 = time.perf_counter()
        code, _ = _cli(["verify", case.path, case.table])
        t3 = time.perf_counter()
        if code != 0:
            failures.append(f"verify {case.path} exited {code}")
        return Outcome({"check": t1 - t0, "verify": t3 - t2}, failures, case.anchor)


WORKLOADS = {w.name: w for w in (SolveLarge, SolveSmallBatch, CheckVerify)}


# ---------------------------------------------------------------------------
# per-layer probes: each is one public call on the operation's inputs
# ---------------------------------------------------------------------------


def _f_samples(m, grid):
    """f on the solution at every node (node 0 copies node 1, where f is
    singular), with the number of scalar evaluations."""
    nodes = grid.mesh.nodes
    z = grid.z_values()
    phi = np.empty(len(nodes))
    for i in range(1, len(nodes)):
        phi[i] = evaluate(m.spec.f, nodes[i], z[i])
    phi[0] = phi[1]
    return phi, len(nodes) - 1


def probe_layers(tracer, parent, case):
    """Time every layer on the inputs of the operation `parent` traced."""
    m, spec, grid = case.m, case.m.spec, case.grid
    mu, gamma = spec.order.mu, spec.order.gamma
    values = {}
    with tracer.span("problemio.load", parent):
        load_problem_document(case.path)
    with tracer.span("fraccalc.mesh", parent):
        mesh = problem_mesh(spec, case.config)
    values["mesh.nodes"] = len(mesh.nodes)
    text = pretty(spec.f)
    with tracer.span("expr.parse", parent):
        parse(text)
    with tracer.span("expr.eval", parent) as s:
        phi, evals = _f_samples(m, grid)
    values["expr.eval_us"] = s.seconds / evals * 1e6
    with tracer.span("fraccalc.moments", parent):
        rl_integral_quad(phi, mu, spec.b, mesh)
    with tracer.span("fraccalc.profile.weighted", parent):
        rl_integral_quad(grid, mu, spec.b)
    with tracer.span("fraccalc.profile.hilfer", parent):
        hilfer_derivative_num(grid, spec.order, mesh.nodes[len(mesh.nodes) // 2])
    params = derive_params(spec)
    with tracer.span("solver.apply_T", parent):
        apply_T(spec, params, grid)
    with tracer.span("solver.verify_bc", parent):
        verify_bc(spec, params, grid)
    with tracer.span("solver.verify_ode", parent):
        verify_ode(spec, grid)
    q = spec.p / (spec.p - 1.0)
    with tracer.span("existence.hoelder", parent):
        hoelder_constants(q, mu, gamma)
    with tracer.span("existence.rho_norm", parent):
        rho_lp_norm(spec.rho, spec.p, spec.a, spec.b)
    with tracer.span("existence.certificate", parent):
        certificate(spec, params)
    with tracer.span("existence.sweep", parent):
        sweep_certificates(spec, params)
    h = case.history
    values["picard.iterations"] = len(h)
    values["picard.ratio_max"] = max(
        (h[k] / h[k - 1] for k in range(1, len(h))), default=math.nan
    )
    return values


def moments_peak_mb(case):
    """tracemalloc peak of one dense moment build plus matvec."""
    m, grid = case.m, case.grid
    phi, _ = _f_samples(m, grid)
    tracemalloc.start()
    try:
        rl_integral_quad(phi, m.spec.order.mu, m.spec.b, grid.mesh)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def moments_scaling(tracer, case, reps=3):
    """Log-log slope of the moment build time over n_base = 256 ... 2048."""
    m = case.m
    spec = m.spec
    sizes, times = [], []
    for n in SCALING_SIZES:
        mesh = problem_mesh(spec, SolveConfig(n_base=n))
        phi = np.cos(mesh.nodes)
        runs = []
        for _ in range(reps):
            with tracer.span(f"fraccalc.moments.n{n}") as s:
                rl_integral_quad(phi, spec.order.mu, spec.b, mesh)
            runs.append(s.seconds)
        sizes.append(len(mesh.nodes))
        times.append(statistics.median(runs))
    return float(np.polyfit(np.log(sizes), np.log(times), 1)[0])
