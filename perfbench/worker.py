"""One benchmark run in a fresh process; started by run.py.

Prints `metric <name> <value> <unit>` lines for every figure it has, an
`env` line, and as its last line the JSON result: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.getcwd()

# end-to-end metrics: name -> unit
END_TO_END = {
    "setup_s": "s",
    "op_s_p50": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "w_err_max": "1",
    "za_err_max": "1",
}
PER_LAYER = {
    "moments.apply_s": "s",
    "moments.peak_mb": "MB",
    "moments.scaling_exp": "1",
    "profile.weighted_s": "s",
    "profile.hilfer_s": "s",
    "mesh.build_s": "s",
    "mesh.nodes": "count",
    "expr.parse_s": "s",
    "expr.eval_us": "us",
    "expr.eval_s_per_iter": "s",
    "picard.iterations": "count",
    "picard.ratio_max": "1",
    "picard.apply_s": "s",
    "verify.bc_s": "s",
    "verify.ode_s": "s",
    "existence.hoelder_s": "s",
    "existence.rho_norm_s": "s",
    "existence.certificate_s": "s",
    "existence.sweep_s": "s",
    "problemio.load_s": "s",
    "trace.overhead_frac": "1",
}
# figures printed beside the contract metrics; *_wall are unadjusted
DETAIL = {
    "setup_wall_s": "s",
    "op_wall_s_p50": "s",
    "ops_per_wall_s": "1/s",
    "host_speed": "1",
    "solve_s_p50": "s",
    "solve_s_p90": "s",
    "solves_per_s": "1/s",
    "check_s_p50": "s",
    "check_s_p90": "s",
    "verify_s_p50": "s",
    "verify_s_p90": "s",
    "w_err_max_all": "1",
    "za_err_max_all": "1",
    "failed_frac": "1",
    "ops": "count",
}
# per-layer timing metric -> span name
SPAN_OF = {
    "moments.apply_s": "fraccalc.moments",
    "profile.weighted_s": "fraccalc.profile.weighted",
    "profile.hilfer_s": "fraccalc.profile.hilfer",
    "mesh.build_s": "fraccalc.mesh",
    "expr.parse_s": "expr.parse",
    "picard.apply_s": "solver.apply_T",
    "verify.bc_s": "solver.verify_bc",
    "verify.ode_s": "solver.verify_ode",
    "existence.hoelder_s": "existence.hoelder",
    "existence.rho_norm_s": "existence.rho_norm",
    "existence.certificate_s": "existence.certificate",
    "existence.sweep_s": "existence.sweep",
    "problemio.load_s": "problemio.load",
}


def _import_package():
    """Import hilferbvp from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import hilferbvp

    if not os.path.abspath(hilferbvp.__file__).startswith(src + os.sep):
        raise ImportError(f"hilferbvp imported from {hilferbvp.__file__}, not {src}")


def p90(values):
    """90th percentile, reported only with at least ten samples beyond it."""
    if len(values) < 100:
        return None
    return statistics.quantiles(values, n=10)[-1]


def median(values):
    """Median, or NaN when every operation that would give a value failed."""
    values = list(values)
    return statistics.median(values) if values else math.nan


def timed_setup(cls, seed, workdir, speed=None):
    """A fresh workload object, set up once; returns it, the checked set-up
    steps and the set-up time, wall and adjusted to the reference host
    speed when `speed` samples it."""
    workload = cls(seed, workdir)
    if speed is not None:
        speed.sample()
    t0 = time.perf_counter()
    outcomes = workload.setup()
    t1 = time.perf_counter()
    if speed is None:
        return workload, outcomes, t1 - t0, t1 - t0
    speed.sample()
    return workload, outcomes, t1 - t0, (t1 - t0) * speed.factor(t0, t1)


def run_loop(workload, seconds, probe=None, tracer=None, pauses=(), speed=None):
    """Closed loop for `seconds`. Returns the outcomes, each operation's wall
    time (including its probes when traced), the probes' values and, when
    `speed` samples the host between operations, each operation's factor to
    the reference host speed.

    Each callable in `pauses` runs once, between operations, at evenly
    spaced points of the loop; its time comes out of the loop's."""
    outcomes, walls, layer_values, bounds = [], [], [], []
    start = time.perf_counter()
    deadline = start + seconds
    pending = list(pauses)
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        due = start + seconds * (len(pauses) - len(pending) + 1) / (len(pauses) + 1)
        if pending and time.perf_counter() >= due:
            pending.pop(0)()
        case = workload.case(i)  # drawn lazily, outside the timed region
        if speed is not None:
            speed.maybe_sample()
        t0 = time.perf_counter()
        if tracer is None:
            outcome = workload.run(i)
        else:
            with tracer.span(workload.name) as op:
                with tracer.span("call", op):
                    outcome = workload.run(i)
                if case.grid is not None:
                    layer_values.append(probe(tracer, op, case))
        t1 = time.perf_counter()
        walls.append(t1 - t0)
        bounds.append((t0, t1))
        outcomes.append(outcome)
        i += 1
    if speed is not None:
        speed.sample()
    for pause in pending:
        pause()
    if speed is None:
        return outcomes, walls, layer_values, None
    return outcomes, walls, layer_values, [speed.factor(t0, t1) for t0, t1 in bounds]


def end_to_end(outcomes, factors, setup_times, setup_outcomes, speed):
    """The contract metrics, whose times are adjusted to the reference host
    speed, plus the wall-clock and per-call figures the notes name.
    setup_times holds (wall, adjusted) pairs."""
    out = {"setup_s": statistics.median(adj for _, adj in setup_times),
           "setup_wall_s": statistics.median(wall for wall, _ in setup_times)}
    walls = [sum(o.seconds.values()) for o in outcomes]
    ops = [wall * factor for wall, factor in zip(walls, factors)]
    out["op_s_p50"] = statistics.median(ops)
    out["ops_per_s"] = len(ops) / sum(ops)
    out["op_wall_s_p50"] = statistics.median(walls)
    out["ops_per_wall_s"] = len(walls) / sum(walls)
    out["host_speed"] = speed.relative_speed()
    for kind in ("solve", "check", "verify"):
        times = [o.seconds[kind] for o in outcomes if kind in o.seconds]
        if times:
            out[f"{kind}_s_p50"] = statistics.median(times)
            tail = p90(times)
            if tail is not None:
                out[f"{kind}_s_p90"] = tail
    if "solve_s_p50" in out:
        out["solves_per_s"] = out["ops_per_wall_s"]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # a problem whose solve failed has no error; it counts in failed instead
    checked = [o for o in setup_outcomes + outcomes if not math.isnan(o.w_err)]
    anchors = [o for o in checked if o.anchor]
    out["w_err_max"] = max((o.w_err for o in anchors), default=math.inf)
    out["za_err_max"] = max((o.za_err for o in anchors), default=math.inf)
    out["w_err_max_all"] = max((o.w_err for o in checked), default=math.inf)
    out["za_err_max_all"] = max((o.za_err for o in checked), default=math.inf)
    return out


def per_layer(tracer, layer_values, walls_plain, walls_traced, scaling_exp, peak_mb):
    out = {metric: median(tracer.seconds(span)) for metric, span in SPAN_OF.items()}
    out["moments.peak_mb"] = peak_mb
    out["moments.scaling_exp"] = scaling_exp
    for key in ("mesh.nodes", "expr.eval_us", "picard.iterations", "picard.ratio_max"):
        out[key] = median(v[key] for v in layer_values)
    out["expr.eval_s_per_iter"] = out["expr.eval_us"] * 1e-6 * out["mesh.nodes"]
    # both loops start from problem 0, so compare the same problems
    k = min(len(walls_plain), len(walls_traced))
    out["trace.overhead_frac"] = sum(walls_traced[:k]) / sum(walls_plain[:k]) - 1.0
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    import numpy
    import scipy

    from hostspeed import HostSpeed
    from spans import Tracer
    from workloads import WORKLOADS, moments_peak_mb, moments_scaling, probe_layers

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workdir_root = os.path.join(ROOT, "perfbench", ".work")
    os.makedirs(workdir_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workdir_root)
    try:
        cls = WORKLOADS[args.workload]
        if args.trace == 0:
            speed = HostSpeed()
            workload, setup_outcomes, wall, adjusted = timed_setup(cls, args.seed, workdir, speed)
            setup_times = [(wall, adjusted)]

            # The host's speed drifts over tens of seconds, so the further
            # set-up repetitions (fresh objects, own files) are spread over
            # the run rather than taken back to back.
            def setup_again():
                extra = tempfile.mkdtemp(dir=workdir)
                setup_times.append(timed_setup(cls, args.seed, extra, speed)[2:])

            pauses = [setup_again] * (cls.setup_reps - 1)
            outcomes, _, _, factors = run_loop(workload, args.seconds, pauses=pauses, speed=speed)
            figures = end_to_end(outcomes, factors, setup_times, setup_outcomes, speed)
            reported = END_TO_END
        else:
            workload, setup_outcomes, _, _ = timed_setup(cls, args.seed, workdir)
            half = args.seconds / 2.0
            plain, walls_plain, _, _ = run_loop(workload, half)
            tracer = Tracer()
            traced, walls_traced, layer_values, _ = run_loop(workload, half, probe_layers, tracer)
            outcomes = plain + traced
            solved = [c for c in workload.cases if c.grid is not None]
            scaling = moments_scaling(tracer, solved[0]) if solved else math.nan
            peak = moments_peak_mb(solved[0]) if solved else math.nan
            figures = per_layer(tracer, layer_values, walls_plain, walls_traced, scaling, peak)
            tracer.write(os.path.join(workdir_root, f"spans-{args.workload}-{args.seed}.jsonl"))
            reported = PER_LAYER
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checked = setup_outcomes + outcomes
    failed = sum(1 for o in checked if o.failures)
    figures["failed_frac"] = failed / len(checked)
    figures["ops"] = len(outcomes)
    for message in [f for o in checked for f in o.failures][:20]:
        print(f"failure {message}")
    units = {**reported, **DETAIL}
    for name, value in figures.items():
        print(f"metric {name} {value!r} {units[name]}")
    print(
        f"env workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} nproc={len(os.sched_getaffinity(0))} "
        f"threads={os.environ.get('OMP_NUM_THREADS', '')} "
        f"python={platform.python_version()} numpy={numpy.__version__} "
        f"scipy={scipy.__version__}"
    )
    result = {
        "correct": failed == 0,
        "attempted": len(checked),
        "failed": failed,
        "metrics": {name: {"value": figures[name], "unit": reported[name]} for name in reported},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
