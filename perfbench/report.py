"""Print every benchmark metric by name, with its unit, for every workload.

    python3 perfbench/report.py --seed 1 --seconds 30
    python3 perfbench/report.py --seed 1 --seconds 30 --record "<label>"

Run from the root of a source checkout. Each workload runs twice through
run.py, each time in a fresh process: untraced for the end-to-end figures,
traced for the per-layer figures and the tracing overhead. --record
appends the figures, with the environment line of each run, to
perfbench/trajectory.json under the given label.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("solve-large", "solve-small-batch", "check-verify")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    figures, env, failures = {}, "", []
    for line in lines[:-1]:
        kind, _, rest = line.partition(" ")
        if kind == "metric":
            name, value, unit = rest.split(" ")
            figures[name] = {"value": float(value), "unit": unit}
        elif kind == "env":
            env = rest
        elif kind == "failure":
            failures.append(rest)
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "failures": failures, "env": env,
            "figures": figures}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--record", metavar="LABEL",
                        help="append the figures to perfbench/trajectory.json")
    args = parser.parse_args(argv)
    point = {"label": args.record, "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for workload in WORKLOADS:
        runs = {f"trace{t}": run(workload, args.seed, args.seconds, t) for t in (0, 1)}
        point["workloads"][workload] = runs
        print(f"== {workload}  ({runs['trace0']['env']})")
        for key, title in (("trace0", "end to end"), ("trace1", "per layer")):
            r = runs[key]
            print(f"  -- {title}: correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']}")
            for failure in r["failures"]:
                print(f"     failure {failure}")
            for name, fig in r["figures"].items():
                print(f"     {name:26s} {fig['value']:<14.6g} {fig['unit']}")
    if args.record:
        path = os.path.join(HERE, "trajectory.json")
        points = []
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                points = json.load(fh)
        points.append(point)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(points, fh, indent=1)
            fh.write("\n")
    ok = all(r["correct"] for w in point["workloads"].values() for r in w.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
