"""Benchmark entry point.

    python3 perfbench/run.py --workload solve-large --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. Each call runs one workload in a
fresh worker process (so peak RSS is per workload) with one BLAS and
OpenMP thread, and relays its output; the
last line is the JSON result. Workloads: solve-large, solve-small-batch,
check-verify. --trace 1 reports the per-layer metrics instead of the
end-to-end ones.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER_TIMEOUT_S = 170
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def worker_env():
    # One thread: an idle OpenBLAS worker spins for a while after each call
    # and, on a host whose vCPUs share a core, slows the main thread by up to
    # 60 %; the solves gain nothing from a second thread (see NOTES.md).
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"), PYTHONDONTWRITEBYTECODE="1")
    env.update({name: "1" for name in THREAD_VARIABLES})
    return env


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "hilferbvp", "__init__.py")):
        print("error: run from the root of a hilferbvp checkout (no src/hilferbvp here)",
              file=sys.stderr)
        return 2
    # SIGTERM unwinds through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        return subprocess.run(cmd, env=worker_env(), timeout=WORKER_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"error: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
