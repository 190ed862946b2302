"""The benchmark's own oracle: manufactured problems and the contract."""

import json
import math
import os
import random
import subprocess
import sys

import pytest

from hilferbvp import SolveConfig, evaluate, solve_picard

import hostspeed
import problems
import worker
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
GENERATORS = {
    "large": problems.large_problem,
    "batch": problems.batch_problem,
    "smooth": lambda rng: problems.certify_problem(rng, kinked=False),
    "kinked": lambda rng: problems.certify_problem(rng, kinked=True),
}


@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_exact_solution_satisfies_the_boundary_condition(kind):
    for i in range(50):
        m = GENERATORS[kind](random.Random(f"bc/{kind}/{i}"))
        assert m.spec.d != 0.0
        assert m.bc_residual() <= 1e-13


@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_f_vanishes_into_the_exact_derivative_on_z_star(kind):
    """On z = z*(t) the nonlinearity cancels and f is D^{mu,nu} z* exactly."""
    m = GENERATORS[kind](random.Random(f"f/{kind}"))
    mu = m.spec.order.mu
    for t in (0.01, 0.3, 0.77, 1.0):
        exact = sum(
            b * math.gamma(d) / math.gamma(d - mu) * t ** (d - mu - 1.0) for b, d in m.terms
        )
        got = evaluate(m.spec.f, t, float(m.z_exact(t)))
        assert got == pytest.approx(exact, rel=1e-12, abs=1e-12)


def test_large_problems_have_a_weak_contraction():
    for i in range(20):
        m = problems.large_problem(random.Random(f"lip/{i}"))
        k = float(m.rho_text)
        assert 0.25 - 1e-12 <= problems.lipschitz_bound(m.spec, k) <= 0.35 + 1e-12
        assert m.gamma < 1.0 and len(m.spec.nonlocal_terms) == 2


@pytest.mark.parametrize("kind", ["large", "batch", "kinked"])
def test_w_error_is_nonzero_and_shrinks_as_n_doubles(kind):
    m = GENERATORS[kind](random.Random(f"order/{kind}"))
    errors, za_errors = [], []
    for n in (128, 256, 512):
        report = solve_picard(m.spec, SolveConfig(n_base=n))
        errors.append(m.w_error(report.solution.mesh.nodes, report.solution.w))
        za_errors.append(abs(report.init_coeff - m.za_exact))
    assert errors[0] > 0.0
    assert errors[0] > 1.5 * errors[1] > 2.25 * errors[2]
    assert za_errors[0] > za_errors[2]


def test_benchmark_json_matches_the_worker():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == worker.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == worker.PER_LAYER


def test_run_refuses_a_directory_without_the_package(tmp_path):
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", "solve-large", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""


def test_host_speed_factor_uses_the_samples_around_an_interval():
    speed = hostspeed.HostSpeed()
    speed.ends = [1.0, 2.0, 3.0]
    speed.samples = [hostspeed.REFERENCE_S, 3.0 * hostspeed.REFERENCE_S, 2.0 * hostspeed.REFERENCE_S]
    assert speed.factor(1.2, 1.8) == pytest.approx(0.5)  # between samples 0 and 1
    assert speed.factor(2.1, 2.9) == pytest.approx(0.4)  # between samples 1 and 2
    assert speed.factor(3.5, 4.0) == pytest.approx(0.5)  # after the last: it alone
