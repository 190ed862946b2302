import itertools
import math
import warnings
from dataclasses import replace

import pytest

from hilferbvp import existence
from hilferbvp.errors import DomainError, InadmissibleExponentError
from hilferbvp.existence import (
    certificate,
    hoelder_constants,
    rho_lp_norm,
    sweep_certificates,
)
from hilferbvp.expr import evaluate, parse
from hilferbvp.problemio import example_problem_path, load_problem
from hilferbvp.solver import derive_params

# frozen oracle values for the bundled instance at p = 4 (q = 4/3), computed
# ahead of time by direct evaluation of the closed forms in 50-digit
# arithmetic:
#   Lambda = Gamma(1/9) Gamma(1/3) / Gamma(4/9)
#   Delta  = Gamma(7/9) Gamma(1/3) / Gamma(10/9)
#   rho    = (1/16) (1/5)^{1/4}
LAMBDA_P4 = 11.456586824501692
DELTA_P4 = 3.3669044815441846
RHO_P4 = 0.041796269061026377
G_P4 = 0.18339289117636599
L_P4 = 0.08121015390487931


def example():
    spec = load_problem(str(example_problem_path()))
    return spec, derive_params(spec)


# ---------------------------------------------------------------------------
# Hoelder constants
# ---------------------------------------------------------------------------


def test_hoelder_q1_reduces_to_beta():
    # mpmath, not specfun.beta: hoelder_constants is specfun.beta
    mp = pytest.importorskip("mpmath")
    for mu, gamma in [(1.0 / 3.0, 0.5), (0.7, 0.85), (0.2, 0.4)]:
        lam, delta = hoelder_constants(1.0, mu, gamma)
        with mp.workdps(40):
            want = float(mp.beta(mu, gamma)), float(mp.beta(1.0 + mu - gamma, gamma))
        assert lam == pytest.approx(want[0], rel=1e-14)
        assert delta == pytest.approx(want[1], rel=1e-14)


def test_hoelder_frozen_values():
    lam, delta = hoelder_constants(4.0 / 3.0, 1.0 / 3.0, 0.5)
    assert lam == pytest.approx(LAMBDA_P4, rel=1e-12)
    assert delta == pytest.approx(DELTA_P4, rel=1e-12)


def test_hoelder_inadmissible_names_condition():
    with pytest.raises(InadmissibleExponentError) as err:
        hoelder_constants(2.0, 1.0 / 3.0, 0.5)
    assert "q*(mu-1)+1" in str(err.value)


# ---------------------------------------------------------------------------
# growth-bound norm
# ---------------------------------------------------------------------------


def test_rho_norm_p1():
    assert rho_lp_norm(parse("t/16"), 1.0, 0.0, 1.0) == pytest.approx(
        1.0 / 32.0, rel=1e-10
    )


def test_rho_norm_p4():
    assert rho_lp_norm(parse("t/16"), 4.0, 0.0, 1.0) == pytest.approx(RHO_P4, rel=1e-10)


def test_rho_norm_zero():
    assert rho_lp_norm(parse("0"), 3.0, 0.0, 1.0) == 0.0


def test_rho_norm_sub_one_exponent():
    # generalized functional used by the literal-reference comparison
    assert rho_lp_norm(parse("t/16"), 0.5, 0.0, 1.0) == pytest.approx(
        1.0 / 36.0, rel=1e-10
    )


def test_rho_norm_overflow_in_a_product_is_silent():
    # t*1e308*10 overflows to inf past t = 0.18 and 1/inf is 0; evaluate's *
    # lets the inf through without a warning, which numpy scalars would raise
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = rho_lp_norm(parse("t/16 + 1/(t*1e308*10)"), 4.0, 0.0, 1.0)
    assert value == pytest.approx(RHO_P4, rel=1e-10)


def test_rho_norm_rejects_an_integrand_past_the_double_range():
    # every sample 1e308 is a double, the norm 2e308 over [0, 2] is not;
    # NaN and inf integrands are tested through the CLI, in a subprocess with
    # a timeout, so that an adaptive rule that never stops fails, not hangs
    with pytest.raises(DomainError, match=r"\|rho\|\^p\)\^\(1/p\) over \[a, b\] = \[0.0, 2.0\]"):
        rho_lp_norm(parse("1e308"), 1.0, 0.0, 2.0)


@pytest.mark.parametrize("p", [4.0, 64.0, 260.0, 300.0, 1000.0, 1e4])
def test_rho_norm_of_a_small_rho_does_not_vanish_for_large_p(p):
    # (t/16)^p underflows past p ~ 260 unless |rho| is scaled by its max
    got = rho_lp_norm(parse("t/16"), p, 0.0, 1.0)
    assert got == pytest.approx((p + 1.0) ** (-1.0 / p) / 16.0, rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "rho, p, want",
    [
        ("3*t", 1000.0, 3.0 * 1001.0 ** (-1.0 / 1000.0)),
        ("exp(100*t)", 64.0, math.exp(100.0) * 6400.0 ** (-1.0 / 64.0)),
    ],
)
def test_rho_norm_of_a_large_rho_does_not_overflow(rho, p, want):
    # |rho|^p passes the double range, (|rho|/M)^p stays below 1
    got = rho_lp_norm(parse(rho), p, 0.0, 1.0)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("p", [2.0, 300.0])
def test_rho_norm_rescales_when_the_first_panel_reads_zero(p):
    # rho = 2 max(0, t - 0.995) vanishes at all 15 samples of the first
    # panel, so its scale M = 0 gives way to the first nonzero sample
    got = rho_lp_norm(parse("t - 0.995 + abs(t - 0.995)"), p, 0.0, 1.0)
    want = 2.0 * 0.005 ** ((p + 1.0) / p) / (p + 1.0) ** (1.0 / p)
    assert got == pytest.approx(want, rel=1e-13, abs=0.0)


def test_rho_norm_rejects_bad_exponent():
    with pytest.raises(DomainError):
        rho_lp_norm(parse("t"), 0.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        rho_lp_norm(parse("t"), 1.0, 1.0, 0.0)


def test_rho_norm_nonsmooth_integrand():
    # |.|^p with p = 3 of a sign-changing rho; oracle: int_0^1 |s-1/2|^3 ds
    value = rho_lp_norm(parse("t-0.5"), 3.0, 0.0, 1.0)
    assert value == pytest.approx((1.0 / 32.0) ** (1.0 / 3.0), rel=1e-9)


@pytest.mark.parametrize("rho", ["0.7*abs(t - 0.4132)", "0.2*(1 + t^2)", "sqrt(t)*exp(-t)"])
def test_rho_norm_is_bit_identical_to_sampling_by_evaluate(rho):
    # the compiled rho gives the panel sums of evaluate, in the same order
    tree = parse(rho)
    scale = max(abs(evaluate(tree, 0.5 + 0.5 * x, 0.0)) for x in existence._GL_NODES)

    def integrand(points):
        return [(abs(evaluate(tree, s, 0.0)) / scale) ** p for s in points]

    for p in existence._SWEEP_EXPONENTS:
        whole = existence._gl_panel(integrand, 0.0, 1.0)
        value = existence._adaptive(integrand, 0.0, 1.0, whole, 1e-10, 1e-12 * abs(whole), 0)
        want = scale * value ** (1.0 / p)
        assert rho_lp_norm(tree, p, 0.0, 1.0) == want, p
        assert math.isfinite(want) and want > 0.0


def test_rho_norm_samples_each_panel_once(monkeypatch):
    # the first panel, the whole-interval estimate, also sets the scale M,
    # so no pass of the compiled rho repeats a panel
    compile_expr, passes = existence.compile_expr, []

    def counted(tree, t):
        rho_at = compile_expr(tree, t)

        def counted_at(z):
            passes.append(tuple(t))
            return rho_at(z)

        return counted_at

    monkeypatch.setattr(existence, "compile_expr", counted)
    counts = []
    for p in existence._SWEEP_EXPONENTS:
        passes.clear()
        rho_lp_norm(parse("0.7*abs(t - 0.4132)"), p, 0.0, 1.0)
        assert len(set(passes)) == len(passes), p
        counts.append(len(passes))
    assert counts == [3, 3, 3, 11]


def _panels(monkeypatch, limit):
    # counts the 15-point panels that rho_lp_norm evaluates, and fails at
    # once past limit: a rule that runs away fails instead of hanging
    calls = itertools.count(1)
    panel = existence._gl_panel

    def counted(fn, lo, hi):
        assert next(calls) <= limit, f"more than {limit} panels"
        return panel(fn, lo, hi)

    monkeypatch.setattr(existence, "_gl_panel", counted)


@pytest.mark.parametrize("p", [2.5, 2.93, 3.3])
def test_rho_norm_of_a_kink_stops_at_the_integrals_tolerance(p, monkeypatch):
    # |rho|^p vanishes at the kink t0 like |t - t0|^p; a pair test relative
    # to each pair's own sum halved there 4563-6475 times, the one global
    # tolerance, 1e-12 of the integral, needs 31-43 panels
    _panels(monkeypatch, 64)
    k, t0 = 0.7, 0.4132
    want = (k**p * (t0 ** (p + 1.0) + (1.0 - t0) ** (p + 1.0)) / (p + 1.0)) ** (1.0 / p)
    got = rho_lp_norm(parse("0.7*abs(t - 0.4132)"), p, 0.0, 1.0)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_rho_norm_resolves_a_peak_the_first_panel_misses(monkeypatch):
    # the first 15 nodes miss the peak of width ~2e-3, so the global
    # tolerance from that estimate is far too tight; the per-pair relative
    # test still ends the halving, in no more panels than it alone takes
    _panels(monkeypatch, 291)
    got = rho_lp_norm(parse("exp(-1e5*(t - 0.35)^2)"), 2.0, 0.0, 1.0)
    assert got == pytest.approx((math.pi / 2e5) ** 0.25, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("p", [0.9999, 1.0001])
@pytest.mark.parametrize("rho, t0", [("t/16", 0.0), ("t/16 - 1/32", 0.5)])
def test_rho_norm_near_p_one_keeps_the_last_digits(rho, t0, p):
    # |rho|^p ~ |t - t0|^p next to a zero differs from a line by only
    # |p - 1| there, so consecutive panel sums agree long before the
    # panels are exact: 1e-10 of the integral left 3.4e-12 of it
    want = ((t0 ** (p + 1.0) + (1.0 - t0) ** (p + 1.0)) / (p + 1.0)) ** (1.0 / p) / 16.0
    got = rho_lp_norm(parse(rho), p, 0.0, 1.0)
    assert got == pytest.approx(want, rel=1e-13, abs=0.0)


# ---------------------------------------------------------------------------
# certificate
# ---------------------------------------------------------------------------


def test_certificate_paper_literal_inadmissible():
    spec, params = example()
    rep = certificate(spec, params)  # file exponent p = 1/2
    assert rep.verdict == "inadmissible"
    assert not rep.admissible
    assert "p > 1" in rep.failed_conditions
    assert "p > 1/mu" in rep.failed_conditions
    assert "p > 1/gamma" in rep.failed_conditions
    assert rep.rho_norm == pytest.approx(1.0 / 36.0, rel=1e-9)


def test_certificate_p4_satisfied_frozen():
    spec, params = example()
    rep = certificate(replace(spec, p=4.0), params)
    assert rep.verdict == "satisfied"
    assert rep.admissible
    assert rep.lambda_const == pytest.approx(LAMBDA_P4, rel=1e-10)
    assert rep.delta_const == pytest.approx(DELTA_P4, rel=1e-10)
    assert rep.rho_norm == pytest.approx(RHO_P4, rel=1e-10)
    assert rep.G == pytest.approx(G_P4, rel=1e-10)
    assert rep.L_star == pytest.approx(L_P4, rel=1e-10)
    assert rep.G < 1.0 and rep.L_star < 1.0
    assert sum(rep.terms_G) == pytest.approx(rep.G, rel=1e-14)
    assert sum(rep.terms_L) == pytest.approx(rep.L_star, rel=1e-14)


def test_certificate_scaled_rho_violated():
    spec, params = example()
    big = replace(spec, rho=parse("1000*(t/16)"), p=4.0)
    rep = certificate(big, params)
    assert rep.verdict == "violated"
    assert rep.G > 1.0


def test_certificate_scaling_linearity():
    spec, params = example()
    base = certificate(replace(spec, p=4.0), params)
    s = 7.5
    scaled = certificate(replace(spec, rho=parse(f"{s!r}*(t/16)"), p=4.0), params)
    assert scaled.rho_norm == pytest.approx(s * base.rho_norm, rel=1e-12)
    assert scaled.G == pytest.approx(s * base.G, rel=1e-12)
    assert scaled.L_star == pytest.approx(s * base.L_star, rel=1e-12)
    assert scaled.lambda_const == base.lambda_const
    assert scaled.delta_const == base.delta_const


def test_certificate_q_conjugacy():
    spec, params = example()
    for p in (0.5, 1.5, 2.5, 4.0, 8.0, 64.0):
        rep = certificate(replace(spec, p=p), params)
        assert abs(1.0 / rep.p + 1.0 / rep.q - 1.0) <= 1e-14


def test_certificate_monotone_in_interval_length():
    spec, params = example()
    previous = None
    for b in (1.0, 1.5, 2.0):
        stretched = replace(spec, b=b, p=4.0)
        rep = certificate(stretched, derive_params(stretched))
        if previous is not None:
            assert rep.G > previous
        previous = rep.G


def test_certificate_verdict_stable_under_tiny_perturbation():
    spec, params = example()
    base = certificate(replace(spec, p=4.0), params)
    assert base.verdict == "satisfied"
    for eps in (1e-12, -1e-12):
        bumped = replace(spec, c=spec.c * (1.0 + eps), p=4.0 * (1.0 + eps))
        rep = certificate(bumped, derive_params(bumped))
        assert rep.verdict == "satisfied"


def test_certificate_near_one_boundary_admissibility():
    # p slightly above 1/mu = 3 is admissible, slightly below is not
    spec, params = example()
    assert certificate(replace(spec, p=3.0 + 1e-6), params).admissible
    rep = certificate(replace(spec, p=3.0 - 1e-6), params)
    assert not rep.admissible
    assert rep.verdict == "inadmissible"


def test_sweep_reports():
    spec, params = example()
    reports, best = sweep_certificates(spec, params)
    assert [r.p for r in reports] == [4.0, 8.0, 16.0, 64.0]
    assert all(r.verdict == "satisfied" for r in reports)
    assert max(best.G, best.L_star) == min(max(r.G, r.L_star) for r in reports)
    # the literal constants 0.03 / 0.14 do not occur at any admissible p
    for r in reports:
        assert abs(r.G - 0.03) > 0.01
        assert abs(r.L_star - 0.14) > 0.01
