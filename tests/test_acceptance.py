"""Acceptance gate: one test per criterion, one verdict line each.

Run with -s to see the verdict lines; every expected value is either a
closed form or cross-checked against the independent oracles module.
"""

import contextlib
import math
import time

import numpy as np

from zerocert import (
    CirclePart,
    DSubharmonicMajorant,
    JensenMeasure,
    PlanePowerProfile,
    Region,
    TruncatedLogFamily,
    ZeroDistribution,
    check_m0,
    check_mean_chain,
    lemma1_constants,
    log_potential,
    m0_dyadic_grid,
    make_harmonic,
    make_log_abs_poly,
    make_radial_power,
    margin_sweep,
    model_sum,
    poisson_jensen_check,
    potential_to_measure,
    uniform_circle,
    verify_sufficiency,
    weierstrass_log_abs,
)

import oracles


@contextlib.contextmanager
def _criterion(n, name):
    try:
        yield
    except BaseException:
        print("[ACCEPTANCE %d] %s: FAIL" % (n, name))
        raise
    print("[ACCEPTANCE %d] %s: PASS" % (n, name))


def _abs_majorant(sigma=1.0):
    return DSubharmonicMajorant(up=make_radial_power(sigma, 1.0))


def test_acceptance_1_poisson_jensen_identity():
    with _criterion(1, "representation identity on random polynomials"):
        rng = np.random.default_rng(1)
        mu = uniform_circle(0j, 3.0)
        t0 = time.perf_counter()
        for _ in range(25):
            deg = int(rng.integers(1, 6))
            r = 2.0 * np.sqrt(rng.uniform(0.0, 1.0, deg))
            th = rng.uniform(0.0, 2.0 * math.pi, deg)
            u = make_log_abs_poly(roots=r * np.exp(1j * th),
                                  mults=[1] * deg,
                                  lead=float(np.exp(rng.normal())))
            rep = poisson_jensen_check(u, mu)
            assert abs(rep.residual) <= 1e-6
        assert time.perf_counter() - t0 < 5.0


def test_acceptance_2_mean_chain_and_composite():
    with _criterion(2, "mean chain at 100 points for four models"):
        rng = np.random.default_rng(2)
        r = 3.0 * np.sqrt(rng.uniform(0.0, 1.0, 100))
        th = rng.uniform(0.0, 2.0 * math.pi, 100)
        pts = r * np.exp(1j * th)
        models = [
            make_log_abs_poly(roots=[0.7 - 0.4j]),
            make_radial_power(1.0, 2.0),
            make_radial_power(1.0, 1.0),
            model_sum(
                make_harmonic(
                    lambda z: np.real(np.asarray(z, dtype=complex) ** 2),
                    kind="re-z2"),
                make_radial_power(1.0, 1.0)),
        ]
        for m in models:
            rep = check_mean_chain(m, PlanePowerProfile(1.0), pts,
                                   slack=1e-8)
            assert rep.ok
            assert rep.max_violation <= rep.slack
            assert len(rep.rows) == 100


def test_acceptance_3_bijection_roundtrip():
    with _criterion(3, "measure to potential round trip"):
        gold = (math.sqrt(5.0) - 1.0) / 2.0
        rr = np.geomspace(0.02, 20.0, 200)
        th = 2.0 * math.pi * ((np.arange(200) * gold) % 1.0)

        def roundtrip_err(mu):
            V = log_potential(mu)
            V2 = log_potential(potential_to_measure(V))
            zs = mu.pole + rr * np.exp(1j * th)
            return float(np.max(np.abs(np.asarray(V(zs), float)
                                       - np.asarray(V2(zs), float))))

        assert roundtrip_err(uniform_circle(0.4 + 0.3j, 1.5)) <= 1e-6
        combo = JensenMeasure(
            pole=0j,
            parts=(CirclePart(0.6, 0.25), CirclePart(1.8, 0.45),
                   CirclePart(4.0, 0.2)),
            pole_mass=0.1)
        assert roundtrip_err(combo) <= 1e-6

        # the map is affine in the measure
        alpha = 0.37
        blend = JensenMeasure(
            pole=0j,
            parts=(CirclePart(1.0, alpha), CirclePart(3.0, 1.0 - alpha)),
            pole_mass=0.0)
        V1 = log_potential(uniform_circle(0j, 1.0))
        V2 = log_potential(uniform_circle(0j, 3.0))
        Vb = log_potential(blend)
        zs = rr * np.exp(1j * th)
        gap = np.abs(np.asarray(Vb(zs), float)
                     - alpha * np.asarray(V1(zs), float)
                     - (1 - alpha) * np.asarray(V2(zs), float))
        assert float(np.max(gap)) <= 1e-6


def test_acceptance_4_necessity_consistent_for_sine_lattice():
    with _criterion(4, "margin sweep consistent on the sine-type lattice"):
        Z = ZeroDistribution.real_multiples(step=math.pi,
                                            max_radius=math.pi * 1.0e4)
        fam = TruncatedLogFamily(t_min=1.0, t_max=200.0, ratio=1.25)
        curve = margin_sweep(Z, _abs_majorant(), fam)
        assert curve.verdict == "consistent"

        taus = np.array([s.tau for s in curve.samples])
        margins = np.array([s.margin for s in curve.samples])
        late = margins[taus >= 10.0]
        assert np.all(late < 0.0)
        assert np.all(np.diff(late) < 0.0)

        # slope of the linear tail: 2/pi - 1, fitted over the top half
        top = taus >= 100.0
        slope = float(np.polyfit(taus[top], margins[top], 1)[0])
        want = 2.0 / math.pi - 1.0
        assert abs(slope - want) <= 0.05 * abs(want)

        # spot check the spike sums against direct summation
        radii = oracles.pi_lattice_radii(10 ** 4)
        ones = np.ones_like(radii)
        for s in curve.samples[::6]:
            direct = 2.0 * oracles.margin_lhs_direct(radii, ones, s.tau)
            assert abs(s.lhs - direct) <= 1e-9 * (1.0 + abs(direct))


def test_acceptance_5_necessity_violated_for_gaussian_lattice():
    with _criterion(5, "margin sweep violated on the gaussian lattice"):
        Z = ZeroDistribution.gaussian_integers(max_radius=300.0)
        fam = TruncatedLogFamily(t_min=1.0, t_max=100.0, ratio=1.3)
        curve = margin_sweep(Z, _abs_majorant(), fam)
        assert curve.verdict == "violated"
        assert curve.growth_exponent is not None
        assert 1.8 <= curve.growth_exponent <= 2.2

        # quadratic spike growth, witnessed by direct lattice enumeration
        radii = oracles.gauss_lattice_radii(300.0)
        ones = np.ones_like(radii)
        tau = curve.samples[-1].tau
        direct = oracles.margin_lhs_direct(radii, ones, tau)
        assert abs(curve.samples[-1].lhs - direct) <= 1e-9 * (1.0 + direct)
        assert direct > (math.pi / 2.0) * 0.8 * tau ** 2


def test_acceptance_6_weierstrass_matches_sine():
    with _criterion(6, "canonical product against ln|sin z / z|"):
        Z = ZeroDistribution.real_multiples(step=math.pi)
        rng = np.random.default_rng(6)
        pts = []
        while len(pts) < 50:
            z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            if abs(z) > 5.0:
                continue
            k = round(z.real / math.pi)
            near = min(abs(z - math.pi * kk)
                       for kk in (k - 1, k, k + 1) if kk != 0)
            if near >= 0.1:
                pts.append(z)
        zs = np.asarray(pts)
        vals, budgets = weierstrass_log_abs(Z, 1, zs, K=10 ** 4)
        err = np.abs(vals - oracles.log_abs_sinc(zs))
        assert float(np.max(err)) <= 1e-3
        assert np.all(np.isfinite(budgets))


def test_acceptance_7_regularity_probe():
    with _criterion(7, "bounded circle-mean deviation for power majorants"):
        grid = m0_dyadic_grid(100.0, per_shell=8)
        for rho in (0.5, 1.0, 2.0):
            rep = check_m0(make_radial_power(1.0, rho), 1.0, grid, tol=1e-8)
            assert rep.bounded
            running = np.maximum.accumulate(np.asarray(rep.shell_sups))
            # the constant estimate settles: outermost shells within 1%
            assert running[-1] - running[-2] <= 0.01 * (1.0 + abs(running[-2]))
            assert math.isfinite(rep.c_estimate)

        harm = make_harmonic(
            lambda z: np.real(np.asarray(z, dtype=complex)), kind="re-z")
        rep = check_m0(harm, 1.0, grid, tol=1e-8)
        assert rep.bounded
        assert rep.c_estimate <= 1e-10


def test_acceptance_8_end_to_end_routes_agree():
    with _criterion(8, "construction versus necessity on two lattices"):
        fam = TruncatedLogFamily(t_min=1.0, t_max=50.0, ratio=2.0 ** 0.5)
        rng = np.random.default_rng(8)
        pts = rng.uniform(-4, 4, 30) + 1j * rng.uniform(-4, 4, 30)

        Z_sin = ZeroDistribution.real_multiples(step=math.pi)
        M2 = DSubharmonicMajorant(up=make_radial_power(2.0, 1.0))
        curve = margin_sweep(Z_sin, M2, fam)
        rep = verify_sufficiency(Z_sin, M2, PlanePowerProfile(1.0), pts,
                                 K=10 ** 4, margin_verdict=curve.verdict)
        assert curve.verdict == "consistent"
        assert rep.certified and rep.violations == 0
        assert rep.margin_verdict == "consistent"

        Z_g = ZeroDistribution.gaussian_integers(max_radius=300.0)
        curve_g = margin_sweep(Z_g, _abs_majorant(), fam)
        rep_g = verify_sufficiency(Z_g, _abs_majorant(), PlanePowerProfile(1.0),
                                   pts, K=2000, margin_verdict=curve_g.verdict)
        assert curve_g.verdict == "violated"
        assert not rep_g.certified
        assert rep_g.margin_verdict == "violated"

        # a certificate next to a violated margin (or the reverse) is a
        # hard failure of the engine, not a tolerance issue
        assert not (rep.certified and curve.verdict != "consistent")
        assert not (rep_g.certified and curve_g.verdict == "violated")


def test_acceptance_9_comparison_constants():
    with _criterion(9, "comparison constants in the unit-disk geometry"):
        roots = [0.3 + 0j, -0.2 + 0.4j, 0.1 - 0.6j]
        mults = [1, 2, 1]
        M = DSubharmonicMajorant(up=make_log_abs_poly(roots=roots,
                                                      mults=mults))
        c = lemma1_constants(Region.disk(0j, 1.0), Region.disk(0j, 0.5),
                             0j, 1.0, M)
        assert abs(c.c_test - 1.0 / math.log(2.0)) <= 1e-10

        # atom sum: each root contributes mult * ln(1 / |root|), plus the
        # positive part of the value at the pole
        want = sum(m * math.log(1.0 / abs(a)) for a, m in zip(roots, mults))
        want += max(0.0, sum(m * math.log(abs(a))
                             for a, m in zip(roots, mults)))
        assert math.isfinite(c.c_majorant)
        assert abs(c.c_majorant - want) <= 1e-8
