"""Canonical products, genus selection, and the sufficiency verifier."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zerocert import (
    DSubharmonicMajorant,
    GenusOverflow,
    NotSummable,
    PlanePowerProfile,
    TruncatedLogFamily,
    ZeroDistribution,
    build_product,
    build_sufficiency_grid,
    genus,
    make_log_abs_poly,
    make_radial_power,
    margin_sweep,
    verify_sufficiency,
    weierstrass_log_abs,
)
from zerocert.construct import (
    _FAR_TERMS,
    ProductRepresentation,
    _far_orders,
    _log_E_complex,
    _sum_log_E,
)

import oracles


# ---------------------------------------------------------------------------
# genus


def test_genus_catalogue():
    assert genus(ZeroDistribution.real_multiples(step=np.pi)) == 1
    assert genus(ZeroDistribution.gaussian_integers()) == 2
    assert genus(ZeroDistribution.from_points([1.0, 2.0, 3.0], [1, 1, 1])) == 0


def test_genus_overflow():
    with pytest.raises(GenusOverflow):
        genus(ZeroDistribution.real_multiples(step=np.pi), max_genus=0)


def test_genus_reads_radii_not_points(monkeypatch):
    # a bounded Gaussian lattice reaching past the probe radius is probed
    # through its norms: no point is formed
    asked = []
    enumerate_points = ZeroDistribution.points_up_to

    def recording(self, radius):
        asked.append(radius)
        return enumerate_points(self, radius)

    monkeypatch.setattr(ZeroDistribution, "points_up_to", recording)
    Z = ZeroDistribution.gaussian_integers(scale=4.0, max_radius=5000.0)
    assert genus(Z) == 2
    assert asked == []


_DYADIC = [2.0 ** k for k in range(12)]


# (zeros, K, genus, cutoff, retained, tail_sum_bound) for each kind
@pytest.mark.parametrize("make,K,p,cutoff,retained,tail", [
    # an explicit set is probed whole: the heavy point at 8192, beyond the
    # probe radius 4096, lifts the genus from 0 to 3
    (lambda: ZeroDistribution.from_points(_DYADIC + [8192.0],
                                          [1] * 12 + [100]),
     5, 3, 16.0, 5, 1.017252622581566e-06),
    (lambda: ZeroDistribution.from_points(_DYADIC),
     5, 0, 16.0, 5, 0.06201171875),
    (lambda: ZeroDistribution.real_multiples(step=np.pi),
     100, 1, 314.1592653589793, 200, 0.0020264236728467556),
    (lambda: ZeroDistribution.gaussian_integers(),
     50, 2, 7.978845608028654, 192, 1.0098217712268827),
    # truncated lattices: max_radius lies below the K-cutoff, so the
    # cutoff is clamped to it and nothing is left beyond
    (lambda: ZeroDistribution.real_multiples(step=1.0, max_radius=10.5),
     100, 1, 10.5, 20, 0.0),
    (lambda: ZeroDistribution.gaussian_integers(scale=0.5, max_radius=3.0),
     1000, 0, 3.0, 112, 0.0),
])
def test_genus_and_cutoff_per_kind(make, K, p, cutoff, retained, tail):
    Z = make()
    assert genus(Z) == p
    prod = build_product(Z, K=K)
    assert prod.genus == p
    assert prod.cutoff_radius == cutoff
    assert prod.retained == retained
    assert prod.tail_sum_bound == tail


# ---------------------------------------------------------------------------
# primary factors


@settings(max_examples=60, deadline=None)
@given(
    re=st.floats(-0.5, 0.5),
    im=st.floats(-0.5, 0.5),
    p=st.integers(0, 4),
)
def test_log_E_tail_bound(re, im, p):
    u = complex(re, im)
    if abs(u) > 0.5:
        return
    v = complex(_log_E_complex(np.array([u]), p)[0])
    assert abs(v) <= 2.0 * abs(u) ** (p + 1) / (p + 1) + 1e-15


def test_log_E_matches_series_across_bins():
    # the evaluator switches series length at |u| = 0.1 and 0.5
    for p in (1, 2):
        for mag in (0.099, 0.101, 0.499, 0.501, 0.9):
            for ang in (0.3, 2.0, 4.0):
                u = mag * np.exp(1j * ang)
                got = complex(_log_E_complex(np.array([u]), p)[0])
                want = oracles.log_E_series(u, p, terms=3000)
                assert abs(got - want) <= 1e-13 * (1.0 + abs(want))


def test_log_E_direct_branch_identity():
    # for |u| > 1/2 the evaluator goes through ln(1 - u) directly
    u = 0.8 + 0.3j
    got = complex(_log_E_complex(np.array([u]), 1)[0])
    want = np.log(1.0 - u) + u
    assert abs(got - want) <= 1e-14


# ---------------------------------------------------------------------------
# products


def test_product_matches_sine_oracle():
    Z = ZeroDistribution.real_multiples(step=np.pi)
    prod = build_product(Z, 1, K=2000)
    zs = np.array([0.5 + 0.5j, 2.0 - 1j, 1.0j, 4.4 + 0.1j])
    got = np.asarray(prod.log_abs(zs), dtype=float)
    want = oracles.log_abs_sinc(zs)
    budget = np.asarray(prod.tail_budget(zs), dtype=float)
    assert np.all(np.isfinite(budget))
    assert np.max(np.abs(got - want) - budget) <= 1e-12


def test_weierstrass_log_abs_wrapper():
    Z = ZeroDistribution.real_multiples(step=np.pi)
    z = np.array([1.0 + 1j])
    vals, budgets = weierstrass_log_abs(Z, 1, z, K=2000)
    want = float(oracles.log_abs_sinc(z)[0])
    assert abs(float(vals[0]) - want) <= float(budgets[0])
    assert float(budgets[0]) <= 5e-4


def test_product_guard_blanks_lattice_points():
    Z = ZeroDistribution.real_multiples(step=np.pi)
    prod = build_product(Z, 1, K=100)
    vals = np.asarray(prod.log_abs(np.array([np.pi + 0j, np.pi + 1e-14j])), dtype=float)
    assert np.all(np.isneginf(vals))


def test_tail_budget_requires_cutoff_margin():
    Z = ZeroDistribution.real_multiples(step=np.pi)
    prod = build_product(Z, 1, K=100)
    # cutoff is 100 pi; points beyond half the cutoff get an infinite budget
    inside = float(prod.tail_budget(np.array([10.0 + 0j]))[0])
    outside = float(prod.tail_budget(np.array([200.0 + 0j]))[0])
    assert np.isfinite(inside)
    assert np.isposinf(outside)


def test_product_finite_zero_set_is_polynomial():
    Z = ZeroDistribution.from_points([1.0 + 0j, -2.0 + 0j], [2, 1])
    prod = build_product(Z, 0, K=10)
    z = np.array([0.5 + 0.5j])
    got = float(prod.log_abs(z)[0])
    # genus-0 factors are (1 - z/a); compare against the direct product
    want = float(
        np.log(np.abs((1 - z / 1.0) ** 2 * (1 + z / 2.0)))[0]
    )
    assert abs(got - want) <= 1e-12
    assert float(prod.tail_budget(z)[0]) == 0.0


def _sum_log_E_direct(z, points, mults, p):
    # the all-pairs reference: every factor through _log_E_complex
    u = np.asarray(z, dtype=complex)[:, None] / np.asarray(points)[None, :]
    terms = _log_E_complex(u, p) * np.asarray(mults, dtype=float)[None, :]
    return terms.sum(axis=1), np.abs(terms).sum(axis=1)


def _check_sum_log_E(z, points, mults, p):
    got = _sum_log_E(z, points, mults, p)
    want, scale = _sum_log_E_direct(z, points, mults, p)
    assert np.all(np.abs(got - want) <= 1e-13 * (1.0 + scale))


@settings(max_examples=40, deadline=None)
@given(
    p=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
    n_near=st.integers(0, 6),
    n_far=st.integers(0, 300),
)
def test_sum_log_E_far_field_matches_direct(p, seed, n_near, n_far):
    rng = np.random.default_rng(seed)
    z = 2.0 * np.sqrt(rng.uniform(0, 1, 25)) * np.exp(2j * np.pi * rng.uniform(0, 1, 25))
    R = 2.0 * np.abs(z).max()
    radii = np.concatenate((rng.uniform(0.05, R, n_near),
                            R * np.exp(rng.exponential(2.0, n_far))))
    pts = radii * np.exp(2j * np.pi * rng.uniform(0, 1, radii.size))
    mults = rng.integers(1, 4, pts.size)
    _check_sum_log_E(z, pts, mults, p)


@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_sum_log_E_edge_cases(p):
    z = np.array([0j, 0.3 - 0.4j, -1.5 + 0.5j, 2.0j])
    R = 2.0 * np.abs(z).max()
    ring = np.exp(1j * np.array([0.1, 1.7, 3.0, 4.4]))
    # zeros just inside and just outside the split radius 2 max|z|
    edge = np.concatenate((R * (1 - 1e-12) * ring[:2], R * (1 + 1e-12) * ring[2:]))
    far = 10.0 * R * np.exp(1j * np.arange(1.0, 40.0))
    _check_sum_log_E(z, np.concatenate((edge, far)), np.arange(1, 44) % 3 + 1, p)
    # no zero inside the split radius
    _check_sum_log_E(z, far, np.ones(far.size), p)
    # a grid at the origin only: every factor is exactly 1
    assert np.all(_sum_log_E(np.zeros(3, dtype=complex), far, np.ones(far.size), p) == 0)


@settings(max_examples=60, deadline=None)
@given(p=st.integers(0, 3), seed=st.integers(0, 2**32 - 1),
       n_near=st.integers(0, 5), n_far=st.integers(0, 200))
def test_sum_log_E_matches_the_fixed_series(p, seed, n_near, n_far):
    # each far zero stops after its own T_a orders; the 64-order series of
    # every far zero differs from it by at most the budget's series term
    # (plus rounding)
    rng = np.random.default_rng(seed)
    z = 2.0 * np.sqrt(rng.uniform(0, 1, 25)) * np.exp(2j * np.pi * rng.uniform(0, 1, 25))
    R = 2.0 * np.abs(z).max()
    v = np.concatenate((
        [0.5 * (1 - 2.0 ** -52), 0.5, 0.5 * (1 + 1e-12), 0.5 * (1 - 1e-12),
         1e-8, 1e-8 * (1 + 1e-9), 1 - 1e-12],
        np.exp(-rng.exponential(3.0, n_far))))
    radii = np.concatenate((rng.uniform(0.05, R, n_near), R / v))
    pts = radii * np.exp(2j * np.pi * rng.uniform(0, 1, radii.size))
    mults = rng.integers(1, 4, pts.size)
    near = np.abs(pts) <= R
    got = _sum_log_E(z, pts, mults, p)
    far = oracles.far_series_fixed(z, pts, mults, p)
    # with every term positive the series' size is the sum of its terms' sizes
    scale = -oracles.far_series_fixed(np.abs(z), np.abs(pts), mults, p).real
    nearby = _sum_log_E(z, pts[near], mults[near], p)
    power_sum = np.sum(mults * np.abs(pts) ** -(p + 1.0))
    series = 2.0 ** (1 - _FAR_TERMS) / (p + _FAR_TERMS + 1) * power_sum * np.abs(z) ** (p + 1)
    rounding = 64 * np.finfo(float).eps * (scale + np.abs(nearby))
    assert np.all(np.abs(got - (far + nearby)) <= series + rounding)


@settings(max_examples=200, deadline=None)
@given(p=st.integers(0, 8), v=st.floats(1e-300, 1.0, exclude_max=True))
def test_far_orders_keep_each_tail_within_its_share(p, v):
    # |z/a| <= |v|/2, and (|v|/2)^T_a must stay under 2^-64 / (p + 65)
    T = int(_far_orders(np.array([v]), p)[0])
    assert 1 <= T <= _FAR_TERMS
    if v >= 0.5:
        assert T == _FAR_TERMS
    else:
        assert T * math.log2(v / 2.0) <= -_FAR_TERMS - math.log2(p + _FAR_TERMS + 1)


def test_far_series_work_counts():
    # sum_log_E reports the far zeros and the orders they keep: at p = 1,
    # |R/a| in [1/2, 1) keeps 64, [1/4, 1/2) 36, [1/8, 1/4) 24, and
    # 1e-8 < 2^-26 keeps ceil((64 + log2 66) / 27) = 3
    z = np.array([1.0 + 0j, -0.5j])
    pts = 2.0 / np.array([0.75, 0.5, 0.4999, 0.2, 1e-8])
    work = {}
    _sum_log_E(z, np.concatenate((pts, [0.5j])), np.ones(6), 1, work)
    assert work == {"far_zeros": 5, "far_terms": 64 + 64 + 36 + 24 + 3}
    _sum_log_E(np.zeros(0, dtype=complex), pts, np.ones(5), 1, work)
    assert work == {"far_zeros": 0, "far_terms": 0}


def test_guard_mask_near_zeros_only_matches_full():
    rng = np.random.default_rng(3)
    pts = np.concatenate((np.pi * np.arange(1, 400), -np.pi * np.arange(1, 400),
                          30.0 * rng.standard_normal(200) + 30j * rng.standard_normal(200)))
    prod = ProductRepresentation(
        genus=2, points=pts, mults=np.ones(pts.size), origin_mult=1,
        cutoff_radius=1e300, tail_sum_bound=0.0, guard=1e-6)
    z = np.concatenate((rng.uniform(-20, 20, 300) + 1j * rng.uniform(-5, 5, 300),
                        pts[[0, 5, 398, 400]] + 5e-7, [0j, 3e-7j, 1e-5 + 0j]))
    full = np.abs(z[:, None] - pts[None, :]).min(axis=1) <= prod.guard
    full |= np.abs(z) <= prod.guard
    assert np.array_equal(prod._guard_mask(z), full)
    assert full.sum() == 6


def test_budget_adds_far_series_truncation():
    # a finite zero set discards nothing: the budget is the series term alone
    Z = ZeroDistribution.from_points([1.0 + 0j, -2.0 + 0j, 3.0j], [2, 1, 1])
    prod = build_product(Z, 1, K=10)
    z = np.array([0.5 + 0.5j, 1.2 - 0.4j, 0j])
    assert np.all(prod.tail_budget(z) == 0.0)
    power_sum = 2.0 / 1.0 + 1.0 / 4.0 + 1.0 / 9.0
    want = 2.0 ** (1 - _FAR_TERMS) / (_FAR_TERMS + 2) * np.abs(z) ** 2 * power_sum
    assert np.allclose(prod.budget(z), want, rtol=1e-14, atol=0.0)
    # on the sine product the series term sits below the last bit of the tail
    prod = build_product(ZeroDistribution.real_multiples(step=np.pi), 1, K=20000)
    assert np.array_equal(prod.budget(z), prod.tail_budget(z))


def test_not_summable_for_undersized_genus():
    Z = ZeroDistribution.gaussian_integers()
    with pytest.raises(NotSummable):
        build_product(Z, 0, K=100)


# ---------------------------------------------------------------------------
# remainder and sufficiency


def test_remainder_values():
    prof = PlanePowerProfile(1.0)
    assert prof.remainder(1.0 + 1j) == 0.0
    from zerocert import DiskFractionProfile

    dprof = DiskFractionProfile(0.2, 0j, 2.0)
    # disk: -ln r(z), with r(1) = 0.2 * (2 - 1)
    got = dprof.remainder(1.0 + 0j)
    assert abs(got + np.log(0.2 * 1.0)) <= 1e-12


def test_sufficiency_certifies_sine_zeros():
    Z = ZeroDistribution.real_multiples(step=np.pi)
    M = DSubharmonicMajorant(up=make_radial_power(1.0, 1.0))
    rng = np.random.default_rng(5)
    pts = rng.uniform(-4, 4, 30) + 1j * rng.uniform(-4, 4, 30)
    fam = TruncatedLogFamily(t_min=1.0, t_max=50.0, ratio=2.0**0.5)
    rep = verify_sufficiency(Z, M, PlanePowerProfile(1.0), pts, K=2000,
                             margin_verdict=margin_sweep(Z, M, fam).verdict)
    assert rep.certified
    assert rep.reason == "ok"
    assert rep.genus == 1
    assert rep.violations == 0
    assert rep.margin_verdict == "consistent"


def test_sufficiency_masks_the_guard_zones_once(monkeypatch):
    # the grid is masked once; the product's values on the points left
    # are log_abs's, which masks them again, bit for bit.  Two grid points
    # sit in a guard zone (a zero and one 1e-13 from another)
    Z = ZeroDistribution.real_multiples(step=np.pi)
    M = DSubharmonicMajorant(up=make_radial_power(1.0, 1.0))
    rng = np.random.default_rng(8)
    pts = np.concatenate((rng.uniform(-4, 4, 30) + 1j * rng.uniform(-4, 4, 30),
                          [np.pi + 0j, -2.0 * np.pi + 1e-13j]))
    calls = []
    guard = ProductRepresentation._guard_mask

    def counted(self, z):
        calls.append(np.asarray(z).size)
        return guard(self, z)

    monkeypatch.setattr(ProductRepresentation, "_guard_mask", counted)
    rep = verify_sufficiency(Z, M, PlanePowerProfile(1.0), pts, K=2000)
    assert calls == [pts.size]
    assert rep.skipped_guard == 2 and rep.checked == pts.size - 2
    prod = build_product(Z, rep.genus, K=2000)
    assert np.array_equal(rep.log_abs, prod.log_abs(rep.z))


def test_sufficiency_refuses_on_violated_margin():
    Z = ZeroDistribution.gaussian_integers(max_radius=120.0)
    M = DSubharmonicMajorant(up=make_radial_power(1.0, 1.0))
    pts = np.array([0.5 + 0.5j])
    fam = TruncatedLogFamily(t_min=1.0, t_max=40.0, ratio=2.0**0.5)
    rep = verify_sufficiency(Z, M, PlanePowerProfile(1.0), pts, K=500,
                             margin_verdict=margin_sweep(Z, M, fam).verdict)
    assert not rep.certified
    assert rep.reason == "margin-violated"
    assert rep.margin_verdict == "violated"


def test_sufficiency_certificate_is_strict():
    # 1000 points where |z| / 4 dominates ln|sin z / z|, and one where it
    # does not: a single point in excess refuses the certificate
    Z = ZeroDistribution.real_multiples(step=np.pi)
    M = DSubharmonicMajorant(up=make_radial_power(0.25, 1.0))
    rng = np.random.default_rng(2)
    pts = np.concatenate((rng.uniform(-3.0, 3.0, 1000) + 0.01j, [5.0j]))
    rep = verify_sufficiency(
        Z, M, PlanePowerProfile(1.0), pts, K=2000
    )
    assert rep.checked == 1001
    assert rep.violations == 1
    assert not rep.certified
    assert rep.reason == "excess-at-grid"
    assert rep.z[~rep.ok].tolist() == [5j]


def test_sufficiency_fails_for_undersized_majorant():
    # half of |z| cannot dominate the sine-type product
    Z = ZeroDistribution.real_multiples(step=np.pi)
    M = DSubharmonicMajorant(up=make_radial_power(0.25, 1.0))
    rng = np.random.default_rng(11)
    pts = rng.uniform(-6, 6, 40) + 1j * rng.uniform(-6, 6, 40)
    rep = verify_sufficiency(
        Z, M, PlanePowerProfile(1.0), pts, K=2000
    )
    assert not rep.certified
    assert rep.violations > 0


def test_sufficiency_refuses_a_grid_with_one_point_in_excess():
    # the unit Gaussian integers under 1.4|z|^2 on 200 random points of
    # radius 3 (seed 7): the canonical product clears every point but one,
    # which sticks out by about 0.08, far more than rounding, so the
    # certificate is refused
    Z = ZeroDistribution.gaussian_integers()
    M = DSubharmonicMajorant(up=make_radial_power(1.4, 2.0))
    pts = build_sufficiency_grid(
        {"kind": "random-disk", "radius": 3.0, "count": 200}, seed=7)
    rep = verify_sufficiency(Z, M, PlanePowerProfile(1.0), pts)
    assert not rep.certified and rep.reason == "excess-at-grid"
    assert rep.genus == 2 and rep.checked == 200
    assert rep.violations == 1
    assert 0.05 < rep.max_excess < 0.1
    assert np.array_equal(rep.ok, rep.excess <= 0)


def test_sufficiency_certifies_under_a_lower_part():
    # pi k under |z| - ln|z - (0.5 + 0.5i)|: the lower part lowers the
    # bound by ln|z - a| at every point and still leaves room on 100
    # random points of radius 4
    Z = ZeroDistribution.real_multiples(step=np.pi)
    a = 0.5 + 0.5j
    up = make_radial_power(1.0, 1.0)
    M = DSubharmonicMajorant(up=up, low=make_log_abs_poly(roots=[a]))
    pts = build_sufficiency_grid(
        {"kind": "random-disk", "radius": 4.0, "count": 100}, seed=0)
    rep = verify_sufficiency(Z, M, PlanePowerProfile(1.0), pts, K=2000)
    assert rep.certified and rep.violations == 0 and rep.checked == 100
    assert -0.6 < rep.max_excess < -0.5
    plain = verify_sufficiency(Z, DSubharmonicMajorant(up=up),
                               PlanePowerProfile(1.0), pts, K=2000)
    want = plain.bound - np.log(np.abs(rep.z - a))
    assert np.allclose(rep.bound, want, rtol=0.0, atol=1e-13)
