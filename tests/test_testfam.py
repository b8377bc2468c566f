"""Test potential catalogue: plane members, built apart in planes.py, and
inversion pullbacks."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from zerocert.criterion import margin_sweep
from zerocert.majorants import DSubharmonicMajorant, make_radial_power
from zerocert.measures import ZeroDistribution
from zerocert.testfam import (
    SmoothCappedLogFamily,
    TruncatedLogFamily,
    bump_cdf_integral,
    inversion_pullback,
)

import oracles
import planes
from planes import smooth_capped_log, truncated_log_plane


# ---------------------------------------------------------------------------
# the smoothing bump


def test_bump_cdf_integral_pins():
    assert abs(bump_cdf_integral(1.0) - 1.0) <= 1e-15
    assert abs(bump_cdf_integral(-1.0)) <= 1e-15
    assert abs(bump_cdf_integral(3.0) - 3.0) <= 1e-15
    assert bump_cdf_integral(-2.0) == 0.0


def _bump_cdf_integral_exact(x):
    x = Fraction(x)
    if x <= -1:
        return Fraction(0)
    if x >= 1:
        return x
    return (1 + x) ** 5 * (35 - 47 * x + 25 * x ** 2 - 5 * x ** 3) / 256


@settings(max_examples=300, deadline=None)
@given(x=st.one_of(st.floats(-1.5, 1.5),
                   st.sampled_from([-1.0, 1.0, 0.0]),
                   st.integers(1, 17).map(lambda k: -1.0 + 10.0 ** -k)))
def test_bump_cdf_integral_matches_exact_rationals(x):
    # the factored form keeps its relative accuracy down to x -> -1, where
    # the expanded power series cancels; that form stays an absolute check
    got = float(bump_cdf_integral(x))
    want = _bump_cdf_integral_exact(x)
    assert abs(Fraction(got) - want) <= Fraction(2e-15) * abs(want)
    assert abs(got - float(oracles.bump_cdf_integral_powers(x))) <= 2e-15


@settings(max_examples=50, deadline=None)
@given(x=st.floats(-3, 3))
def test_bump_cdf_integral_dominated_by_plus_part(x):
    # smooth version of max(x, 0): sandwiched between x and x + 1
    v = float(bump_cdf_integral(x))
    assert v >= max(x, 0.0) - 1e-12
    assert v <= max(x, 0.0) + 1.0


def _eval_pieces(pieces, x):
    val = 0.0
    for edge, coeffs in pieces:
        if x >= edge:
            val = sum(c * (x - edge) ** k for k, c in enumerate(coeffs))
    return val


@settings(max_examples=80, deadline=None)
@given(eps=st.floats(0.05, 1.0), x=st.floats(-3.0, 3.0),
       at=st.sampled_from([None, -1, 0, 1]))
def test_log_shapes_declare_their_pieces(eps, x, at):
    # each plane member's log shape is the polynomial its piece at x
    # declares, and 0 below its first edge; at puts x on an edge
    for p in (truncated_log_plane(1.7), smooth_capped_log(1.7, eps)):
        shape = p.log_shape
        edges = [e for e, _ in shape.pieces]
        assert edges == sorted(edges)
        if at is not None:
            x = at * eps if p.params.get("eps") else float(at)
        want = float(shape(x))
        assert abs(_eval_pieces(shape.pieces, x) - want) <= 1e-15 * max(
            1.0, abs(x)), (x, want)


# ---------------------------------------------------------------------------
# plane members


def test_truncated_log_eval_and_charge():
    p = truncated_log_plane(2.0)
    zs = np.array([0.1 + 0j, 0.5 + 0j, 3.0 + 4j])
    want = np.maximum(np.log(2.0 * np.abs(zs)), 0.0)
    assert np.allclose(np.asarray(p(zs), dtype=float), want)
    # unit ring charge at 1/t, seen as the flux through a circle outside it
    flux = oracles.flux_mass(p, 0j, 1.0)
    assert abs(flux - 1.0) <= 1e-6
    assert p.zero_radius == 0.5
    assert p.growth_coefficient == 1.0


def test_truncated_log_membership():
    rep = oracles.membership_report(truncated_log_plane(3.0))
    assert rep.ok
    names = [n for n, ok, d in rep.checks]
    assert "sub-mean" in names and "log-growth" in names


def test_smooth_capped_log_matches_truncated_outside_band():
    t = 2.0
    eps = 0.25
    p = smooth_capped_log(t, eps=eps)
    q = truncated_log_plane(t)
    zs = np.array([0.2, np.exp(-2 * eps) / t, np.exp(2 * eps) / t, 5.0]).astype(complex)
    assert np.allclose(np.asarray(p(zs), dtype=float), np.asarray(q(zs), dtype=float), atol=1e-12)
    # inside the band the smooth version dominates the kinked one
    zs = np.array([1.0 / t + 0j, 0.9 / t + 0j])
    assert np.all(np.asarray(p(zs), dtype=float) >= np.asarray(q(zs), dtype=float) - 1e-12)


def test_smooth_capped_log_charge_mass():
    p = smooth_capped_log(2.0, eps=0.25)
    # total smoothing mass is 1, spread over the annulus around 1/t
    flux = oracles.flux_mass(p, 0j, 10.0)
    assert abs(flux - 1.0) <= 1e-6


def test_smooth_capped_log_membership():
    assert oracles.membership_report(smooth_capped_log(2.0)).ok


# ---------------------------------------------------------------------------
# pullbacks


def test_inversion_pullback_of_truncated_log():
    t = 2.0
    p = truncated_log_plane(t)
    pb = inversion_pullback(p)
    assert pb.support_radius == 1.0 / p.zero_radius
    assert abs(pb.pole_coefficient - p.growth_coefficient) <= 1e-12
    # value at distance d from the pole is the plane value at 1/d
    for d in (0.1, 0.4, 1.9, 2.5):
        got = float(np.asarray(pb.radial_profile(np.array([d])), dtype=float)[0])
        want = float(np.asarray(p(np.array([1.0 / d + 0j])), dtype=float)[0])
        assert abs(got - want) <= 1e-12
    assert pb.kink_radii == (2.0,)


@pytest.mark.parametrize("make", [truncated_log_plane, smooth_capped_log])
def test_pullback_log_core_is_exact(make):
    # within log_core the spike is log_constant - ln d, as the sweep assumes
    pb = inversion_pullback(make(3.0))
    assert 0.0 < pb.log_core <= pb.support_radius
    d = pb.log_core * np.array([1e-6, 0.01, 0.5, 1.0])
    got = np.asarray(pb.radial_profile(d), dtype=float)
    assert np.allclose(got, pb.log_constant - np.log(d), rtol=0.0,
                       atol=1e-13)


@settings(max_examples=60, deadline=None)
@given(t=st.floats(0.05, 50.0))
# 1/(1/t) rounds one ulp above t, where the profile is already 0
@example(t=0.9777876609024794)
# and one ulp below it, where 12 ln(t / r) = 1.33e-15 is the true lhs
@example(t=0.9993836293623819)
def test_truncated_log_core_stays_inside_the_kink(t):
    # the core's closed form holds only up to t; a zero at 1/(1/t) is
    # swept to its exact value within the sweep's own rounding bound
    assert inversion_pullback(truncated_log_plane(t)).log_core <= t
    r = 1.0 / (1.0 / t)
    Z = ZeroDistribution.from_points([r], [12])
    curve = margin_sweep(Z, DSubharmonicMajorant(make_radial_power(1.0, 1.0)),
                         TruncatedLogFamily(t_min=t, t_max=t))
    want = 12.0 * max(0.0, math.log1p((t - r) / r))
    assert abs(curve.samples[0].lhs - want) <= curve.details["lhs_rounding"]


@pytest.mark.parametrize("make", [truncated_log_plane, smooth_capped_log])
def test_profiles_at_zero_and_infinity(make):
    # no guards: 1/0, 1/inf and ln 0 reach the right ends by themselves,
    # and nothing else raises a floating-point flag on the way
    p = make(3.0)
    pb = inversion_pullback(p)
    with np.errstate(all="raise"):
        assert float(p.radial_profile(0.0)) == 0.0
        assert float(pb.radial_profile(0.0)) == math.inf
        assert float(pb.radial_profile(math.inf)) == 0.0
        got = pb.radial_profile(np.array([0.0, 1.0, math.inf]))
    assert got[0] == math.inf and got[2] == 0.0
    assert got[1] == float(p.radial_profile(1.0))


def test_inversion_pullback_vanishes_outside_support():
    pb = inversion_pullback(truncated_log_plane(4.0))
    d = np.array([pb.support_radius * 1.01, 10.0])
    assert np.allclose(np.asarray(pb.radial_profile(d), dtype=float), 0.0)


# ---------------------------------------------------------------------------
# families


def test_truncated_family_tau_grid():
    fam = TruncatedLogFamily(t_min=0.5, t_max=200.0, ratio=2.0**0.25)
    taus = np.asarray(fam.taus())
    assert taus[0] >= 0.5
    assert abs(taus[-1] - 200.0) <= 1e-9
    ratios = taus[1:] / taus[:-1]
    assert np.all(ratios <= 2.0**0.25 + 1e-12)
    assert fam.kind == "truncated-log"


def test_family_member_is_membership_clean():
    fam = SmoothCappedLogFamily(t_min=1.0, t_max=10.0)
    p = planes.member(fam, 4.0)
    assert oracles.membership_report(p).ok
    assert fam.kind == "smooth-capped-log"
