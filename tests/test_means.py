"""Circle, disk, and mollified means; radius profiles and their enlargement."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zerocert import (
    SQRT_E,
    DiskFractionProfile,
    PlanePowerProfile,
    PreconditionViolation,
    check_mean_chain,
    circle_mean,
    disk_mean,
    hat_radius,
    make_harmonic,
    make_log_abs_poly,
    make_radial_power,
    model_sum,
    mollified_mean,
)

import oracles


def _usq(z):
    return np.abs(np.asarray(z, dtype=complex)) ** 2


def _ulog(z):
    return np.log(np.abs(np.asarray(z, dtype=complex)))


# ---------------------------------------------------------------------------
# means


def test_circle_mean_log_kernel():
    # enclosed pole: mean of ln|w - 1| over |w| = 2 is ln 2
    val, err = circle_mean(lambda z: np.log(np.abs(z - 1.0)), 0j, 2.0)
    assert abs(val - np.log(2.0)) <= 1e-8
    # pole outside: mean is ln of the center distance
    val, err = circle_mean(lambda z: np.log(np.abs(z - 5.0)), 0j, 2.0)
    assert abs(val - np.log(5.0)) <= 1e-8


def test_circle_mean_square():
    val, err = circle_mean(_usq, 1.0 + 0j, 1.0)
    assert abs(val - 2.0) <= 1e-9


def test_disk_mean_square():
    val, err = disk_mean(_usq, 0j, 1.0)
    assert abs(val - 0.5) <= 1e-9
    ref = oracles.disk_mean_grid(_usq, 0j, 1.0)
    assert abs(val - ref) <= 1e-5


def test_disk_mean_log():
    # 2 int_0^1 s ln s ds = -1/2
    val, err = disk_mean(_ulog, 0j, 1.0)
    assert abs(val + 0.5) <= 1e-7


def test_disk_mean_offcenter_matches_grid():
    val, err = disk_mean(_usq, 1.0 + 1j, 0.7)
    ref = oracles.disk_mean_grid(_usq, 1.0 + 1j, 0.7)
    assert abs(val - ref) <= 1e-5


def test_mollified_mean_square():
    # 8 int_0^1 s^3 (1 - s^2)^3 ds = 1/5
    val, err = mollified_mean(_usq, 0j, 1.0)
    assert abs(val - 0.2) <= 1e-9
    ref = oracles.mollified_mean_grid(_usq, 0j, 1.0)
    assert abs(val - ref) <= 1e-5


def test_mollified_mean_constant_is_unit_mass():
    val, err = mollified_mean(lambda z: np.ones_like(np.real(z)), 0.5j, 2.0)
    assert abs(val - 1.0) <= 1e-10


def _closed_form_models():
    return [make_radial_power(1.0, 1.0), make_radial_power(0.5, 2.0),
            make_log_abs_poly(roots=[0.7 - 0.4j, -1.0], mults=[1, 2]),
            model_sum(make_harmonic(
                lambda z: np.real(np.asarray(z, dtype=complex) ** 2)),
                make_radial_power(1.0, 1.0)),
            make_harmonic(lambda z: np.imag(np.asarray(z, dtype=complex)))]


@settings(max_examples=20, deadline=None)
@given(zs=st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
                             st.floats(0.0, 4.0)), min_size=1, max_size=10))
def test_circle_mean_arrays_match_closed_form_per_point(zs):
    z = np.array([complex(x, y) for x, y, _ in zs])
    t = np.array([r for _, _, r in zs])
    for u in _closed_form_models():
        # exact equality, NaN included (|z| at z = 0 and t ~ 1e-308)
        want = [float(u.exact_circle_mean(np.array([zi]), ti)[0])
                for zi, ti in zip(z, t)]
        means, errs = circle_mean(u, z, t)
        assert means.shape == errs.shape == z.shape
        np.testing.assert_array_equal(means, want)
        assert not errs.any()
        scalar = [circle_mean(u, complex(zi), float(ti)) for zi, ti in zip(z, t)]
        assert all(type(m) is float and e == 0.0 for m, e in scalar)
        np.testing.assert_array_equal([m for m, _ in scalar], want)
        # one centre, many radii: a closed form that ignores t is broadcast
        means, errs = circle_mean(u, complex(z[0]), t)
        assert means.shape == errs.shape == t.shape
        np.testing.assert_array_equal(
            means, [float(u.exact_circle_mean(np.array([z[0]]), ti)[0])
                    for ti in t])


@settings(max_examples=20, deadline=None)
@given(t=st.floats(0.05, 3.0))
def test_sqrt_e_bridge_for_log_kernel(t):
    # disk mean at sqrt(e) t equals circle mean at t for ln|w| about 0
    dm, de = disk_mean(_ulog, 0j, SQRT_E * t)
    cm, ce = circle_mean(_ulog, 0j, t)
    assert abs(dm - cm) <= 1e-7


# ---------------------------------------------------------------------------
# radius profiles


def test_plane_profile_hat_origin():
    hat = hat_radius(PlanePowerProfile(1.0), 0j)
    # r(0) = 1 and the largest r on |w| = 1 is 1/2
    assert abs(hat.value - 1.5) <= 1e-9
    assert hat.certified_upper >= hat.value
    assert hat.certified_upper - hat.value <= 1e-3


def test_plane_profile_hat_offcenter():
    hat = hat_radius(PlanePowerProfile(1.0), 3.0 + 0j)
    # r(3) = 1/4; max over the circle sits at the inward point: 1/(1 + 2.75)
    want = 0.25 + 1.0 / 3.75
    assert abs(hat.value - want) <= 1e-9
    assert hat.certified_upper - hat.value <= 1e-6


def test_constant_profile_hat_exact():
    hat = hat_radius(PlanePowerProfile(0.0), 2.0 + 1j)
    assert hat.value == 2.0
    assert hat.certified_upper >= 2.0


@settings(max_examples=30, deadline=None)
@given(
    power=st.floats(0.0, 3.0),
    x=st.floats(-5, 5),
    y=st.floats(-5, 5),
)
def test_hat_dominates_pointwise_samples(power, x, y):
    prof = PlanePowerProfile(power)
    z = complex(x, y)
    hat = hat_radius(prof, z)
    r0 = prof.radius(z)
    th = np.linspace(0.0, 2 * np.pi, 64)
    probe = r0 + np.max(prof.radius(z + r0 * np.exp(1j * th)))
    assert hat.certified_upper >= probe - 1e-12
    assert hat.certified_upper >= hat.value


def _hat_agrees_with_bnb(prof, z):
    hat = hat_radius(prof, z)
    best, upper = oracles.hat_radius_bnb(prof, z)
    # the oracle brackets the supremum between its best sample and its bound
    assert best - 1e-14 <= hat.value <= upper + 1e-14
    assert abs(hat.value - best) <= 1e-12 * (1.0 + best)
    # the padding covers every rounded sample, and stays a few ulps wide
    assert best <= hat.certified_upper <= hat.value + 1e-12
    return hat


@settings(max_examples=40, deadline=None)
@given(
    power=st.floats(0.0, 3.0),
    rad=st.floats(0.0, 6.0),
    ang=st.floats(0.0, 2 * np.pi),
)
def test_plane_hat_matches_bnb_oracle(power, rad, ang):
    _hat_agrees_with_bnb(PlanePowerProfile(power), rad * np.exp(1j * ang))


@settings(max_examples=40, deadline=None)
@given(
    fraction=st.floats(0.05, 0.4),
    share=st.floats(0.0, 0.95),
    ang=st.floats(0.0, 2 * np.pi),
)
def test_disk_hat_matches_bnb_oracle(fraction, share, ang):
    prof = DiskFractionProfile(fraction, 0.5 - 1j, 3.0)
    _hat_agrees_with_bnb(prof, prof.center + share * prof.R * np.exp(1j * ang))


def test_hat_closed_form_when_circle_encloses_anchor():
    # r(0.1) = 1/1.1 > 0.1: the circle about 0.1 winds around the origin,
    # and the nearest point to it lies at distance r0 - 0.1
    prof = PlanePowerProfile(1.0)
    hat = _hat_agrees_with_bnb(prof, 0.1 + 0j)
    r0 = 1.0 / 1.1
    assert abs(hat.value - (r0 + 1.0 / (1.0 + r0 - 0.1))) <= 1e-15
    # r = 0.3 (3 - 0.2) = 0.84 > 0.2: the circle winds around the centre
    dprof = DiskFractionProfile(0.3, 1.0 + 1j, 3.0)
    hat = _hat_agrees_with_bnb(dprof, 1.2 + 1j)
    assert abs(hat.value - (0.84 + 0.3 * (3.0 - (0.84 - 0.2)))) <= 1e-15


def test_disk_profile_hat_small_fraction():
    prof = DiskFractionProfile(0.3, 0j, 4.0)
    hat = hat_radius(prof, 1.0 + 0j)
    # alpha (2 + alpha) d with d = 3: closed form for points away from the center
    assert abs(hat.value - 0.3 * 2.3 * 3.0) <= 1e-9
    assert hat.certified_upper < 3.0


def test_disk_profile_enlargement_reaches_boundary():
    prof = DiskFractionProfile(0.5, 0j, 1.0)
    # alpha (2 + alpha) = 1.25 >= 1: the enlarged disk escapes
    with pytest.raises(PreconditionViolation):
        hat_radius(prof, 0.5 + 0j)


@settings(max_examples=30, deadline=None)
@given(power=st.floats(0.0, 3.0), fraction=st.floats(0.05, 0.4),
       seed=st.integers(0, 2**32 - 1))
def test_hat_radius_arrays_match_scalar_calls(power, fraction, seed):
    rng = np.random.default_rng(seed)
    dprof = DiskFractionProfile(fraction, 0.5 - 1j, 3.0)
    for prof, pts in (
            (PlanePowerProfile(power),
             rng.uniform(-6, 6, 40) + 1j * rng.uniform(-6, 6, 40)),
            (dprof, dprof.center + 2.9 * np.sqrt(rng.uniform(0, 1, 40))
             * np.exp(2j * np.pi * rng.uniform(0, 1, 40)))):
        hats = hat_radius(prof, pts.reshape(5, 8))
        assert hats.value.shape == hats.certified_upper.shape == (5, 8)
        for z, value, upper in zip(pts, hats.value.ravel(),
                                   hats.certified_upper.ravel()):
            one = hat_radius(prof, z)
            assert type(one.value) is float and type(one.certified_upper) is float
            # both bound the same supremum: each lies within the other's slack
            slack = one.certified_upper - one.value
            assert abs(value - one.value) <= slack
            assert value <= one.certified_upper and one.value <= upper


def test_hat_radius_array_names_the_first_bad_point():
    prof = DiskFractionProfile(0.5, 0j, 1.0)
    # 0.05 passes, 0.5 and 0.6 escape the disk, 2.0 lies outside it
    with pytest.raises(PreconditionViolation, match=r"at \(0\.5\+0j\)"):
        hat_radius(prof, np.array([0.05, 0.5, 0.6, 2.0], dtype=complex))
    with pytest.raises(PreconditionViolation,
                       match=r"radius vanishes at \(2\+0j\)"):
        hat_radius(prof, np.array([0.05, 2.0, 0.5], dtype=complex))
    # a scalar raises as before
    with pytest.raises(PreconditionViolation, match=r"at \(0\.6\+0j\)"):
        hat_radius(prof, 0.6)


def test_profile_radius_values():
    assert PlanePowerProfile(1.0).radius(3.0 + 0j) == 0.25
    prof = DiskFractionProfile(0.5, 1.0 + 0j, 2.0)
    assert abs(prof.radius(1.0 + 0j) - 1.0) <= 1e-12
    assert abs(prof.radius(2.0 + 0j) - 0.5) <= 1e-12


# ---------------------------------------------------------------------------
# the chain


def test_mean_chain_log_abs_poly():
    m = make_log_abs_poly(roots=[1.0 + 0j, -0.3j], mults=[2, 1])
    pts = np.array([0j, 0.5 + 0.5j, 2.0 - 1j, -3.0 + 0.2j])
    rep = check_mean_chain(m, PlanePowerProfile(1.0), pts)
    assert rep.ok
    assert rep.max_violation <= rep.slack
    assert len(rep.rows) == pts.size


def test_mean_chain_mixed_model_disk_profile():
    m = model_sum(
        make_harmonic(lambda z: np.real(np.asarray(z, dtype=complex)), kind="re-z"),
        make_radial_power(0.5, 2.0),
    )
    pts = np.array([0j, 0.5 + 0.5j, -1.0 + 0.3j])
    rep = check_mean_chain(m, DiskFractionProfile(0.2, 0j, 4.0), pts)
    assert rep.ok


def test_mean_chain_rows_are_ordered():
    m = make_radial_power(1.0, 2.0)
    pts = np.array([1.0 + 0j])
    rep = check_mean_chain(m, PlanePowerProfile(1.0), pts)
    row = rep.rows[0]
    # u <= disk(r) <= circle(r) <= disk(sqrt e r), composite below circle at hat
    assert row["u"] <= row["disk_r"] + rep.slack
    assert row["disk_r"] <= row["circle_r"] + rep.slack
    assert row["circle_r"] <= row["disk_sqrt_e_r"] + rep.slack
    assert row["composite"] <= row["circle_hat"] + rep.slack
