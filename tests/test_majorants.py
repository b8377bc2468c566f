"""Subharmonic building blocks and the two-sided majorant wrapper."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zerocert import (
    DSubharmonicMajorant,
    InvalidModel,
    Region,
    eval_M,
    make_harmonic,
    make_log_abs_poly,
    make_log_poly_growth,
    make_radial_power,
    make_zero_model,
    mean_on_circle,
    model_sum,
)
from zerocert.majorants import ellipe

import oracles


def test_submean_validation_rejects_concave():
    with pytest.raises(InvalidModel):
        make_harmonic(lambda z: -np.abs(np.asarray(z)) ** 2, kind="bad")


def test_radial_power_square():
    m = make_radial_power(1.0, 2.0)
    zs = np.array([0.5 + 0.5j, 2.0 - 1j])
    assert np.allclose(m(zs), np.abs(zs) ** 2)
    # Riesz mass in disks, against the flux oracle
    for r in (0.5, 1.0, 3.0):
        got = m.riesz.total_mass_in(Region.disk(0.0, r))
        flux = oracles.flux_mass(lambda z: np.abs(z) ** 2, 0j, r)
        assert abs(got - 2.0 * r * r) <= 1e-9
        assert abs(got - flux) <= 1e-7


@settings(max_examples=20, deadline=None)
@given(
    rho=st.floats(0.5, 3.0),
    r=st.floats(0.2, 4.0),
)
def test_radial_power_mass_is_flux(rho, r):
    m = make_radial_power(1.0, rho)
    got = m.riesz.total_mass_in(Region.disk(0.0, r))
    # h chosen small against the distance to the origin singularity
    flux = oracles.flux_mass(lambda z: np.abs(z) ** rho, 0j, r, h=min(1e-5, r / 100))
    assert abs(got - flux) <= 1e-5 * (1.0 + abs(got))


def test_radial_power_exact_means_match_quadrature():
    # dual route: closed-form circle means against adaptive quadrature
    for rho in (1.0, 2.0):
        m = make_radial_power(1.0, rho)
        assert m.exact_circle_mean is not None
        for z, t in ((0j, 1.0), (1.5 + 0.5j, 0.7), (3.0 + 0j, 2.0)):
            exact = float(m.exact_circle_mean(z, t))
            quad, _ = mean_on_circle(m, z, t, tol=1e-11)
            assert abs(exact - quad) <= 1e-9 * (1.0 + abs(exact))


@settings(max_examples=200, deadline=None)
@given(m=st.one_of(st.floats(0.0, 1.0),
                   st.floats(-40.0, 0.0).map(lambda e: 1.0 - 10.0 ** e)))
def test_ellipe_matches_scipy(m):
    from scipy.special import ellipe as ellipe_ref

    got = float(ellipe(np.array([m]))[0])
    assert abs(got - ellipe_ref(m)) <= 1e-15 * ellipe_ref(m)


def test_ellipe_endpoints_and_branch_switch():
    from scipy.special import ellipe as ellipe_ref

    m = np.array([0.0, 0.5, 0.99, 1.0 - 1e-12, 1.0, np.nextafter(0.99, 1.0)])
    assert ellipe(np.array([0.0]))[0] == np.pi / 2
    assert ellipe(np.array([1.0]))[0] == 1.0
    assert np.allclose(ellipe(m), ellipe_ref(m), rtol=1e-15, atol=0.0)
    # vectorised calls agree with one-at-a-time calls across both branches
    assert np.array_equal(ellipe(m), [ellipe(np.array([x]))[0] for x in m])
    # a NaN in the batch leaves the near-one series on for the others
    got = ellipe(np.append(m, np.nan))
    assert np.isnan(got[-1]) and np.array_equal(got[:-1], ellipe(m))


def test_radial_power_exact_mean_on_circle_through_origin():
    # t within rounding of |z| can put 4|z|t/(|z|+t)^2 an ulp above 1
    # (each of these does); the mean of |w| there is close to 4|z|/pi
    m = make_radial_power(1.0, 1.0)
    a = 1.7
    for t in (1.700000000401935, 1.699999987901427, 1.7000000152540813):
        tot = a + t
        assert 4.0 * a * t / tot ** 2 > 1.0
        exact = float(m.exact_circle_mean(np.array([a + 0j]), t)[0])
        assert np.isfinite(exact)
        assert abs(exact - 4.0 * a / np.pi) <= 1e-7


def test_radial_power_exact_mean_at_tiny_and_huge_radii():
    # (|z| + t)^2 underflows below 1e-154 and overflows above 1e154; the
    # mean of |w| about 0 is t, and a NaN bound would read as no excess
    m = make_radial_power(1.0, 1.0)
    t = np.array([1e-200, 1e-215, 1e-308, 1e160])
    got = m.exact_circle_mean(np.zeros(t.size, dtype=complex), t)
    assert np.all(np.abs(got - t) <= 1e-15 * t)
    far = m.exact_circle_mean(np.array([1e200 + 0j]), np.array([1e199]))
    want = m.exact_circle_mean(np.array([1.0 + 0j]), np.array([0.1]))
    assert abs(far[0] / 1e200 - want[0]) <= 1e-15


def _split_quad_mean(f, center, radius):
    # scipy's quad over one turn that starts at the angle nearest the
    # origin, so the kink of |w|^rho sits at the ends of the interval.  On
    # the |w|^3 circle below it agrees with a 30-digit mpmath quadrature
    # to the last bit
    from scipy.integrate import quad

    phi = np.angle(-center)
    val, _ = quad(lambda th: float(f(center + radius * np.exp(1j * th))),
                  phi, phi + 2.0 * np.pi, epsabs=0.0, epsrel=3e-14,
                  limit=500)
    return val / (2.0 * np.pi)


def test_radial_power_declares_the_origin_singular():
    # circles passing within 1e-4 of the kink of |w|^rho at 0: the error
    # estimate of mean_on_circle must bound the error, up to the rounding
    # of the mean itself, which no budget counts yet
    m1 = make_radial_power(1.0, 1.0)
    assert m1.singular_points == (0j,)
    c = 1e-4 + 1j
    got, est = mean_on_circle(m1, c, 1.0, tol=1e-8)
    want = float(m1.exact_circle_mean(np.array([c]), np.array([1.0]))[0])
    assert abs(got - want) <= est + 4.0 * np.spacing(abs(want))

    m3 = make_radial_power(1.0, 3.0)
    c = 1e-3 + 1j
    got, est = mean_on_circle(m3, c, 1.0, tol=1e-8)
    want = _split_quad_mean(m3, c, 1.0)
    assert abs(got - want) <= est + 4.0 * np.spacing(abs(want))


def test_log_abs_poly_from_roots():
    roots = [1.0 + 0j, -0.3j]
    m = make_log_abs_poly(roots=roots, mults=[2, 1], lead=3.0)
    z = np.array([0.5 + 0.2j, 2.0 + 1j])
    want = np.log(np.abs(3.0 * (z - roots[0]) ** 2 * (z - roots[1])))
    assert np.allclose(m(z), want)
    assert m.riesz.total_mass_in(Region.disk(0.0, 5.0)) == 3.0
    assert m.riesz.total_mass_in(Region.disk(1.0, 0.1)) == 2.0


def test_log_abs_poly_from_coeffs_clusters_double_root():
    # (z - 1)^2 = z^2 - 2z + 1; np.roots returns two nearby copies
    m = make_log_abs_poly(coeffs=[1.0, -2.0, 1.0])
    assert m.riesz.total_mass_in(Region.disk(1.0, 1e-3)) == 2.0


def test_log_abs_poly_exact_mean_is_quadrature_mean():
    m = make_log_abs_poly(roots=[1.0 + 0j], mults=[1])
    # center 0 radius 2 encloses the root: mean is ln 2
    assert abs(float(m.exact_circle_mean(0j, 2.0)) - np.log(2.0)) <= 1e-14
    quad, _ = mean_on_circle(m, 0j, 2.0, tol=1e-11)
    assert abs(quad - np.log(2.0)) <= 1e-8
    # root outside: mean is ln|z - root|
    assert abs(float(m.exact_circle_mean(5.0 + 0j, 1.0)) - np.log(4.0)) <= 1e-14


def test_log_poly_growth_mass():
    m = make_log_poly_growth()
    zs = np.array([0j, 1.0 + 1j])
    assert np.allclose(m(zs), np.log1p(np.abs(zs) ** 2))
    for t in (0.5, 1.0, 4.0):
        got = m.riesz.total_mass_in(Region.disk(0.0, t))
        want = 2.0 * t * t / (1.0 + t * t)
        flux = oracles.flux_mass(lambda z: np.log1p(np.abs(z) ** 2), 0j, t)
        assert abs(got - want) <= 1e-9
        assert abs(got - flux) <= 1e-7


def test_model_sum_evaluates_and_adds_charge():
    a = make_radial_power(1.0, 2.0)
    b = make_log_abs_poly(roots=[1.0 + 0j], mults=[1])
    s = model_sum(a, b)
    z = np.array([0.4 + 0.3j])
    assert np.allclose(s(z), a(z) + b(z))
    got = s.riesz.total_mass_in(Region.disk(0.0, 2.0))
    assert abs(got - (8.0 + 1.0)) <= 1e-9
    # exact means survive the sum
    assert s.exact_circle_mean is not None
    assert abs(float(s.exact_circle_mean(0j, 2.0)) - (4.0 + np.log(2.0))) <= 1e-12


def test_harmonic_model_has_no_charge():
    m = make_harmonic(lambda z: np.real(np.asarray(z, dtype=complex) ** 2), kind="re-z2")
    assert m.riesz.total_mass_in(Region.disk(0.0, 3.0)) == 0.0
    assert abs(float(m.exact_circle_mean(1.0 + 1j, 0.5)) - m(1.0 + 1j)) <= 1e-14


def test_eval_M_plus_infinity_at_lower_roots():
    M = DSubharmonicMajorant(
        up=make_radial_power(1.0, 2.0),
        low=make_log_abs_poly(roots=[1.0 + 0j], mults=[1]),
    )
    vals = eval_M(M, np.array([1.0 + 0j, 0j]))
    assert np.isposinf(vals[0])
    assert vals[1] == 0.0
    # charge subtracts the lower part
    got = M.charge.total_mass_in(Region.disk(0.0, 2.0))
    assert abs(got - (8.0 - 1.0)) <= 1e-9


def test_zero_model():
    m = make_zero_model()
    assert m(2.0 + 3j) == 0.0
    assert m.riesz.total_mass_in(Region.disk(0.0, 10.0)) == 0.0
