"""Jensen measures, logarithmic potentials, and the representation identity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import zerocert
from zerocert import (
    CirclePart,
    DomainError,
    DSubharmonicMajorant,
    InvalidPotential,
    JensenMeasure,
    RieszCharge,
    SubharmonicModel,
    eval_M,
    green_disk,
    log_potential,
    make_log_abs_poly,
    make_radial_power,
    poisson_jensen_check,
    potential_to_measure,
    uniform_circle,
)
from zerocert import measures, quadrature
from zerocert.quadrature import mean_on_circle

import oracles
from test_criterion import _CLOSED_FORM_MODELS
from test_measures import _edge_root_density


def test_uniform_circle_potential_closed_form():
    mu = uniform_circle(0j, 2.0)
    V = log_potential(mu)
    zs = np.array([0.5 + 0j, 1.0 + 1j, 3.0 + 0j, 10.0j])
    want = np.maximum(np.log(2.0 / np.abs(zs)), 0.0)
    assert np.allclose(np.asarray(V(zs), dtype=float), want, atol=1e-12)
    assert abs(V.pole_coefficient - 1.0) <= 1e-9
    assert V.support_radius == 2.0


def test_pole_mass_lowers_coefficient():
    mu = JensenMeasure(pole=0j, parts=(CirclePart(1.0, 0.75),), pole_mass=0.25)
    V = log_potential(mu)
    # kappa = 1 - pole mass, recovered numerically from the potential
    assert abs(V.pole_coefficient - 0.75) <= 1e-7


def test_measure_total_mass_validation():
    with pytest.raises(DomainError):
        JensenMeasure(pole=0j, parts=(CirclePart(1.0, 0.5),), pole_mass=0.2)


def test_measure_parts_are_circles():
    with pytest.raises(DomainError):
        JensenMeasure(pole=0j, parts=((1.0, 1.0),))


def test_jensen_measure_reads_closed_form_means(monkeypatch):
    # circle means about c of |z|^2 are |c|^2 + t^2, and of ln|z - 1|
    # about 0.5 are ln max(t, 0.5): both are read without quadrature
    def refuse(*args, **kwargs):
        raise AssertionError("JensenMeasure.integrate ran a quadrature")

    square = make_radial_power(1.0, 2.0)
    log_abs = make_log_abs_poly(roots=[1.0 + 0j], mults=[1])
    monkeypatch.setattr(quadrature, "integrate", refuse)
    monkeypatch.setattr(quadrature, "mean_on_circle", refuse)
    mu = JensenMeasure(pole=0.5 + 0j, parts=(CirclePart(0.25, 0.25),
                                             CirclePart(2.0, 0.5)),
                       pole_mass=0.25)
    val, err = mu.integrate(square)
    assert err == 0.0
    assert abs(val - (0.25 * 0.25 + 0.25 * (0.25 + 0.0625)
                      + 0.5 * (0.25 + 4.0))) <= 1e-14
    val, err = mu.integrate(log_abs)
    assert err == 0.0
    assert abs(val) <= 1e-15


@pytest.mark.parametrize("name", sorted(_CLOSED_FORM_MODELS))
def test_jensen_measure_closed_form_matches_quadrature(name):
    u = _CLOSED_FORM_MODELS[name]
    mu = JensenMeasure(pole=0.3 - 0.2j, parts=(CirclePart(0.5, 0.3),
                                               CirclePart(1.7, 0.45)),
                       pole_mass=0.25)
    val, err = mu.integrate(u)
    means, errs = mean_on_circle(u, mu.pole, np.array([0.5, 1.7]),
                                 tol=1e-12)
    weights = np.array([0.3, 0.45])
    want = 0.25 * float(u(np.array([mu.pole]))[0]) + float(weights @ means)
    assert err == 0.0
    assert abs(val - want) <= float(weights @ errs) + 1e-13


def test_potential_with_nonpositive_part_is_rejected():
    # weights 1.5 and -0.5 still total one, as the unit circle's pole
    # coefficient asks; the measure refuses the negative circle
    V = log_potential(uniform_circle(0j, 1.0))
    bad = type(V)(pole=V.pole, radial_profile=V.radial_profile,
                  parts=(CirclePart(1.0, 1.5), CirclePart(2.0, -0.5)),
                  pole_coefficient=V.pole_coefficient)
    with pytest.raises(DomainError):
        potential_to_measure(bad)


def test_public_names_resolve_once():
    names = zerocert.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(zerocert, n)] == []


def test_roundtrip_circle_parts():
    mu = JensenMeasure(
        pole=0j,
        parts=(CirclePart(0.5, 0.3), CirclePart(2.0, 0.5)),
        pole_mass=0.2,
    )
    V = log_potential(mu)
    # support and kinks are read off the circles the potential keeps
    assert V.support_radius == 2.0
    assert V.kink_radii == (0.5, 2.0)
    back = potential_to_measure(V)
    assert abs(back.pole_mass - 0.2) <= 1e-6
    radii = sorted(p.radius for p in back.parts)
    assert np.allclose(radii, [0.5, 2.0], atol=1e-9)
    weights = sorted(p.weight for p in back.parts)
    assert np.allclose(weights, [0.3, 0.5], atol=1e-6)


@settings(max_examples=20, deadline=None)
@given(alpha=st.floats(0.01, 0.99))
def test_potential_map_is_affine(alpha):
    mu1 = uniform_circle(0j, 1.0)
    mu2 = uniform_circle(0j, 3.0)
    blend = JensenMeasure(
        pole=0j,
        parts=(CirclePart(1.0, alpha), CirclePart(3.0, 1.0 - alpha)),
        pole_mass=0.0,
    )
    V1 = log_potential(mu1)
    V2 = log_potential(mu2)
    Vb = log_potential(blend)
    zs = np.array([0.2 + 0j, 0.7j, 1.5 + 0.5j, 2.5, 5.0 + 1j])
    lhs = np.asarray(Vb(zs), dtype=float)
    rhs = alpha * np.asarray(V1(zs), dtype=float) + (1 - alpha) * np.asarray(V2(zs), dtype=float)
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_potential_with_foreign_parts_is_rejected():
    # the unit circle's profile with the parts of a circle of radius 3:
    # the parts' potential reads ln(3/2) = 0.405 at |z| = 2, the profile 0
    V = log_potential(uniform_circle(0j, 1.0))
    bad = type(V)(pole=V.pole, radial_profile=V.radial_profile,
                  parts=(CirclePart(3.0, 1.0),),
                  pole_coefficient=V.pole_coefficient)
    assert abs(float(log_potential(uniform_circle(0j, 3.0))(2.0))
               - math.log(1.5)) <= 1e-15
    assert float(bad(2.0)) == 0.0
    with pytest.raises(InvalidPotential):
        potential_to_measure(bad)


def test_potential_declares_its_pole_kinks_and_core():
    mu = JensenMeasure(
        pole=0.5j,
        parts=(CirclePart(2.0, 0.5), CirclePart(0.5, 0.3)),
        pole_mass=0.2,
    )
    V = log_potential(mu)
    assert V.singular_points == (0.5j,)
    assert V.kink_circles == ((0.5j, 2.0), (0.5j, 0.5))
    assert V.pole_coefficient == 1.0 - 0.2
    # below the smallest circle, 0.5, V is exactly sum w ln r - k ln d
    const = 0.5 * math.log(2.0) + 0.3 * math.log(0.5)
    d = np.array([1e-3, 0.1, 0.5])
    core = const - V.pole_coefficient * np.log(d)
    assert np.allclose(V.radial_profile(d), core, rtol=0.0, atol=1e-14)
    assert not np.isclose(V.radial_profile(np.array([0.6]))[0],
                          const - V.pole_coefficient * np.log(0.6))


def test_potential_rejects_supercritical_pole():
    mu = uniform_circle(0j, 1.0)
    V = log_potential(mu)
    # tampering with the radial profile breaks the pole coefficient range
    bad = type(V)(
        pole=V.pole,
        radial_profile=lambda d: 2.0 * np.asarray(V.radial_profile(d),
                                                  dtype=float),
        parts=V.parts,
        pole_coefficient=V.pole_coefficient,
    )
    with pytest.raises(InvalidPotential):
        potential_to_measure(bad)


def test_poisson_jensen_identity_polynomial():
    # classical Jensen formula, pinned first by the direct oracle
    roots = [1.0 + 0j, 0.5j, -1.2 + 0.4j]
    gap, rhs = oracles.jensen_gap(roots, [1, 1, 1], 3.0)
    assert abs(gap - rhs) <= 1e-9
    u = make_log_abs_poly(roots=roots, mults=[1, 1, 1])
    rep = poisson_jensen_check(u, uniform_circle(0j, 3.0))
    assert abs(rep.residual) <= rep.budget + 1e-12
    assert abs(rep.charge_term - rhs) <= 1e-9


def test_poisson_jensen_radial_model():
    # off-center pole forces the nested fallback; budget must stay honest
    u = make_radial_power(1.0, 2.0)
    rep = poisson_jensen_check(u, uniform_circle(0.5 + 0.5j, 1.5))
    # closed form: the two sides agree exactly at 9/4
    assert abs(rep.mean_term - rep.u_pole - 2.25) <= 1e-9
    assert abs(rep.residual) <= rep.budget
    assert rep.budget <= 1e-6


@pytest.mark.parametrize("rho", [1.0, 2.0])
def test_poisson_jensen_radial_route_takes_the_log_core(rho):
    # below the circle V is ln 2 - ln d exactly, which the density takes in
    # closed form from its disk mass: both sides are 2^rho to the last bits
    rep = poisson_jensen_check(make_radial_power(1.0, rho),
                               uniform_circle(0j, 2.0))
    assert abs(rep.charge_term - 2.0 ** rho) <= 1e-13
    assert abs(rep.residual) <= 1e-13


def test_poisson_jensen_concentric_charge_keeps_the_radial_route(monkeypatch):
    # a density centred on the pole takes lemma1's closed form, part by
    # part, with no quadrature: between the circles at 1 and 2 the density
    # below is infinite at 1.2, which quadrature cannot pass within tol
    def no_quadrature(*args, **kwargs):
        raise AssertionError("charge quadrature taken")

    dens = _edge_root_density()
    u = SubharmonicModel(kind="edge-root", params={},
                         eval=lambda z: dens.log_mass_in(np.abs(z)),
                         riesz=RieszCharge(radial=(dens,)))
    mu = JensenMeasure(0j, (CirclePart(1.0, 0.5), CirclePart(2.0, 0.5)))
    monkeypatch.setattr(measures, "integrate", no_quadrature)
    monkeypatch.setattr(RieszCharge, "integrate", no_quadrature)
    monkeypatch.setattr(RieszCharge, "integrate_radial", no_quadrature)
    rep = poisson_jensen_check(u, mu)
    assert rep.charge_term == (0.5 * dens.log_mass_in(1.0)
                               + 0.5 * dens.log_mass_in(2.0))


def test_poisson_jensen_root_charge_takes_the_declared_log_mass():
    # |z|^0.5 declares L(a) = a^0.5: below the circle V is ln 2 - ln d, so
    # the charge term is L(2) = sqrt 2 in closed form, where quadrature of
    # mu(s)/s ~ s^(-1/2) used to stall above tol
    rep = poisson_jensen_check(make_radial_power(1.0, 0.5),
                               uniform_circle(0j, 2.0))
    assert abs(rep.charge_term - math.sqrt(2.0)) <= 4.0 * math.ulp(math.sqrt(2.0))
    assert abs(rep.residual) <= rep.budget
    assert rep.budget <= 1e-9


def test_poisson_jensen_rejects_pole_at_root():
    u = make_log_abs_poly(roots=[0j], mults=[1])
    with pytest.raises(DomainError):
        poisson_jensen_check(u, uniform_circle(0j, 2.0))


def test_green_disk_values():
    g = green_disk(1.0, 0.5 + 0j)
    assert abs(g(0j) - np.log(2.0)) <= 1e-12
    th = np.linspace(0, 2 * np.pi, 64)
    on_boundary = np.asarray(g(np.exp(1j * th)), dtype=float)
    assert np.max(np.abs(on_boundary)) <= 1e-10


def test_green_disk_is_harmonic_with_unit_pole():
    g = green_disk(2.0, 0.3 + 0.4j, center=0.1j)
    # no charge away from the pole, unit mass around it
    off = oracles.flux_mass(g, 1.2 + 0.9j, 0.2)
    assert abs(off) <= 1e-6
    around = oracles.flux_mass(g, 0.3 + 0.4j, 0.15)
    assert abs(around + 1.0) <= 1e-6


@settings(max_examples=25, deadline=None)
@given(
    ax=st.floats(-0.6, 0.6),
    ay=st.floats(-0.6, 0.6),
    bx=st.floats(-0.6, 0.6),
    by=st.floats(-0.6, 0.6),
)
def test_green_disk_symmetry(ax, ay, bx, by):
    a = complex(ax, ay)
    b = complex(bx, by)
    if abs(a - b) < 1e-3:
        return
    ga = green_disk(1.0, a)
    gb = green_disk(1.0, b)
    assert abs(float(ga(b)) - float(gb(a))) <= 1e-10


def test_green_disk_rejects_outside_pole():
    with pytest.raises(DomainError):
        green_disk(1.0, 2.0 + 0j)
