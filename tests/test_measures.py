"""Zero distributions, enumeration, and Riesz charges."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from zerocert import (
    DomainError,
    DSubharmonicMajorant,
    Region,
    RieszCharge,
    RadialDensity,
    SmoothCappedLogFamily,
    ToleranceFailure,
    TruncatedLogFamily,
    ZeroDistribution,
    integrate,
    make_log_poly_growth,
    make_radial_power,
)

import oracles
import planes


# ---------------------------------------------------------------------------
# enumeration


def _count(Z, region):
    """Total multiplicity of Z in a closed disk, from points_up_to."""
    pts, ml = Z.points_up_to(abs(region.center) + region.radius)
    return int(np.sum(ml[region.contains(pts)]))


def test_explicit_points_merge_multiplicities():
    Z = ZeroDistribution.from_points([1.0 + 0j, 1.0 + 0j, 2.0], [1, 2, 1])
    pts, ml = Z.points_up_to(5.0)
    assert np.array_equal(pts, [1.0 + 0j, 2.0 + 0j])
    assert np.array_equal(ml, [3, 1])
    assert _count(Z, Region.disk(1.0, 0.1)) == 3


def test_counting_pi_lattice_disk():
    Z = ZeroDistribution.real_multiples(step=np.pi)
    # direct enumeration: pi, 2pi, 3pi fit inside radius 10, both signs
    assert oracles.count_real_multiples(np.pi, 0.0, 10.0) == 6
    pts, ml = Z.points_up_to(10.0)
    assert sorted(pts.real) == [k * np.pi for k in (-3, -2, -1, 1, 2, 3)]
    assert np.all(pts.imag == 0) and np.all(ml == 1)


def test_counting_gaussian_disk_matches_loop():
    Z = ZeroDistribution.gaussian_integers()
    want = oracles.gauss_lattice_radii(10.0)
    assert want.size == 316
    pts, ml = Z.points_up_to(10.0)
    assert np.allclose(np.sort(np.abs(pts)), np.sort(want), rtol=1e-15, atol=0)
    assert np.all(ml == 1)


@pytest.mark.parametrize("scale", [1.0, 0.3, 2.7, 1.0 / 3.0])
def test_gaussian_rows_match_meshgrid(scale):
    # the masked square returns the meshgrid's points, in order, whatever
    # its half-width
    Z = ZeroDistribution.gaussian_integers(scale=scale)
    for radius in (0.0, 0.5, scale, 5.0, 17.3, 60.0):
        got, mults = Z.points_up_to(radius)
        n = int(np.floor(radius / scale)) + 1
        g = np.arange(-n, n + 1, dtype=float)
        re, im = np.meshgrid(g, g, indexing="ij")
        want = (re + 1j * im).ravel() * scale
        want = want[(np.abs(want) <= radius) & (want != 0)]
        assert got.dtype == want.dtype
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(mults, np.ones(want.size, dtype=int))


@pytest.mark.parametrize("scale", [1.0, 0.5, 0.37, 2.3])
def test_gaussian_points_match_the_two_pass_rows(scale):
    # the masked square gives the points, order and dtype of the
    # enumeration that built every row twice, on and next to the lattice
    # circles too
    Z = ZeroDistribution.gaussian_integers(scale=scale)
    radii = [0.0, 0.5 * scale, 17.3, 60.0]
    for n in (1, 2, 5, 25, 50, 65):
        r = scale * math.sqrt(n)
        radii += [r, np.nextafter(r, 0.0), np.nextafter(r, np.inf)]
    for radius in radii:
        got, mults = Z.points_up_to(radius)
        want = oracles.gaussian_points_by_rows(scale, float(radius))
        assert got.dtype == want.dtype == np.complex128
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(mults, np.ones(want.size, dtype=int))


# A Gaussian lattice answers radii_up_to from its norms; the reference is
# the sorted moduli of the points that points_up_to enumerates.

_EPS = np.finfo(float).eps


def _assert_radii_match_points(Z, radius):
    radii, mults = Z.radii_up_to(radius)
    ref = np.sort(np.abs(Z.points_up_to(radius)[0]))
    assert np.all(np.diff(radii) > 0)
    assert mults.dtype.kind == "i" and np.all(mults > 0)
    assert int(np.sum(mults)) == ref.size
    # 2 ulp of 1, relative: |z| of a point is up to 2 ulp of its own size
    # off the exact modulus, scale * sqrt(n) up to about 1
    got = np.repeat(radii, mults)
    assert np.all(np.abs(got - ref) <= 2.0 * _EPS * ref)
    return radii, mults


@settings(max_examples=60, deadline=None)
@given(scale=st.sampled_from([1.0, 0.5, 0.37, 2.3]),
       radius=st.floats(0.0, 60.0),
       max_radius=st.one_of(st.none(), st.floats(0.1, 60.0)))
def test_gaussian_radii_match_sorted_points(scale, radius, max_radius):
    Z = ZeroDistribution.gaussian_integers(scale=scale, max_radius=max_radius)
    r = radius if max_radius is None else min(radius, max_radius)
    # a request within rounding of a lattice circle is decided by each
    # path's own rounding; the exact circles are the next test's
    near = ZeroDistribution.gaussian_integers(scale=scale).radii_up_to(
        r * (1.0 + 8.0 * _EPS))[0]
    assume(not np.any(np.abs(near - r) <= 8.0 * _EPS * r))
    _assert_radii_match_points(Z, radius)


@pytest.mark.parametrize("scale", [1.0, 0.5])
def test_gaussian_radii_on_a_lattice_circle(scale):
    # 5 * scale is exact here, and the circle through (3, 4) and (5, 0)
    # holds r2(25) = 12 points
    Z = ZeroDistribution.gaussian_integers(scale=scale)
    radii, mults = _assert_radii_match_points(Z, 5.0 * scale)
    assert radii[-1] == 5.0 * scale and mults[-1] == 12
    assert radii[0] == scale and mults[0] == 4


@pytest.mark.parametrize("scale", [1.0, 0.5, 0.37, 2.3])
def test_gaussian_radii_below_scale_and_past_max_radius(scale):
    Z = ZeroDistribution.gaussian_integers(scale=scale)
    for radius in (0.0, 0.99 * scale):
        radii, mults = _assert_radii_match_points(Z, radius)
        assert radii.size == 0 and mults.size == 0
    # a request beyond max_radius reads only the points within it
    capped = ZeroDistribution.gaussian_integers(scale=scale,
                                                max_radius=6.3 * scale)
    radii, mults = _assert_radii_match_points(capped, 40.0 * scale)
    want, want_mults = Z.radii_up_to(6.3 * scale)
    assert np.array_equal(radii, want) and np.array_equal(mults, want_mults)
    with pytest.raises(DomainError):
        Z.radii_up_to(math.inf)


@settings(max_examples=80, deadline=None)
@given(scale=st.floats(0.1, 3.0),
       q=st.one_of(st.floats(0.0, 1.0), st.floats(1.0, 1e3)),
       norm=st.one_of(st.none(), st.integers(1, 10 ** 5)))
@example(scale=0.1, q=1e3, norm=None)
@example(scale=3.0, q=0.5, norm=None)
@example(scale=0.37, q=0.0, norm=25)
@example(scale=2.3, q=0.0, norm=3)
def test_gaussian_radii_are_the_square_and_mask_count(scale, q, norm):
    # bit for bit against the count that formed every norm of the square
    # and masked it; norm puts the radius exactly at scale * sqrt(norm)
    radius = min(scale * q, 1e3) if norm is None else scale * math.sqrt(norm)
    radii, mults = ZeroDistribution.gaussian_integers(scale).radii_up_to(
        radius)
    want, want_mults = oracles.gaussian_radii_by_mask(scale, radius)
    assert np.array_equal(radii, want) and radii.dtype == want.dtype
    assert np.array_equal(mults, want_mults) and mults.dtype == want_mults.dtype
    if norm is not None:
        # the circle itself is read exactly when some point lies on it
        on_circle = any(math.isqrt(norm - x * x) ** 2 == norm - x * x
                        for x in range(math.isqrt(norm) + 1))
        assert (radii[-1] == radius) == on_circle


def test_counting_offcenter_disk_of_lattice():
    Z = ZeroDistribution.real_multiples(step=np.pi)
    want = oracles.count_real_multiples(np.pi, 7.0, 2.5)
    assert _count(Z, Region.disk(7.0 + 0j, 2.5)) == want


def test_counting_unbounded_region():
    # an unbounded lattice has no finite count over the plane: enumeration
    # needs a finite radius
    Z = ZeroDistribution.real_multiples(step=np.pi)
    assert Z.unbounded
    with pytest.raises(DomainError):
        Z.points_up_to(math.inf)


def test_counting_annulus_closed():
    Z = ZeroDistribution.from_points([0.5, 1.0, 2.0, 3.0], [1, 1, 1, 1])
    # regions are closed: the annulus 1 <= |z| <= 2 is the closed disk of
    # radius 2 less the open disk of radius 1, so both boundary circles
    # count, 0.5 and 3.0 do not
    pts, ml = Z.points_up_to(2.0)
    keep = (Region.disk(0.0, 2.0).contains(pts)
            & ~Region.disk(0.0, 1.0).interior_contains(pts))
    assert int(np.sum(ml[keep])) == 2


def test_nevanlinna_pi_lattice():
    Z = ZeroDistribution.real_multiples(step=np.pi)
    # sum over 0<k<=3 of 2 ln(10/(pi k)) = 2 ln(1000/(6 pi^3))
    want = 2.0 * np.log(1000.0 / (6.0 * np.pi**3))
    assert abs(want - 3.363612304411763) < 1e-15
    assert abs(oracles.nevanlinna_N(Z, 10.0) - want) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(
    t=st.floats(1.0, 50.0),
)
def test_nevanlinna_matches_direct_sum(t):
    Z = ZeroDistribution.real_multiples(step=np.pi)
    radii = oracles.pi_lattice_radii(int(t / np.pi) + 1)
    radii = radii[radii <= t]
    want = 2.0 * float(np.sum(np.log(t / radii)))
    assert abs(oracles.nevanlinna_N(Z, t) - want) <= 1e-10 * (1.0 + abs(want))


def test_tail_power_sum_bound_dominates_actual_tail():
    Z = ZeroDistribution.real_multiples(step=np.pi)
    for q in (2.0, 2.5, 3.0):
        for cutoff in (10.0, 40.0):
            k0 = int(np.ceil(cutoff / np.pi))
            k = np.arange(k0, 200000)
            actual = 2.0 * float(np.sum((np.pi * k) ** (-q)))
            bound = Z.tail_power_sum_bound(q, cutoff)
            assert bound >= actual
            assert bound <= 10.0 * actual


def test_gaussian_tail_bound_dominates_actual():
    Z = ZeroDistribution.gaussian_integers()
    radii = oracles.gauss_lattice_radii(400.0)
    for q in (3.0, 4.0):
        tail = radii[radii > 50.0]
        actual = float(np.sum(tail ** (-q)))
        # enumeration stops at 400, so compare against the finite piece only
        assert Z.tail_power_sum_bound(q, 50.0) >= actual


# ---------------------------------------------------------------------------
# charges


def _radial_square_charge():
    # charge of |z|^2: profile is a density against s ds, so mass(t) = 2t^2
    return RieszCharge(
        atom_points=(),
        atom_masses=(),
        radial=(RadialDensity(profile=lambda s: 4.0 + 0.0 * s,
                              cumulative=lambda t: 2.0 * t * t,
                              log_mass=lambda a: a * a),),
    )


def test_charge_on_region_radial_square():
    ch = _radial_square_charge()
    assert abs(ch.total_mass_in(Region.disk(0.0, 1.0)) - 2.0) <= 1e-9
    assert abs(ch.total_mass_in(Region.disk(0.0, 2.0)) - 8.0) <= 1e-9
    # flux route through an independent stencil
    flux = oracles.flux_mass(lambda z: np.abs(z) ** 2, 0j, 2.0)
    assert abs(flux - 8.0) <= 1e-8


def test_charge_algebra():
    a = RieszCharge(atom_points=(1.0 + 0j,), atom_masses=(2.0,))
    b = RieszCharge(atom_points=(0.5j, -2.0 + 0j), atom_masses=(0.5, 4.0))
    d = Region.disk(0.0, 1.5)
    s = a + b
    assert abs(s.total_mass_in(d) - 2.5) <= 1e-12
    assert abs((a - b).total_mass_in(d) - 1.5) <= 1e-12
    assert abs((-a).total_mass_in(d) + 2.0) <= 1e-12
    assert abs((a - b).negative_part().total_mass_in(d) - 0.5) <= 1e-12
    assert abs((a - b).negative_part().total_mass_in(
        Region.disk(0.0, 3.0)) - 4.5) <= 1e-12
    # densities flip sign with the charge and keep it in negative_part
    sq = _radial_square_charge()
    assert abs((a - sq).total_mass_in(d) - (2.0 - 4.5)) <= 1e-12
    assert abs((a - sq).negative_part().total_mass_in(d) - 4.5) <= 1e-12


# The families whose spike tables the charge integrals read, with the
# cutoffs of a batch: core-only, banded and empty rows against the
# charges below.
_FAMILIES = {
    "truncated": TruncatedLogFamily(),
    "smooth-0.25": SmoothCappedLogFamily(eps=0.25),
    "smooth-0.8": SmoothCappedLogFamily(eps=0.8),
}
_TAUS = (0.3, 1.7, 6.0, 15.0)


def _radial_rows(charge, fam, taus, tol=1e-9):
    """integrate_radial on the table of fam's cutoffs taus: each row's
    (value, budget), with no row failed."""
    val, err, note, _ = charge.integrate_radial(fam.spikes(taus), tol=tol)
    assert (note == "").all(), note
    return list(zip(val.tolist(), err.tolist()))


def test_integrate_radial_atoms_and_rings():
    # two atoms, and a ring of eight atoms of total mass 2 on |z| = 0.5:
    # every row is the direct sum over the atoms of its member's profile,
    # to a few ulps (the table reads e^(ln tau) where the member reads tau)
    ring = 0.5 * np.exp(2j * np.pi * np.arange(8) / 8)
    ch = RieszCharge(
        atom_points=np.concatenate(([1.0, -2.0], ring)),
        atom_masses=np.concatenate(([1.0, 3.0], np.full(8, 0.25))),
    )
    for fam in _FAMILIES.values():
        for tau, (val, err) in zip(_TAUS, _radial_rows(ch, fam, _TAUS)):
            want, _ = oracles.integrate_radial_reference(
                ch, planes.member(fam, tau))
            assert abs(val - want) <= 1e-14 * (1.0 + abs(want))
            assert err == 0.0
    # ln+(1.7 / |z|): the atom at -2 lies past the support
    (val, _), = _radial_rows(ch, _FAMILIES["truncated"], [1.7])
    assert abs(val - (math.log(1.7) + 2.0 * math.log(3.4))) <= 1e-14


def test_integrate_radial_density_matches_closed_form():
    # the truncated log's core is its whole support: int_0^tau ln(tau / s)
    # 4s ds = tau^2 by parts, with no quadrature; the smooth capped log's
    # band against the per-spike adaptive route
    ch = _radial_square_charge()
    for tau, (val, err) in zip(_TAUS, _radial_rows(
            ch, _FAMILIES["truncated"], _TAUS)):
        assert abs(val - tau * tau) <= 1e-14 * tau * tau
        assert err <= 1e-14 * tau * tau
    fam = _FAMILIES["smooth-0.8"]
    for tau, (val, err) in zip(_TAUS, _radial_rows(ch, fam, _TAUS)):
        assert err <= 1e-9
        ref, ref_err = oracles.integrate_radial_reference(
            ch, planes.member(fam, tau))
        assert abs(val - ref) <= ref_err + 1e-14 * (1.0 + abs(ref))


def test_integrate_radial_requires_support_for_unbounded_density():
    ch = _radial_square_charge()
    table = TruncatedLogFamily().spikes([1.0])
    table.support_radius = np.array([math.inf])
    with pytest.raises(DomainError):
        ch.integrate_radial(table, tol=1e-8)


# A declared exact-log core is taken by parts from mass_in; the reference
# is QUADPACK on the whole integral of the member's own profile.

_ANNULAR = RadialDensity(
    profile=lambda s: 4.0 + 0.0 * np.asarray(s, dtype=float),
    support=(0.3, 2.5),
    cumulative=lambda t: 2.0 * (np.asarray(t, dtype=float) ** 2 - 0.09),
    log_mass=lambda a: (np.asarray(a, dtype=float) ** 2 - 0.09
                        - 0.18 * np.log(np.asarray(a, dtype=float) / 0.3)))

# name -> (charge, tol)
_CORE_CHARGES = {
    "radial-power-0.5": (make_radial_power(1.3, 0.5).riesz, 1e-7),
    "radial-power-1": (make_radial_power(1.0, 1.0).riesz, 1e-9),
    "radial-power-2": (make_radial_power(0.7, 2.0).riesz, 1e-9),
    "log-poly-growth": (make_log_poly_growth().riesz, 1e-9),
    "d-subharmonic": (DSubharmonicMajorant(
        up=make_radial_power(2.0, 1.0), low=make_log_poly_growth()).charge,
        1e-9),
    "support-from-0.3": (RieszCharge(radial=(_ANNULAR,)), 1e-9),
}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(_CORE_CHARGES)),
       smooth=st.booleans(),
       tau=st.floats(0.1, 20.0),
       eps=st.floats(0.05, 1.0))
# the truncated log's core is its whole support: past the annulus at 5
@example(name="support-from-0.3", smooth=False, tau=5.0, eps=0.25)
@example(name="support-from-0.3", smooth=False, tau=1.5, eps=0.25)
# the bands of a spike share tol; this one summed two full-tol budgets
# above tol when every call took all of it
@example(name="d-subharmonic", smooth=True, tau=4.0, eps=0.9375)
# the reference's panels straddled the blend edge at tau e^-eps until the
# smooth capped log declared both edges as kinks
@example(name="support-from-0.3", smooth=True, tau=0.75, eps=0.75)
@example(name="radial-power-1", smooth=True, tau=4.0, eps=0.2676768089684824)
# the closed-form log-mass leaves the no-core route's overrun standing alone
@example(name="radial-power-0.5", smooth=False, tau=1.0, eps=1.0)
def test_integrate_radial_log_core_matches_quadrature(name, smooth, tau, eps):
    charge, tol = _CORE_CHARGES[name]
    fam = SmoothCappedLogFamily(eps=eps) if smooth else TruncatedLogFamily()
    ref, ref_err = _quad_reference(charge, planes.member(fam, tau))
    (got, err), = _radial_rows(charge, fam, [tau], tol=tol)
    assert err <= tol
    # within both budgets, plus rounding
    assert abs(got - ref) <= err + ref_err + 1e-14 * (1.0 + abs(ref))


def _quad_reference(charge, spike):
    """QUADPACK on the whole integral of g(s) s profile(s) over each
    density of an atom-free charge, in u = sqrt(s), with the spike's
    kinks as break points.  Returns (value, summed error estimates).

    In s, the integrand of |z|^0.5 near 0 is s^(-1/2) ln s, where
    QUADPACK's estimate is optimistic: against tau = 13.861457032214647,
    eps = 0.05 it was off by 8.7e-14 with an estimate of 1.5e-14.  In u
    it is 2 u g(u^2) u^2 profile(u^2), which is only log-singular."""
    from scipy.integrate import quad

    val, err = 0.0, 0.0
    for dens in charge.radial:
        lo = dens.support[0]
        hi = min(dens.support[1], spike.support_radius)
        if hi <= lo:
            continue

        def f(u):
            s = np.array([u * u])
            return float(2.0 * u * spike.radial_profile(s)[0] * s[0]
                         * dens.profile(s)[0])

        v, e = quad(f, math.sqrt(lo), math.sqrt(hi),
                    points=[math.sqrt(k) for k in spike.kink_radii
                            if lo < k < hi] or None,
                    epsabs=1e-14, epsrel=1e-13, limit=400)
        val += dens.sign * v
        err += e
    assert not charge.atom_points.size
    return val, err


@pytest.mark.parametrize("name", sorted(_CORE_CHARGES))
def test_integrate_radial_batch_matches_the_per_spike_route(name):
    # one call for each family's cutoffs, against the per-spike adaptive
    # route it replaced.  Under |z|^0.5 that route's core quadrature of
    # mu(s)/s ~ s^(-1/2) misses its own budget by about 3 %, so QUADPACK
    # on the whole integral is the reference there.
    charge, tol = _CORE_CHARGES[name]
    for fam in _FAMILIES.values():
        results = _radial_rows(charge, fam, _TAUS, tol=tol)
        for tau, (val, err) in zip(_TAUS, results):
            assert err <= tol
            spike = planes.member(fam, tau)
            if name == "radial-power-0.5":
                ref, ref_err = _quad_reference(charge, spike)
            else:
                ref, ref_err = oracles.integrate_radial_reference(
                    charge, spike, tol=tol)
            assert abs(val - ref) <= ref_err + 1e-14 * (1.0 + abs(ref))


def _edge_root_density(c=1.2, hi=1.8):
    """Mass 2 sqrt(t - c) on the annulus c < s <= hi: its profile
    (s - c)^(-1/2) / s is infinite at the inner edge, and the log-mass is
    4 (sqrt(a - c) - sqrt(c) atan(sqrt((a - c) / c)))."""
    def log_mass(a):
        x = np.sqrt(np.asarray(a, dtype=float) - c)
        return 4.0 * (x - math.sqrt(c) * np.arctan(x / math.sqrt(c)))

    return RadialDensity(
        profile=lambda s: (np.asarray(s, dtype=float) - c) ** -0.5 / s,
        cumulative=lambda t: 2.0 * np.sqrt(np.asarray(t, dtype=float) - c),
        log_mass=log_mass, support=(c, hi))


def test_integrate_radial_counts_kinked_bands_and_keeps_failures_apart():
    # a row whose band starts at the density's inverse square root cannot
    # meet tol; it keeps its failure, and the rows around it (empty, in
    # the core, and a band near the edge, which runs adaptively) keep the
    # values they have alone, within the per-spike route's budget
    charge = RieszCharge(radial=(_edge_root_density(),))
    fam = SmoothCappedLogFamily(eps=0.25)
    taus = (0.5, 1.3, 1.6, 2.0, 3.0)
    tol = 1e-11
    val, err, note, adaptive = charge.integrate_radial(fam.spikes(taus),
                                                       tol=tol)
    assert note.tolist() == ["", "ToleranceFailure", "", "", ""]
    assert math.isnan(val[1]) and math.isnan(err[1])
    with pytest.raises(ToleranceFailure):
        oracles.integrate_radial_reference(charge, planes.member(fam, 1.3),
                                           tol=tol)
    assert adaptive == 2
    assert (val[0], err[0]) == (0.0, 0.0)
    for tau, got, got_err in zip(taus, val.tolist(), err.tolist()):
        if tau == 1.3:
            continue
        want, want_err, want_note, _ = charge.integrate_radial(
            fam.spikes([tau]), tol=tol)
        assert (got, got_err) == (want[0], want_err[0])
        assert want_note.tolist() == [""]
        ref, ref_err = oracles.integrate_radial_reference(
            charge, planes.member(fam, tau), tol=tol)
        assert abs(got - ref) <= ref_err + 1e-14 * (1.0 + abs(ref))


def test_integrate_radial_log_core_linear_mass_is_exact():
    # mu(s) = s makes mu(s)/s constant: int_0^a ln(a/s) ds = a, over the
    # truncated log's core, which is its whole support
    charge = make_radial_power(1.0, 1.0).riesz
    taus = (1e-3, 0.7, 50.0)
    for a, (val, err) in zip(taus, _radial_rows(
            charge, TruncatedLogFamily(), taus)):
        assert abs(val - a) <= 1e-15 * a
        assert err <= 1e-15 * a


def test_mass_in_takes_arrays():
    dens = _ANNULAR
    t = np.array([0.0, 0.3, 0.31, 1.0, 2.5, 7.0])
    got = dens.mass_in(t)
    assert got.shape == t.shape
    assert np.allclose(got, [dens.mass_in(float(x)) for x in t], rtol=1e-12,
                       atol=0.0)
    assert got[0] == got[1] == 0.0
    assert abs(got[-1] - 2.0 * (2.5 ** 2 - 0.09)) <= 1e-11
    assert isinstance(dens.mass_in(1.0), float)


def test_radial_density_declares_both_masses():
    # the charge integrals read both in closed form, with no quadrature
    # fallback for either
    with pytest.raises(TypeError):
        RadialDensity(profile=lambda s: 4.0 + 0.0 * s)
    with pytest.raises(TypeError):
        RadialDensity(profile=lambda s: 4.0 + 0.0 * s,
                      cumulative=lambda t: 2.0 * t * t)


def test_log_mass_in_matches_quadrature():
    # int_0^t mass_in(s)/s ds: 0 below the annulus, its declared log-mass
    # inside it, and past it the constant mass over s
    t = np.array([0.0, 0.3, 0.31, 1.0, 2.5, 7.0])
    got = _ANNULAR.log_mass_in(t)
    assert got[0] == got[1] == 0.0
    for x, v in zip(t[2:], got[2:]):
        want, err = integrate(lambda s: _ANNULAR.mass_in(s) / s, 0.3, x,
                              tol=1e-13, singularities=[2.5])
        assert abs(v - want) <= err + 1e-14 * (1.0 + abs(want))
    assert isinstance(_ANNULAR.log_mass_in(7.0), float)


def test_inner_edge_cut_drops_the_mass_below_it():
    # |z| has disk mass t and log-mass t; cut to (0.3, 2.0] the disk of
    # radius 1 holds 1 - 0.3, and int_0.3^1 (s - 0.3) / s ds remains
    dens = dataclasses.replace(make_radial_power(1.0, 1.0).riesz.radial[0],
                               support=(0.3, 2.0))
    assert dens.mass_in(1.0) == pytest.approx(0.7, abs=1e-15)
    assert dens.log_mass_in(1.0) == pytest.approx(
        0.7 - 0.3 * math.log(1.0 / 0.3), abs=1e-15)
    assert dens.mass_in(0.2) == 0.0 and dens.log_mass_in(0.3) == 0.0
    # past the outer edge the mass stays 1.7 and the log-mass grows by it
    assert dens.log_mass_in(3.0) == pytest.approx(
        1.7 - 0.3 * math.log(2.0 / 0.3) + 1.7 * math.log(1.5), abs=1e-14)
