"""Necessity margin sweep, regularity probe, and comparison constants."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from zerocert import (
    DomainError,
    DSubharmonicMajorant,
    EngineError,
    InvalidPotential,
    PlanePowerProfile,
    Region,
    RieszCharge,
    SmoothCappedLogFamily,
    SubharmonicModel,
    TruncatedLogFamily,
    ZeroDistribution,
    check_m0,
    green_disk,
    lemma1_constants,
    m0_dyadic_grid,
    make_harmonic,
    make_log_abs_poly,
    make_log_poly_growth,
    make_radial_power,
    make_zero_model,
    margin_sweep,
    mean_on_circle,
    model_sum,
)

from zerocert import criterion, measures, quadrature, testfam
from zerocert.criterion import m0_shell_count

import oracles
import planes
from test_measures import _ANNULAR


def _abs_majorant(sigma=1.0):
    return DSubharmonicMajorant(up=make_radial_power(sigma, 1.0))


# ---------------------------------------------------------------------------
# margin sweep


def test_margin_rhs_linear_growth_is_exact():
    # rhs(tau) = int ln+(tau/s) ds = tau for the |z| majorant; the whole
    # support is the exact-log core, where the integrand by parts is constant
    Z = ZeroDistribution.from_points([100.0 + 0j], [1])
    fam = TruncatedLogFamily(t_min=1.0, t_max=16.0, ratio=2.0)
    curve = margin_sweep(Z, _abs_majorant(), fam)
    for s in curve.samples:
        assert abs(s.rhs - s.tau) <= 1e-13 * s.tau
        assert s.lhs == 0.0
    assert curve.verdict == "consistent"


def test_margin_rhs_budget_covers_rounding():
    # the sine-certify sweep: the core integrand mu(s)/s is constant, so
    # the quadrature estimate is 0 and only the rounding floor is left
    Z = ZeroDistribution.real_multiples(step=np.pi, max_radius=1e5)
    fam = TruncatedLogFamily(t_min=0.5, t_max=50.0, ratio=1.4)
    curve = margin_sweep(Z, _abs_majorant(), fam)
    for s in curve.samples:
        assert 0.0 < s.rhs_budget <= 1e-14 * s.tau
        assert abs(s.rhs - s.tau) <= s.rhs_budget
    assert curve.verdict == "consistent"


def test_margin_needs_three_top_samples_for_a_verdict():
    # a family of one tau under |z|^0.5: its one sample (margin about +20)
    # used to read "consistent" vacuously
    Z = ZeroDistribution.real_multiples(step=np.pi, max_radius=np.pi * 1e4)
    M = DSubharmonicMajorant(up=make_radial_power(1.0, 0.5))
    curve = margin_sweep(Z, M, TruncatedLogFamily(50.0, 50.0, ratio=1.4))
    kept = [s for s in curve.samples if not s.note]
    assert len(kept) < 3
    assert curve.details["kept"] == len(kept)
    assert curve.verdict == "inconclusive"


def test_margin_root_majorant_keeps_every_sample():
    # |z|^0.5 declares its log-mass L(a) = a^0.5, so each truncated-log core
    # is closed form: no sample is dropped, and rhs = sigma tau^rho
    Z = ZeroDistribution.real_multiples(step=np.pi, max_radius=np.pi * 1e4)
    M = DSubharmonicMajorant(up=make_radial_power(1.0, 0.5))
    curve = margin_sweep(Z, M, TruncatedLogFamily(0.5, 50.0, ratio=1.4))
    assert curve.details["dropped"] == 0
    assert curve.details["kept"] == len(curve.samples) == 15
    for s in curve.samples:
        want = s.tau ** 0.5
        assert abs(s.rhs - want) <= 4.0 * math.ulp(want)
        assert abs(s.rhs - want) <= s.rhs_budget


def _bench_scenario(tmp_path, name, seed=7):
    """A benchmark workload's scenario, written and loaded as the CLI
    loads it."""
    import importlib.util
    import json
    from pathlib import Path

    from zerocert import load_scenario

    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    doc = tmp_path / ("%s.json" % name)
    doc.write_text(json.dumps(mod.WORKLOADS[name](seed)), encoding="utf-8")
    return load_scenario(str(doc))


@pytest.mark.parametrize("name,taus", [("gauss-smooth-violate", 124),
                                       ("sine-certify", 15)])
def test_margin_sweep_integrates_the_charge_in_one_call(tmp_path, monkeypatch,
                                                        name, taus):
    # every tau's charge integral comes from one integrate_radial call, and
    # on the benchmark workloads no band or core needs adaptive quadrature;
    # the family's members are read as one spike table, with no member
    # pulled back as a record
    sc = _bench_scenario(tmp_path, name)
    calls = {"radial": 0, "integrate": 0, "pullback": 0}
    radial = measures.RieszCharge.integrate_radial
    pullback = testfam.inversion_pullback

    def count_radial(self, spikes, **kw):
        calls["radial"] += 1
        return radial(self, spikes, **kw)

    def count_integrate(*args, **kw):
        calls["integrate"] += 1
        return quadrature.integrate(*args, **kw)

    def count_pullback(p):
        calls["pullback"] += 1
        return pullback(p)

    monkeypatch.setattr(measures.RieszCharge, "integrate_radial", count_radial)
    monkeypatch.setattr(measures, "integrate", count_integrate)
    monkeypatch.setattr(testfam, "inversion_pullback", count_pullback)
    curve = margin_sweep(sc.zeros, sc.majorant, sc.family,
                         tol=sc.tol("margin"))
    assert calls == {"radial": 1, "integrate": 0, "pullback": 0}
    assert len(curve.samples) == taus and curve.details["dropped"] == 0
    assert curve.details["adaptive_bands"] == 0


def test_margin_lhs_matches_direct_sum():
    Z = ZeroDistribution.real_multiples(step=np.pi)
    fam = TruncatedLogFamily(t_min=2.0, t_max=32.0, ratio=2.0)
    curve = margin_sweep(Z, _abs_majorant(), fam)
    radii = oracles.pi_lattice_radii(200)
    for s in curve.samples:
        want = 2.0 * oracles.margin_lhs_direct(radii, np.ones_like(radii), s.tau)
        assert abs(s.lhs - want) <= 1e-9 * (1.0 + abs(want))


def test_margin_consistent_for_pi_lattice():
    Z = ZeroDistribution.real_multiples(step=np.pi)
    fam = TruncatedLogFamily(t_min=1.0, t_max=64.0, ratio=2.0**0.5)
    curve = margin_sweep(Z, _abs_majorant(), fam)
    assert curve.verdict == "consistent"
    # margins behave like (2/pi - 1) tau - ln tau: negative from early on
    late = [s for s in curve.samples if s.tau >= 10.0]
    assert all(s.margin < 0 for s in late)


def test_margin_violated_for_dense_zeros():
    Z = ZeroDistribution.gaussian_integers(max_radius=120.0)
    fam = TruncatedLogFamily(t_min=1.0, t_max=40.0, ratio=2.0**0.5)
    curve = margin_sweep(Z, _abs_majorant(), fam)
    assert curve.verdict == "violated"
    assert curve.growth_exponent is not None
    assert 1.5 <= curve.growth_exponent <= 2.5


def test_margin_rejects_zero_at_origin():
    Z = ZeroDistribution.from_points([0j, 1.0 + 0j], [1, 1])
    fam = TruncatedLogFamily(t_min=1.0, t_max=4.0, ratio=2.0)
    with pytest.raises(DomainError):
        margin_sweep(Z, _abs_majorant(), fam)


# The sweep takes each lhs from prefix sums over the closed-form core and
# evaluates the profile only in the blend band; the reference is the
# direct sum of mult * radial_profile(|z|) over every zero.


def _direct_lhs(points, mults, test):
    r = np.abs(np.asarray(points, dtype=complex))
    vals = np.asarray(test.radial_profile(r), dtype=float) if r.size else r
    return float(np.sum(np.asarray(mults, dtype=float) * vals))


def _family(kind, t_min, ratio, n_taus, eps=0.25):
    t_max = t_min * ratio ** (n_taus - 1)
    if kind == "truncated":
        return TruncatedLogFamily(t_min=t_min, t_max=t_max, ratio=ratio)
    return SmoothCappedLogFamily(t_min=t_min, t_max=t_max, ratio=ratio,
                                 eps=eps)


def _assert_lhs_direct(points, mults, fam):
    Z = ZeroDistribution.from_points(points, mults)
    curve = margin_sweep(Z, _abs_majorant(), fam)
    assert len(curve.samples) == len(fam.taus())
    for s, tau in zip(curve.samples, fam.taus()):
        want = _direct_lhs(points, mults, planes.member(fam, tau))
        assert abs(s.lhs - want) <= 1e-12 * (1.0 + abs(want)), (tau, s.lhs,
                                                                 want)
    return curve


@settings(max_examples=40, deadline=None)
@given(
    zeros=st.lists(st.tuples(st.floats(0.01, 100.0),
                             st.floats(0.0, 2.0 * math.pi),
                             st.integers(1, 5)), max_size=30),
    kind=st.sampled_from(["truncated", "smooth"]),
    t_min=st.floats(0.1, 5.0),
    ratio=st.floats(1.1, 3.0),
    n_taus=st.integers(1, 5),
    eps=st.floats(0.05, 1.0),
)
def test_margin_lhs_matches_direct_profile_sum(zeros, kind, t_min, ratio,
                                               n_taus, eps):
    points = [r * complex(math.cos(a), math.sin(a)) for r, a, _ in zeros]
    mults = [m for _, _, m in zeros]
    _assert_lhs_direct(points, mults, _family(kind, t_min, ratio, n_taus, eps))


@pytest.mark.parametrize("kind", ["truncated", "smooth"])
def test_margin_lhs_ties_on_core_and_support_edges(kind):
    # zeros exactly on each cutoff's log_core and support_radius, on both
    # axes, so searchsorted meets ties at every edge
    fam = _family(kind, 0.7, 1.5, 6)
    points, mults = [], []
    for tau in fam.taus():
        test = planes.member(fam, tau)
        for j, radius in enumerate((test.log_core, test.support_radius)):
            points += [complex(radius, 0.0), complex(0.0, radius)]
            mults += [j + 1, 2]
    _assert_lhs_direct(points, mults, fam)


@pytest.mark.parametrize("kind", ["truncated", "smooth"])
@pytest.mark.parametrize("scale,max_radius", [(0.37, 9.0), (2.3, 8.0),
                                              (0.5, None)])
def test_margin_lhs_on_scaled_gaussian_lattices(kind, scale, max_radius):
    # the sweep reads the lattice's norms; the reference enumerates its
    # points, the capped ones stopping inside the sweep's reach (over 10)
    fam = _family(kind, 0.6, 1.6, 7)
    Z = ZeroDistribution.gaussian_integers(scale=scale, max_radius=max_radius)
    curve = margin_sweep(Z, _abs_majorant(), fam)
    assert len(curve.samples) == len(fam.taus())
    for s, tau in zip(curve.samples, fam.taus()):
        test = planes.member(fam, tau)
        want = _direct_lhs(*Z.points_up_to(test.support_radius), test)
        assert abs(s.lhs - want) <= 1e-12 * (1.0 + abs(want)), (tau, s.lhs,
                                                                want)


def test_margin_sweep_never_enumerates_lattice_points(monkeypatch):
    asked = []
    enumerate_points = ZeroDistribution.points_up_to

    def recording(self, radius):
        asked.append(radius)
        return enumerate_points(self, radius)

    monkeypatch.setattr(ZeroDistribution, "points_up_to", recording)
    Z = ZeroDistribution.gaussian_integers(scale=0.5, max_radius=40.0)
    curve = margin_sweep(Z, _abs_majorant(), _family("smooth", 0.5, 1.5, 8))
    # the origin check reads the radii too
    assert asked == []
    assert 0 < curve.details["radii"] < curve.details["zeros"]


@pytest.mark.parametrize("kind", ["truncated", "smooth"])
def test_margin_lhs_empty_core_and_empty_set(kind):
    fam = _family(kind, 0.5, 2.0, 6)
    # the first cutoffs hold no zeros in their core (nor anywhere)
    curve = _assert_lhs_direct([9.0 + 0j, -12.0j, 14.0 + 3.0j], [1, 3, 2],
                               fam)
    assert curve.samples[0].lhs == 0.0
    empty = margin_sweep(ZeroDistribution.empty(), _abs_majorant(), fam)
    assert [s.lhs for s in empty.samples] == [0.0] * len(fam.taus())


def _edge_radii(fam):
    """Every cutoff's core and support radius and the radii of its log
    shape's piece edges, c - ln r = e."""
    out = []
    for tau in fam.taus():
        test = planes.member(fam, tau)
        out += [test.log_core, test.support_radius]
        out += [math.exp(test.log_constant - e)
                for e, _ in test.log_shape.pieces]
    return [r for r in out if r > 0]


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["truncated", "smooth"]),
    t_min=st.floats(0.2, 3.0),
    ratio=st.floats(1.02, 3.0),
    n_taus=st.integers(1, 40),
    eps=st.floats(0.05, 1.0),
    zeros=st.one_of(
        st.sampled_from([0.37, 1.0, 2.3]),
        st.lists(st.tuples(st.floats(0.01, 60.0), st.integers(1, 5)),
                 max_size=20)),
    on_edges=st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(1, 4)),
                      max_size=12),
)
@example(kind="smooth", t_min=0.5, ratio=1.05, n_taus=40, eps=0.25,
         zeros=1.0, on_edges=[])
def test_margin_moment_lhs_matches_block_oracle(kind, t_min, ratio, n_taus,
                                                eps, zeros, on_edges):
    # the band sums come from per-segment moments; the references are the
    # block-by-block profile evaluation they replaced and the exact sum of
    # the declared profile, c - g ln|z| in the core and profile(|z|)
    # beyond, both within the sweep's rounding bound and 1e-15 of the
    # summed terms.  A zero within rounding of a support edge may fall on
    # either side of it, where the blend is below 1e-60
    n_taus = min(n_taus, 1 + int(math.log(20.0 / t_min) / math.log(ratio)))
    fam = _family(kind, t_min, ratio, n_taus, eps)
    if isinstance(zeros, float):
        Z = ZeroDistribution.gaussian_integers(scale=zeros)
    else:
        edges = _edge_radii(fam)
        points = [radius for radius, _ in zeros]
        points += [edges[k % len(edges)] for k, _ in on_edges]
        mults = [m for _, m in zeros] + [m for _, m in on_edges]
        Z = ZeroDistribution.from_points(np.asarray(points, dtype=complex),
                                         mults)
    curve = margin_sweep(Z, _abs_majorant(), fam)
    tests = [planes.member(fam, t) for t in fam.taus()]
    r, m = Z.radii_up_to(1.05 * max(t.support_radius for t in tests))
    blocks = oracles.sweep_lhs_blocks(r, m, tests)
    rounding = curve.details["lhs_rounding"]
    for s, test, want in zip(curve.samples, tests, blocks):
        terms = m * np.where(
            r <= test.log_core,
            test.log_constant - test.pole_coefficient * np.log(r),
            np.asarray(test.radial_profile(r), dtype=float))
        slack = rounding + 1e-15 * math.fsum(np.abs(terms)) + 1e-60
        assert abs(s.lhs - want) <= slack, (s.tau, s.lhs, want)
        assert abs(s.lhs - math.fsum(terms)) <= slack, (s.tau, s.lhs)


@dataclasses.dataclass(frozen=True)
class _BareShapeFamily:
    """Members whose log shape hides its piece declaration."""

    inner: object
    kind = "bare-shape"

    def taus(self):
        return self.inner.taus()

    def spikes(self, taus):
        table = self.inner.spikes(taus)
        shape = table.log_shape
        table.log_shape = lambda x: shape(x)
        return table


def test_margin_band_without_declared_pieces_raises_by_name():
    Z = ZeroDistribution.gaussian_integers(max_radius=30.0)
    with pytest.raises(InvalidPotential, match="pieces"):
        margin_sweep(Z, _abs_majorant(),
                     _BareShapeFamily(_family("smooth", 0.5, 1.5, 6)))
    # a truncated log's bands are empty: nothing reads its pieces
    curve = margin_sweep(Z, _abs_majorant(),
                         _BareShapeFamily(_family("truncated", 0.5, 1.5, 6)))
    assert curve.details["band_pairs"] == 0


def test_margin_truncated_lhs_is_nevanlinna_N():
    for Z in (ZeroDistribution.real_multiples(step=np.pi),
              ZeroDistribution.gaussian_integers(max_radius=60.0),
              ZeroDistribution.from_points([1.5, -2.0j, 3.0 + 4.0j],
                                           [2, 1, 3])):
        fam = TruncatedLogFamily(t_min=0.5, t_max=50.0, ratio=1.3)
        curve = margin_sweep(Z, _abs_majorant(), fam)
        for s in curve.samples:
            want = oracles.nevanlinna_N(Z, s.tau)
            assert abs(s.lhs - want) <= 1e-12 * (1.0 + abs(want))


_ROOTS = st.complex_numbers(min_magnitude=0.05, max_magnitude=20.0,
                            allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(roots=st.lists(st.tuples(_ROOTS, st.integers(1, 3)), min_size=1,
                      max_size=3, unique_by=lambda r: r[0]),
       sigma=st.floats(0.3, 2.0), rho=st.sampled_from([1.0, 1.5]),
       kind=st.sampled_from(["truncated-log", "smooth-capped-log"]))
@example(roots=[(0.5 + 0.5j, 1), (-2.0 + 1j, 2)], sigma=0.7, rho=1.0,
         kind="truncated-log")
@example(roots=[(0.5 + 0.5j, 1), (-2.0 + 1j, 2)], sigma=0.7, rho=1.0,
         kind="smooth-capped-log")
# np.abs of this root is 1 ulp above Python's abs: the spike is read at
# the atom's own modulus, as the charge reads it
@example(roots=[(0.42135127613063533 + 0.42135127613063533j, 3)], sigma=0.5,
         rho=1.0, kind="truncated-log")
def test_margin_division_identity(roots, sigma, rho, kind):
    # f vanishes on Z with ln|f| <= u - ln|p| exactly when f p vanishes on
    # Z and the roots of p with ln|f p| <= u.  The lower part's charge is
    # the roots as atoms, so it lowers every rhs, and raises every margin,
    # by the spike's value at each atom, counted with its mass
    fam = (TruncatedLogFamily(t_min=0.5, t_max=500.0, ratio=1.4)
           if kind == "truncated-log"
           else SmoothCappedLogFamily(t_min=0.5, t_max=500.0, ratio=1.4))
    Z = ZeroDistribution.real_multiples(step=np.pi)
    up = make_radial_power(sigma, rho)
    low = make_log_abs_poly(roots=[a for a, _ in roots],
                            mults=[m for _, m in roots])
    plain = margin_sweep(Z, DSubharmonicMajorant(up=up), fam)
    lowered = margin_sweep(Z, DSubharmonicMajorant(up=up, low=low), fam)
    for s0, s1 in zip(plain.samples, lowered.samples):
        assert s0.tau == s1.tau and not s0.note and not s1.note
        spike = planes.member(fam, s0.tau).radial_profile
        want = float(np.sum(low.riesz.atom_masses
                            * spike(np.abs(low.riesz.atom_points))))
        scale = max(abs(s0.lhs), abs(s0.rhs), abs(s1.rhs), abs(want))
        slack = s0.rhs_budget + s1.rhs_budget + 8.0 * np.spacing(scale)
        assert abs((s1.margin - s0.margin) - want) <= slack


def test_margin_curve_is_columns_with_samples_on_demand(tmp_path,
                                                      monkeypatch):
    # the gauss benchmark sweep builds no per-cutoff record and calls no
    # LAPACK routine; curve.samples reads the columns back as records
    sc = _bench_scenario(tmp_path, "gauss-smooth-violate")
    built = []
    init = criterion.MarginSample.__init__

    def counted(self, *args, **kw):
        built.append(1)
        init(self, *args, **kw)

    def no_linalg(*args, **kw):
        raise AssertionError("np.linalg called")

    monkeypatch.setattr(criterion.MarginSample, "__init__", counted)
    monkeypatch.setattr(np.linalg, "lstsq", no_linalg)
    curve = margin_sweep(sc.zeros, sc.majorant, sc.family,
                         tol=sc.tol("margin"))
    assert built == [] and curve.verdict == "violated"
    columns = ("tau", "lhs", "rhs", "margin", "rhs_budget", "note")
    for name in columns[:-1]:
        col = getattr(curve, name)
        assert col.dtype == float and col.shape == (124,)
    assert curve.note.dtype.kind == "U" and (curve.note == "").all()
    assert np.array_equal(curve.margin, curve.lhs - curve.rhs)
    samples = curve.samples
    assert len(built) == len(samples) == 124
    for i, s in enumerate(samples):
        assert s == criterion.MarginSample(
            *(getattr(curve, name)[i].item() for name in columns))


def _exact_fit(x, y):
    # least squares in exact rationals on the float inputs
    from fractions import Fraction

    X = [Fraction(v) for v in x]
    Y = [Fraction(v) for v in y]
    mx, my = sum(X) / len(X), sum(Y) / len(Y)
    sxy = sum((a - mx) * (b - my) for a, b in zip(X, Y))
    syy = sum((b - my) ** 2 for b in Y)
    slope = sxy / sum((a - mx) ** 2 for a in X)
    return float(slope), float(1 - (syy - slope * sxy) / syy) if syy else 1.0


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), ratio=st.floats(1.01, 2.2),
       tau_max=st.floats(5.0, 1e6))
@example(seed=0, ratio=2.0, tau_max=10.0)
def test_growth_fit_closed_form_matches_lstsq(seed, ratio, tau_max):
    # the top decade of a geometric sweep, as the verdict fits it: the
    # centred closed form is within 4 ulps of the exact least-squares
    # slope and r^2, and agrees with np.linalg.lstsq, which solves the
    # uncentred problem and is the less accurate of the two (up to about
    # 60 ulps here)
    rng = np.random.default_rng(seed)
    x = np.log(tau_max * ratio ** -np.arange(
        int(math.log(10.0) / math.log(ratio)) + 1))[::-1]
    assume(x.size >= criterion._MIN_TOP)
    y = (rng.uniform(-3.0, 3.0) * x + rng.uniform(-30.0, 30.0)
         + rng.normal(0.0, 10.0 ** rng.uniform(-12.0, 0.0), x.size))
    slope, r2 = criterion._fit_growth(x, y)
    want, want_r2 = _exact_fit(x, y)
    assert abs(slope - want) <= 4.0 * np.spacing(max(1.0, abs(want)))
    assert abs(r2 - want_r2) <= 4.0 * np.spacing(1.0)
    A = np.vstack([x, np.ones_like(x)]).T
    coef = np.linalg.lstsq(A, y, rcond=None)[0]
    assert abs(slope - coef[0]) <= 1e-12 * max(1.0, abs(coef[0]))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 30),
       drop=st.sampled_from([0.0, 0.2, 0.6, 1.0]),
       shape=st.sampled_from(["growth", "flat", "signed", "noise"]))
@example(seed=1, n=2, drop=0.0, shape="growth")
@example(seed=2, n=12, drop=0.9, shape="growth")
def test_margin_verdict_rule_matches_records(seed, n, drop, shape):
    # the array rule against the rule applied sample by sample, on random
    # columns with dropped samples (NaN rhs and margin) and top decades of
    # every size, including fewer than _MIN_TOP samples
    rng = np.random.default_rng(seed)
    tau = rng.uniform(0.1, 5.0) * rng.uniform(1.02, 1.8) ** np.arange(n)
    tol = 10.0 ** rng.uniform(-10.0, -7.0)
    lhs_rounding = float(rng.choice([0.0, 10.0 ** rng.uniform(-16.0, -9.0)]))
    budget = 10.0 ** rng.uniform(-16.0, -8.0, n)
    thr = 10.0 * max(budget.max() + lhs_rounding, tol)
    margin = {"growth": thr * rng.uniform(0.5, 5.0)
              * (tau / tau[0]) ** rng.uniform(-1.0, 3.0),
              "flat": thr * rng.uniform(-2.0, 2.0, n),
              "signed": thr * 10.0 ** rng.uniform(-2.0, 4.0, n)
              * rng.choice([-1.0, 1.0], n),
              "noise": thr * (1.0 + 0.1 * rng.standard_normal(n))
              * rng.uniform(0.5, 3.0)}[shape]
    kept = rng.random(n) >= drop
    margin[~kept] = math.nan
    budget[~kept] = math.nan
    got = criterion._margin_verdict(tau, margin, budget, kept, lhs_rounding,
                                    tol)
    want = oracles.margin_verdict_by_records(
        tau, margin, budget, kept, lhs_rounding, tol,
        min_top=criterion._MIN_TOP)
    assert got[0] == want[0] and got[4] == want[4]
    assert got[3] == want[3] or (math.isnan(got[3]) and math.isnan(want[3]))
    for a, b in zip(got[1:3], want[1:3]):
        assert (a is None) == (b is None)
        if a is not None:
            assert abs(a - b) <= 1e-10 * max(1.0, abs(b))


# ---------------------------------------------------------------------------
# (M0) regularity probe


def test_m0_grid_is_deterministic():
    a = m0_dyadic_grid(100.0, per_shell=8)
    b = m0_dyadic_grid(100.0, per_shell=8)
    assert np.array_equal(a, b)
    assert np.max(np.abs(a)) <= 100.0


@pytest.mark.parametrize("r_max", [3.0, 40.0, 2.0 ** 1 - 1.0, 2.0 ** 5 - 1.0,
                                   2.0 ** 20 - 1.0, 2.0 ** 49 - 1.0, 1e6,
                                   1e15])
def test_m0_shell_count_matches_grid(r_max):
    # one point per shell: the count is the grid's, with no empty shell
    assert m0_shell_count(r_max) == m0_dyadic_grid(r_max, 1).size
    assert m0_shell_count(r_max) == math.ceil(math.log2(1.0 + r_max))


def test_m0_harmonic_deviation_vanishes():
    up = make_harmonic(lambda z: np.real(np.asarray(z, dtype=complex)), kind="re-z")
    rep = check_m0(up, 1.0, m0_dyadic_grid(60.0, per_shell=6))
    assert rep.bounded
    assert rep.c_estimate <= 1e-10


def test_m0_square_constant_deviation():
    # circle mean of |z|^2 at radius r exceeds the value by exactly r^2;
    # with the constant profile the deviation is identically 1
    up = make_radial_power(1.0, 2.0)
    rep = check_m0(up, 0.0, m0_dyadic_grid(60.0, per_shell=6))
    assert rep.bounded
    assert abs(rep.c_estimate - 1.0) <= 1e-9


def test_m0_quartic_unbounded():
    up = make_radial_power(1.0, 4.0)
    rep = check_m0(up, 0.0, m0_dyadic_grid(60.0, per_shell=6))
    assert not rep.bounded
    assert len(rep.flagged) > 0


def test_m0_shells_are_exact_below_a_power_of_two():
    # 1 + |z| = 8 - 2^-50 lies in shell 2, where floor(log2) reads 3
    z = np.nextafter(7.0, 0.0)
    assert math.floor(math.log2(1.0 + z)) == 3
    rep = check_m0(make_radial_power(1.0, 1.0), 1.0, np.array([z, 7.0]))
    assert rep.shell.tolist() == [2, 3]
    assert len(rep.shell_sups) == 2

# models that declare closed-form circle means, which check_m0 and
# JensenMeasure.integrate read in place of quadrature
_CLOSED_FORM_MODELS = {
    "abs": make_radial_power(1.0, 1.0),
    "square": make_radial_power(0.7, 2.0),
    "log-abs-poly": make_log_abs_poly(roots=[1.0 + 0j, -2.0 + 1.5j],
                                      mults=[2, 1]),
    "harmonic": make_harmonic(
        lambda z: np.real(np.asarray(z, dtype=complex)), kind="re-z"),
    "sum": model_sum(
        make_radial_power(1.0, 1.0),
        make_harmonic(lambda z: np.imag(np.asarray(z, dtype=complex)),
                      kind="im-z")),
}


def _m0_by_quadrature(M_up, P, pts, tol=1e-12):
    """check_m0's route before closed forms: a radius per point,
    deviations from mean_on_circle, shell suprema over the sorted shells.
    Returns (deviation, budget, shell, shell_sups, bounded).

    Two changes keep the quadrature's error estimates honest on circles
    that pass close to a singular point.  Its panels also break where a
    circle passes the origin, the kink of |z| that the radial powers do
    not declare: about 1e-4 + 1j with radius 1 the mean is otherwise off
    by 1.6e-9 against an estimate of 1.8e-16.  And it runs at tol 1e-12,
    not check_m0's 1e-8: about 1e-5j with radius (1 + 1e-5)^-2, a circle
    passing 1e-5 from the double root of ln|(z - 1)^2 (z + 2 - 1.5i)|,
    the mean at 1e-8 is off by 1.4e-8 against an estimate of 9.1e-10.
    Shells are exact, from math.frexp, where math.log2 would round up to k
    just below 2^k."""
    profile = PlanePowerProfile(P)
    radii = np.array([float(profile.radius(complex(z))) for z in pts])
    kinked = lambda z: M_up(z)
    kinked.singular_points = (*M_up.singular_points, 0j)
    means, budget = mean_on_circle(kinked, pts, radii, tol=tol)
    deviation = means - np.asarray(M_up(pts), dtype=float)
    shell = [math.frexp(1.0 + abs(complex(z)))[1] - 1 for z in pts]
    sups = [max(d for d, k in zip(deviation, shell) if k == j)
            for j in sorted(set(shell))]
    running = np.maximum.accumulate(sups)
    bounded = (len(running) < 2 or running[-1] - running[-2]
               <= 0.01 * (1.0 + abs(running[-2])))
    return deviation, budget, shell, sups, bounded


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(_CLOSED_FORM_MODELS)),
    power=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    pts=st.lists(st.complex_numbers(max_magnitude=40.0, allow_nan=False,
                                    allow_infinity=False),
                 min_size=1, max_size=24),
)
def test_check_m0_closed_form_matches_quadrature(name, power, pts):
    up = _CLOSED_FORM_MODELS[name]
    pts = np.array(pts, dtype=complex)
    # a probe on a root of ln|poly| has deviation +inf on both routes
    assume(np.all(np.isfinite(up(pts))))
    rep = check_m0(up, power, pts)
    dev, budget, shell, sups, bounded = _m0_by_quadrature(up, power, pts)
    assert not rep.budget.any()
    # neither budget covers the rounding of mean - M_up(z), which cancels
    # two values of size |M_up(z)|: allow 16 ulps of it on top
    bound = budget + 1e-13 + 16.0 * np.spacing(np.abs(up(pts)))
    assert np.all(np.abs(rep.deviation - dev) <= bound)
    assert rep.shell.tolist() == shell
    assert rep.bounded == bounded
    assert len(rep.shell_sups) == len(sups)
    assert np.all(np.abs(np.array(rep.shell_sups) - sups) <= bound.max())


@pytest.mark.parametrize("name", sorted(_CLOSED_FORM_MODELS))
def test_check_m0_closed_form_takes_no_quadrature(monkeypatch, name):
    def refuse(*args, **kwargs):
        raise AssertionError("check_m0 ran a quadrature")

    monkeypatch.setattr(quadrature, "integrate", refuse)
    monkeypatch.setattr(quadrature, "mean_on_circle", refuse)
    rep = check_m0(_CLOSED_FORM_MODELS[name], 1.0, m0_dyadic_grid(40.0, per_shell=6))
    assert rep.z.size == rep.deviation.size == 36
    assert not rep.budget.any()


def test_check_m0_without_closed_form_keeps_budgets():
    # |z|^0.5 declares no closed-form circle mean: its deviations come
    # from quadrature, with its budgets (0 where the Gauss pair agrees)
    up = make_radial_power(1.0, 0.5)
    assert up.exact_circle_mean is None
    rep = check_m0(up, 1.0, m0_dyadic_grid(40.0, per_shell=6))
    assert rep.budget.any()
    assert np.all(rep.deviation >= -rep.budget)
    assert rep.bounded


# ---------------------------------------------------------------------------
# comparison constants


def test_lemma1_frozen_geometry():
    M = DSubharmonicMajorant(up=make_zero_model())
    c = lemma1_constants(Region.disk(0.0, 1.0), Region.disk(0.0, 0.5), 0j, 1.0, M)
    assert abs(c.c_test - 1.0 / math.log(2.0)) <= 1e-10
    assert abs(c.inf_green - math.log(2.0)) <= 1e-10
    assert c.c_majorant == 0.0


def test_lemma1_atom_majorant_matches_atom_sum():
    roots = [0.3 + 0j, -0.2 + 0.4j]
    M = DSubharmonicMajorant(up=make_log_abs_poly(roots=roots, mults=[1, 2]))
    c = lemma1_constants(Region.disk(0.0, 1.0), Region.disk(0.0, 0.5), 0j, 1.0, M)
    g = green_disk(1.0, 0j)
    want = float(np.asarray(g(np.array(roots)), dtype=float) @ np.array([1.0, 2.0]))
    want += max(0.0, float(M.up(np.array([0j]))[0]))
    assert math.isfinite(c.c_majorant)
    assert abs(c.c_majorant - want) <= 1e-8


def test_lemma1_radial_majorant_closed_form():
    # int_0^1 ln(1/s) 4 s ds = 1 for the |z|^2 charge against the Green pole
    M = DSubharmonicMajorant(up=make_radial_power(1.0, 2.0))
    c = lemma1_constants(Region.disk(0.0, 1.0), Region.disk(0.0, 0.5), 0j, 1.0, M)
    assert abs(c.parts["charge-term"] - 1.0) <= 1e-8
    assert abs(c.c_majorant - 1.0) <= 1e-8


def test_lemma1_offcenter_green_floor():
    M = DSubharmonicMajorant(up=make_zero_model())
    c = lemma1_constants(
        Region.disk(0.0, 1.0), Region.disk(0.1 + 0j, 0.4), 0.2 + 0j, 2.0, M
    )
    g = green_disk(1.0, 0.2 + 0j)
    th = np.linspace(0.0, 2 * np.pi, 200001)
    brute = float(np.min(np.asarray(g(0.1 + 0.4 * np.exp(1j * th)), dtype=float)))
    assert abs(c.inf_green - brute) <= 1e-8
    assert abs(c.c_test - 2.0 / brute) <= 1e-7


@settings(max_examples=200, deadline=None)
# a small disk about 2 with its inner circle near the rim, at |z| about
# 2.2: a grid search there in the plane's coordinates rounds g by 1e-13
@example(R=0.201171875, cx=2.0, cy=0.0, rho_frac=0.01171875,
         off_frac=0.9899999999999999, off_angle=0.5, pole_frac=0.0,
         pole_angle=0.0)
@given(
    R=st.floats(0.2, 5.0),
    cx=st.floats(-2.0, 2.0),
    cy=st.floats(-2.0, 2.0),
    rho_frac=st.floats(0.01, 0.95),
    off_frac=st.floats(0.0, 0.99),
    off_angle=st.floats(0.0, 2 * math.pi),
    pole_frac=st.floats(0.0, 0.98),
    pole_angle=st.floats(0.0, 2 * math.pi),
)
def test_lemma1_green_floor_matches_search(R, cx, cy, rho_frac, off_frac,
                                           off_angle, pole_frac, pole_angle):
    # the closed-form floor against a refined grid search of the Green
    # function on the inner circle, in the ambient disk's own coordinates
    # so that the search's rounding stays at the disk's size
    center = complex(cx, cy)
    rho = rho_frac * R
    s_center = center + off_frac * (R - rho) * complex(math.cos(off_angle),
                                                       math.sin(off_angle))
    z0 = s_center + pole_frac * rho * complex(math.cos(pole_angle),
                                              math.sin(pole_angle))
    M = DSubharmonicMajorant(up=make_zero_model())
    c = lemma1_constants(Region.disk(center, R), Region.disk(s_center, rho),
                         z0, 1.0, M)
    want = oracles.min_green_on_circle(green_disk(R, z0 - center),
                                       s_center - center, rho)
    assert abs(c.inf_green - want) <= 1e-13 * max(1.0, want)


# name -> (majorant, ambient disk, inner disk, pole)
_LEMMA1_CASES = {
    "radial-power-1": (DSubharmonicMajorant(up=make_radial_power(1.0, 1.0)),
                       Region.disk(0j, 1.0), Region.disk(0j, 0.5), 0j),
    "radial-power-1-off-pole": (
        DSubharmonicMajorant(up=make_radial_power(1.0, 1.0)),
        Region.disk(0j, 2.0), Region.disk(0.3 + 0.2j, 0.9), 0.5 - 0.1j),
    "radial-power-2-off-pole": (
        DSubharmonicMajorant(up=make_radial_power(0.7, 2.0)),
        Region.disk(0j, 1.0), Region.disk(0j, 0.5), 0.1j),
    "log-abs-poly-off-center": (
        DSubharmonicMajorant(up=make_log_abs_poly(
            roots=[0.3 + 0j, -0.2 + 0.4j, 0.9 - 0.6j], mults=[1, 2, 1])),
        Region.disk(0.1 + 0.1j, 1.2), Region.disk(0.15 + 0j, 0.5), 0.2 + 0j),
    "d-subharmonic": (
        DSubharmonicMajorant(up=make_radial_power(2.0, 1.0),
                             low=make_log_poly_growth()),
        Region.disk(0j, 1.5), Region.disk(0j, 0.6), 0.3j),
    # negative atoms on both sides of the inner disk's boundary: the one
    # inside it leaves the negative term, the one outside stays
    "log-abs-poly-pair-off-center": (
        DSubharmonicMajorant(
            up=make_log_abs_poly(roots=[0.2 + 0.1j, -0.1j], mults=[2, 1]),
            low=make_log_abs_poly(roots=[0.55 + 0.1j, 0.05 + 0.03j])),
        Region.disk(0.05 + 0j, 1.1), Region.disk(0.2 + 0.05j, 0.3),
        0.25 + 0.05j),
}


@pytest.mark.parametrize("name", sorted(_LEMMA1_CASES))
def test_lemma1_matches_quadrature_route(name):
    # closed-form Green circle means against the same integrals with g
    # stripped of its exact_circle_mean, so every circle mean is quadrature
    M, d_tilde, s_region, z0 = _LEMMA1_CASES[name]
    c = lemma1_constants(d_tilde, s_region, z0, 1.0, M)
    want, want_budget = oracles.lemma1_c_majorant_by_quadrature(
        d_tilde, s_region, z0, M)
    assert math.isfinite(c.c_majorant)
    assert abs(c.c_majorant - want) <= c.budget + want_budget + 1e-14


def test_lemma1_takes_no_circle_quadrature(monkeypatch):
    # the README geometry: |z| on the unit disk, pole 0; the charge of |z|
    # is ds on each radius and int_0^1 ln(1/s) ds = 1
    M = DSubharmonicMajorant(up=make_radial_power(1.0, 1.0))

    def refuse(*args, **kwargs):
        raise AssertionError("lemma1 ran a quadrature")

    # wherever a quadrature can be reached from the charge integrals
    monkeypatch.setattr(quadrature, "mean_on_circle", refuse)
    monkeypatch.setattr(quadrature, "integrate", refuse)
    monkeypatch.setattr(measures, "integrate", refuse)
    monkeypatch.setattr(measures, "integrate_circle_means", refuse)
    c = lemma1_constants(Region.disk(0j, 1.0), Region.disk(0j, 0.5), 0j,
                         1.0, M)
    assert abs(c.c_majorant - 1.0) <= c.budget
    assert c.c_majorant == 1.0


def test_lemma1_power_below_one_is_closed_form():
    # the charge term of 2|z|^0.5 is L(1) - L(|z0|) = 2 - 2 sqrt(0.1), with
    # no quadrature of the s^(rho - 1) endpoint singularity; the pole term
    # 2 sqrt(0.1) brings c_majorant to 2
    M = DSubharmonicMajorant(up=make_radial_power(2.0, 0.5))
    c = lemma1_constants(Region.disk(0j, 1.0), Region.disk(0j, 0.5), 0.1j,
                         1.0, M)
    want = 2.0 - 2.0 * math.sqrt(0.1)
    assert abs(c.parts["charge-term"] - want) <= 4.0 * math.ulp(want)
    assert c.c_majorant == 2.0


# majorants for the property test against the nested route; the
# annular density's support ends at 2.5, which R falls on both sides of.
# As the lower model its log-mass at R cancels between the charge term
# and the negative term, so it also enters as the upper one.
_ANNULAR_MODEL = SubharmonicModel(
    kind="annular", params={}, eval=lambda z: _ANNULAR.log_mass_in(np.abs(z)),
    riesz=RieszCharge(radial=(_ANNULAR,)))
_LEMMA1_CHARGES = {
    "abs": DSubharmonicMajorant(up=make_radial_power(1.0, 1.0)),
    "square": DSubharmonicMajorant(up=make_radial_power(0.7, 2.0)),
    "log-poly-growth": DSubharmonicMajorant(up=make_log_poly_growth()),
    "d-subharmonic": DSubharmonicMajorant(up=make_radial_power(1.0, 1.0),
                                          low=make_log_poly_growth()),
    "annular-low": DSubharmonicMajorant(up=make_radial_power(1.0, 1.0),
                                        low=_ANNULAR_MODEL),
    "annular-up": DSubharmonicMajorant(up=_ANNULAR_MODEL),
}


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(sorted(_LEMMA1_CHARGES)),
       R=st.floats(0.5, 4.0),
       rho_frac=st.floats(0.02, 0.95),
       pole_frac=st.floats(0.0, 0.95),
       pole_angle=st.floats(0.0, 2 * math.pi))
# R past the annulus, and inside it with S inside its hole
@example(name="annular-low", R=3.0, rho_frac=0.5, pole_frac=0.5,
         pole_angle=1.0)
@example(name="annular-low", R=2.0, rho_frac=0.1, pole_frac=0.5,
         pole_angle=1.0)
@example(name="annular-up", R=3.0, rho_frac=0.5, pole_frac=0.5,
         pole_angle=1.0)
def test_lemma1_matches_the_nested_route(name, R, rho_frac, pole_frac,
                                         pole_angle):
    # log-mass differences against nested quadrature of the Green
    # function's circle means over the restricted charge, with S
    # concentric with the ambient disk and the pole inside S
    M = _LEMMA1_CHARGES[name]
    rho = rho_frac * R
    z0 = pole_frac * rho * complex(math.cos(pole_angle), math.sin(pole_angle))
    d_tilde = Region.disk(0j, R)
    s_region = Region.disk(0j, rho)
    c = lemma1_constants(d_tilde, s_region, z0, 1.0, M)
    want, want_budget = oracles.lemma1_c_majorant_by_quadrature(
        d_tilde, s_region, z0, M)
    assert abs(c.c_majorant - want) <= c.budget + want_budget + 1e-14


def test_lemma1_masks_atoms():
    # unit atoms at 0.2 and 5: one outside the ambient disk is dropped
    g = green_disk(1.0, 0j)
    M = DSubharmonicMajorant(up=make_log_abs_poly(roots=[0.2, 5.0]))
    c = lemma1_constants(Region.disk(0j, 1.0), Region.disk(0j, 0.5), 0j,
                         1.0, M)
    assert abs(c.parts["charge-term"] - float(g(np.array([0.2]))[0])) <= 1e-15
    # the atom at the pole is dropped, where g is infinite
    g = green_disk(10.0, 5.0)
    c = lemma1_constants(Region.disk(0j, 10.0), Region.disk(0j, 6.0), 5.0,
                         1.0, M)
    assert abs(c.parts["charge-term"] - float(g(np.array([0.2]))[0])) <= 1e-15
    # as negative atoms: the one on the boundary of S stays in the negative
    # term, the one inside S leaves it
    g = green_disk(10.0, 0j)
    M = DSubharmonicMajorant(up=make_zero_model(),
                             low=make_log_abs_poly(roots=[0.2, 5.0]))
    c = lemma1_constants(Region.disk(0j, 10.0), Region.disk(0j, 5.0), 0j,
                         1.0, M)
    assert abs(c.parts["negative-term"] - math.log(2.0)) <= 1e-15
    c = lemma1_constants(Region.disk(0j, 10.0), Region.disk(0j, 0.1), 0j,
                         1.0, M)
    want = float(np.sum(g(np.array([0.2, 5.0]))))
    assert abs(c.parts["negative-term"] - want) <= 1e-15


# name -> (majorant, ambient disk centre, message); the inner disk is
# centred at 0.3.  Radial densities sit at the origin.
_OFF_CENTER = {
    "off-ambient-center": (
        DSubharmonicMajorant(up=make_radial_power(1.0, 1.0)), 0.1 + 0j,
        "radial density off the ambient disk's center"),
    # a negative density must also be centred on the inner disk
    "negative-off-inner-center": (
        DSubharmonicMajorant(up=make_zero_model(), low=make_log_poly_growth()),
        0j, "negative radial density off the inner disk's center"),
    "negative-off-both-centers": (
        DSubharmonicMajorant(up=make_radial_power(2.0, 1.0),
                             low=make_log_poly_growth()), 0.1 + 0j,
        "radial density off the ambient disk's center"),
}


@pytest.mark.parametrize("name", sorted(_OFF_CENTER))
def test_lemma1_rejects_a_density_off_its_disk(name):
    M, center, message = _OFF_CENTER[name]
    with pytest.raises(EngineError, match="^%s$" % message):
        lemma1_constants(Region.disk(center, 2.0), Region.disk(0.3, 0.5),
                         0.3, 1.0, M)


def test_lemma1_geometry_validation():
    M = DSubharmonicMajorant(up=make_zero_model())
    # inner region escaping the outer disk
    with pytest.raises(DomainError):
        lemma1_constants(Region.disk(0.0, 1.0), Region.disk(0.9, 0.5), 0.9 + 0j, 1.0, M)
    # pole outside the inner region
    with pytest.raises(DomainError):
        lemma1_constants(Region.disk(0.0, 1.0), Region.disk(0.0, 0.3), 0.8 + 0j, 1.0, M)
