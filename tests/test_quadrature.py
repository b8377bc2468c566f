"""Adaptive quadrature and circle means."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zerocert import integrate, mean_on_circle, ToleranceFailure
from zerocert import quadrature
from zerocert.quadrature import _break_radii, integrate_circle_means

import oracles


@pytest.mark.parametrize("order", [16, 32])
def test_gauss_tables_are_leggauss_bit_for_bit(order):
    # the literal tables replace numpy.polynomial, which stays the oracle
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(order)
    got_x, got_w = {16: (quadrature._X16, quadrature._W16),
                    32: (quadrature._X32, quadrature._W32)}[order]
    assert got_x.dtype == got_w.dtype == np.float64
    assert np.array_equal(got_x.view(np.uint64), x.view(np.uint64))
    assert np.array_equal(got_w.view(np.uint64), w.view(np.uint64))


def test_panel_estimates_match_integrates_first_panel():
    # one batched first panel per interval gives integrate's own answer
    # wherever integrate accepts its first panel
    lo = np.array([0.0, 0.5, -2.0])
    hi = np.array([1.0, 3.0, 0.25])
    y = np.cos(quadrature.panel_nodes(lo, hi))
    val, est = quadrature.panel_estimates(y, lo, hi)
    for a, b, v, e in zip(lo, hi, val, est):
        want, want_err = integrate(np.cos, a, b, tol=1.0)
        assert abs(v - want) <= 1e-15 * (1.0 + abs(want))
        assert abs(e - want_err) <= 1e-15


def test_integrate_smooth():
    val, err = integrate(np.sin, 0.0, np.pi)
    assert abs(val - 2.0) <= max(err, 1e-12)


def test_integrate_polynomial_exact():
    # Gauss-Legendre 16 is exact through degree 31
    val, err = integrate(lambda x: 7 * x**6 - 3 * x**2 + 1, -1.0, 2.0)
    exact = (2.0**7 - (-1.0) ** 7) - (2.0**3 - (-1.0) ** 3) + 3.0
    assert abs(val - exact) <= 1e-12


def test_integrate_log_singularity_isolated():
    # int_0^1 ln x dx = -1
    val, err = integrate(np.log, 0.0, 1.0, singularities=(0.0,))
    assert abs(val + 1.0) <= 1e-8
    assert err <= 1e-8


def test_integrate_interior_singularity():
    # int_{-1}^{1} ln|x| dx = -2
    val, err = integrate(lambda x: np.log(np.abs(x)), -1.0, 1.0, singularities=(0.0,))
    assert abs(val + 2.0) <= 1e-8


def test_integrate_tolerance_failure():
    f = lambda x: np.log(np.abs(x))
    with pytest.raises(ToleranceFailure):
        # two panels cannot resolve the singular end at this tolerance
        integrate(f, 0.0, 1.0, tol=1e-12, max_panels=2)


def test_integrate_names_a_stall_at_a_panel_edge():
    # (s - 1.2)^(-1/2) / s: the narrowest panels' outermost nodes round onto
    # the edge 1.2 itself, and the failure says so
    f = lambda s: (s - 1.2) ** -0.5 / s
    with pytest.raises(ToleranceFailure,
                       match=r"stalled at the panel edge x=1\.2\b") as info:
        integrate(f, 1.2, 1.8, tol=1e-10)
    assert "not finite near" not in str(info.value)
    assert info.value.residual == np.inf
    assert abs(info.value.value - 1.12294) <= 1e-3


@settings(max_examples=40, deadline=None)
@given(
    c=st.floats(-3, 3),
    r=st.floats(0.1, 4.0),
)
def test_mean_on_circle_harmonic(c, r):
    # circle averages reproduce harmonic functions at the center
    val, err = mean_on_circle(lambda z: np.real(z) ** 2 - np.imag(z) ** 2, c + 0j, r)
    assert abs(val - c * c) <= max(10 * err, 1e-9)


def test_mean_on_circle_constant_and_point():
    val, _ = mean_on_circle(lambda z: np.full_like(np.real(z), 5.0), 1j, 2.0)
    assert abs(val - 5.0) <= 1e-12
    val, _ = mean_on_circle(lambda z: np.abs(z) ** 2, 3.0 + 0j, 0.0)
    assert val == 9.0


def _declared(f, singular_points=(), kink_circles=()):
    # f must be a function of its own: the attributes are its declarations
    f.singular_points = singular_points
    f.kink_circles = kink_circles
    return f


def test_mean_on_circle_singular_on_circle():
    # classical: the mean of ln|z - 1| over the unit circle is zero
    f = _declared(lambda z: np.log(np.abs(z - 1.0)), (1.0 + 0j,))
    val, err = mean_on_circle(f, 0j, 1.0)
    assert abs(val) <= 1e-7


def test_mean_on_circle_matches_riemann_oracle():
    u = lambda z: np.exp(np.real(z)) * np.cos(np.imag(z)) + np.abs(z)
    val, err = mean_on_circle(u, 0.5 + 0.5j, 1.5)
    ref = oracles.circle_mean_riemann(u, 0.5 + 0.5j, 1.5)
    assert abs(val - ref) <= 1e-8


# ---------------------------------------------------------------------------
# many circles in one call

_SING = 0.5 + 0.25j
_KINK = (-0.5j, 1.0)


def _rough(z):
    # log singularity at _SING, kink across the circle _KINK
    return (np.log(np.abs(z - _SING))
            + np.maximum(np.abs(z - _KINK[0]), _KINK[1]) + np.abs(z) ** 1.5)


_declared(_rough, (_SING,), (_KINK,))


def _node_on_circle(c, r, k=3):
    # the point the whole-circle Gauss pair samples at its k-th low node
    x, _ = np.polynomial.legendre.leggauss(16)
    return complex(c + r * np.exp(1j * (np.pi + np.pi * x[k])))


def _special_circles():
    cs, rs = [], []

    def add(c, r):
        cs.append(complex(c))
        rs.append(float(r))

    add(1.0 + 1.0j, 0.0)                      # a point evaluation
    add(0.0, abs(_SING) * 1.03)               # within 5 % of the singular point
    add(_SING + 0.2, 0.2)                     # through the singular point
    add(0.3j, 0.8)                            # crosses the kink circle twice
    add(-0.5j + 2.05, 1.0)                    # grazes it from outside
    add(-0.5j + 0.02, 0.98)                   # grazes it from inside
    add(-2.0 + 1.0j, 0.3)                     # smooth there: the batch path
    return cs, rs


@settings(max_examples=25, deadline=None)
@given(circles=st.lists(
    st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
              st.one_of(st.just(0.0), st.floats(1e-3, 3.0))),
    max_size=12))
def test_mean_on_circle_arrays_match_scalar_calls(circles):
    cs, rs = _special_circles()
    cs += [complex(x, y) for x, y, _ in circles]
    rs += [r for _, _, r in circles]
    means, errs = mean_on_circle(_rough, np.array(cs), np.array(rs),
                                 tol=1e-10)
    assert means.shape == errs.shape == (len(cs),)
    for i, (c, r) in enumerate(zip(cs, rs)):
        m, e = mean_on_circle(_rough, c, r, tol=1e-10)
        assert type(m) is float and type(e) is float
        assert m == means[i] and e == errs[i]


def test_mean_on_circle_arrays_nonfinite_node_and_refinement():
    # ln|z - p| is -inf at a Gauss node of the first circle (healed by
    # splitting there); exp(6 Re z) at tol 1e-13 misses the first Gauss
    # pair on the two larger circles, so they refine; the smallest passes
    c0, r0 = 0.25 - 0.5j, 0.75
    p = _node_on_circle(c0, r0)
    finite = []

    def f(z):
        with np.errstate(all="ignore"):
            v = np.log(np.abs(z - p)) + np.exp(6.0 * np.real(z))
        finite.append(bool(np.isfinite(v).all()))
        return v

    cs = np.array([c0, 0.1j, -0.3, 0.2 + 0.1j])
    rs = np.array([r0, 1.5, 2.0, 0.05])
    means, errs = mean_on_circle(f, cs, rs, tol=1e-13)
    assert not finite[0]
    for i, refines in enumerate((True, True, True, False)):
        finite.clear()
        m, e = mean_on_circle(f, complex(cs[i]), float(rs[i]), tol=1e-13)
        assert m == means[i] and e == errs[i]
        assert (len(finite) > 1) == refines


def test_mean_on_circle_batch_is_the_first_integrate_panel():
    # a circle that passes on its first Gauss pair gives what integrate
    # over [0, 2 pi] gives, bit for bit
    u = lambda z: np.exp(np.real(z)) * np.cos(np.imag(z)) + np.abs(z) ** 2
    cs = np.array([0.5 + 0.5j, -1.0, 2.0j])
    rs = np.array([0.3, 1.1, 0.05])
    means, errs = mean_on_circle(u, cs, rs, tol=1e-9)
    for c, r, m, e in zip(cs, rs, means, errs):
        val, err = integrate(lambda th: u(c + r * np.exp(1j * th)),
                             0.0, 2.0 * np.pi, tol=1e-9 * 2.0 * np.pi)
        assert m == val / (2.0 * np.pi) and e == err / (2.0 * np.pi)


def test_mean_on_circle_fallback_takes_the_batch_pair_as_first_panel():
    # exp(6 Re z) at tol 1e-13 misses the first Gauss pair on these
    # circles: each refines from the batch's pair, with the means and
    # budgets of integrate over [0, 2 pi] run afresh, bit for bit,
    # and 48 fewer nodes than that run evaluates
    u = lambda z: np.exp(6.0 * np.real(z)) + np.abs(z) ** 2
    nodes = []

    def f(z):
        nodes.append(z.size)
        return u(z)

    cs = np.array([0.1j, -0.3, 0.4 + 0.2j])
    rs = np.array([1.5, 2.0, 0.9])
    means, errs = mean_on_circle(f, cs, rs, tol=1e-13)
    seeded = sum(nodes)
    alone = 0
    for c, r, m, e in zip(cs, rs, means, errs):
        nodes.clear()
        val, err = integrate(lambda th: f(c + r * np.exp(1j * th)),
                             0.0, 2.0 * np.pi, tol=1e-13 * 2.0 * np.pi,
                             isolation=1e-3)
        assert m == val / (2.0 * np.pi) and e == err / (2.0 * np.pi)
        assert sum(nodes) > 48
        alone += sum(nodes)
    # the batch evaluates 48 nodes per circle, and no fallback repeats them
    assert seeded == alone


def test_integrate_takes_a_given_first_panel():
    # the pair panel_estimates gives on [a, b] stands for the first panel;
    # a singularity that splits [a, b] makes integrate evaluate its own
    f = lambda x: np.exp(3.0 * x)
    y = f(quadrature.panel_nodes(0.0, 2.0))
    pair = quadrature.panel_estimates(y, 0.0, 2.0)
    calls = []

    def counted(x):
        calls.append(x.size)
        return f(x)

    want = integrate(counted, 0.0, 2.0, tol=1e-14)
    full = sum(calls)
    calls.clear()
    assert integrate(counted, 0.0, 2.0, tol=1e-14, first_panel=pair) == want
    assert sum(calls) == full - 48
    calls.clear()
    split = integrate(counted, 0.0, 2.0, tol=1e-14, singularities=(1.0,),
                      first_panel=(0.0, 0.0))
    assert abs(split[0] - want[0]) <= 1e-12 * want[0] and calls[0] == 48


@pytest.mark.parametrize("seed", [16, 32])
def test_panel_estimates_rows_are_their_own(seed):
    # a row's bits do not depend on how many rows share the call, nor on
    # where in the batch it sits: one row alone, in a 1-D call, and in
    # batches of every size from 1 to 40 give the same value and estimate
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-3.0, 0.0, 40)
    hi = lo + rng.uniform(1e-3, 5.0, 40)
    y = (rng.standard_normal((40, 48))
         * np.exp(rng.uniform(-20.0, 20.0, (40, 1))))
    alone = [quadrature.panel_estimates(y[i], lo[i], hi[i])
             for i in range(40)]
    for n in range(1, 41):
        for start in {0, 40 - n, (40 - n) // 2}:
            rows = slice(start, start + n)
            val, est = quadrature.panel_estimates(y[rows], lo[rows], hi[rows])
            for i, (v, e) in enumerate(zip(val, est)):
                assert v == alone[start + i][0] and e == alone[start + i][1]


def test_mean_on_circle_broadcasts():
    u = lambda z: np.real(z) ** 2 - np.imag(z) ** 2 + 3.0
    cs = np.array([[0.0, 1.0j], [2.0, -1.0 + 1.0j]])
    means, errs = mean_on_circle(u, cs, 0.5)
    assert means.shape == errs.shape == (2, 2)
    assert np.allclose(means, u(cs), atol=1e-9)
    means, _ = mean_on_circle(u, 1.0, np.array([0.0, 0.5, 2.0]))
    assert means.shape == (3,)
    assert np.allclose(means, 4.0, atol=1e-9)
    with pytest.raises(ValueError):
        mean_on_circle(u, cs, -1.0)


# ---------------------------------------------------------------------------
# radial integrals of circle means


def test_break_radii_of_a_point_and_a_kink_circle():
    # circles about 1 + 1j pass through 4 + 5j at radius 5; they touch the
    # circle |w - (1 + 4j)| = 1 at radii 3 - 1 and 3 + 1
    f = _declared(lambda z: np.abs(z), (4 + 5j,), ((1 + 4j, 1.0),))
    assert _break_radii(f, 1 + 1j) == [5.0, 2.0, 4.0]
    # a kink circle about the centre breaks at its own radius
    kinked = _declared(lambda z: np.abs(z), (), ((0j, 0.7),))
    assert _break_radii(kinked, 0j) == [0.7, 0.7]
    # an integrand that declares nothing has no break radii
    assert _break_radii(lambda z: np.abs(z), 0j) == []


def test_circle_means_panels_break_at_the_break_radii(monkeypatch):
    # a smooth integrand needs one panel; every break radius inside (a, b)
    # still gets its isolating panels, the others (and scale) are honoured
    seen = []

    def mean(f, center, radii, *, tol):
        assert center == 0j and tol == 1e-9
        seen.append(radii)
        return np.ones_like(radii), np.full(radii.shape, 1e-12)

    monkeypatch.setattr(quadrature, "circle_mean", mean)
    f = _declared(lambda z: np.abs(z), (3.0 + 0j, 5.0j), ((1.0 + 0j, 1.0),))
    val, err, inner = integrate_circle_means(
        f, lambda s, m: m * s, 0.0, 2.0, tol=1e-12, inner_tol=1e-9,
        center=0j, scale=2.0)
    assert abs(val - 2.0) <= 1e-14 and err <= 1e-14 and inner == 1e-12
    radii = np.concatenate(seen) / 2.0
    # breaks at 3/2 (the point) and 0 and 1 (the kink circle); 5/2 is outside
    for b in (1.5, 1.0):
        assert np.any((radii > b - 2e-4) & (radii < b))
        assert np.any((radii > b) & (radii < b + 2e-4))
    assert not np.any(radii > 2.0)
    # without break radii the first panel is the whole interval
    seen.clear()
    integrate_circle_means(lambda z: np.abs(z), lambda s, m: m * s, 0.0, 2.0,
                           tol=1e-12, inner_tol=1e-9)
    assert len(seen) == 1
