"""Adaptive Gauss-Legendre panel quadrature for vectorized integrands.

Integrands are evaluated on arrays (one call per panel), so callers supply
numpy-vectorized functions.  Integrable singularities are handled by
splitting panels at the singular abscissae: Gauss nodes are interior to
their panel, so a declared singularity is never evaluated.  Undeclared
non-finite points are healed by re-splitting at the offending node.
Circle means come many circles to a call, and integrate_circle_means
nests them inside a radial integral.

An integrand of a circle mean declares its own structure as attributes,
each optional, and this module is the one place that reads them:
``exact_circle_mean(center, radius)``, a closed form that circle_mean
takes instead of quadrature; ``singular_points``, the points where it is
singular; and ``kink_circles``, (center, radius) pairs of circles across
which it loses smoothness.  The charge integrals of a family's spikes
(RieszCharge.integrate_radial, on the rows of a testfam.SpikeTable) run
the first panel of ``integrate`` on many intervals at once
(``panel_nodes`` and ``panel_estimates``, which also give every panel
of ``integrate`` and the whole-circle rows of ``mean_on_circle`` their
Gauss pair).

The Gauss-Legendre tables are literals: the nodes and weights of numpy's
leggauss(16) and leggauss(32), bit for bit.
"""

import heapq
import math

import numpy as np

from .errors import EngineError

TWO_PI = 2.0 * math.pi


class ToleranceFailure(EngineError):
    """Adaptive refinement stalled above the requested tolerance.

    ``value`` holds the best estimate reached, ``residual`` the remaining
    error estimate, so callers may downgrade the failure to a flagged value.
    """

    slug = "tolerance-failure"

    def __init__(self, message, value=0.0, residual=math.inf):
        super().__init__(message)
        self.value = value
        self.residual = residual


# Gauss-Legendre order of each panel's lower rule (the upper one doubles
# it), and the narrowest panel that refinement still splits
_ORDER = 16
_MIN_WIDTH = 1e-14

# (node, weight) for the nonnegative nodes of the 16- and 32-point rules;
# the rules are symmetric, and negation is exact
_HALF_16 = (
    (0.09501250983763744, 0.18945061045506864),
    (0.2816035507792589, 0.18260341504492364),
    (0.45801677765722737, 0.16915651939500265),
    (0.6178762444026438, 0.1495959888165767),
    (0.755404408355003, 0.12462897125553407),
    (0.8656312023878318, 0.0951585116824926),
    (0.9445750230732326, 0.062253523938647456),
    (0.9894009349916499, 0.027152459411754176),
)
_HALF_32 = (
    (0.048307665687738324, 0.09654008851472766),
    (0.1444719615827965, 0.09563872007927471),
    (0.23928736225213706, 0.09384439908080451),
    (0.33186860228212767, 0.09117387869576378),
    (0.42135127613063533, 0.08765209300440378),
    (0.5068999089322294, 0.08331192422694671),
    (0.5877157572407623, 0.07819389578707023),
    (0.6630442669302152, 0.07234579410884834),
    (0.7321821187402897, 0.06582222277636168),
    (0.7944837959679424, 0.058684093478535565),
    (0.84936761373257, 0.05099805926237609),
    (0.8963211557660521, 0.042835898022226836),
    (0.9349060759377397, 0.034273862913021765),
    (0.9647622555875064, 0.025392065309262024),
    (0.9856115115452684, 0.016274394730905743),
    (0.9972638618494816, 0.007018610009470506),
)


def _rule(half):
    """Nodes in increasing order and their weights, from the upper half."""
    x, w = np.array(half).T
    return np.concatenate((-x[::-1], x)), np.concatenate((w[::-1], w))


_X16, _W16 = _rule(_HALF_16)
_X32, _W32 = _rule(_HALF_32)
_X48 = np.concatenate((_X16, _X32))


def panel_nodes(lo, hi):
    """Nodes of integrate's first panel on each interval [lo, hi] (floats,
    or float arrays of one shape): the 16-point rule's, then the 32-point
    rule's, along a new last axis."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    if np.ndim(mid):
        mid = mid[..., None]
        half = half[..., None]
    return mid + half * _X48


def panel_estimates(y, lo, hi):
    """integrate's first-panel value and error estimate on each interval,
    from y, the integrand on the panel_nodes of the intervals: the 32-point
    value and its distance from the 16-point one, each of lo's shape.

    Each interval's sums run along its own row in an order fixed by the
    rule's length (einsum, which calls no BLAS), so an interval's bits do
    not depend on how many others share the call; a matrix product would
    group the rows by their number.
    """
    half = 0.5 * (hi - lo)
    v_lo = half * np.einsum("...i,i->...", y[..., :_ORDER], _W16)
    v_hi = half * np.einsum("...i,i->...", y[..., _ORDER:], _W32)
    return v_hi, np.abs(v_hi - v_lo)


def integrate(f, a, b, *, tol=1e-10, singularities=(), isolation=None,
              max_panels=4096, first_panel=None):
    """Return (value, error_estimate) for the integral of f over [a, b].

    f maps a float ndarray to one of the same shape.  The error estimate is
    the summed order-16 vs order-32 Gauss discrepancy over accepted panels.
    ``singularities`` lists abscissae where f is singular but integrable;
    each gets a short isolating panel (width ``isolation``) so refinement
    concentrates there.  ``first_panel`` is the (value, error) pair that
    panel_estimates gave on f's finite values at panel_nodes(a, b), when
    the caller has them: the panel [a, b] is taken from it rather than
    evaluated again, unless a singularity splits [a, b].  Raises
    ToleranceFailure when ``max_panels`` panels cannot push the estimate
    under ``tol``.
    """
    a = float(a)
    b = float(b)
    if b <= a:
        if b == a:
            return 0.0, 0.0
        raise ValueError("integration interval is reversed")

    def estimates(lo, hi):
        pts = panel_nodes(lo, hi)
        y = np.asarray(f(pts), dtype=float)
        if y.shape != pts.shape:
            raise ValueError("integrand must return an array matching its input")
        finite = np.isfinite(y)
        if not finite.all():
            bad = pts[int(np.flatnonzero(~finite)[0])]
            return 0.0, 0.0, float(bad)
        val, err = panel_estimates(y, lo, hi)
        return float(val), float(err), None

    iso = isolation if isolation is not None else 1e-4 * (b - a)
    cuts = sorted({float(s) for s in singularities if a < s < b})
    edges = [a]
    for s in cuts:
        for e in (s - iso, s, s + iso):
            if edges[-1] + _MIN_WIDTH < e < b - _MIN_WIDTH:
                edges.append(e)
    edges.append(b)

    total = 0.0
    err_sum = 0.0
    heap = []
    seq = 0
    panels = 0

    def keep(lo, hi, val, err):
        nonlocal total, err_sum, seq
        total += val
        err_sum += err
        heapq.heappush(heap, (-err, seq, lo, hi, val, err))
        seq += 1

    def push(lo, hi):
        nonlocal panels
        stack = [(lo, hi)]
        while stack:
            plo, phi = stack.pop()
            val, err, bad = estimates(plo, phi)
            panels += 1
            if bad is not None:
                if phi - plo <= _MIN_WIDTH or panels >= max_panels:
                    # the narrowest panels' nodes may round onto an edge
                    msg = ("quadrature stalled at the panel edge x=%r, where "
                           "the integrand is not finite" if bad in (plo, phi)
                           else "integrand not finite near x=%r")
                    raise ToleranceFailure(msg % bad, value=total,
                                           residual=math.inf)
                # undeclared singular point: make it a panel edge, nudged off
                # the panel boundary so both children keep positive width
                c = min(max(bad, plo + 0.25 * (phi - plo)),
                        phi - 0.25 * (phi - plo))
                stack.append((plo, c))
                stack.append((c, phi))
                continue
            keep(plo, phi, val, err)

    # one errstate for the whole run, not one per panel: non-finite
    # integrand values are caught panel by panel in estimates()
    with np.errstate(all="ignore"):
        if first_panel is not None and len(edges) == 2:
            panels += 1
            keep(a, b, *map(float, first_panel))
        else:
            for i in range(len(edges) - 1):
                push(edges[i], edges[i + 1])

        while err_sum > tol and heap and panels < max_panels:
            _, _, lo, hi, val, err = heapq.heappop(heap)
            if hi - lo <= _MIN_WIDTH:
                # cannot refine further; its error stays in the running total
                continue
            total -= val
            err_sum -= err
            mid = 0.5 * (lo + hi)
            push(lo, mid)
            push(mid, hi)

    if err_sum > tol:
        raise ToleranceFailure(
            "quadrature stalled at residual %.3g (target %.3g)" % (err_sum, tol),
            value=total, residual=err_sum)
    return total, err_sum


def _edge_angles(center, radius, singular_points, kink_circles):
    """Panel-edge angles on the circle |w - center| = radius."""
    angles = []
    for s in singular_points:
        w = complex(s) - center
        d = abs(w)
        if abs(d - radius) <= 0.05 * radius:
            angles.append(math.atan2(w.imag, w.real) % TWO_PI)
    for c2, r2 in kink_circles:
        w = complex(c2) - center
        d = abs(w)
        r2 = float(r2)
        if d <= 1e-300:
            continue
        x = (d * d + radius * radius - r2 * r2) / (2.0 * d * radius)
        beta = math.atan2(w.imag, w.real)
        if abs(x) <= 1.0:
            phi = math.acos(x)
            angles.append((beta + phi) % TWO_PI)
            angles.append((beta - phi) % TWO_PI)
        elif abs(x) <= 1.1:
            # grazing from outside: pin the nearest-approach angle anyway
            angles.append(beta % TWO_PI)
    return angles


def mean_on_circle(f, center, radius, *, tol=1e-10):
    """Average of f over the circles |w - center| = radius.

    ``center`` and ``radius`` broadcast against each other; returns
    (means, error_estimates) of that shape, or a float pair for scalar
    inputs.  Angles of f's ``singular_points`` lying on or near a circle
    are isolated within a 1e-3 arc so panels stay clear of them.  Where a
    circle crosses one of f's ``kink_circles`` the crossing angles become
    panel edges, since a grazing intersection leaves a feature narrow
    enough to hide between the nodes of both Gauss rules.  radius == 0
    degenerates to a point evaluation.

    Circles with no edge angle share one call of f on the nodes of the
    whole-circle Gauss pair, which is the first panel ``integrate`` would
    try; a circle whose values there are finite and within tolerance is
    done, bit for bit as ``integrate`` would finish it.  Every other
    circle goes through ``integrate`` on its own; one whose values there
    were finite hands it that pair as its first panel, which is not
    evaluated again.
    """
    cs, rs = np.broadcast_arrays(np.asarray(center, dtype=complex),
                                 np.asarray(radius, dtype=float))
    shape = cs.shape
    cs = cs.ravel()
    rs = rs.ravel()
    if (rs < 0).any():
        raise ValueError("circle radius must be nonnegative")
    singular_points = tuple(getattr(f, "singular_points", ()))
    kink_circles = tuple(getattr(f, "kink_circles", ()))
    means = np.empty(rs.shape, dtype=float)
    errs = np.zeros(rs.shape, dtype=float)
    angles = {}
    if singular_points or kink_circles:
        for i in np.flatnonzero(rs > 0):
            found = _edge_angles(complex(cs[i]), float(rs[i]),
                                 singular_points, kink_circles)
            if found:
                angles[i] = found
    done = np.zeros(rs.shape, dtype=bool)
    first = {}
    batch = np.array([i for i in np.flatnonzero(rs > 0) if i not in angles],
                     dtype=int)
    if batch.size:
        # integrate's first panel on [0, 2 pi]
        theta = panel_nodes(0.0, TWO_PI)
        pts = cs[batch, None] + rs[batch, None] * np.exp(1j * theta)
        y = np.asarray(f(pts), dtype=float)
        if y.shape != pts.shape:
            raise ValueError("integrand must return an array matching its input")
        # each row's sums have the bits of integrate's first panel
        finite = np.isfinite(y).all(axis=1)
        with np.errstate(invalid="ignore"):
            val, err = panel_estimates(y, 0.0, TWO_PI)
        ok = finite & (err <= tol * TWO_PI)
        # integrate starts its running sum at 0.0
        means[batch[ok]] = (0.0 + val[ok]) / TWO_PI
        errs[batch[ok]] = err[ok] / TWO_PI
        done[batch[ok]] = True
        # a finite row that missed tol is integrate's first panel there
        missed = finite & ~ok
        first = dict(zip(batch[missed].tolist(),
                         zip(val[missed].tolist(), err[missed].tolist())))
    for i in np.flatnonzero(~done):
        c = complex(cs[i])
        r = float(rs[i])
        if r == 0.0:
            with np.errstate(all="ignore"):
                means[i] = float(np.asarray(f(np.array([c])), dtype=float)[0])
            continue

        def g(theta, c=c, r=r):
            return f(c + r * np.exp(1j * theta))

        val, err = integrate(g, 0.0, TWO_PI, tol=tol * TWO_PI,
                             singularities=angles.get(i, ()), isolation=1e-3,
                             first_panel=first.get(i))
        means[i] = val / TWO_PI
        errs[i] = err / TWO_PI
    if not shape:
        return float(means[0]), float(errs[0])
    return means.reshape(shape), errs.reshape(shape)


def circle_mean(f, center, radius, *, tol=1e-9):
    """Means of f over the circles |w - center| = radius, closed form first.

    When f declares ``exact_circle_mean(center, radius)`` its values are
    returned with zero error estimates; otherwise this is
    ``mean_on_circle``.  center and radius broadcast; returns
    (means, errors), or a float pair for scalar inputs.
    """
    exact = getattr(f, "exact_circle_mean", None)
    if exact is None:
        return mean_on_circle(f, center, radius, tol=tol)
    z = np.asarray(center, dtype=complex)
    t = np.asarray(radius, dtype=float)
    # a 0-d z would make |z| a numpy scalar, whose powers round apart
    # from the array loops in the last bit
    m = np.asarray(exact(z.reshape(z.shape or 1), t), dtype=float)
    if not (z.ndim or t.ndim):
        return float(m[0]), 0.0
    if m.shape != t.shape or z.ndim > t.ndim:
        # a closed form that ignores t (harmonic f) has the shape of z
        m = np.broadcast_to(m, np.broadcast_shapes(z.shape, t.shape))
    return m, np.zeros(m.shape)


def _break_radii(f, center):
    """Radii at which circles about center pass through one of f's
    singular points or touch one of its kink circles: the places where
    f's circle means lose smoothness."""
    center = complex(center)
    radii = [abs(complex(p) - center)
             for p in getattr(f, "singular_points", ())]
    for c2, r2 in getattr(f, "kink_circles", ()):
        dc = abs(complex(c2) - center)
        radii.extend((abs(dc - float(r2)), dc + float(r2)))
    return radii


def integrate_circle_means(f, weight, a, b, *, tol, inner_tol, center=0j,
                           scale=1.0):
    """Radial integral of circle means: int_a^b weight(s, m(scale * s)) ds.

    m(rho) is circle_mean of f over the circle of radius rho about
    ``center``, at tolerance ``inner_tol``; ``weight(s, m)`` turns the
    means into the radial integrand (it takes the means, rather than
    returning a factor, so each caller keeps its own product order).
    Panels break at the radii, over ``scale``, where those circles pass
    through one of f's singular points or touch one of its kink circles:
    there the means lose smoothness.  Returns (value, error_estimate,
    worst_inner_error), the last being the largest error estimate of a
    circle mean.
    """
    worst = 0.0

    def integrand(svec):
        nonlocal worst
        m, e = circle_mean(f, center, scale * svec, tol=inner_tol)
        worst = max(worst, float(e.max()))
        return weight(svec, m)

    breaks = [r / scale for r in _break_radii(f, center)]
    val, err = integrate(integrand, a, b, tol=tol, singularities=breaks)
    return val, err, worst
