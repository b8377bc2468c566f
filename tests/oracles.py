"""Independent numerical routes used to pin expected values in the tests.

Everything here is deliberately naive: direct summation, dense midpoint
grids, central differences.  Slower than the package routines but built
from different arithmetic, so agreement is evidence rather than echo.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

TWO_PI = 2.0 * np.pi


def flux_mass(u, center, radius, n_theta=4096, h=1e-5):
    """(1/2pi) x flux of grad(u) through a circle, by central differences.

    Equals the Riesz mass strictly inside when no charge sits on the
    circle itself.  Step h must stay well below the distance from the
    circle to the nearest singularity of u.
    """
    th = np.linspace(0.0, TWO_PI, n_theta, endpoint=False)
    ring = np.exp(1j * th)
    zs = center + radius * ring
    dn = (u(zs + h * ring) - u(zs - h * ring)) / (2.0 * h)
    return float(radius * np.mean(dn))


def circle_mean_riemann(u, center, radius, n=8192):
    """Plain trapezoid-on-the-torus circle average."""
    th = np.linspace(0.0, TWO_PI, n, endpoint=False)
    return float(np.mean(np.asarray(u(center + radius * np.exp(1j * th)), dtype=float)))


def disk_mean_grid(u, center, radius, n_r=600, n_theta=1024):
    """Area average over a disk via a midpoint tensor grid.

    Radial nodes are midpoints in s^2 so every cell carries equal area.
    """
    s = radius * np.sqrt((np.arange(n_r) + 0.5) / n_r)
    th = TWO_PI * (np.arange(n_theta) + 0.5) / n_theta
    zs = center + s[:, None] * np.exp(1j * th[None, :])
    return float(np.mean(np.asarray(u(zs), dtype=float)))


def mollified_mean_grid(u, center, radius, n_r=600, n_theta=512):
    """Disk average against the (4/pi)(1 - s^2)^3 bump, midpoint rule."""
    x = (np.arange(n_r) + 0.5) / n_r
    w = 8.0 * x * (1.0 - x * x) ** 3 / n_r
    th = TWO_PI * (np.arange(n_theta) + 0.5) / n_theta
    zs = center + radius * x[:, None] * np.exp(1j * th[None, :])
    vals = np.mean(np.asarray(u(zs), dtype=float), axis=1)
    return float(np.sum(w * vals))


def margin_lhs_direct(radii, mults, tau):
    """sum of mult * ln+(tau/|z|), one term per zero."""
    r = np.asarray(radii, dtype=float)
    m = np.asarray(mults, dtype=float)
    return float(np.sum(m * np.maximum(np.log(tau / r), 0.0)))


def sweep_lhs_blocks(r, m, tests, block=8192):
    """The margin sweep's lhs for every test as the sweep once formed it:
    the core from prefix sums of mult and mult * ln r, and the blend band
    through each test's log_shape, evaluated block by block on one ln r
    array.  The reference for the sweep's moment route."""
    core = np.searchsorted(r, [t.log_core for t in tests], side="right")
    band = np.searchsorted(r, [t.support_radius for t in tests],
                           side="right")
    log_r = np.log(r[:max(core.max(initial=0), band.max(initial=0))])
    edges = sorted(set(core[core > 0].tolist()))
    prefix = {}
    if edges:
        top = edges[-1]
        starts = [0] + edges[:-1]
        seg_m = np.add.reduceat(m[:top], starts)
        seg_l = np.add.reduceat(log_r[:top] * m[:top], starts)
        for k, e in enumerate(edges):
            prefix[e] = (math.fsum(seg_m[:k + 1]), math.fsum(seg_l[:k + 1]))
    out = []
    for test, a, b in zip(tests, core, band):
        lhs = 0.0
        if a:
            mass, log_mass = prefix[int(a)]
            lhs = test.log_constant * mass - test.pole_coefficient * log_mass
        blocks = []
        for lo in range(a, b, block):
            hi = min(lo + block, b)
            vals = np.asarray(test.log_shape(test.log_constant - log_r[lo:hi]),
                              dtype=float)
            vals *= m[lo:hi]
            blocks.append(float(np.sum(vals)))
        out.append(lhs + math.fsum(blocks))
    return out


def pi_lattice_radii(k_max):
    """|pi k| for 0 < k <= k_max; each radius occurs with multiplicity 2."""
    return np.pi * np.arange(1, k_max + 1, dtype=float)


def gauss_lattice_radii(r_max):
    """Radii of nonzero Gaussian integers with |z| <= r_max, via a double loop."""
    n = int(np.ceil(r_max))
    k, l = np.meshgrid(np.arange(-n, n + 1), np.arange(-n, n + 1))
    r = np.hypot(k, l).ravel()
    return np.sort(r[(r > 0.0) & (r <= r_max)])


def count_real_multiples(step, center, radius):
    """Count of k*step (k != 0) in the closed disk, by direct enumeration."""
    n = int((abs(center) + radius) / step) + 2
    pts = step * np.arange(-n, n + 1, dtype=float)
    pts = pts[pts != 0.0]
    return int(np.sum(np.abs(pts - center) <= radius))


def log_abs_sinc(z):
    """ln|sin z / z| evaluated directly from the library sine."""
    z = np.asarray(z, dtype=complex)
    return np.log(np.abs(np.sin(z) / z))


def jensen_gap(roots, mults, R, n=16384):
    """Circle mean of ln|p| at radius R minus ln|p(0)|, both by direct sums.

    The classical identity says this equals sum mult * ln(R/|root|) over
    the roots inside.  Both sides are computed here without the package.
    """
    roots = np.asarray(roots, dtype=complex)
    mults = np.asarray(mults, dtype=float)

    def u(z):
        z = np.asarray(z, dtype=complex)[..., None]
        return np.sum(mults * np.log(np.abs(z - roots)), axis=-1)

    mean = circle_mean_riemann(u, 0.0, R, n)
    inside = np.abs(roots) < R
    rhs = float(np.sum(mults[inside] * np.log(R / np.abs(roots[inside]))))
    return mean - float(u(0.0 + 0.0j)), rhs


def log_E_series(u, p, terms=400):
    """ln E_p(u) = -sum_{k>p} u^k / k, summed termwise at high order.

    Only trustworthy for |u| < 1; used to cross-check the packaged
    primary-factor evaluation near the bin boundaries.
    """
    u = complex(u)
    out = 0.0 + 0.0j
    uk = u ** (p + 1)
    for k in range(p + 1, p + terms + 1):
        out -= uk / k
        uk = uk * u
    return out


def far_series_fixed(zflat, points, mults, p, terms=64):
    """The far-field series of construct._sum_log_E with every zero beyond
    R = 2 max|z| kept to the same number of orders: -sum_{m=p+1}^{p+terms}
    w^m S_m / m with w = z / R and S_m = sum mult (R / a)^m over those
    zeros, by Horner."""
    zflat = np.asarray(zflat, dtype=complex)
    R = 2.0 * float(np.abs(zflat).max())
    far = np.abs(points) > R
    v = R / np.asarray(points)[far]
    mf = np.asarray(mults, dtype=float)[far]
    vm = v ** (p + 1)
    coef = np.empty(terms, dtype=complex)
    for j in range(terms):
        coef[j] = np.sum(mf * vm) / (p + 1 + j)
        vm = vm * v
    w = zflat / R
    acc = np.zeros(zflat.size, dtype=complex)
    for c in coef[::-1]:
        acc = acc * w + c
    return -(w ** (p + 1)) * acc


def hat_radius_bnb(profile, z, grid=512, rounds=60):
    """r0 + sup of the profile on the circle |w - z| = r0, by branch-and-bound.

    Returns (best sample, certified upper bound).  Arcs are sampled at
    their endpoints, bounded above by endpoint max + L * r0 * half-width
    (chord <= arc), and split until the bound meets the best sample.
    """
    z = complex(z)
    r0 = float(profile.radius(z))
    L = profile.lipschitz()
    theta = np.linspace(0.0, TWO_PI, int(grid) + 1)
    vals = np.asarray(profile.radius(z + r0 * np.exp(1j * theta)), dtype=float)
    lo, hi = theta[:-1], theta[1:]
    vlo, vhi = vals[:-1], vals[1:]
    best = float(vals.max())
    upper = best
    for _ in range(int(rounds)):
        ub = np.maximum(vlo, vhi) + L * r0 * (hi - lo) / 2.0
        upper = float(ub.max())
        if upper - best <= 1e-12 * (1.0 + best):
            break
        keep = ub > best + 1e-15
        if not keep.any():
            upper = best
            break
        lo, hi, vlo, vhi = lo[keep], hi[keep], vlo[keep], vhi[keep]
        upper = float(np.max(np.maximum(vlo, vhi) + L * r0 * (hi - lo) / 2.0))
        if 2 * lo.size > 65536:
            # a near-flat stretch resists pruning: stop with the padded bound
            break
        mid = (lo + hi) / 2.0
        vmid = np.asarray(profile.radius(z + r0 * np.exp(1j * mid)), dtype=float)
        best = max(best, float(vmid.max()))
        lo = np.concatenate((lo, mid))
        hi = np.concatenate((mid, hi))
        vlo = np.concatenate((vlo, vmid))
        vhi = np.concatenate((vmid, vhi))
    return r0 + best, r0 + upper


def bump_cdf_integral_powers(x):
    """The expanded power series of the bump's twice-integrated profile,
    (35/32)(x^2/2 - x^4/4 + x^6/10 - x^8/56 + 16x/35) + 35/256 on [-1, 1],
    0 below and x above.  Absolute accuracy only: it cancels near -1."""
    x = np.asarray(x, dtype=float)
    xc = np.clip(x, -1.0, 1.0)
    val = (35.0 / 32.0) * (xc ** 2 / 2.0 - xc ** 4 / 4.0 + xc ** 6 / 10.0
                           - xc ** 8 / 56.0 + (16.0 / 35.0) * xc) + 35.0 / 256.0
    return np.where(x <= -1.0, 0.0, np.where(x >= 1.0, x, val))


def nevanlinna_N(Z, t):
    """Sum of mult * ln(t/|z_j|) over 0 < |z_j| <= t, by direct summation."""
    t = float(t)
    if not t > 0:
        raise ValueError("needs t > 0")
    pts, ml = Z.points_up_to(t)
    if pts.size == 0:
        return 0.0
    r = np.abs(pts)
    if float(np.min(r)) <= 0.0:
        raise ValueError("distribution has a point at the origin")
    return float(np.sum(ml * np.log(t / r)))


_SPOT_PAIRS = ((0.4 + 0.2j, 0.15), (1.1 - 0.6j, 0.3),
               (-2.0 + 0.1j, 0.5), (0.2 + 1.4j, 0.25))


@dataclass(frozen=True)
class MembershipReport:
    checks: tuple
    ok: bool


def membership_report(p, *, tol=1e-7):
    """Spot checks that a test potential satisfies its side's conditions:
    a plane member is nonnegative, vanishes near 0, grows like g ln|w| and
    lies below its circle means; a pullback, the side with a support
    radius, is nonnegative, nonincreasing in the distance to its pole and
    dead beyond its support."""
    from zerocert.quadrature import mean_on_circle

    checks = []

    def add(name, ok, detail):
        checks.append((name, bool(ok), float(detail)))

    if hasattr(p, "support_radius"):
        sup = p.support_radius
        hi = sup if math.isfinite(sup) else 1e6
        radii = np.geomspace(1e-6, hi, 41)
        vals = np.asarray(p.radial_profile(radii), dtype=float)
        add("nonnegative", np.all(vals >= -tol), float(vals.min()))
        add("nonincreasing", np.all(np.diff(vals) <= tol),
            float(np.max(np.diff(vals))))
        if math.isfinite(sup):
            outer = np.asarray(p.radial_profile(
                sup * np.array([1.0, 1.5, 4.0])), dtype=float)
            add("vanishes-beyond-support", np.all(np.abs(outer) <= tol),
                float(np.max(np.abs(outer))))
        add("pole-coefficient-in-range",
            -tol <= p.pole_coefficient <= 1.0 + tol, p.pole_coefficient)
        return MembershipReport(checks=tuple(checks),
                                ok=all(c[1] for c in checks))

    radii = np.geomspace(1e-3, 1e3, 25)
    vals = np.asarray(p.radial_profile(radii), dtype=float)
    add("nonnegative", np.all(vals >= -tol), float(vals.min()))
    if p.zero_radius > 0:
        inner = np.asarray(p.radial_profile(
            p.zero_radius * np.array([0.1, 0.5, 0.99])), dtype=float)
        add("vanishes-near-origin", np.all(np.abs(inner) <= tol),
            float(np.max(np.abs(inner))))
    g = p.growth_coefficient
    c1 = float(p.radial_profile(np.array([1e4]))[0]) - g * math.log(1e4)
    c2 = float(p.radial_profile(np.array([1e8]))[0]) - g * math.log(1e8)
    add("log-growth", abs(c2 - c1) <= 1e-6 * (1.0 + abs(c1)), c2 - c1)
    z0 = np.array([z for z, _ in _SPOT_PAIRS])
    means, _ = mean_on_circle(p, z0, [t for _, t in _SPOT_PAIRS], tol=1e-9)
    worst = float(np.max(p(z0) - means))
    add("sub-mean", worst <= tol, worst)
    return MembershipReport(checks=tuple(checks),
                            ok=all(c[1] for c in checks))


def min_green_on_circle(g, center, radius, grid=2048):
    """Minimum of g on a circle: a dense angle grid, then six rounds of
    refinement around the best grid point."""
    theta = np.linspace(0.0, TWO_PI, grid, endpoint=False)
    z = center + radius * np.exp(1j * theta)
    vals = np.asarray(g(z), dtype=float)
    i = int(np.argmin(vals))
    lo = theta[i] - TWO_PI / grid
    hi = theta[i] + TWO_PI / grid
    best = float(vals[i])
    for _ in range(6):
        t = np.linspace(lo, hi, 65)
        v = np.asarray(g(center + radius * np.exp(1j * t)), dtype=float)
        j = int(np.argmin(v))
        best = min(best, float(v[j]))
        step = (hi - lo) / 64.0
        lo, hi = t[j] - step, t[j] + step
    return best


def lemma1_c_majorant_by_quadrature(d_tilde, s_region, z0, M, tol=1e-9):
    """lemma1's (c_majorant, budget) by quadrature of the Green function's
    circle means, on the charge cut to each term's atoms and radii."""
    from zerocert import RieszCharge, green_disk

    g = green_disk(d_tilde.radius, z0, d_tilde.center)
    plain = lambda z: g(z)
    plain.singular_points = (z0,)

    def term(ch, keep, lo):
        keep &= d_tilde.contains(ch.atom_points)
        cut = tuple(replace(d, support=(max(d.support[0], lo), min(
            d.support[1], d_tilde.radius))) for d in ch.radial)
        return RieszCharge(ch.atom_points[keep], ch.atom_masses[keep],
                           cut).integrate(plain, tol=tol)

    v1, e1 = term(M.charge, np.abs(M.charge.atom_points - z0) > 1e-14, 0.0)
    neg = M.charge.negative_part()
    v2, e2 = term(neg, ~s_region.interior_contains(neg.atom_points),
                  s_region.radius)
    return v1 + v2 + max(0.0, float(M(np.array([z0]))[0])), e1 + e2


def integrate_radial_reference(charge, spike, tol=1e-9):
    """Integral of one radial spike against a charge, spike by spike and
    panel by panel: the route RieszCharge.integrate_radial took before it
    integrated many spikes at once.

    Atoms are summed directly.  Each radial density takes the spike's
    exact-log core by parts from its disk mass, with int mu(s)/s ds by
    adaptive quadrature, and the band out to the support by adaptive
    quadrature of the spike's own profile.  Each quadrature gets an equal
    share of tol, and each closed-form core term adds 4 ulps.  Returns
    (value, budget); raises ToleranceFailure, NotSummable or DomainError
    as that route did.
    """
    from zerocert import DomainError, EngineError, NotSummable, integrate

    center = complex(spike.pole)
    g = spike.radial_profile
    val = 0.0
    err = 0.0
    if charge.atom_points.size:
        r = np.abs(charge.atom_points - center)
        with np.errstate(all="ignore"):
            gv = np.asarray(g(r), dtype=float)
        live = charge.atom_masses != 0
        if not np.all(np.isfinite(gv[live])):
            raise NotSummable("test function unbounded at an atom")
        val += float(np.sum(charge.atom_masses[live] * gv[live]))
    pieces = []
    for dens in charge.radial:
        if abs(dens.center - center) > 1e-12:
            raise EngineError("radial density not concentric")
        lo = dens.support[0]
        hi = min(dens.support[1], float(spike.support_radius))
        if hi <= lo:
            continue
        if not math.isfinite(hi):
            raise DomainError("unbounded radial integral")
        a = None
        if spike.log_core > lo:
            a = min(float(spike.log_core), hi)
        pieces.append((dens, lo, a, hi))
    calls = sum((a is not None) + (a is None or a < hi)
                for _, _, a, hi in pieces)
    share = tol / max(calls, 1)
    for dens, lo, a, hi in pieces:
        if a is not None:
            c, k = spike.log_constant, spike.pole_coefficient
            v, e = integrate(lambda s, _d=dens: _d.mass_in(s) / s,
                             lo, a, tol=share / max(1.0, abs(k)))
            edge = (c - k * math.log(a)) * dens.mass_in(a)
            val += dens.sign * (edge + k * v)
            err += abs(k) * e + 4 * (math.ulp(edge) + math.ulp(k * v))
            lo = a
            if hi <= lo:
                continue

        def f(svec, _d=dens):
            return (np.asarray(g(svec), dtype=float)
                    * svec * np.asarray(_d.profile(svec), dtype=float))

        v, e = integrate(f, lo, hi, tol=share,
                         singularities=[s for s in spike.kink_radii
                                        if lo < s < hi])
        val += dens.sign * v
        err += e
    return val, err


def gaussian_points_by_rows(scale, r):
    """The Gaussian lattice points (x + y i) * scale with |z| <= r, z != 0,
    as the two-pass row enumeration built them: every row of the square
    of half-width floor(r / scale) + 1 is formed and masked once to count
    its points and again to fill them, real part outermost."""
    n = int(math.floor(r / scale)) + 1
    g = np.arange(-n, n + 1, dtype=float)

    def row(x):
        z = (x + 1j * g) * scale
        return z[(np.abs(z) <= r) & (z != 0)]

    counts = [row(x).size for x in g]
    pts = np.empty(sum(counts), dtype=complex)
    at = 0
    for x, c in zip(g, counts):
        pts[at:at + c] = row(x)
        at += c
    return pts


def gaussian_radii_by_mask(scale, r):
    """Radii scale * sqrt(n) <= r of the Gaussian lattice norms n, with
    the number of points of each, as the square-and-mask count built
    them: the norms of the quarter x >= 0, y >= 1 are squared out, masked
    to those at most one past (r / scale)^2, counted, and the radii past
    r masked off."""
    top = int(math.floor((r / scale) ** 2)) + 1
    sq = np.arange(math.isqrt(top) + 1) ** 2
    norms = (sq[:, None] + sq[None, 1:]).ravel()
    counts = np.bincount(norms[norms <= top])
    n = np.flatnonzero(counts)
    radii = scale * np.sqrt(n)
    keep = radii <= r
    return radii[keep], 4 * counts[n[keep]]


@dataclass(frozen=True)
class _Sample:
    tau: float
    margin: float
    rhs_budget: float
    note: str


def margin_verdict_by_records(tau, margin, rhs_budget, kept, lhs_rounding,
                              tol, min_top=3):
    """The margin sweep's verdict rule sample by sample, with the growth
    fit by np.linalg.lstsq: the route margin_sweep took when it built one
    record per cutoff.  Returns (verdict, growth_exponent, fit_r2, budget,
    details) as criterion._margin_verdict does."""
    samples = [_Sample(t, m, b, "" if k else "dropped")
               for t, m, b, k in zip(tau, margin, rhs_budget, kept)]
    kept = [s for s in samples if not s.note]
    dropped = len(samples) - len(kept)
    if not kept:
        return ("inconclusive", None, None, math.nan,
                {"dropped": dropped, "reason": "no summable samples"})
    budget = max(s.rhs_budget for s in kept)
    tau_max = max(s.tau for s in kept)
    top = [s for s in kept if s.tau >= tau_max / 10.0]
    threshold = 10.0 * max(budget + lhs_rounding, tol)
    exponent = r2 = None
    pos = [(s.tau, s.margin) for s in top if s.margin > threshold]
    if len(pos) >= min_top:
        lx = np.log([p[0] for p in pos])
        ly = np.log([p[1] for p in pos])
        A = np.vstack([lx, np.ones_like(lx)]).T
        coef, res, _, _ = np.linalg.lstsq(A, ly, rcond=None)
        exponent = float(coef[0])
        ss_tot = float(np.sum((ly - ly.mean()) ** 2))
        ss_res = float(res[0]) if res.size else float(
            np.sum((ly - A @ coef) ** 2))
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    margins = [s.margin for s in top]
    verdict = "inconclusive"
    if len(top) < min_top:
        pass
    elif (exponent is not None and exponent >= 0.5
            and margins[-1] > threshold and all(m > 0 for m in margins)):
        verdict = "violated"
    elif (all(m <= threshold for m in margins)
          or (exponent is not None and exponent < 0.25)
          or all(b <= a + threshold for a, b in zip(margins, margins[1:]))):
        verdict = "consistent"
    return verdict, exponent, r2, budget, {
        "dropped": dropped, "kept": len(kept), "threshold": threshold,
        "tau_max": tau_max, "n_top": len(top)}
