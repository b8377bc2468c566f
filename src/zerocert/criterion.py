"""Necessity-side probes.

margin_sweep integrates a family of origin spikes against both the
candidate zeros and the majorant's charge and watches the gap; a gap
that grows like a power of the cutoff rules out any admissible function
vanishing on the candidate set.  It reads the family's spikes for all
cutoffs as the columns of one SpikeTable (``family.spikes(taus)``) and
forms no spike record.  Each spike is exactly c - ln s in a core
about the origin.  Its zero-side sum sees the zeros only through their
radii counted with multiplicity (a Gaussian lattice gives one radius per
norm, not one per point).  It is taken from prefix sums of mult and
mult * ln|z| over that core, and over the blend band between the core
and the support from moments of ln|z| on the segments that the cutoffs'
bands and log-shape pieces cut, read once for every cutoff.  Its
charge-side integral, one RieszCharge.integrate_radial call on the
table, takes the core by parts against each radial density's disk mass
and declared ``log_mass`` L(a) = int mu(s)/s ds, which leaves no log
singularity for quadrature to chase, and integrates the profile only
over the band: one Gauss pair per cutoff, with the family's shared
``log_shape`` evaluated once for all of them.  The zero-side band sums
read that one psi through its declared pieces, each piece on its own
segments only.  The sweep's MarginCurve holds its cutoffs as columns,
as M0Report holds its probe points: one entry per tau in each of tau,
lhs, rhs, margin and rhs_budget (float arrays) and note (str, "" for a
kept sample, else the failure that dropped it).  The verdict rule reads
those arrays, and the growth exponent is a least-squares slope in
closed form, about the means; ``curve.samples`` builds one MarginSample
record per cutoff only when asked.
check_m0 probes the regularity of the upper envelope by comparing it to
its own circle means at profile radii, closed form where the envelope
declares one, on whole columns of probe points.  lemma1_constants
extracts the comparison constants of the disk-regime necessity bound
from the Green function of a disk and the majorant's charge: atoms by
direct sums, and each radial density by a difference of its declared
log-masses, with no quadrature (_green_term, which also gives
jensen.poisson_jensen_check its charge term for a pole at the origin).
The Green function of the disk |w - center| < R with pole a,
    g(w) = ln|R^2 - conj(a) w| - ln R - ln|w - a|   (green_disk)
(w and a taken from the center), is a difference of two log potentials
of points, so by Jensen's formula its circle means about the centre are
ln R - ln max(s, |a|), which lemma1 integrates by parts against each
density's log-mass; quadrature of g stays the test oracle.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import Record, ValueRecord
from .errors import DomainError, EngineError, InvalidPotential, NotSummable
from .majorants import eval_M
from .means import PlanePowerProfile
from .measures import _CORE_ULPS, Region
from .quadrature import TWO_PI, circle_mean

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


# ---------------------------------------------------------------------------
# margin sweep


class MarginSample(ValueRecord):
    """One cutoff of a MarginCurve, built by MarginCurve.samples."""

    __slots__ = ("tau", "lhs", "rhs", "margin", "rhs_budget", "note")
    _defaults = {"note": ""}


class MarginCurve(Record):
    """The sweep's verdict, and one entry per cutoff, in increasing tau,
    in each of the columns tau, lhs, rhs, margin and rhs_budget (float
    arrays) and note (a str array: "" for a kept sample, else the name of
    the failure that dropped it, whose rhs, margin and rhs_budget are
    NaN).  growth_exponent and fit_r2 are None when no growth fit was
    made.  ``samples`` builds one MarginSample per cutoff from the
    columns, on demand."""

    __slots__ = ("tau", "lhs", "rhs", "margin", "rhs_budget", "note",
                 "verdict", "growth_exponent", "fit_r2", "budget", "details")

    @property
    def samples(self):
        return tuple(map(MarginSample, self.tau.tolist(), self.lhs.tolist(),
                         self.rhs.tolist(), self.margin.tolist(),
                         self.rhs_budget.tolist(), self.note.tolist()))


# fewest kept samples in the top decade of taus that can carry a verdict;
# the growth fit needs as many
_MIN_TOP = 3
# moments per band segment: every declared log-shape piece has lower degree
_MOMENTS = 9
_POW = np.arange(_MOMENTS)
# the Taylor shift sum_k a_k (d - u)^k = sum_ij d^j a_(i+j) _SHIFT[j, i] u^i
_SHIFT = np.array([[(-1) ** i * math.comb(i + j, i) for i in _POW]
                   for j in _POW])
# roundings in a band pair besides its segment's sums, with room to spare
_BAND_OPS = 48


def _powers(x):
    """x^j for j < _MOMENTS, one row per value of x."""
    out = np.empty((x.size, _MOMENTS))
    out[:, 0] = 1.0
    for j in range(1, _MOMENTS):
        np.multiply(out[:, j - 1], x, out=out[:, j])
    return out


def _band_sums(log_r, m, table, core, band):
    """Each row's sum of m * psi(c - ln r) over its band, a bound on its
    rounding, and the numbers of segments and (piece, segment) pairs.

    On a piece with edge e, psi is sum_k a_k y^k in y = x - e.  Segment s
    between two cuts (the pieces' ends) carries mu_i = sum m u^i in
    u = ln r - A_s, A_s the midpoint of its ln r, and a pair adds
    (d^j) @ (_SHIFT * a) . mu at d = c - A_s - e.  With h the
    half-width of s and rho = |d| + h, a pair's rounding bound,
    2^-52 mu_0 ((n_s + pairs + _BAND_OPS) sum_k |a_k| rho^k
    + (|c| + |A_s| + h + |e|) sum_k k |a_k| rho^(k-1)), covers the sums of
    its n_s radii in any order and the roundings of ln tau, ln r and d.
    A pair is one row of its arrays, each reduced along that row (einsum,
    no BLAS), so its bits do not depend on how many pairs there are; a
    test's sums still depend on the other tests through the cuts.
    """
    n = len(table)
    idx = np.flatnonzero(band > core)
    if not idx.size:
        return np.zeros(n), np.zeros(n), 0, 0
    pieces = getattr(table.log_shape, "pieces", None)
    if pieces is None or max(len(a) for _, a in pieces) > _MOMENTS:
        raise InvalidPotential("a test with zeros in its band needs "
                               f"log-shape pieces of degree < {_MOMENTS}")
    c = table.log_constant
    # x = c - ln r falls as r grows: the top piece starts at the core
    pieces = pieces[::-1]
    ends = [core[idx]]
    for edge, _ in pieces:
        ends.append(np.clip(np.searchsorted(log_r, c[idx] - edge,
                                            side="right"), ends[-1], band[idx]))
    lo, hi = np.concatenate(ends[:-1]), np.concatenate(ends[1:])
    cuts = np.array(sorted(set(np.concatenate((lo, hi)).tolist())))
    lo_r, hi_r = log_r[cuts[:-1]], log_r[cuts[1:] - 1]
    anchor, half = 0.5 * (lo_r + hi_r), 0.5 * (hi_r - lo_r)
    # the moments' terms are formed in place, on two fresh arrays
    u = np.repeat(anchor, np.diff(cuts))
    np.subtract(log_r[cuts[0]:cuts[-1]], u, out=u)
    w = np.array(m[cuts[0]:cuts[-1]], dtype=float)
    starts = cuts[:-1] - cuts[0]
    mu = np.empty((starts.size, _MOMENTS))
    for i in _POW:
        if i:
            w *= u
        np.add.reduceat(w, starts, out=mu[:, i])
    # one pair per segment of each (test, piece) row, the pairs of each
    # piece in one run
    s_lo = np.searchsorted(cuts, lo)
    count = np.searchsorted(cuts, hi) - s_lo
    seg = np.arange(count.sum()) - np.repeat(
        np.cumsum(count) - count - s_lo, count)
    test = np.repeat(np.tile(idx, len(pieces)), count)
    value, size, slope, spread = (np.empty(test.size) for _ in range(4))
    runs = np.cumsum(count.reshape(len(pieces), -1).sum(axis=1))
    for (edge, coeffs), first, last in zip(pieces, [0, *runs[:-1]], runs):
        p = slice(first, last)
        a = np.append(coeffs, np.zeros(2 * _MOMENTS - len(coeffs)))
        d = c[test[p]] - anchor[seg[p]] - edge
        # one expression, so that its (pairs, 9) temporaries are freed
        # before the next ones are made
        value[p] = np.einsum(
            "pi,pi->p", np.einsum("pj,ji->pi", _powers(d),
                                  _SHIFT * a[_POW[:, None] + _POW]),
            mu[seg[p]])
        # sum_k |a_k| rho^k and its slope bound the piece on a segment
        rho = _powers(abs(d) + half[seg[p]])
        size[p] = np.einsum("pk,k->p", rho, abs(a[:_MOMENTS]))
        slope[p] = np.einsum("pk,k->p", rho[:, :-1],
                             abs(a[1:_MOMENTS]) * _POW[1:])
        spread[p] = (abs(c[test[p]]) + abs(anchor[seg[p]]) + half[seg[p]]
                     + abs(edge))
    ops = np.diff(cuts)[seg] + np.bincount(test)[test] + _BAND_OPS
    return (np.bincount(test, value, n),
            2.0 ** -52 * np.bincount(
                test, mu[seg, 0] * (ops * size + spread * slope), n),
            cuts.size - 1, test.size)


def _prefix_fsums(values):
    """math.fsum of every prefix of values, in one pass: the running sum
    is kept exactly as Shewchuk's non-overlapping partials, as fsum keeps
    it, and each prefix is rounded from them by fsum, so every result has
    the bits of fsum(values[:k + 1])."""
    partials = []
    out = []
    for x in map(float, values):
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]
        out.append(math.fsum(partials))
    return out


def _sweep_lhs(r, m, table):
    """sum of m * profile(r) over sorted radii r, for every row of the
    spike table, and the work details.

    Within a row's log_core the profile is log_constant - ln d, so that
    part is c * M(a) - L(a) with M and L the prefix sums of mult and
    mult * ln r up to the core edge a.  The band out to support_radius
    comes from segment moments (_band_sums), and nothing beyond it
    contributes.  Prefix sums are formed only at the core edges: pairwise
    segment sums, then an exact running total (_prefix_fsums).
    lhs_rounding is the largest bound on an lhs's rounding: its band's,
    plus _CORE_ULPS ulps of each closed-form core term.
    """
    core = np.searchsorted(r, table.log_core, side="right")
    band = np.searchsorted(r, table.support_radius, side="right")
    log_r = np.log(r[:max(core.max(initial=0), band.max(initial=0))])
    cored = core > 0
    # sorted(set()) rather than np.unique, which imports numpy.ma
    edges = np.array(sorted(set(core[cored].tolist())), dtype=int)
    mass = np.zeros(core.size)
    log_mass = np.zeros(core.size)
    if edges.size:
        top = edges[-1]
        starts = np.concatenate(([0], edges[:-1]))
        at = np.searchsorted(edges, core[cored])
        mass[cored] = np.array(_prefix_fsums(
            np.add.reduceat(m[:top], starts).tolist()))[at]
        log_mass[cored] = np.array(_prefix_fsums(
            np.add.reduceat(log_r[:top] * m[:top], starts).tolist()))[at]
    sums, bounds, segments, pairs = _band_sums(log_r, m, table, core, band)
    head = table.log_constant * mass
    bounds += np.where(cored, _CORE_ULPS * (np.spacing(np.abs(head))
                                            + np.spacing(np.abs(log_mass))),
                       0.0)
    lhs = np.where(cored, head - log_mass, 0.0) + sums
    return lhs, {"band_segments": segments, "band_pairs": pairs,
                 "lhs_rounding": float(bounds.max(initial=0.0))}


def margin_sweep(Z, M, family, *, tol=1e-9):
    """Sweep the family, comparing zero mass against majorant charge.

    Each cutoff tau yields lhs = sum of mult * spike(z_j) and
    rhs = integral of the spike against the majorant charge; verdicts
    look at how lhs - rhs behaves as tau grows.  The family gives its
    spikes for all cutoffs as one SpikeTable, ``family.spikes(taus)``,
    and both sides read its columns.  The spikes depend on z_j only
    through |z_j|, so the lhs of all cutoffs comes from one pass over the
    sorted radii and multiplicities of ``Z.radii_up_to`` (for a Gaussian
    lattice, one entry per norm), and the rhs of all cutoffs, with its
    budget and note columns, from one integrate_radial call on the
    table; a cutoff whose integral fails is kept as a dropped sample,
    with NaN rhs and the failure's name as note.  The result is a
    MarginCurve of columns, one entry per cutoff, and _margin_verdict
    reads the verdict off them.
    The same radii show a zero at the origin, which no sweep allows;
    no point of Z is formed.  A margin counts only above the threshold
    10 max(budget + lhs rounding bound, tol).  ``details`` records the
    total multiplicity swept (``zeros``), the number of radii read
    (``radii``), and the number of charge bands that missed the
    one-panel rule and ran adaptive quadrature (``adaptive_bands``), and
    the lhs's band counts and rounding bound (_sweep_lhs).
    """
    table = family.spikes(family.taus())
    reach = 1.05 * float(table.support_radius.max())
    radii, mults = Z.radii_up_to(reach)
    if radii.size and radii[0] <= 1e-15:
        raise DomainError("candidate zeros must avoid the origin")
    lhs, work = _sweep_lhs(radii, mults, table)
    rhs, rhs_budget, note, adaptive = M.charge.integrate_radial(table, tol=tol)
    swept = {"zeros": int(np.sum(mults)), "radii": int(radii.size),
             "adaptive_bands": adaptive, **work}
    margin = lhs - rhs
    verdict, exponent, r2, budget, details = _margin_verdict(
        table.tau, margin, rhs_budget, note == "", work["lhs_rounding"], tol)
    if "reason" not in details:
        details["family"] = getattr(family, "kind", "unknown")
    return MarginCurve(tau=table.tau, lhs=lhs, rhs=rhs, margin=margin,
                       rhs_budget=rhs_budget, note=note, verdict=verdict,
                       growth_exponent=exponent, fit_r2=r2, budget=budget,
                       details={**details, **swept})


def _fit_growth(x, y):
    """Least-squares slope of y on x and the fit's r^2, in closed form:
    both columns are centred on their means first."""
    dx = x - x.mean()
    dy = y - y.mean()
    slope = float(dx @ dy / (dx @ dx))
    resid = dy - slope * dx
    ss_tot = float(dy @ dy)
    r2 = 1.0 - float(resid @ resid) / ss_tot if ss_tot > 0 else 1.0
    return slope, r2


def _margin_verdict(tau, margin, rhs_budget, kept, lhs_rounding, tol):
    """The sweep's verdict rule on its columns, in cutoff order; kept is
    False for a dropped sample.

    The budget is the largest kept rhs_budget, and a margin counts only
    above threshold = 10 max(budget + lhs_rounding, tol).  Only the top
    decade of kept cutoffs, tau >= max tau / 10, decides, and it needs
    _MIN_TOP samples.  The growth exponent is the log-log slope of the
    top margins above threshold, when there are _MIN_TOP of them.
    "violated": exponent >= 0.5, every top margin positive, and the last
    above threshold; "consistent": no top margin above threshold, or an
    exponent below 0.25, or no step up by more than threshold.  Returns
    (verdict, growth_exponent, fit_r2, budget, details).
    """
    dropped = int(kept.size - np.count_nonzero(kept))
    if dropped == kept.size:
        return ("inconclusive", None, None, math.nan,
                {"dropped": dropped, "reason": "no summable samples"})
    budget = float(rhs_budget[kept].max())
    tau_max = float(tau[kept].max())
    top = kept & (tau >= tau_max / 10.0)
    margins = margin[top]
    threshold = 10.0 * max(budget + lhs_rounding, tol)

    exponent = r2 = None
    pos = margins > threshold
    if np.count_nonzero(pos) >= _MIN_TOP:
        exponent, r2 = _fit_growth(np.log(tau[top][pos]), np.log(margins[pos]))

    verdict = "inconclusive"
    if margins.size < _MIN_TOP:
        # too few samples to fit or to show a trend: "never increases"
        # would hold vacuously
        pass
    elif (exponent is not None and exponent >= 0.5
            and margins[-1] > threshold and (margins > 0).all()):
        verdict = "violated"
    elif (not pos.any()
          or (exponent is not None and exponent < 0.25)
          or (margins[1:] <= margins[:-1] + threshold).all()):
        verdict = "consistent"
    return verdict, exponent, r2, budget, {
        "dropped": dropped, "kept": int(kept.size) - dropped,
        "threshold": threshold, "tau_max": tau_max,
        "n_top": int(margins.size)}


# ---------------------------------------------------------------------------
# upper-envelope regularity


class M0Report(Record):
    """The estimate and its verdict, and one entry per probe point in
    each of the arrays z, shell, deviation and budget."""

    __slots__ = ("c_estimate", "bounded", "flagged", "shell_sups", "power",
                 "z", "shell", "deviation", "budget")


def m0_shell_count(r_max):
    """Number of dyadic shells 2^k - 1 < |z| <= 2^(k+1) - 1 that
    m0_dyadic_grid fills up to r_max, ceil(log2(1 + r_max)); counted on
    the shells' own float edges, so no rounding of 1 + r_max or of log2
    can drop or add a shell."""
    r_max = float(r_max)
    shells = 0
    while 2.0 ** shells - 1.0 < r_max:
        shells += 1
    return shells


def m0_dyadic_grid(r_max, per_shell=8):
    """Deterministic probe grid: per_shell golden-angle points in each
    dyadic shell of 1 + |z| up to r_max."""
    pts = []
    j = 0
    for k in range(m0_shell_count(r_max)):
        lo = 2.0 ** k - 1.0
        hi = min(2.0 ** (k + 1) - 1.0, float(r_max))
        for i in range(per_shell):
            frac = (i + 0.5) / per_shell
            r = lo + frac * (hi - lo)
            theta = TWO_PI * ((j * _GOLDEN) % 1.0)
            pts.append(r * complex(math.cos(theta), math.sin(theta)))
            j += 1
    return np.asarray(pts, dtype=complex)


def check_m0(M_up, P, points, *, tol=1e-8):
    """Deviation of the upper envelope from its own circle means.

    deviation(z) = mean of M_up on the circle of radius (1 + |z|)^-P
    about z, minus M_up(z); always nonnegative for subharmonic M_up,
    and its boundedness over the plane is the regularity being probed.
    The means are circle_mean's, so a declared closed form is read with
    a budget of 0 and tol reaches only quadrature.  The estimate is the
    running supremum over the dyadic shells floor(log2(1 + |z|));
    bounded is declared when the supremum moves by at most 1% across
    the two outermost shells.
    """
    pts = np.asarray(points, dtype=complex).ravel()
    if pts.size == 0:
        raise DomainError("need at least one probe point")
    radii = PlanePowerProfile(P).radius(pts)
    means, budget = circle_mean(M_up, pts, radii, tol=tol)
    deviation = means - np.asarray(M_up(pts), dtype=float)
    # exact shells: log2(x) rounds up to k for x just below 2^k
    shell = np.searchsorted(2.0 ** np.arange(1.0, 1024.0),
                            1.0 + np.abs(pts), side="right")
    # per shell, as np.maximum.at and np.unique map code no other stage runs
    in_shell = [shell == k for k in range(shell.max() + 1)]
    shell_sups = [float(deviation[m].max()) for m in in_shell if m.any()]
    running = np.maximum.accumulate(shell_sups).tolist()
    bounded = len(running) < 2 or (
        running[-1] - running[-2] <= 0.01 * (1.0 + abs(running[-2])))
    flagged = ()
    if not bounded:
        hit = in_shell[-1] & (deviation > running[-2] * 1.01)
        flagged = tuple(zip(pts[hit].tolist(), deviation[hit].tolist()))
    return M0Report(c_estimate=running[-1], bounded=bounded, flagged=flagged,
                    shell_sups=tuple(shell_sups), power=float(P),
                    z=pts, shell=shell, deviation=deviation, budget=budget)


# ---------------------------------------------------------------------------
# disk-regime comparison constants


class Lemma1Constants(ValueRecord):
    __slots__ = ("c_test", "inf_green", "c_majorant", "parts", "budget")


def green_disk(R, z0, center=0j):
    """Green function of the disk |w - center| < R with pole z0, as a
    function of w.  The formula is evaluated everywhere, inside the disk
    and out."""
    R = float(R)
    center = complex(center)
    a = complex(z0) - center
    if abs(a) >= R:
        raise DomainError("pole must lie inside the disk")

    def g(z):
        w = np.asarray(z, dtype=complex) - center
        with np.errstate(divide="ignore"):
            return (np.log(np.abs(R ** 2 - np.conj(a) * w))
                    - np.log(R * np.abs(w - a)))

    return g


def _green_floor_on_circle(R, a, c, radius):
    """Minimum of the Green function g of the disk |w| < R with pole a on
    the circle |w - c| = radius inside it, both taken from the disk's
    center.

    g = -ln|phi| for the Moebius map phi(w) = R (w - a) / (R^2 - conj(a) w).
    phi sends the circle to a circle whose centre is phi at the
    reflection of phi's pole R^2 / conj(a) in it (phi(c) when a = 0), so
    the floor is -ln(|image centre| + image radius).
    """
    reflected = c + radius * radius * a / (R * R - a * c.conjugate())

    def phi(w):
        return R * (w - a) / (R * R - a.conjugate() * w)

    image = phi(reflected)
    return -math.log(abs(image) + abs(phi(c + radius) - image))


def _green_term(R, z0, center, charge, atoms, r0):
    """Integral of the Green function g of the disk |w - center| < R with
    pole z0 against a charge: over its atoms where ``atoms`` holds, and
    over each radial density on the annulus r0 <= s <= R about the
    centre.

    About that centre the circle means of g are
    m(s) = ln R - ln max(s, |a|), with a the pole taken from the centre,
    by Jensen's formula on g(w) = ln|R^2 - conj(a) w| - ln R - ln|w - a|.
    By parts against the density's disk mass mu and log-mass L
    (RadialDensity.mass_in, log_mass_in),
    int_r0^R m dmu = L(R) - L(max(r0, |a|)) - m(r0) mu(r0), with no
    last term for r0 = 0.  Each closed-form term adds _CORE_ULPS ulps to
    the budget.  Returns (value, budget).
    """
    val = 0.0
    err = 0.0
    if atoms.any():
        with np.errstate(all="ignore"):
            gv = np.asarray(green_disk(R, z0, center)(
                charge.atom_points[atoms]), dtype=float)
        if not np.all(np.isfinite(gv)):
            raise NotSummable("integrand unbounded at an atom")
        val += float(np.sum(charge.atom_masses[atoms] * gv))
    lo = max(r0, abs(z0 - center))
    for dens in charge.radial:
        terms = [dens.log_mass_in(R), -dens.log_mass_in(lo)]
        if r0 > 0:
            terms.append(-(math.log(R) - math.log(lo)) * dens.mass_in(r0))
        val += dens.sign * sum(terms)
        err += _CORE_ULPS * sum(math.ulp(t) for t in terms)
    return val, err


def lemma1_constants(d_tilde, s_region, z0, b, M):
    """Comparison constants for the disk-regime necessity bound.

    c_test scales the capped test b against the Green function's floor
    on the inner boundary; c_majorant collects the Green integral of the
    majorant's charge over the closed ambient disk less the pole, the
    negative charge outside the open inner disk, and the positive part of
    the majorant at the pole.  Radial densities sit at the origin, where
    the ambient disk, and for a negative one the inner disk, must be
    centred; every term is closed form (_green_term), a few ulps of budget.
    """
    if not isinstance(d_tilde, Region):
        raise DomainError("ambient region must be a disk")
    if not isinstance(s_region, Region):
        raise DomainError("inner region must be a disk")
    z0 = complex(z0)
    b = float(b)
    if b <= 0:
        raise DomainError("cap b must be positive")
    gap = d_tilde.radius - (abs(s_region.center - d_tilde.center)
                            + s_region.radius)
    if gap <= 0:
        raise DomainError("inner region must sit strictly inside the ambient disk")
    if abs(z0 - s_region.center) >= s_region.radius:
        raise DomainError("pole must lie in the interior of the inner region")
    R, center = d_tilde.radius, d_tilde.center
    inf_green = _green_floor_on_circle(R, z0 - center,
                                       s_region.center - center,
                                       s_region.radius)
    if inf_green <= 0:
        raise DomainError("Green floor is not positive; geometry too tight")
    c_test = b / inf_green

    charge = M.charge
    if charge.radial and abs(d_tilde.center) > 1e-12:
        raise EngineError("radial density off the ambient disk's center")
    if (any(dens.sign < 0 for dens in charge.radial)
            and abs(s_region.center) > 1e-12):
        raise EngineError("negative radial density off the inner disk's "
                          "center")
    pts = charge.atom_points
    live = (charge.atom_masses != 0) & d_tilde.contains(pts)
    v1, e1 = _green_term(R, z0, center, charge,
                         live & (np.abs(pts - z0) > 1e-14), 0.0)
    neg = charge.negative_part()
    outside = (d_tilde.contains(neg.atom_points)
               & ~s_region.interior_contains(neg.atom_points))
    v2, e2 = _green_term(R, z0, center, neg, outside, s_region.radius)
    pole_value = float(eval_M(M, np.array([z0]))[0])
    v3 = max(0.0, pole_value)
    parts = {"charge-term": v1, "negative-term": v2, "pole-term": v3}
    return Lemma1Constants(c_test=c_test, inf_green=inf_green,
                           c_majorant=v1 + v2 + v3, parts=parts,
                           budget=e1 + e2)
