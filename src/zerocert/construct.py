"""Construction side: canonical products and the sufficiency bound.

The genus is probed from dyadic block sums over the zeros' radii (or
read off an unbounded lattice's density exponent); only the product
forms the zeros' points.  Elementary factors are evaluated through a
tail series that stays accurate near u = 0, far zeros are summed as one
power series in z, and the finite product carries a certified bound for
everything it discarded or truncated.  verify_sufficiency then checks
ln|f| against the enlarged-mean envelope pointwise, refusing to certify
anything whose margin sweep already rules it out.

Each far zero a (beyond R = 2 max|z|) keeps its own number of series
orders.  With v = R / a and |v| < 2^e (e <= 0, read off by frexp), every
z asked for has q = |z / a| <= |v| / 2 < 2^(e-1), and the zero's terms
past order p + T add at most

    sum_{m > p+T} q^m / m <= 2 q^(p+1) q^T / (p+T+1).

Taking T_a = min(64, ceil((64 + log2(p + 65)) / (1 - e))) makes
q^T_a < 2^-64 / (p + 65), so that tail stays under
2^(1-64) / (p+65) |z|^(p+1) |a|^-(p+1), the zero's share of the series
term ProductRepresentation.budget charges for 64 orders.  A zero with
|v| >= 1/2 keeps all 64; most far zeros of a lattice need under ten.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import Record, setfield
from .errors import GenusOverflow, NotSummable
from .means import hat_radius
from .quadrature import circle_mean

_SERIES_TERMS = 60
_PROBE_RADIUS = 4096.0


def genus(Z, *, max_genus=8):
    """Smallest p making sum of mult * |z_j|^-(p+1) converge.

    Unbounded lattices answer through their density exponent; other
    distributions are probed through dyadic block sums over the radii
    within ``Z.genus_reach(_PROBE_RADIUS)``, read with their
    multiplicities from ``Z.radii_up_to`` (a Gaussian lattice counts its
    norms and forms no point), accepting p once the last three block
    ratios decay below 0.8.
    """
    if Z.unbounded:
        p = int(math.floor(Z.density_exponent))
        if p > max_genus:
            raise GenusOverflow("genus %d exceeds cap %d" % (p, max_genus))
        return p
    r, ml = Z.radii_up_to(Z.genus_reach(_PROBE_RADIUS))
    keep = r >= 1.0
    r = r[keep]
    ml = ml[keep]
    if r.size == 0:
        return 0
    kmax = int(math.floor(math.log2(float(r.max())))) + 1
    blocks = np.floor(np.log2(r)).astype(int)
    for p in range(max_genus + 1):
        sums = np.zeros(kmax + 1)
        np.add.at(sums, blocks, ml * r ** (-(p + 1.0)))
        nz = [s for s in sums if s > 0]
        if len(nz) <= 3:
            return p
        ratios = [b2 / b1 for b1, b2 in zip(nz[-4:], nz[-3:])]
        if all(q <= 0.8 for q in ratios):
            return p
    raise GenusOverflow("no genus up to %d shows summable block decay"
                        % max_genus)


# ---------------------------------------------------------------------------
# elementary factors


def _log_E_complex(u, p):
    """log E_p(u): a truncated Taylor tail below |u| = 1/2, the direct
    formula above it.  Horner over Taylor bins keeps the truncation under
    1e-19 while spending few terms on far-away factors."""
    u = np.asarray(u, dtype=complex)
    au = np.abs(u)
    out = np.empty(u.shape, dtype=complex)
    small = au <= 0.1
    mid = (au > 0.1) & (au <= 0.5)
    for mask, terms in ((small, 18), (mid, _SERIES_TERMS)):
        if mask.any():
            us = u[mask]
            acc = np.zeros(us.shape, dtype=complex)
            for k in range(p + terms, p, -1):
                acc = acc * us + 1.0 / k
            out[mask] = -(us ** (p + 1)) * acc
    big = au > 0.5
    if big.any():
        ub = u[big]
        with np.errstate(divide="ignore", invalid="ignore"):
            acc = np.log(1.0 - ub)
        term = np.ones(ub.shape, dtype=complex)
        for k in range(1, p + 1):
            term = term * ub
            acc = acc + term / k
        out[big] = acc
    return out


_BLOCK_ELEMS = 1 << 22
_FAR_TERMS = 64


def _far_orders(v, p):
    """Series orders T_a each far zero keeps, from |v| = R / |a| (see the
    module docstring): min(64, ceil((64 + log2(p + 65)) / (1 - e)))
    with |v| < 2^e."""
    e = np.frexp(v)[1]
    need = _FAR_TERMS + math.log2(p + _FAR_TERMS + 1)
    return np.minimum(np.ceil(need / (1 - e)), _FAR_TERMS).astype(np.int8)


def _sum_log_E(zflat, points, mults, p, work=None):
    """Sum of mult * log E_p(z / a) over the retained zeros.

    Zeros beyond R = 2 max|z| enter through the far-field series
    -sum_{m=p+1}^{p+T} w^m S_m / m with w = z / R and the scaled power
    sums S_m = sum mult (R / a)^m, formed once and applied to every z by
    Horner (the multipole idea of Greengard and Rokhlin).  Zero a enters
    S_m only for its first T_a orders (_far_orders): sorted by T_a, the
    zeros order m takes are a prefix, so each power is one in-place
    product on it.  Both w and R / a lie in the unit disk, so no power
    overflows, and one that underflows is negligible.  The nearer zeros
    are summed factor by factor, blockwise.  ``work``, a dict if given,
    receives ``far_zeros`` and ``far_terms`` (the sum of the T_a).
    """
    n = zflat.size
    out = np.zeros(n, dtype=complex)
    if work is not None:
        work["far_zeros"] = work["far_terms"] = 0
    if n == 0:
        return out
    R = 2.0 * float(np.abs(zflat).max())
    ra = np.abs(points)
    near = ra <= R
    if R > 0 and not near.all():
        far = np.flatnonzero(~near)
        T = _far_orders(R / ra[far], p)
        order = np.argsort(_FAR_TERMS - T, kind="stable")
        far, T = far[order], T[order]
        del ra, order  # freed before the complex powers are made
        # live[j]: the zeros with T_a > j, a prefix of them
        live = np.searchsorted(-T, -np.arange(T[0], dtype=T.dtype))
        if work is not None:
            work["far_zeros"], work["far_terms"] = far.size, int(T.sum())
        v = R / points[far]
        vm = v ** (p + 1)
        vm *= mults[far]
        coef = np.empty(live.size, dtype=complex)
        for j, k in enumerate(live):
            if j:
                vm[:k] *= v[:k]
            coef[j] = vm[:k].sum() / (p + 1 + j)
        w = zflat / R
        acc = np.full(n, coef[-1])
        for c in coef[-2::-1]:
            acc = acc * w + c
        out -= w ** (p + 1) * acc
    inv_a = 1.0 / points[near]
    mn = mults[near]
    K = inv_a.size
    if K == 0:
        return out
    rows = max(1, _BLOCK_ELEMS // K)
    # rows hitting a zero exactly produce non-finite factors here; the
    # caller's guard mask overwrites them
    with np.errstate(all="ignore"):
        for i0 in range(0, n, rows):
            zb = zflat[i0:i0 + rows]
            u = zb[:, None] * inv_a[None, :]
            out[i0:i0 + rows] += _log_E_complex(u, p) @ mn
    return out


# radius about each zero (and the origin) inside which ln|f| reads -inf
_GUARD = 1e-12


class ProductRepresentation(Record):
    """Finite canonical product with a certified bound on its tail."""

    __slots__ = ("genus", "points", "mults", "origin_mult", "cutoff_radius",
                 "tail_sum_bound", "guard")
    _defaults = {"guard": _GUARD}

    @property
    def retained(self):
        return int(self.points.size)

    def _guard_mask(self, z):
        z = np.asarray(z, dtype=complex)
        near = np.zeros(z.shape, dtype=bool)
        flat = z.ravel()
        if self.points.size and flat.size:
            # no zero beyond 2 max|z| + guard lies within guard of any z
            reach = 2.0 * float(np.abs(flat).max()) + self.guard
            pts = self.points[np.abs(self.points) <= reach]
            if pts.size:
                nf = near.ravel()
                rows = max(1, _BLOCK_ELEMS // pts.size)
                for i0 in range(0, flat.size, rows):
                    d = np.abs(flat[i0:i0 + rows, None] - pts[None, :])
                    nf[i0:i0 + rows] = d.min(axis=1) <= self.guard
                near = nf.reshape(z.shape)
        if self.origin_mult:
            near |= np.abs(z) <= self.guard
        return near

    def log_abs(self, z, work=None):
        """ln of the absolute value of the finite product, -inf in guard
        zones; ``work`` is passed on to _sum_log_E."""
        z = np.asarray(z, dtype=complex)
        flat = z.ravel()
        out = self._log_abs_unguarded(flat, work)
        out[self._guard_mask(flat)] = -math.inf
        return out.reshape(z.shape)

    def _log_abs_unguarded(self, flat, work=None):
        """log_abs on a flat array of points that lie outside every guard
        zone, which the caller has masked already."""
        out = _sum_log_E(flat, self.points, self.mults, self.genus,
                         work).real
        if self.origin_mult:
            with np.errstate(divide="ignore"):
                out += self.origin_mult * np.log(np.abs(flat))
        return out

    def tail_budget(self, z):
        """Bound on the discarded factors' effect on ln|f| at z.

        Valid when the cutoff dominates 2|z| so every discarded factor
        sits in the series regime; infinite otherwise, unless nothing was
        discarded (a tail sum bound of 0), where it is 0 everywhere.
        """
        z = np.asarray(z, dtype=complex)
        if self.tail_sum_bound == 0:
            return np.zeros(z.shape)
        az = np.abs(z)
        p = self.genus
        with np.errstate(over="ignore"):
            bound = 2.0 * az ** (p + 1) / (p + 1) * self.tail_sum_bound
        return np.where(self.cutoff_radius >= 2.0 * az, bound, math.inf)

    def budget(self, z):
        """Bound on |ln|f(z)| - log_abs(z)|: tail_budget plus the
        truncation of _sum_log_E's far-field series.

        A zero beyond the split radius R >= 2|z| has |z/a| <= 1/2, so its
        series terms past m = p + T add at most
        2^(1-T)/(p+T+1) |z|^(p+1) |a|^-(p+1) with T = 64; summing that
        over every retained zero covers any R.  A zero with |R/a| < 2^e
        stops after T_a = min(64, ceil((64 + log2(p + 65)) / (1 - e)))
        orders instead: its |z/a| < 2^(e-1) makes (|z/a|)^T_a smaller
        than 2^-64 / (p + 65), so its own tail stays within the same
        share, and the bound is unchanged.
        """
        z = np.asarray(z, dtype=complex)
        p = self.genus
        power_sum = float(np.sum(self.mults * np.abs(self.points) ** -(p + 1.0)))
        series = 2.0 ** (1 - _FAR_TERMS) / (p + _FAR_TERMS + 1) * power_sum
        return self.tail_budget(z) + series * np.abs(z) ** (p + 1)


def build_product(Z, p=None, *, K=10000):
    """Retain about K zeros nearest the origin and bound the rest."""
    if p is None:
        p = genus(Z)
    cutoff = Z.retaining_radius(K)
    pts, ml = Z.points_up_to(cutoff)
    at_origin = np.abs(pts) <= _GUARD
    origin_mult = int(ml[at_origin].sum()) if at_origin.any() else 0
    pts, ml = pts[~at_origin], ml[~at_origin]
    tail = Z.tail_power_sum_bound(p + 1, cutoff)
    if not math.isfinite(tail):
        raise NotSummable(
            "tail of order %d diverges beyond radius %.6g" % (p + 1, cutoff))
    return ProductRepresentation(
        genus=int(p), points=pts, mults=np.asarray(ml, dtype=float),
        origin_mult=origin_mult, cutoff_radius=float(cutoff),
        tail_sum_bound=float(tail))


def weierstrass_log_abs(Z, p, z, *, K=10000):
    prod = build_product(Z, p, K=K)
    return prod.log_abs(z), prod.budget(z)


# ---------------------------------------------------------------------------
# the sufficiency bound


class SufficiencyReport(Record):
    """The verdict, its counters, and one entry per checked grid point in
    each of the arrays z, log_abs, tail, bound, excess and ok (fresh empty
    arrays unless given)."""

    __slots__ = ("certified", "reason", "margin_verdict", "genus", "retained",
                 "checked", "violations", "skipped_guard", "max_excess",
                 "tail_budget_max", "far_zeros", "far_terms", "z", "log_abs",
                 "tail", "bound", "excess", "ok")
    _defaults = {"far_zeros": 0, "far_terms": 0, "z": None, "log_abs": None,
                 "tail": None, "bound": None, "excess": None, "ok": None}

    def __init__(self, *args, **kwargs):
        Record.__init__(self, *args, **kwargs)
        for name in self.__slots__[-6:]:
            if getattr(self, name) is None:
                dtype = {"z": complex, "ok": bool}.get(name, float)
                setfield(self, name, np.empty(0, dtype=dtype))


def verify_sufficiency(Z, M, profile, grid_points, *, K=10000, tol=1e-7,
                       margin_verdict=None):
    """Check ln|f| <= enlarged-mean envelope on a grid of points.

    When the margin verdict says the necessary criterion is violated,
    no construction is attempted.
    Otherwise the finite product plus its tail budget is compared with
    circle means of the upper part at the certified enlarged radius,
    minus the lower part, plus the domain remainder.  The certificate is
    strict: one grid point in excess refuses it.
    """
    if margin_verdict == "violated":
        return SufficiencyReport(
            certified=False, reason="margin-violated",
            margin_verdict=margin_verdict, genus=-1, retained=0, checked=0,
            violations=0, skipped_guard=0, max_excess=math.nan,
            tail_budget_max=math.nan)
    p = genus(Z)
    product = build_product(Z, p, K=K)
    grid = np.asarray(grid_points, dtype=complex).ravel()
    near = product._guard_mask(grid)
    skipped = int(near.sum())
    grid = grid[~near]

    work = {}
    # the guard zones are masked once, above
    log_abs = product._log_abs_unguarded(grid, work)
    tails = product.budget(grid)
    hats = hat_radius(profile, grid).certified_upper
    m_up, budgets = circle_mean(M.up, grid, hats, tol=tol / 4.0)
    low = np.asarray(M.low(grid), dtype=float)
    bounds = np.where(np.isneginf(low), math.inf,
                      m_up - low + profile.remainder(grid))

    exc = log_abs + tails - bounds - budgets - tol
    viol = exc > 0
    n_viol = int(viol.sum())
    certified = n_viol == 0
    finite_tails = tails[np.isfinite(tails)]
    return SufficiencyReport(
        certified=certified,
        reason="ok" if certified else "excess-at-grid",
        margin_verdict=margin_verdict, genus=p, retained=product.retained,
        checked=int(grid.size), violations=n_viol, skipped_guard=skipped,
        max_excess=float(exc.max()) if grid.size else -math.inf,
        tail_budget_max=float(finite_tails.max()) if finite_tails.size else 0.0,
        far_zeros=work["far_zeros"], far_terms=work["far_terms"], z=grid,
        log_abs=log_abs, tail=tails, bound=bounds, excess=exc, ok=~viol)
