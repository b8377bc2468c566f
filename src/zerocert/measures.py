"""Zero distributions, regions, and signed Riesz charges.

Charges follow the potential-theory normalization: the charge of a
subharmonic function is 1/(2 pi) times its distributional Laplacian, so
ln|z - a| carries a unit atom at a.  Every charge is point atoms plus
rotation-invariant densities (sigma |z|^rho, ln(1 + |z|^2), ...), each
about its own centre.  Every density declares its disk mass
``cumulative`` and its log-mass ``log_mass`` in closed form.  A sweep
family's radial spikes read them for their exact-log cores, all of them
in one call of ``RieszCharge.integrate_radial`` on the family's
testfam.SpikeTable, the one spike form it reads; lemma1, and Jensen's
identity through it, integrate a concentric disk's Green function
against a density as a difference of log-masses
(``RadialDensity.log_mass_in``).  Regions are closed disks.
Zero distributions are explicit point sets or lattices.  Every radial
question about them (the genus probe, the margin sweep) reads only
their sorted radii with multiplicities, through ``radii_up_to``; only
the canonical product enumerates points, disk by disk, through
``points_up_to``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._record import Record, ValueRecord, setfield
from .errors import DomainError, EngineError, NotSummable
from .quadrature import (ToleranceFailure, integrate, integrate_circle_means,
                         panel_estimates, panel_nodes)


# ulps of each closed-form term that a charge integral adds to its budget
# for rounding
_CORE_ULPS = 4


# ---------------------------------------------------------------------------
# regions


class Region(ValueRecord):
    """Closed disk |z - center| <= radius."""

    __slots__ = ("center", "radius")

    @classmethod
    def disk(cls, center, radius):
        radius = float(radius)
        if radius <= 0:
            raise DomainError("disk radius must be positive")
        return cls(complex(center), radius)

    def contains(self, z):
        return np.abs(np.asarray(z, dtype=complex) - self.center) <= self.radius

    def interior_contains(self, z):
        return np.abs(np.asarray(z, dtype=complex) - self.center) < self.radius


# ---------------------------------------------------------------------------
# zero distributions


class ZeroDistribution:
    """Candidate zero multiset: an explicit point set or a lattice.

    Each kind enumerates its points disk by disk, bounds the power sums
    of the points beyond a radius, and names the radius that retains
    about K zeros and the reach over which a genus probe reads them.
    A question about |z| alone asks ``radii_up_to``, which a lattice can
    answer from its norms without forming a point; ``points_up_to``
    serves the canonical product, which needs the positions.
    """

    unbounded = False
    density_exponent = None

    @classmethod
    def from_points(cls, points, mults=None):
        return PointSet(points, mults)

    @classmethod
    def empty(cls):
        return PointSet([], None)

    @classmethod
    def real_multiples(cls, step=math.pi, max_radius=None):
        return RealMultiples(step, max_radius)

    @classmethod
    def gaussian_integers(cls, scale=1.0, max_radius=None):
        return GaussianIntegers(scale, max_radius)

    def points_up_to(self, radius):
        """Points and multiplicities with |z| <= radius."""
        return self._enumerate(float(radius))

    def radii_up_to(self, radius):
        """Radii |z| <= radius in increasing order, with multiplicities.

        By default the moduli of the enumerated points, one entry per
        point: the points are dropped before the sort and the sort order
        on return, so neither is held while a caller sums over the
        radii.  Multiplicities that are all 1 need no reordering.
        """
        pts, ml = self.points_up_to(radius)
        radii = np.abs(pts)
        del pts  # freed before the sort allocates its order and work buffer
        order = np.argsort(radii, kind="stable")
        ml = np.asarray(ml)
        return radii[order], ml if np.all(ml == 1) else ml[order]

    def tail_power_sum_bound(self, q, radius):
        """Upper bound on sum of mult * |z_j|^(-q) over |z_j| > radius."""
        return self._tail(float(q), float(radius))


class PointSet(ZeroDistribution):
    """Finitely many points with positive integer multiplicities."""

    def __init__(self, points, mults):
        pts = np.asarray(points, dtype=complex).ravel()
        if mults is None:
            ml = np.ones(pts.size, dtype=float)
        else:
            ml = np.asarray(mults, dtype=float).ravel()
        if ml.shape != pts.shape:
            raise DomainError("points and multiplicities differ in length")
        if pts.size and not (np.all(np.isfinite(pts.real)) and np.all(np.isfinite(pts.imag))):
            raise DomainError("points must be finite")
        if np.any(ml < 1) or np.any(ml != np.round(ml)):
            raise DomainError("multiplicities must be positive integers")
        # merge duplicates so counting functions determine the object
        if pts.size:
            upts, inv = np.unique(pts, return_inverse=True)
            ums = np.zeros(upts.size, dtype=int)
            np.add.at(ums, inv, ml.astype(int))
            self.points, self.mults = upts, ums
        else:
            self.points = np.zeros(0, dtype=complex)
            self.mults = np.zeros(0, dtype=int)

    def _enumerate(self, radius):
        mask = np.abs(self.points) <= radius
        return self.points[mask], self.mults[mask]

    def _tail(self, q, radius):
        mask = np.abs(self.points) > radius
        if not mask.any():
            return 0.0
        return float(np.sum(self.mults[mask] * np.abs(self.points[mask]) ** (-q)))

    def retaining_radius(self, K):
        radii = np.abs(self.points)
        if radii.size > K:
            return float(np.sort(radii)[K - 1])
        return float(radii.max()) if radii.size else 1.0

    def genus_reach(self, probe_radius):
        # a finite set is probed whole
        return math.inf


class _Lattice(ZeroDistribution):
    """A lattice's nonzero points, all of them or those within max_radius."""

    def __init__(self, max_radius):
        self.max_radius = None if max_radius is None else float(max_radius)

    @property
    def unbounded(self):
        return self.max_radius is None

    def _clamp(self, radius):
        return radius if self.max_radius is None else min(radius, self.max_radius)

    def _finite_clamp(self, radius):
        r = self._clamp(radius)
        if not math.isfinite(r):
            raise DomainError("cannot enumerate an unbounded lattice without a radius")
        return r

    def _enumerate(self, radius):
        return self._points_within(self._finite_clamp(radius))

    def _tail(self, q, radius):
        if self.max_radius is not None and radius >= self.max_radius:
            return 0.0
        return self._tail_beyond(q, radius)

    def genus_reach(self, probe_radius):
        return self._clamp(probe_radius)


class RealMultiples(_Lattice):
    """Points {k*step : k integer, k != 0}."""

    density_exponent = 1.0

    def __init__(self, step, max_radius):
        step = float(step)
        if step <= 0:
            raise DomainError("lattice step must be positive")
        self.step = step
        super().__init__(max_radius)

    def _points_within(self, r):
        kmax = int(math.floor(r / self.step + 1e-12))
        k = np.arange(1, kmax + 1, dtype=float) * self.step
        pts = np.concatenate((k, -k)).astype(complex)
        return pts, np.ones(pts.size, dtype=int)

    def _tail_beyond(self, q, radius):
        # sum over |k*step| > radius of (k*step)^(-q), both signs
        if q <= 1:
            return math.inf
        k0 = max(1, int(math.floor(radius / self.step)))
        return 2.0 * self.step ** (-q) * k0 ** (1.0 - q) / (q - 1.0)

    def retaining_radius(self, K):
        return self._clamp(K * self.step)


class GaussianIntegers(_Lattice):
    """Points {scale*(m + n i)} minus the origin."""

    density_exponent = 2.0

    def __init__(self, scale, max_radius):
        scale = float(scale)
        if scale <= 0:
            raise DomainError("lattice scale must be positive")
        self.scale = scale
        super().__init__(max_radius)

    def _points_within(self, r):
        """Lattice points (x + y i) * scale with |z| <= r, z != 0, real part
        outermost: the square of half-width isqrt of one norm past
        (r/scale)^2, as in radii_up_to, masked by the float test
        |z| <= r."""
        n = math.isqrt(int(math.floor((r / self.scale) ** 2)) + 1)
        k = np.arange(-n, n + 1, dtype=float)
        pts = ((k[:, None] + 1j * k[None, :]) * self.scale).ravel()
        pts = pts[(np.abs(pts) <= r) & (pts != 0)]
        return pts, np.ones(pts.size, dtype=int)

    def radii_up_to(self, radius):
        """Radii scale * sqrt(n) <= radius of the lattice norms n, in
        increasing order, each with the number of points of that norm.

        The norms x^2 + y^2 of the quarter x >= 0, y >= 1 are counted by
        one bincount; rotation by i maps that quarter onto the other
        three, so each count is four times its share.  No point is
        formed and nothing is sorted: the norms past the last one wanted
        are clipped into one spare bin, which is dropped, and the radii,
        increasing, are cut at r by one search.
        """
        r = self._finite_clamp(float(radius))
        # one norm past (r/scale)^2, so that no rounding of the square
        # drops a norm; the radii themselves decide
        top = int(math.floor((r / self.scale) ** 2)) + 1
        sq = np.arange(math.isqrt(top) + 1) ** 2
        norms = np.add.outer(sq, sq[1:]).ravel()
        np.minimum(norms, top + 1, out=norms)
        counts = np.bincount(norms)[:top + 1]
        # each table is freed once read, for the next arrays to reuse
        del norms
        n = np.flatnonzero(counts)
        mults = counts[n]
        del counts
        mults *= 4
        radii = np.sqrt(n)
        radii *= self.scale
        keep = np.searchsorted(radii, r, side="right")
        return radii[:keep], mults[:keep]

    def _tail_beyond(self, q, radius):
        # Each lattice point owns a cell of area scale^2 within 0.71*scale of
        # it, so the tail sum is at most (1/scale^2) * integral over
        # |w| > radius - 1.42*scale of (|w| - 0.71*scale)^(-q) dA.
        if q <= 2:
            return math.inf
        s = self.scale
        x0 = radius - 1.42 * s
        if x0 <= 0:
            return math.inf
        return (2.0 * math.pi / s ** 2) * (
            x0 ** (2.0 - q) / (q - 2.0) + 0.71 * s * x0 ** (1.0 - q) / (q - 1.0))

    def retaining_radius(self, K):
        return self._clamp(self.scale * math.sqrt(4.0 * K / math.pi))


# ---------------------------------------------------------------------------
# signed Riesz charges


@dataclass(frozen=True, eq=False)
class RadialDensity:
    """Rotation-invariant absolutely continuous piece around ``center``.

    ``profile(s) >= 0`` is the radial Laplacian density: the unsigned mass of
    the centered disk of radius t is the integral of s * profile(s) over
    [0, t], i.e. d(charge) = profile(|z - center|) dArea / (2 pi).
    ``cumulative`` is that disk mass in closed form, and ``log_mass`` the
    log-mass L(a) = int_0^a cumulative(s) / s ds; both are evaluated
    elementwise on arrays of radii inside the support, and both are
    required.  A support cut at an inner edge lo > 0 (say with
    dataclasses.replace) may keep them: mass_in and log_mass_in subtract
    what lies below lo.
    """

    profile: Callable
    cumulative: Callable
    log_mass: Callable
    sign: int = 1
    center: complex = 0j
    support: tuple = (0.0, math.inf)

    def mass_in(self, t):
        """Unsigned mass of the centred disk of radius t (float or array):
        cumulative(t) - cumulative(lo) inside the support, so a support
        cut at an inner edge lo > 0 drops the mass below it."""
        lo, hi = self.support
        t = np.minimum(np.asarray(t, dtype=float), hi)
        out = np.zeros(t.shape)
        live = t > lo
        out[live] = self.cumulative(t[live])
        if lo > 0:
            out[live] -= self.cumulative(lo)
        return float(out) if out.ndim == 0 else out

    def log_mass_in(self, t):
        """int_0^t mass_in(s) / s ds (float or array): 0 up to the inner
        edge lo, L(t) - L(lo) - mu(lo) ln(t / lo) inside the support (just
        L(t) when lo = 0), and its value at hi plus mass_in(hi) ln(t / hi)
        past the outer edge hi."""
        lo, hi = self.support
        t = np.asarray(t, dtype=float)
        inside = np.minimum(t, hi)
        out = np.zeros(t.shape)
        live = inside > lo
        out[live] = self.log_mass(inside[live])
        if lo > 0:
            out[live] -= (self.log_mass(lo)
                          + self.cumulative(lo) * np.log(inside[live] / lo))
        past = t > hi
        if past.any():
            out[past] += self.mass_in(hi) * np.log(t[past] / hi)
        return float(out) if out.ndim == 0 else out


def _coerce_points(arr):
    return np.asarray(arr, dtype=complex).ravel()


def _add_cores(dens, table, idx, a, val, err):
    """Add the core (c - k ln a) mu(a) + k L(a) on the density to each
    row idx of the spike table, whose core ends at a.  L is the declared
    log-mass, evaluated once for all the edges."""
    c = table.log_constant[idx]
    k = table.pole_coefficient[idx]
    edge = (c - k * np.log(a)) * dens.mass_in(a)
    tail = k * np.asarray(dens.log_mass(a), dtype=float)
    val[idx] += dens.sign * (edge + tail)
    # a closed form has no estimate: only a rounding floor
    err[idx] += _CORE_ULPS * (np.spacing(np.abs(edge))
                              + np.spacing(np.abs(tail)))


def _band_integrand(dens, table, idx, s):
    """g(s) s profile(s) for the bands of rows idx, on the rows of s."""
    y = table.profile(idx, s)
    y *= s
    y *= np.asarray(dens.profile(s), dtype=float)
    return y


def _add_bands(dens, table, idx, lo, hi, share, val, err, failed):
    """Add the band integral of g(s) s profile(s) ds from lo to hi to each
    row idx of the spike table.

    Every band's first Gauss panel is evaluated in one call of the
    density's profile and one of the table's; a band that misses its
    share of tol there runs adaptive quadrature alone.  No band holds a
    kink strictly inside: a row's kinks are its band's ends.  Returns the
    number of bands that ran adaptively.
    """
    with np.errstate(all="ignore"):
        y = _band_integrand(dens, table, idx, panel_nodes(lo, hi))
    v, e = panel_estimates(y, lo, hi)
    ok = np.isfinite(y).all(axis=1) & (e <= share[idx])
    val[idx[ok]] += dens.sign * v[ok]
    err[idx[ok]] += e[ok]
    adaptive = 0
    for j in np.flatnonzero(~ok):
        i = idx[j]
        if failed[i] is not None:
            continue
        adaptive += 1
        row = idx[j:j + 1]
        try:
            vj, ej = integrate(
                lambda x: _band_integrand(dens, table, row, x[None, :])[0],
                lo[j], hi[j], tol=share[i])
        except ToleranceFailure as exc:
            failed[i] = exc
            continue
        val[i] += dens.sign * vj
        err[i] += ej
    return adaptive


class RieszCharge(Record):
    """Signed charge: point atoms and radial densities."""

    __slots__ = ("atom_points", "atom_masses", "radial")

    def __init__(self, atom_points=(), atom_masses=(), radial=()):
        setfield(self, "atom_points", _coerce_points(atom_points))
        setfield(self, "atom_masses",
                 np.asarray(atom_masses, dtype=float).ravel())
        if self.atom_points.shape != self.atom_masses.shape:
            raise DomainError("atom points and masses differ in length")
        setfield(self, "radial", tuple(radial))

    def __neg__(self):
        return RieszCharge(
            self.atom_points, -self.atom_masses,
            tuple(dataclasses.replace(d, sign=-d.sign) for d in self.radial))

    def __add__(self, other):
        if not isinstance(other, RieszCharge):
            return NotImplemented
        return RieszCharge(
            np.concatenate((self.atom_points, other.atom_points)),
            np.concatenate((self.atom_masses, other.atom_masses)),
            self.radial + other.radial)

    def __sub__(self, other):
        return self + (-other)

    def negative_part(self):
        """The nonnegative measure carrying the negative mass."""
        keep = self.atom_masses < 0
        return RieszCharge(
            self.atom_points[keep], -self.atom_masses[keep],
            tuple(dataclasses.replace(d, sign=1)
                  for d in self.radial if d.sign < 0))

    # -- mass ---------------------------------------------------------------

    def total_mass_in(self, region):
        """Signed mass of the charge on a closed disk."""
        val = 0.0
        if self.atom_points.size:
            val += float(np.sum(self.atom_masses[region.contains(self.atom_points)]))
        for dens in self.radial:
            if abs(dens.center - region.center) > 1e-12:
                raise EngineError(
                    "radial density off the region center; use integrate()")
            hi = min(region.radius, dens.support[1])
            if hi > dens.support[0]:
                val += dens.sign * dens.mass_in(hi)
        return val

    # -- integrals ----------------------------------------------------------

    def integrate_radial(self, table, *, tol=1e-9):
        """Integrals of a family's radial spikes against the charge, all
        in one pass.

        ``table`` is a testfam.SpikeTable.  Each row is a spike at the
        origin with profile g(s) = psi(c - ln s), psi the table's
        ``log_shape`` and c = ``log_constant``; g vanishes beyond
        ``support_radius`` and has the exact-log core g(s) = c - k ln s
        for 0 < s <= a, with a = ``log_core`` and k = ``pole_coefficient``.
        Radial densities must be centred at the origin; atoms may sit
        anywhere.

        Each radial density takes the core by parts from its disk mass
        mu(s) = mass_in(s),

            int_lo^a (c - k ln s) dmu = (c - k ln a) mu(a) + k L(a),

        with L(a) = int_lo^a mu(s)/s ds the density's declared
        ``log_mass``, in closed form for every row at once.  The band
        from the core, or from the density's inner edge, out to the
        support takes integrate's first panel, a 16- and 32-point Gauss
        pair on the band's own radii, for every row in one call of the
        density's profile and one of psi.  (The band stays in s rather
        than x = c - ln s, so its edges are the declared radii exactly.)
        A band whose two rules differ by more than its share of tol is
        integrated adaptively on its own.  Each band of a row gets an
        equal share of tol, so the row's budget stays within tol, apart
        from a few ulps of each closed-form core term.  The atoms take
        every row's profile in one call (SpikeTable.profile).

        Returns (results, adaptive_bands): one result per row, its
        (value, error_budget) or the NotSummable or ToleranceFailure it
        raised, and the number of bands integrated adaptively.  A density
        off the origin, or a band with no finite end, raises for the
        whole batch.
        """
        n = len(table)
        val = np.zeros(n)
        err = np.zeros(n)
        failed = [None] * n
        live = self.atom_masses != 0
        if live.any():
            with np.errstate(all="ignore"):
                gv = table.profile(slice(None),
                                   np.abs(self.atom_points[live]))
            summable = np.isfinite(gv).all(axis=1)
            val[summable] = np.sum(self.atom_masses[live] * gv[summable],
                                   axis=1)
            for i in np.flatnonzero(~summable):
                failed[i] = NotSummable("test function unbounded at an atom")
        pieces = []
        calls = np.zeros(n)
        for dens in self.radial:
            if abs(dens.center) > 1e-12:
                raise EngineError("radial density not concentric; "
                                  "use integrate()")
            lo = dens.support[0]
            hi = np.minimum(dens.support[1], table.support_radius)
            on = hi > lo
            if not np.isfinite(hi[on]).all():
                raise DomainError("unbounded radial integral: the spike "
                                  "declares no finite support")
            cored = on & (table.log_core > lo)
            start = np.where(cored, np.minimum(table.log_core, hi), lo)
            banded = on & (start < hi)
            calls += banded
            pieces.append((dens, cored, start, banded, hi))
        # an equal share of tol per band keeps each row's summed error
        # estimates within tol
        share = tol / np.maximum(calls, 1.0)
        adaptive = 0
        for dens, cored, start, banded, hi in pieces:
            if cored.any():
                idx = np.flatnonzero(cored)
                _add_cores(dens, table, idx, start[idx], val, err)
            if banded.any():
                idx = np.flatnonzero(banded)
                adaptive += _add_bands(dens, table, idx, start[idx], hi[idx],
                                       share, val, err, failed)
        results = [exc if exc is not None else (float(v), float(e))
                   for exc, v, e in zip(failed, val, err)]
        return results, adaptive

    def integrate(self, f, *, tol):
        """Integral of f against the charge; returns (value, error_budget).

        Atoms are summed directly.  Within radial densities f enters
        through its circle means about the density's centre
        (quadrature.circle_mean), whose panels break where f's declared
        singular points and kink circles meet the charge's circles.  Each
        density is integrated over its whole support, which must be
        bounded.
        """
        val = 0.0
        err = 0.0
        keep = self.atom_masses != 0
        if keep.any():
            with np.errstate(all="ignore"):
                fv = np.asarray(f(self.atom_points[keep]), dtype=float)
            if not np.all(np.isfinite(fv)):
                raise NotSummable("integrand unbounded at an atom")
            val += float(np.sum(self.atom_masses[keep] * fv))
        for dens in self.radial:
            lo, hi = dens.support
            if hi <= lo:
                continue
            if not math.isfinite(hi):
                raise DomainError("unbounded radial integral needs a bounded "
                                  "support")
            approx_mass = abs(dens.mass_in(hi) - dens.mass_in(lo))
            inner_tol = tol / (4.0 * (1.0 + approx_mass))
            v, e, inner = integrate_circle_means(
                f, lambda s, m: m * s * np.asarray(dens.profile(s), dtype=float),
                lo, hi, tol=tol, inner_tol=inner_tol, center=dens.center)
            val += dens.sign * v
            err += e + inner * approx_mass
        return val, err
