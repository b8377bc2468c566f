"""Variable-radius disk and mollified means over quadrature's circle means.

A radius profile r assigns each point the radius used by the averaging
operators.  The enlarged radius is hat r(z) = r(z) + sup of r over the
circle of radius r(z) about z.  Each profile decreases with the distance
from one point (the origin, or the disk's centre), so the supremum sits
at the circle's point nearest it and has a closed form; rounding it up
by a few ulps gives the certified bound that domain-containment
preconditions are checked against.
"""

from __future__ import annotations

import math
import numpy as np

from ._record import ValueRecord, setfield
from .errors import PreconditionViolation
from .quadrature import TWO_PI, circle_mean, integrate_circle_means

SQRT_E = math.sqrt(math.e)


class PlanePowerProfile(ValueRecord):
    """r(z) = (1 + |z|) ** (-power) on the whole plane."""

    __slots__ = ("power",)

    def __init__(self, power=1.0):
        setfield(self, "power", power)
        if power < 0:
            raise PreconditionViolation("power must be nonnegative")

    def radius(self, z):
        return (1.0 + np.abs(np.asarray(z, dtype=complex))) ** (-self.power)

    def sup_on_circle(self, z, t):
        """Largest r on the circle |w - z| = t: at the point nearest 0."""
        return (1.0 + abs(abs(z) - t)) ** (-self.power)

    def lipschitz(self):
        return float(self.power)

    def extent(self):
        """Largest constant, besides |z| and t, in the closed forms."""
        return 1.0

    def dist_to_boundary(self, z):
        return math.inf

    def remainder(self, z):
        """Additive remainder of the envelope bound: 0 on the plane."""
        return np.zeros(np.asarray(z).shape, dtype=float)


class DiskFractionProfile(ValueRecord):
    """r(z) = fraction * dist(z, boundary) inside the disk(center, R)."""

    __slots__ = ("fraction", "center", "R")

    def __init__(self, fraction, center=0j, R=1.0):
        setfield(self, "fraction", fraction)
        setfield(self, "center", center)
        setfield(self, "R", R)
        if not (0 < fraction < 1) or not R > 0:
            raise PreconditionViolation("needs 0 < fraction < 1 and R > 0")

    def radius(self, z):
        d = self.R - np.abs(np.asarray(z, dtype=complex) - self.center)
        return self.fraction * np.maximum(d, 0.0)

    def sup_on_circle(self, z, t):
        """Largest r on the circle |w - z| = t: at the point nearest the centre."""
        return self.fraction * np.maximum(
            self.R - abs(abs(z - self.center) - t), 0.0)

    def lipschitz(self):
        return float(self.fraction)

    def extent(self):
        return abs(self.center) + self.R

    def dist_to_boundary(self, z):
        return self.R - np.abs(np.asarray(z, dtype=complex) - self.center)

    def remainder(self, z):
        """Additive remainder of the envelope bound: -ln r(z) on a disk."""
        with np.errstate(divide="ignore"):
            return -np.log(np.asarray(self.radius(z), dtype=float))


class HatRadius(ValueRecord):
    __slots__ = ("value", "certified_upper")


def hat_radius(profile, z):
    """Enlarged radius with a certified upper bound, at a point or at each
    point of an array (floats for a point, arrays of z's shape otherwise).

    Raises PreconditionViolation, naming the first such point, when a point
    is outside the profile's domain or the closed disk of its certified
    enlarged radius is not contained in it.
    """
    z = np.asarray(z, dtype=complex)
    r0 = np.asarray(profile.radius(z), dtype=float)
    value = r0 + profile.sup_on_circle(z, r0)
    # the closed forms round a handful of times on numbers no larger than
    # |z| + r0 + extent; an L-Lipschitz profile passes an error in its
    # argument on at most L-fold, and r0 enters twice (as a term and as the
    # circle's radius), so 8 (1 + L)^2 ulps of that size cover them all
    size = np.abs(z) + r0 + profile.extent()
    certified = value + 8.0 * (1.0 + profile.lipschitz()) ** 2 * np.spacing(size)
    dist = np.broadcast_to(profile.dist_to_boundary(z), z.shape)
    dead = ~(r0 > 0)
    bad = dead | (certified >= dist)
    if bad.any():
        i = np.argmax(bad)
        if dead.flat[i]:
            raise PreconditionViolation("profile radius vanishes at %r"
                                        % (complex(z.flat[i]),))
        raise PreconditionViolation(
            "enlarged radius %.6g reaches the domain boundary "
            "(distance %.6g at %r)" % (certified.flat[i], dist.flat[i],
                                        complex(z.flat[i])))
    if z.ndim == 0:
        return HatRadius(value=float(value), certified_upper=float(certified))
    return HatRadius(value=value, certified_upper=certified)


# ---------------------------------------------------------------------------
# mean operators


def disk_mean(u, z, t, *, tol=1e-9):
    """Area mean of u over the closed disk of radius t about z."""
    z = complex(z)
    t = float(t)
    if t <= 0:
        raise PreconditionViolation("disk mean needs t > 0")
    val, e, inner = integrate_circle_means(
        u, lambda s, m: m * s, 0.0, t, tol=(tol / 2.0) * t * t / 2.0,
        inner_tol=tol / 2.0, center=z)
    return 2.0 * val / t ** 2, 2.0 * e / t ** 2 + inner


def default_kernel(s):
    """Bump (4/pi)(1 - s^2)^3 on [0, 1]; unit mass against 2 pi s ds."""
    s = np.asarray(s, dtype=float)
    return (4.0 / math.pi) * np.where(s <= 1.0, (1.0 - s ** 2) ** 3, 0.0)


def mollified_mean(u, z, t, *, tol=1e-9):
    """Mean of u against default_kernel scaled to the disk of radius t."""
    z = complex(z)
    t = float(t)
    if t <= 0:
        raise PreconditionViolation("mollified mean needs t > 0")
    val, e, inner = integrate_circle_means(
        u, lambda s, m: m * TWO_PI * s * default_kernel(s), 0.0, 1.0,
        tol=tol / 2.0, inner_tol=tol / 2.0, center=z, scale=t)
    return val, e + inner


# ---------------------------------------------------------------------------
# chain checks


class MeanChainReport(ValueRecord):
    __slots__ = ("rows", "ok", "max_violation", "slack")


def check_mean_chain(u, profile, points, *, tol=1e-9, slack=1e-8):
    """Verify the mean inequalities at the given points.

    At each z with r = r(z) this checks
        u(z) <= disk(r) <= circle(r) <= disk(sqrt(e) r)
    and that the disk(r)-average of w -> circle mean of u at radius r(w)
    stays below the circle mean of u at the certified enlarged radius.
    """

    def g(w):
        return circle_mean(u, w, profile.radius(w), tol=1e-7)[0]

    rows = []
    worst = 0.0
    for z in np.asarray(points, dtype=complex).ravel():
        z = complex(z)
        r0 = float(profile.radius(z))
        hat = hat_radius(profile, z)
        u0 = float(np.asarray(u(np.array([z])), dtype=float)[0])
        disk_r, e1 = disk_mean(u, z, r0, tol=tol)
        circ_r, e2 = circle_mean(u, z, r0, tol=tol)
        disk_big, e3 = disk_mean(u, z, SQRT_E * r0, tol=tol)
        comp, e4 = disk_mean(g, z, r0, tol=max(tol, 1e-8))
        circ_hat, e5 = circle_mean(u, z, hat.certified_upper, tol=tol)
        scale = 1.0 + max(abs(disk_r), abs(circ_r), abs(disk_big))
        gaps = []
        if math.isfinite(u0):
            gaps.append(u0 - disk_r)
        gaps.append(disk_r - circ_r)
        gaps.append(circ_r - disk_big)
        gaps.append(comp - circ_hat)
        violation = max(gaps)
        budget = e1 + e2 + e3 + e4 + e5
        worst = max(worst, violation)
        rows.append({"z": z, "r": r0, "u": u0, "disk_r": disk_r,
                     "circle_r": circ_r, "disk_sqrt_e_r": disk_big,
                     "hat_r_upper": hat.certified_upper,
                     "budget": budget, "composite": comp,
                     "circle_hat": circ_hat, "violation": violation,
                     "ok": violation <= slack * scale + budget})
    return MeanChainReport(rows=tuple(rows),
                           ok=all(r["ok"] for r in rows),
                           max_violation=worst, slack=slack)
