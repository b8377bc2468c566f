"""Jensen measures on circles and their log potentials.

The catalogue holds measures of the form
    mu = pole_mass * delta_pole + sum of weighted circles
centered at the pole, with total mass one.  Every such mu satisfies
u(pole) <= integral of u d(mu) for subharmonic u, because circle means
dominate the center value.  The log potential
    V(z) = integral of ln|w - z| d(mu)(w) - ln|z - pole|
         = (pole_mass - 1) ln d + sum of w_k ln max(d, r_k),  d = |z - pole|,
is radial about the pole, nonnegative, and vanishes beyond the largest
circle.  A JensenPotential keeps mu's circle parts, and reads its support
and kink radii off them; mu is recovered from V by taking those circles
and measuring the pole mass off V's logarithmic pole.  The identity
    integral of u d(mu) - u(pole) = integral of V d(charge of u)
is checked numerically by two independent routes.  Since the weights sum
to 1 - pole_mass, V = sum of w_k ln+(r_k / d), a sum of Green functions
of the disks d < r_k, each with its pole at the centre: with the pole at
the origin, where every radial density sits, or with no density, the
right side is the sum of w_k times lemma1's closed form
(criterion._green_term), with no quadrature.  Otherwise the charge
integrates V through circle means, in one pass (RieszCharge.integrate).

A JensenMeasure integrates u through its circle means, closed form
where u declares one (quadrature.circle_mean).
"""

from __future__ import annotations

import math

import numpy as np

from ._record import Record, ValueRecord, setfield
from .errors import DomainError, InvalidPotential
from .criterion import _green_term
from .measures import Region
from .quadrature import circle_mean


class CirclePart(ValueRecord):
    __slots__ = ("radius", "weight")


class JensenMeasure(ValueRecord):
    """Probability measure from the circle catalogue, pole included."""

    __slots__ = ("pole", "parts", "pole_mass")

    def __init__(self, pole, parts, pole_mass=0.0):
        setfield(self, "pole", complex(pole))
        setfield(self, "parts", tuple(parts))
        setfield(self, "pole_mass", pole_mass)
        if self.pole_mass < 0:
            raise DomainError("pole mass must be nonnegative")
        total = self.pole_mass
        for p in self.parts:
            if not isinstance(p, CirclePart):
                raise DomainError("unknown part type %r" % type(p).__name__)
            if p.radius <= 0 or p.weight <= 0:
                raise DomainError("circle parts need positive radius and weight")
            total += p.weight
        if abs(total - 1.0) > 1e-12:
            raise DomainError("total mass %.15g is not 1" % total)

    def integrate(self, u, *, tol=1e-9):
        """Integral of u against the measure; returns (value, budget)."""
        val = 0.0
        err = 0.0
        if self.pole_mass > 0:
            u0 = float(np.asarray(u(np.array([self.pole])), dtype=float)[0])
            val += self.pole_mass * u0
        means, errs = circle_mean(
            u, self.pole, np.array([p.radius for p in self.parts]), tol=tol)
        for p, m, e in zip(self.parts, means, errs):
            val += p.weight * float(m)
            err += p.weight * float(e)
        return val, err


def uniform_circle(z0, t):
    return JensenMeasure(pole=z0, parts=(CirclePart(float(t), 1.0),))


# ---------------------------------------------------------------------------
# log potentials


class JensenPotential(Record):
    """Radial potential of a catalogue measure, with its circle parts.

    It declares what circle means read off it: a log singularity at the
    pole and kinks on the circles of its parts; it is zero beyond the
    largest of them.
    """

    __slots__ = ("pole", "radial_profile", "parts", "pole_coefficient")

    @property
    def support_radius(self):
        return max((p.radius for p in self.parts), default=0.0)

    @property
    def kink_radii(self):
        return tuple(p.radius for p in self.parts)

    @property
    def singular_points(self):
        return (self.pole,)

    @property
    def kink_circles(self):
        return tuple((self.pole, r) for r in self.kink_radii)

    def __call__(self, z):
        d = np.abs(np.asarray(z, dtype=complex) - self.pole)
        return np.asarray(self.radial_profile(d), dtype=float)


def _measure_pole_coefficient(radial, min_radius, tol=1e-9):
    # For catalogue potentials V(d) = kappa * ln(1/d) + C below the smallest
    # part radius, so V(d)/ln(1/d) is affine in 1/ln(1/d) and two samples
    # recover kappa exactly.
    d1 = min(1e-5, min_radius / 10.0)
    d2 = d1 / 10.0
    x1, x2 = 1.0 / math.log(1.0 / d1), 1.0 / math.log(1.0 / d2)
    r1 = float(radial(np.array([d1]))[0]) * x1
    r2 = float(radial(np.array([d2]))[0]) * x2
    slope = (r2 - r1) / (x2 - x1)
    kappa = r1 - slope * x1
    if kappa > 1.0 + max(tol, 1e-7) or kappa < -max(tol, 1e-7):
        raise InvalidPotential(
            "pole coefficient %.9g outside [0, 1]" % kappa)
    return min(max(kappa, 0.0), 1.0)


def log_potential(mu):
    """Forward map: the catalogue measure's log potential, whose pole
    coefficient is 1 - pole_mass."""
    pole_term = mu.pole_mass - 1.0
    parts = mu.parts

    def radial(d):
        d = np.asarray(d, dtype=float)
        with np.errstate(divide="ignore"):
            out = pole_term * np.log(d)
        for p in parts:
            out = out + p.weight * np.log(np.maximum(d, p.radius))
        return out

    return JensenPotential(pole=mu.pole, radial_profile=radial, parts=parts,
                           pole_coefficient=1.0 - mu.pole_mass)


def potential_to_measure(V, *, tol=1e-9):
    """Inverse map: rebuild the catalogue measure from a potential.

    Circles come from the potential's parts; the pole mass is one minus
    the pole coefficient measured off the profile.  The reconstruction
    must have total mass one and a potential that matches the profile,
    or the potential is rejected, and JensenMeasure refuses a part with
    nonpositive weight.
    """
    parts = V.parts
    min_radius = min((p.radius for p in parts), default=1e-3)
    kappa = _measure_pole_coefficient(V.radial_profile, min_radius, tol)
    pole_mass = 1.0 - kappa
    total = pole_mass + sum(p.weight for p in parts)
    if abs(total - 1.0) > 1e-7:
        raise InvalidPotential("reconstructed mass %.9g is not 1" % total)
    if abs(total - 1.0) > 1e-12:
        # absorb the numerical slack into the pole so the measure validates
        pole_mass = 1.0 - sum(p.weight for p in parts)
        if pole_mass < 0:
            raise InvalidPotential("part weights exceed total mass 1")
    mu = JensenMeasure(pole=V.pole, parts=parts, pole_mass=pole_mass)
    # parts that are not the profile's own circles: compare the two
    # potentials below the circles, on and between them, and past them
    radii = sorted(V.kink_radii) or [1.0]
    d = np.array([radii[0] / 2.0, *radii,
                  *(math.sqrt(a * b) for a, b in zip(radii, radii[1:])),
                  2.0 * radii[-1]])
    want = np.asarray(V.radial_profile(d), dtype=float)
    got = log_potential(mu).radial_profile(d)
    off = np.abs(got - want) > max(tol, 1e-7) * (1.0 + np.abs(want))
    if off.any():
        i = int(np.argmax(off))
        raise InvalidPotential(
            "potential reads %.9g at distance %.6g, its circles give %.9g"
            % (want[i], d[i], got[i]))
    return mu


# ---------------------------------------------------------------------------
# the representation identity


class PJReport(ValueRecord):
    __slots__ = ("u_pole", "mean_term", "charge_term", "residual", "budget")


def poisson_jensen_check(u, mu, *, tol=1e-9):
    """Compare both sides of the potential representation identity.

    mean_term - u(pole) integrates u against mu directly; charge_term
    integrates the potential of mu against the charge of u.  For genuine
    subharmonic u the residual should sit inside the quadrature budget.
    """
    u_pole = float(np.asarray(u(np.array([mu.pole])), dtype=float)[0])
    if not math.isfinite(u_pole):
        raise DomainError("identity needs a finite value at the pole")
    mean_term, e1 = mu.integrate(u, tol=tol)
    charge = u.riesz
    if not charge.radial or abs(mu.pole) <= 1e-12:
        # every density is centred on the pole (atoms may sit anywhere):
        # each part's ln+(r / d) is the Green function of the disk d < r
        # with its pole at the centre, integrated over the atoms in that
        # disk and by log-masses over the densities
        charge_term, e2 = 0.0, 0.0
        live = charge.atom_masses != 0
        for p in mu.parts:
            inside = live & Region.disk(mu.pole, p.radius).contains(
                charge.atom_points)
            v, e = _green_term(p.radius, mu.pole, mu.pole, charge, inside,
                               0.0)
            charge_term += p.weight * v
            e2 += p.weight * e
    else:
        # densities about the origin, off the pole: circle means of V
        # about the origin, each density cut where V vanishes
        charge_term, e2 = charge.integrate(log_potential(mu), tol=tol / 32.0)
    residual = (mean_term - u_pole) - charge_term
    return PJReport(u_pole=u_pole, mean_term=mean_term,
                    charge_term=charge_term, residual=residual,
                    budget=e1 + e2)
