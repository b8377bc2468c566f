"""Jensen measures with radial structure and their log potentials.

The catalogue holds measures of the form
    mu = pole_mass * delta_pole + sum of weighted circles and annuli
centered at the pole, with total mass one.  Every such mu satisfies
u(pole) <= integral of u d(mu) for subharmonic u, because circle means
dominate the center value.  The log potential
    V(z) = integral of ln|w - z| d(mu)(w) - ln|z - pole|
is radial about the pole, nonnegative, and vanishes beyond the largest
part radius; mu can be recovered from V, and the identity
    integral of u d(mu) - u(pole) = integral of V d(charge of u)
is checked numerically by two independent routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, EngineError, InvalidPotential
from .measures import RadialDensity, Ring, RieszCharge
from .quadrature import integrate, integrate_circle_means, mean_on_circle


@dataclass(frozen=True)
class CirclePart:
    radius: float
    weight: float


@dataclass(frozen=True)
class AnnulusPart:
    inner: float
    outer: float
    weight: float
    density: Callable | None = None

    def density_fn(self):
        if self.density is not None:
            return self.density
        return _bump_density(self.inner, self.outer)


def _bump_density(a, b):
    # (35 / (16 (b-a))) (1 - x^2)^3 with x the affine map of [a,b] to [-1,1];
    # integrates to 1 over [a, b]
    scale = 35.0 / (16.0 * (b - a))

    def density(s):
        s = np.asarray(s, dtype=float)
        x = (2.0 * s - (a + b)) / (b - a)
        inside = np.abs(x) <= 1.0
        return scale * np.where(inside, (1.0 - x ** 2) ** 3, 0.0)

    return density


@dataclass(frozen=True)
class JensenMeasure:
    """Probability measure from the radial catalogue, pole included."""

    pole: complex
    parts: tuple
    pole_mass: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "pole", complex(self.pole))
        object.__setattr__(self, "parts", tuple(self.parts))
        if self.pole_mass < 0:
            raise DomainError("pole mass must be nonnegative")
        total = self.pole_mass
        for p in self.parts:
            if isinstance(p, CirclePart):
                if p.radius <= 0 or p.weight <= 0:
                    raise DomainError("circle parts need positive radius and weight")
            elif isinstance(p, AnnulusPart):
                if not (0 < p.inner < p.outer) or p.weight <= 0:
                    raise DomainError("annulus parts need 0 < inner < outer")
            else:
                raise DomainError("unknown part type %r" % type(p).__name__)
            total += p.weight
        if abs(total - 1.0) > 1e-12:
            raise DomainError("total mass %.15g is not 1" % total)

    def support_radius(self):
        r = 0.0
        for p in self.parts:
            r = max(r, p.radius if isinstance(p, CirclePart) else p.outer)
        return r

    def min_part_radius(self):
        r = math.inf
        for p in self.parts:
            r = min(r, p.radius if isinstance(p, CirclePart) else p.inner)
        return r

    def integrate(self, u, *, tol=1e-9):
        """Integral of u against the measure; returns (value, budget)."""
        sing = tuple(getattr(u, "singular_points", ()))
        val = 0.0
        err = 0.0
        if self.pole_mass > 0:
            u0 = float(np.asarray(u(np.array([self.pole])), dtype=float)[0])
            val += self.pole_mass * u0
        circles = [p for p in self.parts if isinstance(p, CirclePart)]
        means, errs = mean_on_circle(
            u, self.pole, np.array([p.radius for p in circles]), tol=tol,
            singular_points=sing)
        circle_means = iter(zip(means, errs))
        for p in self.parts:
            if isinstance(p, CirclePart):
                m, e = next(circle_means)
                val += p.weight * float(m)
                err += p.weight * float(e)
            else:
                dens = p.density_fn()
                v, e, inner = integrate_circle_means(
                    lambda s: mean_on_circle(u, self.pole, s, tol=tol / 2,
                                             singular_points=sing),
                    lambda s, m: m * np.asarray(dens(s), dtype=float),
                    p.inner, p.outer, tol=tol / 2, center=self.pole,
                    singular_points=sing)
                val += p.weight * v
                err += p.weight * (e + inner)
        return val, err


def uniform_circle(z0, t):
    return JensenMeasure(pole=z0, parts=(CirclePart(float(t), 1.0),))


# ---------------------------------------------------------------------------
# log potentials


@dataclass(frozen=True, eq=False)
class JensenPotential:
    """Radial potential of a catalogue measure, with its charge off the pole."""

    pole: complex
    radial: Callable
    charge: RieszCharge
    pole_coefficient: float
    support_radius: float
    kink_radii: tuple = ()

    def __call__(self, z):
        d = np.abs(np.asarray(z, dtype=complex) - self.pole)
        return np.asarray(self.radial(d), dtype=float)


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


def log_potential(mu, *, tol=1e-9):
    """Forward map: the catalogue measure's log potential.

    The pole coefficient is measured back off the evaluator rather than
    copied from the measure, so round trips exercise the asymptotics.
    """
    pole = mu.pole
    circles = [p for p in mu.parts if isinstance(p, CirclePart)]
    annuli = [p for p in mu.parts if isinstance(p, AnnulusPart)]
    pole_term = mu.pole_mass - 1.0

    ann_pre = []
    for p in annuli:
        dens = p.density_fn()
        # constant contribution when the evaluation point is inside the hole
        c_in, _ = integrate(lambda s, _d=dens: np.asarray(_d(s), dtype=float)
                            * np.log(s), p.inner, p.outer, tol=1e-12)
        ann_pre.append((p, dens, c_in))

    def radial(d):
        d = np.asarray(d, dtype=float)
        with np.errstate(divide="ignore"):
            out = pole_term * np.log(d)
        for p in circles:
            out = out + p.weight * np.log(np.maximum(d, p.radius))
        for p, dens, c_in in ann_pre:
            term = np.empty(d.shape, dtype=float)
            flat_d = d.ravel()
            flat_t = term.ravel()
            for i, di in enumerate(flat_d):
                if di <= p.inner:
                    flat_t[i] = c_in
                elif di >= p.outer:
                    flat_t[i] = math.log(di)
                else:
                    below, _ = integrate(
                        lambda s, _d=dens: np.asarray(_d(s), dtype=float),
                        p.inner, di, tol=1e-12)
                    above, _ = integrate(
                        lambda s, _d=dens: np.asarray(_d(s), dtype=float)
                        * np.log(s), di, p.outer, tol=1e-12)
                    flat_t[i] = below * math.log(di) + above
            out = out + p.weight * term
        return out

    rings = tuple(Ring(pole, p.radius, p.weight) for p in circles)
    radial_parts = []
    for p, dens, _ in ann_pre:
        radial_parts.append(RadialDensity(
            profile=lambda s, _p=p, _d=dens: _p.weight
            * np.asarray(_d(s), dtype=float) / np.asarray(s, dtype=float),
            center=pole, support=(p.inner, p.outer)))
    charge = RieszCharge(rings=rings, radial=tuple(radial_parts))

    kappa = _measure_pole_coefficient(radial, mu.min_part_radius(), tol)
    return JensenPotential(
        pole=pole, radial=radial, charge=charge, pole_coefficient=kappa,
        support_radius=mu.support_radius(),
        kink_radii=tuple(p.radius for p in circles))


def potential_to_measure(V, *, tol=1e-9):
    """Inverse map: rebuild the catalogue measure from a potential.

    Parts come from the charge off the pole; the pole mass is one minus
    the measured pole coefficient.  The reconstruction must have total
    mass one or the potential is rejected.
    """
    parts = []
    if V.charge.atom_points.size:
        raise InvalidPotential("catalogue potentials carry no off-pole atoms")
    for ring in V.charge.rings:
        if abs(ring.center - V.pole) > 1e-12:
            raise InvalidPotential("ring off the pole")
        if ring.mass <= 0:
            raise InvalidPotential("ring with nonpositive mass")
        parts.append(CirclePart(ring.radius, ring.mass))
    for dens in V.charge.radial:
        if abs(dens.center - V.pole) > 1e-12:
            raise InvalidPotential("radial density off the pole")
        a, b = dens.support
        if not (0 < a < b < math.inf):
            raise InvalidPotential("annular density needs bounded support")
        w = dens.sign * (dens.mass_in(b) - dens.mass_in(a))
        if w <= 0:
            raise InvalidPotential("annulus with nonpositive mass")

        def density(s, _d=dens, _w=w):
            s = np.asarray(s, dtype=float)
            return np.asarray(_d.profile(s), dtype=float) * s / _w

        parts.append(AnnulusPart(a, b, w, density=density))
    min_radius = min((p.radius if isinstance(p, CirclePart) else p.inner
                      for p in parts), default=1e-3)
    kappa = _measure_pole_coefficient(V.radial, min_radius, tol)
    pole_mass = 1.0 - kappa
    total = pole_mass + sum(p.weight for p in parts)
    if abs(total - 1.0) > 1e-7:
        raise InvalidPotential("reconstructed mass %.9g is not 1" % total)
    if abs(total - 1.0) > 1e-12:
        # absorb the numerical slack into the pole so the measure validates
        pole_mass = 1.0 - sum(p.weight for p in parts)
        if pole_mass < 0:
            raise InvalidPotential("part weights exceed total mass 1")
    return JensenMeasure(pole=V.pole, parts=tuple(parts), pole_mass=pole_mass)


# ---------------------------------------------------------------------------
# the representation identity


def _truncate_radial(charge, pole, support_radius):
    radial = []
    for dens in charge.radial:
        hi = abs(dens.center - pole) + support_radius
        if hi < dens.support[1]:
            dens = RadialDensity(dens.profile, dens.sign, dens.center,
                                 (dens.support[0], hi), dens.cumulative)
        radial.append(dens)
    return RieszCharge(charge.atom_points, charge.atom_masses,
                       charge.rings, tuple(radial))


@dataclass(frozen=True)
class PJReport:
    u_pole: float
    mean_term: float
    charge_term: float
    residual: float
    budget: float


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
    V = log_potential(mu, tol=tol)
    try:
        charge_term, e2 = u.riesz.integrate_radial(
            V.radial, center=mu.pole, tol=tol, g_support=V.support_radius,
            singular_radii=V.kink_radii)
    except EngineError:
        # charge components off the pole's axis of symmetry: fall back to
        # circle means of V around each component's own center, truncating
        # radial supports where V is identically zero
        trunc = _truncate_radial(u.riesz, mu.pole, V.support_radius)
        kinks = tuple((mu.pole, k) for k in V.kink_radii)
        coarse, _ = trunc.integrate(
            V, tol=tol, f_singular_points=(mu.pole,), f_kink_circles=kinks)
        # grazing intersections with the potential's kink circles leave the
        # panel estimator optimistic; recalibrate against a finer pass
        charge_term, e2 = trunc.integrate(
            V, tol=tol / 32.0, f_singular_points=(mu.pole,),
            f_kink_circles=kinks)
        e2 = 2.0 * abs(charge_term - coarse) + e2
    residual = (mean_term - u_pole) - charge_term
    return PJReport(u_pole=u_pole, mean_term=mean_term,
                    charge_term=charge_term, residual=residual,
                    budget=e1 + e2)


# ---------------------------------------------------------------------------
# Green function of a disk


@dataclass(frozen=True)
class GreenFunction:
    R: float
    pole: complex
    center: complex = 0j

    def __post_init__(self):
        if abs(self.pole - self.center) >= self.R:
            raise DomainError("pole must lie inside the disk")

    def __call__(self, z):
        w = np.asarray(z, dtype=complex) - self.center
        a = self.pole - self.center
        with np.errstate(divide="ignore"):
            return (np.log(np.abs(self.R ** 2 - np.conj(a) * w))
                    - np.log(self.R * np.abs(w - a)))


def green_disk(R, z0, center=0j):
    return GreenFunction(R=float(R), pole=complex(z0), center=complex(center))
