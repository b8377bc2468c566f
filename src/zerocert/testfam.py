"""Test potentials for the necessity criterion.

Plane members are subharmonic, vanish near the origin, and grow at most
logarithmically; inversion w -> 1/w pulls them back to radial spikes at
the origin that are integrated against zero distributions and majorant
charges.  Members carry their radial profiles and the radii and constants
the sweep reads, not charges of their own.  A member's ``log_shape`` psi
gives its profile as psi(ln(t |w|)), which the pullback reads as
psi(log_constant - ln d); each family builds its psi once, so all of its
members share one object, and the charge side evaluates it once for them
all (RieszCharge.integrate_radial).  A psi's ``pieces``, the margin
sweep's view of it, are (edge e, coefficients a) in increasing e: psi is
sum a_k (x - e)^k from e to the next edge, and 0 below the first.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._record import ValueRecord
from .errors import InvalidPotential


def bump_cdf_integral(x):
    """Second antiderivative of the unit bump (35/32)(1 - x^2)^3 on [-1, 1],
    with value and slope 0 at -1; equals x for x >= 1.

    Inside [-1, 1] it is (1 + x)^5 (35 - 47x + 25x^2 - 5x^3) / 256, which
    keeps full relative accuracy as x -> -1, where the expanded power
    series cancels, and takes no pow call.
    """
    x = np.asarray(x, dtype=float)
    xc = np.clip(x, -1.0, 1.0)
    u = xc + 1.0
    u2 = u * u
    val = (((-5.0 * xc + 25.0) * xc - 47.0) * xc + 35.0) * u * u2 * u2 / 256.0
    return np.where(x >= 1.0, x, val)


@dataclass(frozen=True, eq=False)
class TestPotential:
    """One catalogue member, evaluated on its own side of the inversion.

    A plane member that is exactly growth_coefficient * ln|w| +
    log_constant for |w| >= log_radius declares it (inf: no declaration).
    ``log_shape`` psi, when given, has radial_profile(s) = psi(log_constant
    + ln s).
    """

    params: dict
    eval: Callable
    radial_profile: Callable
    growth_coefficient: float = 0.0
    zero_radius: float = 0.0
    kink_radii: tuple = ()
    log_radius: float = math.inf
    log_constant: float = 0.0
    log_shape: Callable | None = None

    def __call__(self, w):
        w = np.asarray(w, dtype=complex)
        with np.errstate(all="ignore"):
            return np.asarray(self.eval(w), dtype=float)


@dataclass(frozen=True, eq=False)
class PulledBackTest:
    """Inversion pullback: a radial spike at the pole with finite support.

    Within log_core of the pole the profile is exactly
    log_constant - pole_coefficient * ln d; a log_core of 0 declares no
    such core.  ``log_shape`` psi, when given, has
    radial_profile(d) = psi(log_constant - ln d); margin_sweep reads the
    zeros in the band through it, so a family it sweeps declares one.
    """

    pole: complex
    params: dict
    radial_profile: Callable
    support_radius: float
    pole_coefficient: float
    kink_radii: tuple = ()
    log_core: float = 0.0
    log_constant: float = 0.0
    log_shape: Callable | None = None

    def __call__(self, z):
        d = np.abs(np.asarray(z, dtype=complex) - self.pole)
        return np.asarray(self.radial_profile(d), dtype=float)


# ---------------------------------------------------------------------------
# plane members


def _positive_part(x):
    """The truncated log's shape: max(0, x)."""
    return np.maximum(np.asarray(x, dtype=float), 0.0)


_positive_part.pieces = ((0.0, (0.0, 1.0)),)


@functools.lru_cache(maxsize=None)
def _capped_shape(eps):
    """The smooth capped log's shape eps * B(x / eps), one per eps.  Its
    piece on [-eps, 0) expands B about -eps, where B vanishes to fifth
    order, so that sums over it keep their relative accuracy."""

    def shape(x):
        return eps * bump_cdf_integral(x / eps)

    shape.pieces = tuple(
        (e, tuple(eps * b / 256.0 / eps ** k for k, b in enumerate(bs)))
        for e, bs in ((-eps, (0, 0, 0, 0, 0, 112, -112, 40, -5)),
                      (0.0, (35, 128, 140, 0, -70, 0, 28, 0, -5)))
    ) + ((eps, (eps, 1.0)),)
    return shape


def truncated_log_plane(t):
    """max(0, ln(t |w|)): kinked at |w| = 1/t, exactly ln(t|w|) outside."""
    t = float(t)
    if t <= 0:
        raise InvalidPotential("needs t > 0")

    def profile(s):
        s = np.asarray(s, dtype=float)
        return np.log(np.maximum(1.0, t * s))

    # the pullback's core ends at 1 / log_radius, which must not pass t,
    # where the profile is already 0: where 1/(1/t) rounds above t, the
    # exact-log region is declared from one ulp further out
    log_radius = 1.0 / t
    if 1.0 / log_radius > t:
        log_radius = math.nextafter(log_radius, math.inf)
    return TestPotential(
        params={"t": t},
        eval=lambda w: profile(np.abs(w)),
        radial_profile=profile,
        growth_coefficient=1.0,
        zero_radius=1.0 / t,
        kink_radii=(1.0 / t,),
        log_radius=log_radius,
        log_constant=math.log(t),
        log_shape=_positive_part)


def smooth_capped_log(t, eps=0.25):
    """Smoothed positive part of ln(t |w|): identical outside e^eps / t,
    identically zero inside e^-eps / t, convex polynomial blend between."""
    t = float(t)
    eps = float(eps)
    if t <= 0 or eps <= 0:
        raise InvalidPotential("needs t > 0 and eps > 0")

    shape = _capped_shape(eps)

    def profile(s):
        # ln 0 = -inf clamps to the flat end of the blend
        with np.errstate(divide="ignore"):
            x = np.log(t * np.asarray(s, dtype=float))
        return shape(x)

    inner = math.exp(-eps) / t
    outer = math.exp(eps) / t
    # the blend's fifth derivative jumps at both of its edges
    return TestPotential(
        params={"t": t, "eps": eps},
        eval=lambda w: profile(np.abs(w)),
        radial_profile=profile,
        growth_coefficient=1.0,
        zero_radius=inner,
        kink_radii=(inner, outer),
        log_radius=outer,
        log_constant=math.log(t),
        log_shape=shape)


# ---------------------------------------------------------------------------
# inversion


def inversion_pullback(p):
    """Pull a plane test back through w -> 1/w.

    The result is radial about the origin, vanishes beyond
    1 / zero_radius, and blows up at the pole like
    growth_coefficient * ln(1/|z|); a plane test that is exactly
    logarithmic beyond log_radius gives a closed-form core of radius
    1 / log_radius.  Its log_shape carries over unchanged, since
    ln(t |w|) = log_constant - ln d at d = 1/|w|.
    """
    if p.zero_radius <= 0:
        raise InvalidPotential("plane test must vanish near the origin")
    base = p.radial_profile

    def profile(d):
        # 1/0 = inf and 1/inf = 0 reach the plane profile's own limits
        with np.errstate(divide="ignore"):
            return np.asarray(base(1.0 / np.asarray(d, dtype=float)),
                              dtype=float)

    return PulledBackTest(
        pole=0j, params=dict(p.params),
        radial_profile=profile,
        support_radius=1.0 / p.zero_radius,
        pole_coefficient=p.growth_coefficient,
        kink_radii=tuple(1.0 / k for k in p.kink_radii),
        log_core=1.0 / p.log_radius,
        log_constant=p.log_constant,
        log_shape=p.log_shape)


# ---------------------------------------------------------------------------
# sweep families


def _geometric_taus(t_min, t_max, ratio):
    if not (t_min > 0 and t_max >= t_min and ratio > 1):
        raise InvalidPotential("family grid needs t_min > 0, t_max >= t_min, "
                               "ratio > 1")
    taus = []
    t = t_min
    while t <= t_max * (1.0 + 1e-12):
        taus.append(min(t, t_max))
        t *= ratio
    if taus[-1] < t_max * (1.0 - 1e-12):
        taus.append(t_max)
    return tuple(taus)


class TruncatedLogFamily(ValueRecord):
    __slots__ = ("t_min", "t_max", "ratio")
    _defaults = {"t_min": 0.5, "t_max": 200.0, "ratio": 2.0 ** 0.25}

    kind = "truncated-log"

    def taus(self):
        return _geometric_taus(self.t_min, self.t_max, self.ratio)

    def applied(self, tau):
        return inversion_pullback(truncated_log_plane(tau))


class SmoothCappedLogFamily(ValueRecord):
    __slots__ = ("t_min", "t_max", "ratio", "eps")
    _defaults = dict(TruncatedLogFamily._defaults, eps=0.25)

    kind = "smooth-capped-log"

    def taus(self):
        return _geometric_taus(self.t_min, self.t_max, self.ratio)

    def applied(self, tau):
        return inversion_pullback(smooth_capped_log(tau, self.eps))
