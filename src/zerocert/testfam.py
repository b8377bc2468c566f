"""Test potentials for the necessity criterion.

Plane members are subharmonic, vanish near the origin, and grow at most
logarithmically; inversion w -> 1/w pulls them back to radial spikes at
the origin that are integrated against zero distributions and majorant
charges.  Members carry their radial profiles and the radii and constants
the sweep reads, not charges of their own.  A member's ``log_shape`` psi
gives its profile as psi(ln(t |w|)), which the pullback reads as
psi(log_constant - ln d); each family builds its psi once, so all of its
members share one object.  A psi's ``pieces``, the margin sweep's view of
it, are (edge e, coefficients a) in increasing e: psi is
sum a_k (x - e)^k from e to the next edge, and 0 below the first.

The margin sweep reads a family's pullbacks for all its cutoffs at once,
as the columns of a SpikeTable (``family.spikes(taus)``), and the charge
side reads spikes only in that form: it evaluates the shared psi once
for all the rows (SpikeTable.profile, RieszCharge.integrate_radial).
``family.applied(tau)`` builds one member as a record, from the same
radii; the records and inversion_pullback are the tests' reference.
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
    """One catalogue member, evaluated on its own side of the inversion:
    a radial profile, which calling the member reads at |w|.

    A plane member that is exactly growth_coefficient * ln|w| +
    log_constant for |w| >= log_radius declares it (inf: no declaration).
    ``log_shape`` psi, when given, has radial_profile(s) = psi(log_constant
    + ln s).
    """

    params: dict
    radial_profile: Callable
    growth_coefficient: float = 0.0
    zero_radius: float = 0.0
    kink_radii: tuple = ()
    log_radius: float = math.inf
    log_constant: float = 0.0
    log_shape: Callable | None = None

    def __call__(self, w):
        s = np.abs(np.asarray(w, dtype=complex))
        return np.asarray(self.radial_profile(s), dtype=float)


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


def _log_radii(taus, shape):
    """The radii and log constant of each member psi(ln(t |w|)) for the
    cutoffs taus, where psi is 0 below its first piece's edge e0 and x
    from its last piece's edge e1: one row (zero radius e^e0 / t,
    exact-log radius e^e1 / t, ln t, kink radii) per cutoff."""
    e0, e1 = shape.pieces[0][0], shape.pieces[-1][0]
    inner, outer, support = math.exp(e0), math.exp(e1), math.exp(-e0)
    rows = []
    for t in taus:
        zero_radius = inner / t
        log_radius = outer / t
        # each edge is a kink (psi's fifth derivative jumps at the blend's)
        kinks = (zero_radius,) if e0 == e1 else (zero_radius, log_radius)
        # the pullback's core ends at 1 / log_radius, which must not pass
        # the support t e^-e0, where the profile is already 0: where it
        # rounds past, the exact-log region is declared from one ulp
        # further out
        if 1.0 / log_radius > t * support:
            log_radius = math.nextafter(log_radius, math.inf)
        rows.append((zero_radius, log_radius, math.log(t)) + kinks)
    return np.array(rows, dtype=float).reshape(len(rows),
                                               4 if e0 == e1 else 5)


def _log_plane(t, shape, params):
    """The member psi(ln(t |w|)) for the log shape psi, with the radii of
    _log_radii."""

    def profile(s):
        # ln 0 = -inf reaches psi's zero end
        with np.errstate(divide="ignore"):
            return shape(np.log(t * np.asarray(s, dtype=float)))

    zero_radius, log_radius, log_constant, *kinks = (
        _log_radii((t,), shape)[0].tolist())
    return TestPotential(
        params=params, radial_profile=profile, growth_coefficient=1.0,
        zero_radius=zero_radius, kink_radii=tuple(kinks),
        log_radius=log_radius, log_constant=log_constant, log_shape=shape)


def truncated_log_plane(t):
    """max(0, ln(t |w|)): kinked at |w| = 1/t, exactly ln(t|w|) outside."""
    t = float(t)
    if t <= 0:
        raise InvalidPotential("needs t > 0")
    return _log_plane(t, _positive_part, {"t": t})


def smooth_capped_log(t, eps=0.25):
    """Smoothed positive part of ln(t |w|): identical outside e^eps / t,
    identically zero inside e^-eps / t, convex polynomial blend between."""
    t = float(t)
    eps = float(eps)
    if t <= 0 or eps <= 0:
        raise InvalidPotential("needs t > 0 and eps > 0")
    return _log_plane(t, _capped_shape(eps), {"t": t, "eps": eps})


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
# spike tables


class SpikeTable:
    """A family's pullbacks as columns, one row per cutoff: what the
    margin sweep and RieszCharge.integrate_radial read off them, for all
    the cutoffs at once.

    Every row is a radial spike at the origin.  ``tau`` holds its cutoff,
    ``log_constant``, ``log_core``, ``support_radius`` and
    ``pole_coefficient`` its declarations, and ``log_shape`` the family's
    one psi, which all the rows share.  A row's kinks are the ends of its
    band, ``log_core`` and ``support_radius``, so none lies strictly
    inside it.
    """

    __slots__ = ("tau", "log_constant", "log_core", "support_radius",
                 "pole_coefficient", "log_shape")

    def __init__(self, *columns):
        # one argument for each name in __slots__, in that order
        for name, column in zip(self.__slots__, columns, strict=True):
            setattr(self, name, column)

    def __len__(self):
        return self.tau.size

    def profile(self, rows, d):
        """The profiles psi(log_constant - ln d) of rows at the distances
        d, one row of d per row (or one row of d for them all).  They are
        read as psi(ln(e^c / d)): in the blend, where the argument is
        small, a difference of two logs loses low bits."""
        scale = np.exp(self.log_constant[rows])
        # 1/0 = inf reaches psi's end at the pole
        with np.errstate(divide="ignore"):
            return np.asarray(
                self.log_shape(np.log(scale[:, None] * (1.0 / d))),
                dtype=float)


def _pullbacks(taus, shape):
    """The pullbacks of the members psi(ln(t |w|)) for the cutoffs taus,
    as a SpikeTable: the radii of _log_radii inverted elementwise, as
    inversion_pullback inverts them."""
    tau = np.asarray(taus, dtype=float)
    if np.any(tau <= 0):
        raise InvalidPotential("needs t > 0")
    plane = _log_radii(tau.tolist(), shape)
    return SpikeTable(tau, plane[:, 2], 1.0 / plane[:, 1], 1.0 / plane[:, 0],
                      np.ones(tau.size), shape)


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

    def spikes(self, taus):
        return _pullbacks(taus, _positive_part)


class SmoothCappedLogFamily(ValueRecord):
    __slots__ = ("t_min", "t_max", "ratio", "eps")
    _defaults = dict(TruncatedLogFamily._defaults, eps=0.25)

    kind = "smooth-capped-log"

    def taus(self):
        return _geometric_taus(self.t_min, self.t_max, self.ratio)

    def applied(self, tau):
        return inversion_pullback(smooth_capped_log(tau, self.eps))

    def spikes(self, taus):
        if self.eps <= 0:
            raise InvalidPotential("needs t > 0 and eps > 0")
        return _pullbacks(taus, _capped_shape(float(self.eps)))
