"""Test potentials for the necessity criterion.

A family's plane members psi(ln(t |w|)) are subharmonic, vanish near the
origin, and grow like ln|w|; inversion w -> 1/w pulls them back to radial
spikes psi(log_constant - ln d) at the origin, which are integrated
against zero distributions and majorant charges.  All of a family's
members share its one psi, whose ``pieces`` are (edge e, coefficients a)
in increasing e: psi is sum a_k (x - e)^k from e to the next edge, and 0
below the first.

A family gives its pullbacks for all its cutoffs as the columns of a
SpikeTable (``family.spikes(taus)``), the one form that the margin sweep
and the charge side read.  PulledBackTest and inversion_pullback, the
one-spike form, stay because bench/tracer.py names inversion_pullback
as a target; the tests build single members from their formulas
(tests/planes.py).
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
class PulledBackTest:
    """Inversion pullback: a radial spike at the pole with finite support.

    Within log_core of the pole the profile is exactly
    log_constant - pole_coefficient * ln d; a log_core of 0 declares no
    such core.  ``log_shape`` psi, when given, has
    radial_profile(d) = psi(log_constant - ln d).
    """

    pole: complex
    radial_profile: Callable
    support_radius: float
    pole_coefficient: float
    kink_radii: tuple = ()
    log_core: float = 0.0
    log_constant: float = 0.0
    log_shape: Callable | None = None


# ---------------------------------------------------------------------------
# log shapes


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
        pole=0j, radial_profile=profile,
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
    as a SpikeTable.  psi is 0 below its first piece's edge e0 and x from
    its last piece's edge e1, so each member vanishes inside e^e0 / t and
    is exactly ln(t |w|) outside e^e1 / t; inverting those radii gives the
    support and the log core."""
    tau = np.asarray(taus, dtype=float)
    if np.any(tau <= 0):
        raise InvalidPotential("needs t > 0")
    e0, e1 = shape.pieces[0][0], shape.pieces[-1][0]
    log_radius = math.exp(e1) / tau
    # the core ends at 1 / log_radius, which must not pass the support
    # t e^-e0, where the profile is already 0: where it rounds past, the
    # exact-log region is declared from one ulp further out
    past = 1.0 / log_radius > tau * math.exp(-e0)
    log_radius[past] = np.nextafter(log_radius[past], math.inf)
    # math.log, not np.log: the two differ in the last bit on some cutoffs
    log_constant = np.fromiter(map(math.log, tau.tolist()), float, tau.size)
    return SpikeTable(tau, log_constant, 1.0 / log_radius,
                      1.0 / (math.exp(e0) / tau), np.ones(tau.size), shape)


# ---------------------------------------------------------------------------
# sweep families


def geometric_tau_count(t_min, t_max, ratio):
    """2 + ln(t_max / t_min) / ln(ratio), a bound on the number of cutoffs
    _geometric_taus builds, with none built (inf for an unbounded grid)."""
    return 2.0 + (math.log(t_max) - math.log(t_min)) / math.log1p(ratio - 1.0)


def _geometric_taus(t_min, t_max, ratio):
    if not (t_min > 0 and math.isfinite(t_max) and t_max >= t_min
            and ratio > 1):
        raise InvalidPotential("family grid needs t_min > 0, t_max >= t_min, "
                               "t_max finite, ratio > 1")
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

    def spikes(self, taus):
        return _pullbacks(taus, _positive_part)


class SmoothCappedLogFamily(ValueRecord):
    __slots__ = ("t_min", "t_max", "ratio", "eps")
    _defaults = dict(TruncatedLogFamily._defaults, eps=0.25)

    kind = "smooth-capped-log"

    def taus(self):
        return _geometric_taus(self.t_min, self.t_max, self.ratio)

    def spikes(self, taus):
        if self.eps <= 0:
            raise InvalidPotential("needs t > 0 and eps > 0")
        return _pullbacks(taus, _capped_shape(float(self.eps)))
