"""The sweep families' plane members, one at a time, from their formulas.

zerocert builds a family's members only as the rows of a SpikeTable.
This module builds each member apart, as a plane test potential
psi(ln(t |w|)) written out with its radii: the truncated log max(0,
ln(t |w|)) vanishes inside 1/t and is exactly ln(t |w|) outside it; the
smooth capped log eps B(ln(t |w|) / eps) vanishes inside e^-eps / t and
is exactly ln(t |w|) outside e^eps / t.  ``member(family, tau)`` pulls
one back through testfam.inversion_pullback, the one-spike form that the
oracles read (membership_report, integrate_radial_reference).
"""

import math
import types

import numpy as np

from zerocert import InvalidPotential, inversion_pullback
from zerocert import testfam


class PlaneMember(types.SimpleNamespace):
    """A plane member's fields, as inversion_pullback and
    oracles.membership_report read them; calling it reads radial_profile
    at |w|."""

    def __call__(self, w):
        s = np.abs(np.asarray(w, dtype=complex))
        return np.asarray(self.radial_profile(s), dtype=float)


def _log_radius(radius, support):
    """The radius from which a member is exactly ln(t |w|): its pullback's
    core 1 / radius must not pass the support, where the profile is
    already 0, so where it rounds past, the radius moves one ulp out."""
    if 1.0 / radius > support:
        return math.nextafter(radius, math.inf)
    return radius


def truncated_log_plane(t):
    """max(0, ln(t |w|)), kinked at |w| = 1/t."""
    t = float(t)
    if t <= 0:
        raise InvalidPotential("needs t > 0")
    return PlaneMember(
        params={"t": t}, growth_coefficient=1.0, zero_radius=1.0 / t,
        kink_radii=(1.0 / t,), log_radius=_log_radius(1.0 / t, t),
        log_constant=math.log(t), log_shape=testfam._positive_part,
        radial_profile=lambda s: np.log(np.maximum(
            1.0, t * np.asarray(s, dtype=float))))


def smooth_capped_log(t, eps=0.25):
    """eps B(ln(t |w|) / eps), with B the bump's second antiderivative:
    zero inside e^-eps / t, ln(t |w|) outside e^eps / t, kinked at both."""
    t, eps = float(t), float(eps)
    if t <= 0 or eps <= 0:
        raise InvalidPotential("needs t > 0 and eps > 0")
    inner, outer = math.exp(-eps) / t, math.exp(eps) / t

    def profile(s):
        # ln 0 = -inf reaches B's zero end
        with np.errstate(divide="ignore"):
            x = np.log(t * np.asarray(s, dtype=float))
        return eps * testfam.bump_cdf_integral(x / eps)

    return PlaneMember(
        params={"t": t, "eps": eps}, growth_coefficient=1.0,
        zero_radius=inner, kink_radii=(inner, outer),
        log_radius=_log_radius(outer, t * math.exp(eps)),
        log_constant=math.log(t), log_shape=testfam._capped_shape(eps),
        radial_profile=profile)


def plane(family, tau):
    """The family's plane member at the cutoff tau."""
    if family.kind == "truncated-log":
        return truncated_log_plane(tau)
    return smooth_capped_log(tau, family.eps)


def member(family, tau):
    """The family's member at the cutoff tau, pulled back to a spike at
    the origin: the row of ``family.spikes`` for tau, built on its own."""
    return inversion_pullback(plane(family, tau))
