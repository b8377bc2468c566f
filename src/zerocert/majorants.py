"""Subharmonic models and differences of them.

A model packages a pointwise evaluator, its Riesz charge (1/(2 pi) times
the distributional Laplacian), the points where it takes the value -inf,
and, when one exists, a closed-form circle mean.  Every factory runs a
deterministic sub-mean spot check so a typo in a density is caught at
construction time instead of deep inside a sweep.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import Record, setfield
from .errors import InvalidModel
from .measures import RadialDensity, RieszCharge
from .quadrature import mean_on_circle


def _near_one_series(terms):
    """E(m) near m = 1 as a series in x = k'^2 = 1 - m (DLMF 19.12.2):
    E = 1 + (x / 2) (ln(4 / k') P(x) - Q(x)).  Returns the coefficients of
    P + iQ, highest power first, so one complex Horner pass gives both."""
    coef = np.empty(terms, dtype=complex)
    c, d = 1.0, 0.0
    for j in range(terms):
        coef[terms - 1 - j] = complex(c, c * (d + 1.0 / ((2 * j + 1) * (2 * j + 2))))
        c *= (j + 0.5) * (j + 1.5) / ((j + 2.0) * (j + 1.0))
        d += 2.0 / (2 * j + 1) - 1.0 / (j + 1)
    return tuple(coef)


# below 1 - m = 1e-2, eight terms leave a remainder under 1e-18
_E_SWITCH = 1e-2
_E_NEAR_ONE = _near_one_series(8)


def ellipe(m):
    """Complete elliptic integral of the second kind, E(m) for 0 <= m <= 1.

    Away from m = 1 it is the arithmetic-geometric mean form
    E = K (1 - sum 2^(n-1) c_n^2) with K = pi / (2 a_N) (DLMF 19.8.6).
    As m -> 1, K grows like ln(4 / k') and that form loses about as many
    ulps, so for k'^2 = 1 - m below 1e-2 a logarithmic series in k'^2
    takes over.  E(1) = 1, and so does E of an m that rounding has put
    just past 1 (4at / (a + t)^2 with t close to a).
    """
    m = np.asarray(m, dtype=float)
    x = 1.0 - m
    # points with 1 - m below the switch run the AGM at the switch, and the
    # series overwrites them; from k'^2 >= 1e-2 the fifth c is below 1e-9,
    # which moves a but no longer the sum, and the sixth moves neither
    b = np.sqrt(np.maximum(x, _E_SWITCH))
    a = 1.0
    s = 0.5 * m
    w = 1.0
    for _ in range(4):
        c = 0.5 * (a - b)
        b = np.sqrt(a * b)
        a = a - c
        s = s + w * (c * c)
        w *= 2.0
    a = 0.5 * (a + b)
    out = (0.5 * np.pi) / a * (1.0 - s)
    near_one = x < _E_SWITCH
    if near_one.any():
        xs = np.maximum(x, 1e-300)
        pq = _E_NEAR_ONE[0] * xs
        for coef in _E_NEAR_ONE[1:-1]:
            pq = (pq + coef) * xs
        pq = pq + _E_NEAR_ONE[-1]
        log4k = math.log(4.0) - 0.5 * np.log(xs)
        near = 1.0 + 0.5 * x * (log4k * pq.real - pq.imag)
        out = np.where(near_one, near, out)
    return out


_SPOT_CENTERS = np.array([
    0.3 + 0.1j, -1.2 + 0.4j, 2.1 - 1.3j, 0.05j,
    -0.7 - 0.7j, 1.5 + 0j, -2.2j, 3.1 + 0.2j])
_SPOT_RADII = np.array([0.3, 0.7, 0.4, 0.9, 0.25, 0.6, 0.45, 0.8])


class SubharmonicModel(Record):
    """Subharmonic function with attached charge and optional exact means."""

    __slots__ = ("kind", "params", "eval", "riesz", "singular_points",
                 "exact_circle_mean")
    _defaults = {"singular_points": (), "exact_circle_mean": None}

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        with np.errstate(all="ignore"):
            return np.asarray(self.eval(z), dtype=float)


def _validate_submean(model, two_sided=False):
    values = model(_SPOT_CENTERS)
    # the integrated mean is the arbiter; a closed form is only a claim
    means, _ = mean_on_circle(model, _SPOT_CENTERS, _SPOT_RADII, tol=1e-9)
    claims = means  # without a closed form there is nothing to disagree
    if model.exact_circle_mean is not None:
        claims = np.asarray(model.exact_circle_mean(
            _SPOT_CENTERS, _SPOT_RADII), dtype=float)
    for z0, u0, m, claimed in zip(_SPOT_CENTERS, values, means, claims):
        u0, m, claimed = float(u0), float(m), float(claimed)
        slack = 1e-7 * (1.0 + abs(m))
        if math.isfinite(claimed) and abs(claimed - m) > slack:
            raise InvalidModel(
                "closed-form circle mean disagrees with quadrature at %r "
                "(claimed %.6g, integrated %.6g)" % (z0, claimed, m))
        if math.isfinite(u0) and u0 > m + slack:
            raise InvalidModel(
                "sub-mean inequality fails at %r (value %.6g, mean %.6g)"
                % (z0, u0, m))
        if two_sided and math.isfinite(u0) and m > u0 + slack:
            raise InvalidModel(
                "mean-value identity fails at %r (value %.6g, mean %.6g)"
                % (z0, u0, m))
    return model


# ---------------------------------------------------------------------------
# factories


def make_radial_power(sigma=1.0, rho=1.0):
    """sigma * |z| ** rho, with charge density sigma rho^2 s^(rho-2) dA/(2 pi),
    disk mass sigma rho t^rho and log-mass sigma a^rho."""
    sigma = float(sigma)
    rho = float(rho)
    if sigma < 0 or rho <= 0:
        raise InvalidModel("needs sigma >= 0 and rho > 0")
    if sigma == 0:
        return make_zero_model()

    def ev(z):
        return sigma * np.abs(z) ** rho

    charge = RieszCharge(radial=(RadialDensity(
        profile=lambda s: sigma * rho * rho * np.asarray(s, dtype=float) ** (rho - 2.0),
        cumulative=lambda t: sigma * rho * t ** rho,
        log_mass=lambda a: sigma * a ** rho),))

    exact = None
    if rho == 2.0:
        def exact(z, t):
            return sigma * (np.abs(z) ** 2 + np.asarray(t, dtype=float) ** 2)
    elif rho == 1.0:
        def exact(z, t):
            a = np.abs(z)
            t = np.asarray(t, dtype=float)
            tot = a + t
            # m = 4at / tot^2 with a, t and tot scaled by one power of two
            # that puts tot in [1/2, 1): tot^2 no longer underflows (below
            # 1e-154) or overflows, and elsewhere m keeps its bits
            e = -np.frexp(tot)[1]
            with np.errstate(invalid="ignore"):
                m = np.where(tot > 0, 4.0 * np.ldexp(a, e) * np.ldexp(t, e)
                             / np.ldexp(tot, e) ** 2, 0.0)
            return sigma * (2.0 / np.pi) * tot * ellipe(m)

    return _validate_submean(SubharmonicModel(
        kind="radial-power", params={"sigma": sigma, "rho": rho},
        eval=ev, riesz=charge, singular_points=(0j,),
        exact_circle_mean=exact))


def make_log_abs_poly(coeffs=None, roots=None, mults=None, lead=1.0):
    """ln |p(z)| for a polynomial given by coefficients or by its roots.

    Coefficient input is factored numerically; root clusters within 1e-5
    are merged into one root with integer multiplicity.
    """
    if coeffs is not None:
        if roots is not None:
            raise InvalidModel("give coefficients or roots, not both")
        c = np.asarray(coeffs, dtype=complex).ravel()
        c = np.trim_zeros(c, "f")
        if c.size == 0:
            raise InvalidModel("zero polynomial has no log modulus")
        lead = complex(c[0])
        raw = np.roots(c) if c.size > 1 else np.zeros(0, dtype=complex)
        roots, mults = _cluster_roots(raw, tol=1e-5)
    else:
        roots = np.asarray([] if roots is None else roots, dtype=complex).ravel()
        mults = (np.ones(roots.size, dtype=int) if mults is None
                 else np.asarray(mults, dtype=int).ravel())
        roots, mults = _cluster_roots(np.repeat(roots, mults), tol=0.0)
    lead_abs = abs(complex(lead))
    if lead_abs == 0:
        raise InvalidModel("leading coefficient must be nonzero")
    log_lead = math.log(lead_abs)
    rts = np.asarray(roots, dtype=complex)
    mls = np.asarray(mults, dtype=float)

    def ev(z):
        z = np.asarray(z, dtype=complex)
        out = np.full(z.shape, log_lead, dtype=float)
        for r, m in zip(rts, mls):
            out += m * np.log(np.abs(z - r))
        return out

    def exact(z, t):
        z = np.asarray(z, dtype=complex)
        t = np.asarray(t, dtype=float)
        out = np.full(np.broadcast(z, t).shape, log_lead, dtype=float)
        for r, m in zip(rts, mls):
            out += m * np.log(np.maximum(np.abs(z - r), t))
        return out

    return _validate_submean(SubharmonicModel(
        kind="log-abs-poly",
        params={"roots": [complex(r) for r in rts],
                "mults": [int(m) for m in mls], "lead": complex(lead)},
        eval=ev,
        riesz=RieszCharge(rts, mls),
        singular_points=tuple(complex(r) for r in rts),
        exact_circle_mean=exact))


def _cluster_roots(raw, tol):
    roots = []
    mults = []
    for r in raw:
        for i, s in enumerate(roots):
            if abs(r - s) <= tol:
                roots[i] = (roots[i] * mults[i] + r) / (mults[i] + 1)
                mults[i] += 1
                break
        else:
            roots.append(complex(r))
            mults.append(1)
    return np.asarray(roots, dtype=complex), np.asarray(mults, dtype=int)


def make_log_poly_growth():
    """ln(1 + |z|^2): smooth, with charge density 4 / (1 + s^2)^2 dA/(2 pi),
    disk mass 2 t^2 / (1 + t^2) and log-mass ln(1 + a^2)."""

    def ev(z):
        return np.log1p(np.abs(z) ** 2)

    charge = RieszCharge(radial=(RadialDensity(
        profile=lambda s: 4.0 / (1.0 + np.asarray(s, dtype=float) ** 2) ** 2,
        cumulative=lambda t: 2.0 * t * t / (1.0 + t * t),
        log_mass=lambda a: np.log1p(a * a)),))
    return _validate_submean(SubharmonicModel(
        kind="log-poly-growth", params={}, eval=ev, riesz=charge))


def make_harmonic(h, params=None, kind="harmonic"):
    """Wrap a harmonic evaluator; the mean-value identity is spot checked."""

    def ev(z):
        return np.asarray(h(np.asarray(z, dtype=complex)), dtype=float)

    def exact(z, t):
        del t
        return ev(z)

    return _validate_submean(SubharmonicModel(
        kind=kind, params=dict(params or {}), eval=ev,
        riesz=RieszCharge(), exact_circle_mean=exact), two_sided=True)


def make_zero_model():
    def ev(z):
        return np.zeros(np.asarray(z).shape, dtype=float)

    def exact(z, t):
        del t
        return np.zeros(np.asarray(z).shape, dtype=float)

    return SubharmonicModel(kind="zero", params={}, eval=ev,
                            riesz=RieszCharge(), exact_circle_mean=exact)


def model_sum(*models):
    models = tuple(models)
    if not models:
        return make_zero_model()
    charge = RieszCharge()
    for m in models:
        charge = charge + m.riesz
    singular = tuple(p for m in models for p in m.singular_points)

    def ev(z):
        out = models[0](z)
        for m in models[1:]:
            out = out + m(z)
        return out

    exact = None
    if all(m.exact_circle_mean is not None for m in models):
        def exact(z, t):
            out = np.asarray(models[0].exact_circle_mean(z, t), dtype=float)
            for m in models[1:]:
                out = out + np.asarray(m.exact_circle_mean(z, t), dtype=float)
            return out

    return SubharmonicModel(
        kind="sum", params={"terms": [m.kind for m in models]},
        eval=ev, riesz=charge, singular_points=singular,
        exact_circle_mean=exact)


# ---------------------------------------------------------------------------
# differences


class DSubharmonicMajorant(Record):
    """M = up - low with the convention M := +inf wherever low = -inf; low
    is a fresh zero model unless given."""

    __slots__ = ("up", "low")
    _defaults = {"low": None}

    def __init__(self, *args, **kwargs):
        Record.__init__(self, *args, **kwargs)
        if self.low is None:
            setfield(self, "low", make_zero_model())

    @property
    def charge(self):
        return self.up.riesz + (-self.low.riesz)

    def __call__(self, z):
        return eval_M(self, z)


def eval_M(M, z):
    z = np.asarray(z, dtype=complex)
    up = M.up(z)
    low = M.low(z)
    with np.errstate(invalid="ignore"):
        return np.where(np.isneginf(low), math.inf, up - low)
