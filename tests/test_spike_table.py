"""Spike tables: a family's members as columns, against the members
built one by one from their formulas (planes.member) and the oracles on
them, which stay the reference."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from zerocert import (
    InvalidPotential,
    NotSummable,
    RieszCharge,
    SmoothCappedLogFamily,
    TruncatedLogFamily,
    ZeroDistribution,
    make_log_abs_poly,
    make_radial_power,
)
from zerocert.criterion import _CORE_ULPS, _band_sums, _prefix_fsums, _sweep_lhs

import oracles
import planes
from test_measures import _CORE_CHARGES, _FAMILIES, _TAUS


def _assert_rows_are_members(table, members, taus):
    # the members come from their written-out radii (planes.py), which
    # share no arithmetic with the table's columns
    assert len(table) == len(members)
    assert table.tau.tolist() == [float(t) for t in taus]
    for i, p in enumerate(members):
        assert p.pole == 0j
        for name in ("log_constant", "log_core", "support_radius"):
            assert getattr(table, name)[i] == getattr(p, name), name
        # a row's kinks are its band's ends, which the table need not hold
        assert set(p.kink_radii) <= {p.log_core, p.support_radius}
        # a family's rows share its one psi
        assert table.log_shape is p.log_shape


@settings(max_examples=150, deadline=None)
@given(taus=st.lists(st.floats(1e-3, 1e6), min_size=1, max_size=6),
       eps=st.floats(1e-3, 2.0))
# 1/(1/t) rounds above t: the truncated log radius moves one ulp out
@example(taus=[7.378945279999996], eps=0.25)
@example(taus=[55.56003412779003, 1.0, 55.56003412779003], eps=0.25)
def test_family_spikes_are_its_members_column_by_column(taus, eps):
    for fam in (TruncatedLogFamily(), SmoothCappedLogFamily(eps=eps)):
        members = [planes.member(fam, t) for t in taus]
        table = fam.spikes(taus)
        _assert_rows_are_members(table, members, taus)


def test_family_spikes_check_their_cutoffs():
    with pytest.raises(InvalidPotential, match="t > 0"):
        TruncatedLogFamily().spikes([1.0, 0.0])
    with pytest.raises(InvalidPotential, match="eps > 0"):
        SmoothCappedLogFamily(eps=0.0).spikes([1.0])


_FLOATS = st.floats(-1e300, 1e300, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.one_of(
    _FLOATS, st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e100, -1e100, 1e-300,
                              2.0 ** -1074, 2.0 ** 53, 0.1])), max_size=40))
@example(values=[1e100, 1.0, -1e100, 1e-100, -1.0, 3.0])
@example(values=[0.1] * 10 + [-1.0])
@example(values=[1.0, 2.0 ** -53, 2.0 ** -53, -1.0, 2.0 ** -106])
def test_prefix_fsums_are_fsums_of_every_prefix(values):
    got = _prefix_fsums(values)
    want = [math.fsum(values[:k + 1]) for k in range(len(values))]
    assert [x.hex() for x in got] == [x.hex() for x in want]


def test_prefix_fsums_read_integers_as_floats():
    values = [2 ** 53 + 1, 1, -(2 ** 53)]
    assert _prefix_fsums(values) == [math.fsum(values[:k + 1])
                                     for k in range(3)]


def _sweep_lhs_by_member(r, m, tests, table):
    """The sweep's lhs as it was formed member by member: the core from
    fsum of each prefix slice of the segment sums, its rounding bound from
    math.ulp, one member at a time; the band from _band_sums on the
    members' table."""
    core = np.searchsorted(r, [t.log_core for t in tests], side="right")
    band = np.searchsorted(r, [t.support_radius for t in tests],
                           side="right")
    log_r = np.log(r[:max(core.max(initial=0), band.max(initial=0))])
    edges = sorted(set(core[core > 0].tolist()))
    prefix = {}
    if edges:
        starts = [0] + edges[:-1]
        seg_m = np.add.reduceat(m[:edges[-1]], starts).tolist()
        seg_l = np.add.reduceat(log_r[:edges[-1]] * m[:edges[-1]],
                                starts).tolist()
        for k, e in enumerate(edges):
            prefix[e] = (math.fsum(seg_m[:k + 1]), math.fsum(seg_l[:k + 1]))
    sums, bounds, _, _ = _band_sums(log_r, m, table, core, band)
    out = []
    for k, (test, a, extra) in enumerate(zip(tests, core, sums.tolist())):
        lhs = 0.0
        if a:
            mass, log_mass = prefix[int(a)]
            head = test.log_constant * mass
            tail = test.pole_coefficient * log_mass
            lhs = head - tail
            bounds[k] += _CORE_ULPS * (math.ulp(head) + math.ulp(tail))
        out.append(lhs + extra)
    return out, float(bounds.max(initial=0.0))


@pytest.mark.parametrize("Z", [
    ZeroDistribution.gaussian_integers(scale=0.7, max_radius=80.0),
    ZeroDistribution.real_multiples(math.pi),
    ZeroDistribution.from_points([0.3, -2.0j, 5.0 + 5.0j, 40.0], [1, 3, 2, 1]),
], ids=["gauss", "pi", "points"])
@pytest.mark.parametrize("fam", [
    TruncatedLogFamily(0.3, 60.0, 1.1),
    SmoothCappedLogFamily(0.3, 60.0, 1.1, 0.25),
], ids=["truncated", "smooth"])
def test_sweep_lhs_on_a_family_table_is_the_member_loop(Z, fam):
    taus = fam.taus()
    members = [planes.member(fam, t) for t in taus]
    r, m = Z.radii_up_to(1.05 * max(t.support_radius for t in members))
    table = fam.spikes(taus)
    want, want_rounding = _sweep_lhs_by_member(r, m, members, table)
    got, work = _sweep_lhs(r, m, table)
    assert [x.hex() for x in got] == [x.hex() for x in want]
    assert work["lhs_rounding"] == want_rounding


_ATOMS = make_log_abs_poly(roots=[0.5 + 0.5j, -3.0 + 1.0j, 20.0],
                           mults=[1, 2, 1]).riesz


@pytest.mark.parametrize("charge", [
    make_radial_power(1.0, 1.0).riesz,
    make_radial_power(0.7, 2.0).riesz,
    make_radial_power(1.0, 1.0).riesz - _ATOMS,
], ids=["abs", "square", "abs-minus-poly"])
@pytest.mark.parametrize("fam", [
    TruncatedLogFamily(0.3, 60.0, 1.3),
    SmoothCappedLogFamily(0.3, 60.0, 1.3, 0.4),
], ids=["truncated", "smooth"])
def test_integrate_radial_on_a_family_table_is_its_members(charge, fam):
    # every row within the per-spike route's budget of that route on the
    # row's member, which reads the member's own profile
    taus = fam.taus()
    vals, errs, note, adaptive = charge.integrate_radial(fam.spikes(taus),
                                                         tol=1e-9)
    assert adaptive == 0 and (note == "").all()
    for tau, val, err in zip(taus, vals.tolist(), errs.tolist()):
        assert err <= 1e-9
        ref, ref_err = oracles.integrate_radial_reference(
            charge, planes.member(fam, tau), tol=1e-9)
        assert abs(val - ref) <= ref_err + 1e-14 * (1.0 + abs(ref))


@pytest.mark.parametrize("name", sorted(_CORE_CHARGES))
def test_integrate_radial_on_family_rows_of_a_mixed_batch(name):
    # a batch mixing empty, core-only and banded rows: each row is that
    # row integrated alone, bit for bit, and the batch counts the adaptive
    # bands of its rows
    charge, tol = _CORE_CHARGES[name]
    taus = (0.05,) + _TAUS + (40.0,)
    for fam in _FAMILIES.values():
        *got, adaptive = charge.integrate_radial(fam.spikes(taus), tol=tol)
        for i, tau in enumerate(taus):
            *want, alone = charge.integrate_radial(fam.spikes([tau]),
                                                   tol=tol)
            adaptive -= alone
            assert [col[i] for col in got] == [col[0] for col in want]
        assert adaptive == 0


@pytest.mark.parametrize("fam", [
    TruncatedLogFamily(0.5, 200.0, 1.15),
    SmoothCappedLogFamily(0.5, 200.0, 1.15, 0.25),
], ids=["truncated", "smooth"])
def test_integrate_radial_row_bits_do_not_depend_on_the_batch(fam):
    # each row alone and in batches of every size from 1 to 40 of its
    # neighbours on a 40-cutoff sweep gives the same bits
    charge = make_radial_power(1.0, 1.0).riesz - _ATOMS
    taus = fam.taus()[:40]
    assert len(taus) == 40
    alone = [charge.integrate_radial(fam.spikes([tau]))[:2] for tau in taus]
    alone = [(val[0], err[0]) for val, err in alone]
    for n in range(1, 41):
        for start in {0, 40 - n}:
            val, err, note, _ = charge.integrate_radial(
                fam.spikes(taus[start:start + n]))
            assert (note == "").all()
            assert list(zip(val.tolist(), err.tolist())) == \
                alone[start:start + n]


@settings(max_examples=100, deadline=None)
@given(taus=st.lists(st.floats(1e-3, 1e6), min_size=1, max_size=5),
       eps=st.floats(1e-3, 2.0),
       between=st.lists(st.floats(1e-12, 1.0), max_size=6))
@example(taus=[7.378945279999996], eps=0.25, between=[0.5])
@example(taus=[1e-3, 1e6], eps=2.0, between=[1e-12, 1.0 - 2.0 ** -53])
def test_spike_table_profile_is_its_members(taus, eps, between):
    # each row's profile, at the pole, its core edge, its support, past
    # it and between, against its member's own radial_profile: to a few
    # ulps, since the table reads e^(ln tau) where the member reads tau.
    # psi's slope is at most 1, so the ulps are those of its argument and
    # of ln tau, and the blend's polynomial rounds each argument its own
    # way: up to 5 ulps apart over 15000 random rows
    for fam in (TruncatedLogFamily(), SmoothCappedLogFamily(eps=eps)):
        table = fam.spikes(taus)
        for i, tau in enumerate(taus):
            p = planes.member(fam, tau)
            d = np.array([0.0, p.log_core, p.support_radius,
                          2.0 * p.support_radius, 1e300,
                          *(x * p.support_radius for x in between)])
            got = table.profile(np.array([i]), d[None, :])[0]
            want = p.radial_profile(d)
            assert got[0] == want[0] == math.inf
            with np.errstate(divide="ignore"):
                x = np.abs(np.log(tau / d[1:]))
            slack = 16.0 * np.spacing(np.maximum(max(1.0, abs(math.log(tau))),
                                                x))
            assert (np.abs(got[1:] - want[1:]) <= slack).all(), (tau, d)
            # psi is exactly 0 past the support
            assert (got[3:5] == 0.0).all()


@pytest.mark.parametrize("fam", list(_FAMILIES.values()),
                         ids=list(_FAMILIES))
def test_integrate_radial_atom_rows(fam):
    # an atom at the origin, where every spike is infinite, fails every
    # row; atoms elsewhere give each row its member's sum over them
    origin = RieszCharge(atom_points=(0j, 2.0 + 1.0j), atom_masses=(1.0, 2.0))
    val, err, note, _ = origin.integrate_radial(fam.spikes(_TAUS))
    assert (note == "NotSummable").all()
    assert np.isnan(val).all() and np.isnan(err).all()
    with pytest.raises(NotSummable):
        oracles.integrate_radial_reference(origin,
                                           planes.member(fam, _TAUS[0]))
    atoms = RieszCharge(atom_points=(0.1j, 1.0, -2.0 + 1.0j, 7.0 - 7.0j, 30.0),
                        atom_masses=(1.0, -2.5, 2.0, 0.5, 3.0))
    vals, errs, note, adaptive = atoms.integrate_radial(fam.spikes(_TAUS))
    assert adaptive == 0 and (note == "").all()
    for tau, val, err in zip(_TAUS, vals.tolist(), errs.tolist()):
        want, _ = oracles.integrate_radial_reference(atoms,
                                                     planes.member(fam, tau))
        assert abs(val - want) <= 1e-14 * (1.0 + abs(want))
        assert err == 0.0
