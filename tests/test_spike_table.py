"""Spike tables: a family's members as columns, against the members
built one by one (``family.applied``), which stay the reference."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from zerocert import (
    InvalidPotential,
    SmoothCappedLogFamily,
    SpikeTable,
    TruncatedLogFamily,
    ZeroDistribution,
    make_log_abs_poly,
    make_radial_power,
)
from zerocert.criterion import _CORE_ULPS, _band_sums, _prefix_fsums, _sweep_lhs

from test_measures import _CORE_CHARGES, _mixed_spikes


def _assert_rows_are_members(table, members, taus):
    assert len(table) == len(members)
    assert table.tau.tolist() == [float(t) for t in taus]
    for i, p in enumerate(members):
        assert table.pole[i] == p.pole
        for name in ("log_constant", "log_core", "support_radius",
                     "pole_coefficient"):
            assert getattr(table, name)[i] == getattr(p, name), name
        kinks = table.kink_radii[i]
        assert kinks[:len(p.kink_radii)].tolist() == list(p.kink_radii)
        assert np.isnan(kinks[len(p.kink_radii):]).all()
        assert table.log_shape[i] is p.log_shape


@settings(max_examples=150, deadline=None)
@given(taus=st.lists(st.floats(1e-3, 1e6), min_size=1, max_size=6),
       eps=st.floats(1e-3, 2.0))
# 1/(1/t) rounds above t: the truncated log radius moves one ulp out
@example(taus=[7.378945279999996], eps=0.25)
@example(taus=[55.56003412779003, 1.0, 55.56003412779003], eps=0.25)
def test_family_spikes_are_its_members_column_by_column(taus, eps):
    for fam in (TruncatedLogFamily(), SmoothCappedLogFamily(eps=eps)):
        members = [fam.applied(t) for t in taus]
        table = fam.spikes(taus)
        _assert_rows_are_members(table, members, taus)
        # a family's rows share its one psi
        assert all(s is members[0].log_shape for s in table.log_shape)
        # a row's own member is the record applied builds
        p = table.member(len(taus) - 1)
        d = np.array([0.0, 0.5 * p.log_core, p.support_radius, 1e300])
        assert (p.radial_profile(d) == members[-1].radial_profile(d)).all()


def test_spike_table_of_keeps_its_spikes():
    spikes = _mixed_spikes()
    table = SpikeTable.of(spikes)
    assert np.isnan(table.tau).all()
    for i, spike in enumerate(spikes):
        assert table.member(i) is spike
        assert table.log_shape[i] is getattr(spike, "log_shape", None)
        assert table.log_core[i] == spike.log_core
        assert table.log_constant[i] == spike.log_constant


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


def _sweep_lhs_by_member(r, m, tests):
    """The sweep's lhs as it was formed member by member: the core from
    fsum of each prefix slice of the segment sums, its rounding bound from
    math.ulp, one member at a time; the band from _band_sums."""
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
    sums, bounds, _, _ = _band_sums(log_r, m, SpikeTable.of(tests), core,
                                    band)
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
    members = [fam.applied(t) for t in taus]
    r, m = Z.radii_up_to(1.05 * max(t.support_radius for t in members))
    want, want_rounding = _sweep_lhs_by_member(r, m, members)
    got, work = _sweep_lhs(r, m, fam.spikes(taus))
    assert [x.hex() for x in got] == [x.hex() for x in want]
    assert work["lhs_rounding"] == want_rounding


def _bits(results):
    return [r if isinstance(r, Exception) else (r[0].hex(), r[1].hex())
            for r in results]


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
    taus = fam.taus()
    members = [fam.applied(t) for t in taus]
    want, want_adaptive = charge.integrate_radial(members, tol=1e-9)
    got, adaptive = charge.integrate_radial(fam.spikes(taus), tol=1e-9)
    assert adaptive == want_adaptive
    assert _bits(got) == _bits(want)


def _stacked(tables):
    """One table of the rows of tables, in order."""
    first = np.cumsum([0] + [len(t) for t in tables])
    width = max(t.kink_radii.shape[1] for t in tables)

    def column(name):
        return np.concatenate([getattr(t, name) for t in tables])

    def member(i):
        k = int(np.searchsorted(first, i, side="right")) - 1
        return tables[k].member(i - first[k])

    return SpikeTable(
        column("tau"), column("pole"), column("log_constant"),
        column("log_core"), column("support_radius"),
        column("pole_coefficient"),
        np.vstack([np.pad(t.kink_radii,
                          ((0, 0), (0, width - t.kink_radii.shape[1])),
                          constant_values=np.nan) for t in tables]),
        column("log_shape"), member)


@pytest.mark.parametrize("name", sorted(_CORE_CHARGES))
def test_integrate_radial_on_family_rows_of_a_mixed_batch(name):
    # the batch of test_measures, both families and a Jensen potential,
    # whose row has no log shape and whose band runs adaptive quadrature:
    # with each member's row taken from its family's table, the results
    # have the bits of the batch of members
    charge, tol = _CORE_CHARGES[name]
    spikes = _mixed_spikes()
    rows = []
    for tau in (0.3, 1.7, 6.0, 15.0):
        rows.append(TruncatedLogFamily().spikes([tau]))
        for eps in (0.25, 0.8):
            rows.append(SmoothCappedLogFamily(eps=eps).spikes([tau]))
    rows.append(SpikeTable.of(spikes[-1:]))
    want, want_adaptive = charge.integrate_radial(spikes, tol=tol)
    got, adaptive = charge.integrate_radial(_stacked(rows), tol=tol)
    assert adaptive == want_adaptive >= 1
    assert _bits(got) == _bits(want)
