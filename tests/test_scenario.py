"""Scenario file validation and object construction."""

import copy
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from zerocert import (DiskFractionProfile, InvalidPotential,
                      PlanePowerProfile, SchemaError, TruncatedLogFamily,
                      build_sufficiency_grid, load_scenario,
                      validate_scenario)
from zerocert import testfam
from zerocert.scenario import SCHEMA, _iter_errors


def _doc(**over):
    doc = {
        "label": "toy",
        "zeros": {"generator": {"kind": "real-multiples", "step": 3.14159,
                                "max_radius": 100.0}},
        "majorant": {"up": {"kind": "radial-power", "sigma": 1.0,
                            "rho": 1.0}},
        "profile": {"kind": "plane-power", "power": 1.0},
        "family": {"kind": "truncated-log", "t_min": 0.5, "t_max": 8.0,
                   "ratio": 2.0},
        "grids": {
            "sufficiency": {"kind": "random-disk", "radius": 2.0,
                            "count": 6, "seed": 3},
            "m0": {"r_max": 8.0, "per_shell": 3},
        },
        "tolerances": {"default": 1e-8, "margin": 1e-7},
        "lemma1": {"d_tilde": {"radius": 1.0}, "s": {"radius": 0.5},
                   "z0": {"re": 0.0}, "b": 1.0},
    }
    doc.update(over)
    return doc


def _write(tmp_path, doc, name="sc.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return p


def test_validate_accepts_full_document():
    validate_scenario(_doc())


def test_validate_missing_majorant():
    doc = _doc()
    del doc["majorant"]
    with pytest.raises(SchemaError) as exc:
        validate_scenario(doc)
    assert any("'majorant' is a required property" in m
               for m in exc.value.messages)
    # diagnostics carry a JSON-pointer path
    assert all(m.startswith("/") for m in exc.value.messages)


def test_validate_reports_every_violation_sorted():
    doc = _doc()
    doc["family"]["ratio"] = 0.5
    doc["grids"]["m0"]["r_max"] = -1.0
    with pytest.raises(SchemaError) as exc:
        validate_scenario(doc)
    msgs = exc.value.messages
    assert len(msgs) >= 2
    paths = [m.split(":")[0] for m in msgs]
    assert paths == sorted(paths)
    assert any(m.startswith("/family/ratio:") for m in msgs)
    assert any(m.startswith("/grids/m0/r_max:") for m in msgs)


def test_validate_rejects_unknown_keys():
    with pytest.raises(SchemaError):
        validate_scenario(_doc(extra="nope"))


def test_load_builds_runtime_objects(tmp_path):
    sc = load_scenario(_write(tmp_path, _doc()))
    assert sc.label == "toy"
    assert sc.zeros.points_up_to(50.0)[1].sum() == 2 * 15
    assert isinstance(sc.profile, PlanePowerProfile)
    assert sc.profile.power == 1.0
    assert isinstance(sc.family, TruncatedLogFamily)
    assert sc.family.t_max == 8.0
    assert sc.sufficiency_grid.shape == (6,)
    assert np.all(np.abs(sc.sufficiency_grid) <= 2.0)
    assert sc.m0_grid is not None and sc.m0_power == 1.0
    assert sc.lemma1["b"] == 1.0
    assert sc.lemma1["d_tilde"].contains(0.9 + 0j)
    assert not sc.lemma1["s"].contains(0.9 + 0j)
    assert sc.tol("margin") == 1e-7
    assert sc.tol("sufficiency") == 1e-8  # falls back to default
    gauss = {"generator": {"kind": "gaussian-integers", "max_radius": 50.0}}
    sc = load_scenario(_write(tmp_path, _doc(zeros=gauss), "gauss.json"))
    assert sc.zeros.points_up_to(10.0)[1].sum() == 316
    assert sc.zeros.tail_power_sum_bound(3.0, 50.0) == 0.0


def test_load_rejects_bad_json(tmp_path):
    p = tmp_path / "junk.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(SchemaError) as exc:
        load_scenario(p)
    assert "not valid JSON" in exc.value.messages[0]


def test_load_rejects_text_that_is_not_utf8(tmp_path):
    p = tmp_path / "junk.json"
    p.write_bytes(b'{"label": "\xff"}')
    with pytest.raises(SchemaError) as exc:
        load_scenario(p)
    assert exc.value.messages[0].startswith("/: not valid JSON ('utf-8'")


@pytest.mark.parametrize("block,field,literal", [
    ("tolerances", "default", "NaN"),
    ("tolerances", "margin", "Infinity"),
    ("tolerances", "default", "-Infinity"),
    ("family", "t_max", "1e400"),
    ("family", "t_min", "-1e400"),
    ("family", "t_max", "1" + "0" * 400),
])
def test_load_refuses_numbers_no_finite_float_holds(tmp_path, block, field,
                                                    literal):
    # Python's json reads NaN, Infinity and 1e400 (as inf), and the
    # schema's bounds pass a NaN, so the parser refuses them all
    doc = _doc()
    doc[block][field] = "@"
    p = tmp_path / "sc.json"
    p.write_text(json.dumps(doc).replace('"@"', literal), encoding="utf-8")
    with pytest.raises(SchemaError) as exc:
        load_scenario(p)
    assert exc.value.messages == [
        "/: not valid JSON (%s is not a finite number)" % literal]


def test_load_counts_the_cutoffs_before_building_any(tmp_path, monkeypatch):
    def never(*args):
        raise AssertionError("a cutoff grid was built")

    monkeypatch.setattr(testfam, "_geometric_taus", never)
    doc = _doc()
    doc["family"].update(t_min=1.0, t_max=2.0, ratio=1.000000001)
    with pytest.raises(SchemaError) as exc:
        load_scenario(_write(tmp_path, doc))
    assert exc.value.messages == [
        "/family: about 6.93e+08 cutoffs exceed 100000"]
    # an unbounded override is refused the same way, a NaN one too
    for tau_max in (math.inf, math.nan):
        with pytest.raises(SchemaError) as exc:
            load_scenario(_write(tmp_path, _doc()), tau_max=tau_max)
        assert exc.value.messages == [
            "/family: about %r cutoffs exceed 100000" % tau_max]


def test_load_takes_a_grid_up_to_100000_cutoffs(tmp_path):
    # the count is 2 + 99990 steps here, and 2 + 99999 past the cap
    doc = _doc()
    doc["family"].update(t_min=1.0, t_max=2.0 ** (99990 / 4096),
                         ratio=2.0 ** (1 / 4096))
    fam = load_scenario(_write(tmp_path, doc)).family
    assert len(fam.taus()) <= testfam.geometric_tau_count(
        fam.t_min, fam.t_max, fam.ratio) <= 100000
    doc["family"]["t_max"] = 2.0 ** (99999 / 4096)
    with pytest.raises(SchemaError, match="exceed 100000"):
        load_scenario(_write(tmp_path, doc))


@settings(max_examples=100, deadline=None)
@given(t_min=st.floats(1e-3, 1e3), decades=st.floats(0.0, 4.0),
       ratio=st.floats(1.01, 10.0))
def test_geometric_tau_count_bounds_the_grid(t_min, decades, ratio):
    t_max = t_min * 10.0 ** decades
    n = len(testfam._geometric_taus(t_min, t_max, ratio))
    count = testfam.geometric_tau_count(t_min, t_max, ratio)
    assert n <= count <= n + 2


@pytest.mark.parametrize("t_max", [math.inf, math.nan])
def test_geometric_taus_refuse_an_unbounded_grid(t_max):
    # the loop never reached an infinite end, and its list grew without
    # bound
    with pytest.raises(InvalidPotential, match="finite"):
        testfam._geometric_taus(0.5, t_max, 2.0)
    with pytest.raises(InvalidPotential):
        TruncatedLogFamily(t_max=t_max).taus()


def test_load_explicit_points_and_zero_majorant(tmp_path):
    doc = {
        "zeros": {"points": [{"re": 0.5}, {"re": -1.0, "im": 2.0,
                                           "mult": 3}]},
        "majorant": {"up": {"kind": "zero"}},
    }
    sc = load_scenario(_write(tmp_path, doc))
    pts, ml = sc.zeros.points_up_to(3.0)
    assert pts.size == 2 and ml.sum() == 4
    assert sc.profile is None and sc.family is None
    assert sc.sufficiency_grid is None


def test_load_m0_power_needs_plane_profile(tmp_path):
    doc = _doc(profile={"kind": "disk-fraction", "fraction": 0.5, "R": 4.0})
    with pytest.raises(SchemaError) as exc:
        load_scenario(_write(tmp_path, doc))
    assert any(m.startswith("/grids/m0:") for m in exc.value.messages)
    # an explicit power unblocks it
    doc["grids"]["m0"]["power"] = 2.0
    sc = load_scenario(_write(tmp_path, doc))
    assert sc.m0_power == 2.0
    assert isinstance(sc.profile, DiskFractionProfile)


def test_load_caps_the_m0_grid(tmp_path):
    # 20 dyadic shells of 60000 points each, refused before any is built
    doc = _doc()
    doc["grids"]["m0"] = {"r_max": 1e6, "per_shell": 60000}
    with pytest.raises(SchemaError) as exc:
        load_scenario(_write(tmp_path, doc))
    assert [m.split(":")[0] for m in exc.value.messages] == ["/grids/m0"]
    assert "20 shells of 60000 points" in exc.value.messages[0]


def test_load_tau_max_override(tmp_path):
    sc = load_scenario(_write(tmp_path, _doc()), tau_max=4.0)
    assert sc.family.t_max == 4.0
    assert sc.family.taus()[-1] == 4.0


def test_sufficiency_grid_seed_determinism():
    blk = {"kind": "random-disk", "radius": 2.0, "count": 16, "seed": 11}
    a = build_sufficiency_grid(blk)
    b = build_sufficiency_grid(blk)
    c = build_sufficiency_grid(blk, seed=12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all(np.abs(a) <= 2.0)


@settings(max_examples=40, deadline=None)
@given(radius=st.floats(1e-3, 1e3), count=st.integers(1, 300),
       seed=st.integers(0, 2**64), re=st.floats(-1e3, 1e3),
       im=st.floats(-1e3, 1e3))
def test_sufficiency_grid_fills_its_closed_disk(radius, count, seed, re, im):
    blk = {"kind": "random-disk", "radius": radius, "count": count,
           "seed": seed, "center": {"re": re, "im": im}}
    g = build_sufficiency_grid(blk)
    assert g.shape == (count,) and g.dtype == complex
    # the closed disk, up to the rounding of center + r e^(i theta)
    c = complex(re, im)
    eps = np.finfo(float).eps
    assert np.all(np.abs(g - c) <= radius * (1 + 4 * eps) + 4 * eps * abs(c))
    assert np.array_equal(build_sufficiency_grid(blk), g)
    # the block's seed and the seed= override draw the same grid
    del blk["seed"]
    assert np.array_equal(build_sufficiency_grid(blk, seed=seed), g)
    assert np.array_equal(build_sufficiency_grid(dict(blk, seed=seed + 1),
                                                 seed=seed), g)
    if count > 1:
        assert not np.array_equal(build_sufficiency_grid(blk, seed=seed + 1),
                                  g)


def test_sufficiency_grid_takes_an_integral_float_seed():
    # the schema admits 7.0 as an integer; it must draw the grid of 7
    blk = {"kind": "random-disk", "radius": 3.0, "count": 50}
    g = build_sufficiency_grid(dict(blk, seed=7))
    assert np.array_equal(build_sufficiency_grid(dict(blk, seed=7.0)), g)
    assert np.array_equal(build_sufficiency_grid(blk, seed=7.0), g)
    assert not np.array_equal(build_sufficiency_grid(dict(blk, seed=8)), g)


def test_sufficiency_grid_rejects_a_negative_seed():
    # random.Random would quietly draw the grid of |seed|
    blk = {"kind": "random-disk", "radius": 1.0, "count": 3}
    with pytest.raises(ValueError, match="must be >= 0"):
        build_sufficiency_grid(blk, seed=-1)


def test_sufficiency_grid_center_offset():
    blk = {"kind": "random-disk", "radius": 0.5, "count": 8, "seed": 0,
            "center": {"re": 10.0, "im": -3.0}}
    g = build_sufficiency_grid(blk)
    assert np.all(np.abs(g - (10.0 - 3.0j)) <= 0.5)


# ---------------------------------------------------------------------------
# the in-package validator against jsonschema as the oracle


def _bench_workloads():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.WORKLOADS


_BASES = [make(7) for make in _bench_workloads().values()] + [{
    "label": "explicit",
    "notes": "explicit points, log-abs-poly, disk-fraction",
    "zeros": {"points": [{"re": 0.5}, {"re": -1.0, "im": 2.0, "mult": 3}]},
    "majorant": {"up": {"kind": "log-abs-poly",
                        "coeffs": [{"re": 1.0}, {"re": 0.0, "im": 1.0}]},
                 "low": {"kind": "log-poly-growth"}},
    "profile": {"kind": "disk-fraction", "fraction": 0.5,
                "center": {"re": 1.0, "im": -1.0}, "R": 4.0},
    "family": {"kind": "smooth-capped-log", "t_max": 8.0, "eps": 0.5},
    "grids": {"sufficiency": {"kind": "explicit",
                              "points": [{"re": 1.0, "im": 1.0}]},
              "m0": {"r_max": 8.0, "power": 1.0}},
    "tolerances": {"default": 1e-8, "margin": 1e-7, "m0": 1e-8,
                   "sufficiency": 1e-8},
    "lemma1": {"d_tilde": {"center": {"re": 0.0}, "radius": 1.0},
               "s": {"center": {"re": 0.0, "im": 0.1}, "radius": 0.5},
               "z0": {"re": 0.0}, "b": 1.0},
}]

_VALUES = [None, True, False, 0, 1, 2, 1.0, 6.0, -3.5, 0.5, "", "x",
           "zero", "radial-power", "explicit", "random-disk",
           "disk-fraction", "plane-power", "truncated-log",
           "gaussian-integers", [], {}, [{}], [{"re": 1.0}], {"re": 1.0},
           {"kind": "zero"}]
_KEYS = ["kind", "re", "im", "mult", "seed", "count", "points", "generator",
         "up", "center", "power", "radius", "extra", "aa"]


def _containers(node, path=()):
    yield path, node
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        if isinstance(child, (dict, list)):
            yield from _containers(child, path + (key,))


@st.composite
def _mutated(draw):
    """A base scenario with up to four keys or items replaced, deleted
    or added."""
    doc = copy.deepcopy(draw(st.sampled_from(_BASES)))
    for _ in range(draw(st.integers(1, 4))):
        _, box = draw(st.sampled_from(list(_containers(doc))))
        op = draw(st.sampled_from(["replace", "delete", "add"]))
        value = copy.deepcopy(draw(st.sampled_from(_VALUES)))
        if isinstance(box, dict):
            if op == "add" or not box:
                box[draw(st.sampled_from(_KEYS))] = value
            else:
                key = draw(st.sampled_from(sorted(box)))
                if op == "replace":
                    box[key] = value
                else:
                    del box[key]
        elif op == "add" or not box:
            box.append(value)
        else:
            i = draw(st.integers(0, len(box) - 1))
            if op == "replace":
                box[i] = value
            else:
                del box[i]
    return doc


def _kind_errors(errors):
    """jsonschema's errors, each failed oneOf whose instance names one
    branch's ``kind`` replaced by that branch's errors from its context."""
    for e in errors:
        kinds = [sub.get("properties", {}).get("kind", {}).get("const")
                 for sub in e.validator_value] if e.validator == "oneOf" else []
        named = [i for i, k in enumerate(kinds)
                 if isinstance(e.instance, dict) and "kind" in e.instance
                 and k == e.instance["kind"]]
        if e.validator == "oneOf" and len(named) == 1 and e.context:
            yield from _kind_errors(sub for sub in e.context
                                    if sub.relative_schema_path[0] == named[0])
        else:
            yield e


def _oracle_messages(doc):
    errors = sorted(_kind_errors(Draft202012Validator(SCHEMA).iter_errors(doc)),
                    key=lambda e: list(e.absolute_path))
    return ["/" + "/".join(str(p) for p in e.absolute_path) + ": " + e.message
            for e in errors]


def _messages(doc):
    try:
        validate_scenario(doc)
    except SchemaError as exc:
        return exc.messages
    return []


def _base(i, **over):
    doc = copy.deepcopy(_BASES[i])
    doc.update(over)
    return doc


def test_every_public_builder_is_reached():
    # a public make_* that no scenario block builds and no acceptance
    # criterion calls is code that no verdict rests on
    import inspect
    import re

    import zerocert
    from zerocert import scenario

    callers = (inspect.getsource(scenario._make_model)
               + (Path(__file__).parent / "test_acceptance.py").read_text(
                   encoding="utf-8"))
    unreached = [name for name in zerocert.__all__ if name.startswith("make_")
                 and not re.search(r"\b%s\(" % name, callers)]
    assert unreached == []


def test_validator_bases_are_valid():
    for doc in _BASES:
        validate_scenario(doc)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=_mutated())
@example(doc=[])
# bool is neither a number nor an integer
@example(doc=_base(2, family={"kind": "truncated-log", "t_max": True},
                   grids={"m0": {"r_max": 8.0, "per_shell": False}}))
# an integral float is an integer, and no other float is
@example(doc=_base(0, grids={"sufficiency": {
    "kind": "random-disk", "radius": 1.0, "count": 6.0, "seed": 7.0},
    "m0": {"r_max": 8.0, "per_shell": 6.0}}))
@example(doc=_base(0, grids={"m0": {"r_max": 8.0, "per_shell": 6.5}}))
# unexpected keys are listed sorted
@example(doc=_base(1, zz=1, aa=2, mm=3))
# a non-object passes every oneOf branch: the first is listed last
@example(doc=_base(2, zeros=5, majorant={"up": 5}, profile="x"))
# the bounds of each numeric keyword
@example(doc=_base(2, family={"kind": "truncated-log", "t_max": 0,
                              "ratio": 1},
                   grids={"m0": {"r_max": -3.5, "power": -0.5}}))
# grid sizes are capped
@example(doc=_base(2, grids={"m0": {"r_max": 8.0, "per_shell": 1e20}}))
@example(doc=_base(2, grids={"m0": {"r_max": 1e308, "per_shell": 6}}))
# a failing branch that the kind names reports its own fields
@example(doc=_base(2, profile={"kind": "disk-fraction", "fraction": 1.5,
                               "R": 0, "extra": 1},
                   majorant={"up": {"kind": "radial-power", "rho": -1},
                             "low": {"kind": "zero", "sigma": 1}},
                   grids={"sufficiency": {"kind": "explicit", "points": []}}))
# a kind that names no branch, or an instance with no kind, does not
@example(doc=_base(2, profile={"kind": "other", "power": 1.0},
                   majorant={"up": {"rho": 1.0}}))
def test_validator_matches_jsonschema(doc):
    assert _messages(doc) == _oracle_messages(doc)


def test_a_failing_kind_branch_names_its_field():
    doc = _base(2, profile={"kind": "disk-fraction", "fraction": 1.5,
                            "R": 2.0})
    assert _messages(doc) == [
        "/profile/fraction: 1.5 is greater than or equal to the maximum of 1"]
    doc = _base(2, profile={"kind": "other", "fraction": 0.5, "R": 2.0})
    assert _messages(doc) == [
        "/profile: %r is not valid under any of the given schemas"
        % (doc["profile"],)]


def _branch(block, i):
    return dict(block["oneOf"][i], **{"$defs": SCHEMA["$defs"]})


# oneOf hides its branches' messages, so check them on each branch
@pytest.mark.parametrize("schema,instance", [
    (_branch(SCHEMA["$defs"]["model"], 1),
     {"kind": "log-abs-poly", "coeffs": []}),
    (_branch(SCHEMA["$defs"]["model"], 1),
     {"kind": "log-abs-poly", "coeffs": [{"re": True}, {"im": 1}, 3]}),
    (_branch(SCHEMA["properties"]["profile"], 1),
     {"kind": "disk-fraction", "fraction": 1, "R": 0, "center": {}}),
    (_branch(SCHEMA["properties"]["profile"], 1),
     {"kind": "disk-fraction", "fraction": 1.5, "R": 2.0}),
    (_branch(SCHEMA["properties"]["zeros"], 0),
     {"points": [{"re": 1.0, "mult": 0}, {"re": 1.0, "mult": 2.0},
                 {"re": 1.0, "mult": 2.5}, {"re": False}]}),
    (_branch(SCHEMA["properties"]["zeros"], 1),
     {"generator": {"kind": "other", "step": 0, "max_radius": None}}),
    (_branch(SCHEMA["properties"]["grids"]["properties"]["sufficiency"], 0),
     {"kind": "random-disk", "radius": 1.0, "count": 1e20}),
])
def test_validator_matches_jsonschema_in_branches(schema, instance):
    ours = [(list(p), m) for p, m in _iter_errors(instance, schema, schema,
                                                   ())]
    theirs = [(list(e.absolute_path), e.message)
              for e in Draft202012Validator(schema).iter_errors(instance)]
    assert ours and ours == theirs
