"""Scenario file validation and object construction."""

import json

import numpy as np
import pytest

from zerocert import (DiskFractionProfile, PlanePowerProfile, SchemaError,
                      TruncatedLogFamily, build_sufficiency_grid,
                      load_scenario, validate_scenario)


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


def test_load_rejects_bad_json(tmp_path):
    p = tmp_path / "junk.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(SchemaError) as exc:
        load_scenario(p)
    assert "not valid JSON" in exc.value.messages[0]


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


def test_sufficiency_grid_center_offset():
    blk = {"kind": "random-disk", "radius": 0.5, "count": 8, "seed": 0,
            "center": {"re": 10.0, "im": -3.0}}
    g = build_sufficiency_grid(blk)
    assert np.all(np.abs(g - (10.0 - 3.0j)) <= 0.5)
