"""Command line behaviour: exit codes, outputs, determinism."""

import csv
import gc
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from zerocert import SmoothCappedLogFamily
from zerocert.cli import COMMANDS, _parser, _write_csv, main

import oracles


def _write(tmp_path, doc, name="sc.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return str(p)


def _pi_scenario():
    # sine-type lattice under a linear radial majorant, every stage on
    return {
        "label": "pi-lattice-linear",
        "zeros": {"generator": {"kind": "real-multiples", "step": 3.141592653589793,
                                "max_radius": 1.0e5}},
        "majorant": {"up": {"kind": "radial-power", "sigma": 1.0, "rho": 1.0}},
        "profile": {"kind": "plane-power", "power": 1.0},
        "family": {"kind": "truncated-log", "t_min": 0.5, "t_max": 50.0,
                   "ratio": 1.4},
        "grids": {
            "sufficiency": {"kind": "random-disk", "radius": 4.0,
                            "count": 24, "seed": 7},
            "m0": {"r_max": 40.0, "per_shell": 6},
        },
        "lemma1": {"d_tilde": {"radius": 1.0}, "s": {"radius": 0.5},
                   "z0": {"re": 0.0}, "b": 1.0},
    }


def _toy_scenario():
    doc = _pi_scenario()
    doc["zeros"]["generator"]["max_radius"] = 1.0e4
    doc["family"]["t_max"] = 8.0
    doc["family"]["ratio"] = 2.0
    return doc


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_all_pipeline(tmp_path, capsys):
    sc = _write(tmp_path, _pi_scenario())
    out = tmp_path / "run"
    rc = main(["all", "--scenario", sc, "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "consistent" in text
    assert "certified=True" in text

    report = json.loads((out / "report.json").read_text())
    assert report["command"] == "all"
    assert report["label"] == "pi-lattice-linear"
    for stage in ("necessary", "m0", "sufficiency", "lemma1"):
        info = report["stages"][stage]
        assert info["status"] == "ok"
        assert info["seconds"] >= 0.0
    assert report["stages"]["necessary"]["verdict"] == "consistent"
    assert report["stages"]["m0"]["bounded"] is True
    assert report["stages"]["sufficiency"]["violations"] == 0
    assert sorted(report["stages"]["sufficiency"]) == [
        "certified", "checked", "far_terms", "far_zeros", "genus", "grid",
        "margin_source", "margin_verdict", "max_excess", "outputs", "reason",
        "retained", "seconds", "skipped_guard", "status", "tail_budget_max",
        "violations"]
    assert report["stages"]["lemma1"]["c_test"] > 0.0

    rows = _read_csv(out / "margin.csv")
    assert rows[0] == ["tau", "lhs", "rhs", "margin", "rhs_budget", "note"]
    assert _read_csv(out / "m0.csv")[0] == \
        ["z_re", "z_im", "shell", "deviation", "budget"]
    assert _read_csv(out / "sufficiency.csv")[0] == \
        ["z_re", "z_im", "log_abs", "tail", "bound", "excess", "ok"]
    assert _read_csv(out / "lemma1.csv")[0] == ["name", "value", "budget"]


def test_all_m0_rows_meet_the_submean_check(tmp_path):
    # the README scenario's m0 block (r_max 40, per_shell 6) is also the
    # benchmark's, whose check fails a row with deviation < -budget.  The
    # circle means of |z| are closed form, with budget 0, so each
    # deviation must itself be nonnegative, as for any subharmonic M_up
    out = tmp_path / "run"
    assert main(["all", "--scenario", _write(tmp_path, _pi_scenario()),
                 "--out", str(out)]) == 0
    rows = _read_csv(out / "m0.csv")
    assert rows[0][3:] == ["deviation", "budget"]
    assert len(rows) == 1 + 6 * 6
    for row in rows[1:]:
        deviation, budget = float(row[3]), float(row[4])
        assert budget == 0.0
        assert deviation >= -budget


def test_integral_floats_run_as_integers(tmp_path):
    # the schema counts 6.0 as an integer, so the builders must take it
    doc = _toy_scenario()
    rc = main(["all", "--scenario", _write(tmp_path, doc),
               "--out", str(tmp_path / "int")])
    assert rc == 0
    doc["grids"]["sufficiency"]["seed"] = 7.0
    doc["grids"]["sufficiency"]["count"] = 24.0
    doc["grids"]["m0"]["per_shell"] = 6.0
    rc = main(["all", "--scenario", _write(tmp_path, doc, "float.json"),
               "--out", str(tmp_path / "float")])
    assert rc == 0
    for name in ("margin.csv", "m0.csv", "sufficiency.csv", "lemma1.csv"):
        assert (tmp_path / "float" / name).read_bytes() == \
            (tmp_path / "int" / name).read_bytes()


def test_cli_runs_without_jsonschema(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    code = (
        "import sys\n"
        "import zerocert.cli\n"
        "assert 'jsonschema' not in sys.modules\n"
        "sys.modules['jsonschema'] = None  # any import of it now fails\n"
        "sys.exit(zerocert.cli.main(sys.argv[1:]))\n")
    sc = _write(tmp_path, _pi_scenario())
    proc = subprocess.run(
        [sys.executable, "-c", code, "all", "--scenario", sc,
         "--out", str(tmp_path / "run")],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "run" / "margin.csv").exists()


def _smooth_lattice_scenario():
    doc = _toy_scenario()
    doc["zeros"] = {"generator": {"kind": "gaussian-integers", "scale": 1.0}}
    doc["family"] = {"kind": "smooth-capped-log", "t_min": 0.5,
                     "t_max": 20.0, "ratio": 1.25, "eps": 0.25}
    return doc


def test_all_leaves_numpy_random_unimported(tmp_path):
    # random-disk grids draw from the stdlib generator; importing
    # numpy.random would add about 6 MB to every run's peak RSS.  np.unique
    # imports numpy.ma on its first call, which costs tens of ms; the
    # smooth-capped-log lattice takes the sweep's band path.  No stage of
    # ``all`` reads a Jensen measure, so zerocert.jensen stays unimported
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    code = (
        "import sys\n"
        "import zerocert.cli\n"
        "assert zerocert.cli.main(sys.argv[1:]) == 0\n"
        "for name in ('numpy.random', 'numpy.ma', 'numpy.polynomial',\n"
        "             'zerocert.jensen'):\n"
        "    assert name not in sys.modules, name + ' imported'\n")
    for k, doc in enumerate((_pi_scenario(), _smooth_lattice_scenario())):
        sc = _write(tmp_path, doc, name=f"sc{k}.json")
        out = tmp_path / f"run{k}"
        proc = subprocess.run(
            [sys.executable, "-c", code, "all", "--scenario", sc,
             "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert (out / "sufficiency.csv").exists()


def _stage_failure_scenario():
    # probe at 0.5 in the unit disk: the enlarged circle reaches the rim
    return {
        "label": "disk-bad",
        "zeros": {"points": [{"re": 0.2}]},
        "majorant": {"up": {"kind": "zero"}},
        "profile": {"kind": "disk-fraction", "fraction": 0.5, "R": 1.0},
        "grids": {"sufficiency": {"kind": "explicit",
                                  "points": [{"re": 0.5}]}},
    }


@pytest.mark.parametrize("doc, want", [
    (_toy_scenario(), 0),
    ({"zeros": {"points": [{"re": 1.0}]}}, 2),
    (_stage_failure_scenario(), 3),
])
@pytest.mark.parametrize("enabled", [True, False])
def test_main_gives_the_collector_back(tmp_path, capsys, doc, want, enabled):
    # main freezes the heap that import built for the run, and unfreezes
    # it on every exit path
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        rc = main(["all", "--scenario", _write(tmp_path, doc),
                   "--out", str(tmp_path / "run")])
        assert rc == want
        assert gc.get_freeze_count() == 0
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_schema_failure_exits_2(tmp_path, capsys):
    sc = _write(tmp_path, {"zeros": {"points": [{"re": 1.0}]}})
    out = tmp_path / "run"
    rc = main(["check-necessary", "--scenario", sc, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "schema: /: 'majorant' is a required property" in err
    assert not (out / "report.json").exists()


def test_oversized_grid_exits_2(tmp_path, capsys):
    doc = _toy_scenario()
    doc["grids"]["sufficiency"]["count"] = 1e20
    out = tmp_path / "run"
    rc = main(["all", "--scenario", _write(tmp_path, doc), "--out", str(out)])
    assert rc == 2
    # the random-disk branch that the block's kind names reports the field
    assert ("schema: /grids/sufficiency/count: 1e+20 is greater than the "
            "maximum of 1000000") in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_huge_m0_radius_exits_2(tmp_path, capsys):
    doc = _toy_scenario()
    doc["grids"]["m0"]["r_max"] = 1e308
    out = tmp_path / "run"
    rc = main(["check-m0", "--scenario", _write(tmp_path, doc),
               "--out", str(out)])
    assert rc == 2
    assert "schema: /grids/m0/r_max: " in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("kind,field", [("gaussian-integers", "step"),
                                        ("real-multiples", "scale")])
def test_generator_field_of_the_other_kind_exits_2(tmp_path, capsys, kind,
                                                   field):
    doc = _toy_scenario()
    doc["zeros"]["generator"] = {"kind": kind, field: 2.0}
    out = tmp_path / "run"
    rc = main(["all", "--scenario", _write(tmp_path, doc), "--out", str(out)])
    assert rc == 2
    assert ("schema: /zeros/generator: %r is not a field of %s"
            % (field, kind)) in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_missing_scenario_flag_exits_2(tmp_path, capsys):
    rc = main(["check-m0", "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "needs --scenario" in capsys.readouterr().err


def test_stage_failure_exits_3_but_reports(tmp_path, capsys):
    sc = _write(tmp_path, _stage_failure_scenario())
    out = tmp_path / "run"
    rc = main(["construct-verify", "--scenario", sc, "--out", str(out)])
    assert rc == 3
    assert "stage sufficiency failed" in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    info = report["stages"]["sufficiency"]
    assert info["status"] == "failed"
    assert info["error_kind"]
    assert "seconds" in info


def test_tau_max_override(tmp_path):
    sc = _write(tmp_path, _toy_scenario())
    out = tmp_path / "run"
    rc = main(["check-necessary", "--scenario", sc, "--out", str(out),
               "--tau-max", "4.0"])
    assert rc == 0
    rows = _read_csv(out / "margin.csv")
    assert float(rows[-1][0]) == 4.0


def _count_sweeps(monkeypatch):
    import zerocert.cli as cli

    tols = []
    real = cli.margin_sweep

    def counted(*args, **kwargs):
        tols.append(kwargs.get("tol"))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "margin_sweep", counted)
    return tols


def test_all_sweeps_once_and_reuses_the_curve(tmp_path, monkeypatch):
    tols = _count_sweeps(monkeypatch)
    sc = _write(tmp_path, _toy_scenario())
    out = tmp_path / "run"
    assert main(["all", "--scenario", sc, "--out", str(out)]) == 0
    assert len(tols) == 1
    info = json.loads((out / "report.json").read_text())["stages"]
    assert info["sufficiency"]["margin_source"] == "reused"
    assert info["sufficiency"]["margin_verdict"] == info["necessary"]["verdict"]


def test_construct_verify_sweeps_at_the_margin_tolerance(tmp_path,
                                                         monkeypatch):
    tols = _count_sweeps(monkeypatch)
    doc = _toy_scenario()
    doc["tolerances"] = {"margin": 1e-7}
    out = tmp_path / "run"
    assert main(["construct-verify", "--scenario", _write(tmp_path, doc),
                 "--out", str(out)]) == 0
    assert tols == [1e-7]
    info = json.loads((out / "report.json").read_text())["stages"]
    assert info["sufficiency"]["margin_source"] == "recomputed"

    # without a family the construction consults no margin verdict
    del doc["family"]
    out = tmp_path / "bare"
    assert main(["construct-verify", "--scenario",
                 _write(tmp_path, doc, "bare.json"), "--out", str(out)]) == 0
    assert tols == [1e-7]
    info = json.loads((out / "report.json").read_text())["stages"]
    assert info["sufficiency"]["margin_source"] == "none"
    assert info["sufficiency"]["margin_verdict"] is None


def test_margin_csv_deterministic(tmp_path):
    sc = _write(tmp_path, _toy_scenario())
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["check-necessary", "--scenario", sc, "--out", str(a)]) == 0
    assert main(["check-necessary", "--scenario", sc, "--out", str(b)]) == 0
    assert (a / "margin.csv").read_bytes() == (b / "margin.csv").read_bytes()


def test_report_does_not_depend_on_the_out_path(tmp_path):
    sc = _write(tmp_path, _toy_scenario())
    reports = []
    for name in ("a", "a-much-longer-output-directory-name"):
        out = tmp_path / name
        assert main(["all", "--scenario", sc, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        for info in report["stages"].values():
            del info["seconds"]
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["stages"]["necessary"]["outputs"] == ["margin.csv"]


def _necessary_details(tmp_path, doc):
    out = tmp_path / "run"
    assert main(["check-necessary", "--scenario", _write(tmp_path, doc),
                 "--out", str(out)]) == 0
    return json.loads((out / "report.json").read_text())[
        "stages"]["necessary"]["details"]


def test_necessary_details_count_the_zeros_swept(tmp_path):
    doc = _smooth_lattice_scenario()
    family = doc["family"]
    details = _necessary_details(tmp_path, doc)
    # the sweep reads the zeros out to 1.05 times the largest support
    fam = SmoothCappedLogFamily(**{k: v for k, v in family.items()
                                   if k != "kind"})
    reach = 1.05 * max(fam.applied(t).support_radius for t in fam.taus())
    assert details["zeros"] == oracles.gauss_lattice_radii(reach).size
    # one radius per norm: points of equal norm are read once
    assert 0 < details["radii"] < details["zeros"]
    # every tau's band took the one-panel rule
    assert details["adaptive_bands"] == 0
    # the blend bands are summed from segment moments, with a rounding
    # bound below the sweep's threshold
    assert details["band_segments"] > 0 and details["band_pairs"] > 0
    assert 0.0 < details["lhs_rounding"] < details["threshold"]
    # a truncated log has no band: its lhs is the core's closed form
    doc["family"] = dict(family, kind="truncated-log")
    del doc["family"]["eps"]
    details = _necessary_details(tmp_path, doc)
    assert details["band_segments"] == details["band_pairs"] == 0


def test_sufficiency_seed(tmp_path):
    sc = _write(tmp_path, _toy_scenario())
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["construct-verify", "--scenario", sc, "--out", str(a)]) == 0
    assert main(["construct-verify", "--scenario", sc, "--out", str(b)]) == 0
    assert main(["construct-verify", "--scenario", sc, "--out", str(c),
                 "--seed", "9"]) == 0
    assert (a / "sufficiency.csv").read_bytes() == \
        (b / "sufficiency.csv").read_bytes()
    assert (a / "sufficiency.csv").read_bytes() != \
        (c / "sufficiency.csv").read_bytes()


@pytest.mark.parametrize("command", ["construct-verify", "all",
                                     "check-necessary"])
def test_negative_seed_exits_2_by_name(tmp_path, capsys, command):
    sc = _write(tmp_path, _toy_scenario())
    out = tmp_path / "run"
    assert main([command, "--scenario", sc, "--out", str(out),
                 "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "schema: --seed: -1 is less than the minimum of 0" in err
    assert not (out / "report.json").exists()


def _grid_report(tmp_path, doc, *flags, command="construct-verify"):
    out = tmp_path / ("run%d" % len(list(tmp_path.iterdir())))
    assert main([command, "--scenario", _write(tmp_path, doc), "--out",
                 str(out), *flags]) == 0
    return json.loads((out / "report.json").read_text())[
        "stages"]["sufficiency"]["grid"]


def test_report_names_the_probe_grid(tmp_path):
    doc = _toy_scenario()
    disk = {"kind": "random-disk", "count": 24, "radius": 4.0,
            "center": {"re": 0.0, "im": 0.0}, "seed": 7}
    assert _grid_report(tmp_path, doc) == disk
    assert _grid_report(tmp_path, doc, command="all") == disk
    # --seed replaces the block's seed, and the report names the one used
    assert _grid_report(tmp_path, doc, "--seed", "9") == dict(disk, seed=9)
    doc["grids"]["sufficiency"] = {"kind": "random-disk", "radius": 2.5,
                                   "count": 5.0, "center": {"re": -1.0}}
    assert _grid_report(tmp_path, doc) == {
        "kind": "random-disk", "count": 5, "radius": 2.5,
        "center": {"re": -1.0, "im": 0.0}, "seed": 0}
    doc["grids"]["sufficiency"] = {"kind": "explicit", "points": [
        {"re": 1.0}, {"re": 0.5, "im": 2.0}]}
    assert _grid_report(tmp_path, doc) == {"kind": "explicit", "count": 2}
    # no sufficiency block: construct-verify probes its default grid
    del doc["grids"]["sufficiency"]
    default = {"kind": "random-disk", "count": 40, "radius": 3.0,
               "center": {"re": 0.0, "im": 0.0}, "seed": 0}
    assert _grid_report(tmp_path, doc) == default
    assert _grid_report(tmp_path, doc, "--seed", "4") == dict(default, seed=4)


@pytest.mark.parametrize("name,csvfile", [
    ("jensen-selftest", "jensen_selftest.csv"),
    ("means-selftest", "means_selftest.csv"),
])
def test_selftests(tmp_path, capsys, name, csvfile):
    out = tmp_path / "run"
    rc = main([name, "--out", str(out)])
    assert rc == 0
    assert "all ok" in capsys.readouterr().out
    rows = _read_csv(out / csvfile)
    assert rows[0] == ["check", "value", "tolerance", "ok"]
    assert all(r[3] == "True" for r in rows[1:])


def test_means_selftest_pins_hat_radius_origin(tmp_path):
    # r(0) = 1 and the largest r on |w| = 1 is 1/2, so hat r(0) = 1.5 exactly
    out = tmp_path / "run"
    assert main(["means-selftest", "--out", str(out)]) == 0
    rows = {r[0]: r for r in _read_csv(out / "means_selftest.csv")[1:]}
    assert float(rows["hat-radius-origin"][1]) == 0.0
    assert rows["hat-radius-origin"][3] == "True"


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_parses_every_flag(command):
    args = _parser().parse_args(
        [command, "--scenario", "sc.json", "--out", "o", "--tol", "1e-8",
         "--seed", "3", "--tau-max", "60"])
    assert (args.command, args.scenario, args.out, args.tol, args.seed,
            args.tau_max) == (command, "sc.json", "o", 1e-8, 3, 60.0)
    bare = _parser().parse_args([command])
    assert (bare.scenario, bare.out, bare.tol, bare.seed, bare.tau_max) == \
        (None, "zerocert-out", None, None, None)


def test_unknown_command_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["check-everything", "--out", str(tmp_path / "run")])
    assert info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def _write_csv_cellwise(path, header, rows):
    # the reference: each cell formatted on its own, str as it is, bools
    # as True/False, integers by str, everything else by repr of its float
    def fmt(x):
        if isinstance(x, str):
            return x
        if isinstance(x, (bool, np.bool_)):
            return str(bool(x))
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        return repr(float(x))

    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([fmt(v) for v in row])


def test_write_csv_matches_cellwise_formatting(tmp_path):
    # one formatter per column gives what formatting each cell on its own
    # gives, through the same csv quoting
    rows = [
        ("plain", 1.5, np.float64(-0.0), 3, np.int64(-7), True),
        ('comma, "quoted"', np.float64(math.nan), math.inf, np.int32(0), 12, np.bool_(False)),
        ("line\nbreak", -math.inf, 1e-300, 2**40, np.uint8(255), False),
        ("", np.float64(0.1), -0.0, -1, 0, np.bool_(True)),
    ]
    header = ["s", "f", "g", "i", "j", "b"]
    want, got = tmp_path / "want.csv", tmp_path / "got.csv"
    _write_csv_cellwise(want, header, rows)
    assert _write_csv(got, header, zip(*rows)) == "got.csv"
    assert got.read_bytes() == want.read_bytes()
    # numpy columns, as the sufficiency stage passes them
    cols = [np.array([0.25, -0.0, np.nan]), np.array([1, -2, 3]),
            np.array([True, False, True])]
    _write_csv_cellwise(want, ["a", "b", "c"], zip(*cols))
    _write_csv(got, ["a", "b", "c"], cols)
    assert got.read_bytes() == want.read_bytes()
    _write_csv(got, header, zip(*[]))
    assert got.read_bytes() == b"s,f,g,i,j,b\r\n"


def test_low_block_takes_its_atom_off_each_rhs(tmp_path):
    # the README's delta-subharmonic example: M = |z| - ln|z - a| with
    # a = (1 + i) / 2 keeps both verdicts, and the atom of -low at a
    # lowers each rhs by ln+(tau / |a|)
    plain = _pi_scenario()
    low = _pi_scenario()
    low["majorant"]["low"] = {"kind": "log-abs-poly", "coeffs": [
        {"re": 1.0}, {"re": -0.5, "im": -0.5}]}
    rows = []
    for name, doc in (("plain", plain), ("low", low)):
        out = tmp_path / name
        sc = _write(tmp_path, doc, name + ".json")
        assert main(["all", "--scenario", sc, "--out", str(out)]) == 0
        info = json.loads((out / "report.json").read_text())["stages"]
        assert info["necessary"]["verdict"] == "consistent"
        assert info["sufficiency"]["certified"] is True
        assert info["sufficiency"]["violations"] == 0
        rows.append(_read_csv(out / "margin.csv")[1:])
    assert len(rows[0]) == len(rows[1]) == 15
    for (tau, _, rhs, _, _, _), (_, _, rhs_low, _, budget, _) in zip(*rows):
        gap = float(rhs) - float(rhs_low)
        want = max(0.0, math.log(float(tau) / abs(0.5 + 0.5j)))
        assert abs(gap - want) <= float(budget) + 4 * math.ulp(float(rhs))


def test_report_counts_the_far_series_work(tmp_path):
    # the README scenario: 19996 zeros beyond twice the grid's largest |z|,
    # which keep 139578 series orders between them (64 each would be
    # 1279744); a longer series shows here
    sc = _write(tmp_path, _pi_scenario())
    out = tmp_path / "run"
    assert main(["construct-verify", "--scenario", sc, "--out", str(out)]) == 0
    info = json.loads((out / "report.json").read_text())["stages"]["sufficiency"]
    assert (info["far_zeros"], info["far_terms"]) == (19996, 139578)
