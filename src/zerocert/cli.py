"""Command line front end.

Commands either run one stage against a scenario file or, with
``all``, every stage the scenario describes.  CSV outputs are
deterministic for a fixed scenario and seed (floats are written with
repr); wall-clock timings only ever land in report.json.

Exit codes: 0 a stage ran to a verdict (a violated criterion is still a
successful determination), 2 the scenario failed schema validation,
3 a numerical stage failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .criterion import check_m0, lemma1_constants, m0_dyadic_grid, margin_sweep
from .construct import verify_sufficiency
from .errors import EngineError, PreconditionViolation, SchemaError
from .majorants import make_log_abs_poly, make_radial_power
from .means import (DiskFractionProfile, PlanePowerProfile, check_mean_chain,
                    disk_mean, hat_radius, mollified_mean)
from .measures import Region
from .scenario import (build_sufficiency_grid, describe_sufficiency_grid,
                       load_scenario)
from .testfam import TruncatedLogFamily


def _quoted(text):
    """A cell as csv.writer's default dialect writes it (QUOTE_MINIMAL):
    in quotes, with its own quotes doubled, when it holds a comma, a
    quote or a line break."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _column_text(col):
    """A column's cells as text, with one formatter for the whole column:
    repr for floats, str for bools (True/False) and integers, and str,
    quoted as csv.writer quotes it, for strings."""
    values = np.asarray(col)
    kind = values.dtype.kind
    if kind == "f":
        return list(map(repr, values.tolist()))
    cells = list(map(str, values.tolist()))
    return cells if kind in "biu" else list(map(_quoted, cells))


def _csv_line(cells):
    """One record as csv.writer writes it: a record of one empty cell is
    written as "", so that it reads back as a cell."""
    return (",".join(cells) or '""' * len(cells)) + "\r\n"


def _write_csv(path, header, columns):
    """Write the CSV from its columns, each holding one kind of value, as
    one string; return its file name, which report.json lists relative to
    --out so the report does not depend on where it runs."""
    rows = zip(*map(_column_text, columns))
    text = "".join(map(_csv_line, [list(map(_quoted, header)), *rows]))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)
    return path.name


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    if isinstance(x, (np.floating, float)):
        x = float(x)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.bool_,)):
        return bool(x)
    return x


class _StageFailure(Exception):
    def __init__(self, stage, cause):
        super().__init__("stage %s failed: %s" % (stage, cause))
        self.stage = stage
        self.cause = cause


def _run_stage(report, name, fn, *args):
    t0 = time.perf_counter()
    try:
        info = fn(*args)
    except EngineError as exc:
        report["stages"][name] = {
            "status": "failed",
            "error": str(exc),
            "error_kind": exc.slug,
            "seconds": round(time.perf_counter() - t0, 3),
        }
        raise _StageFailure(name, exc) from exc
    info["status"] = "ok"
    info["seconds"] = round(time.perf_counter() - t0, 3)
    report["stages"][name] = info


# ---------------------------------------------------------------------------
# stages


def _tol(sc, args, stage):
    return args.tol if args.tol is not None else sc.tol(stage)


def _sweep(sc, args):
    """The margin curve for the scenario's family (load_scenario has
    applied --tau-max to it), or for a default truncated-log family."""
    family = sc.family
    if family is None:
        family = TruncatedLogFamily(
            t_max=200.0 if args.tau_max is None else args.tau_max)
    return margin_sweep(sc.zeros, sc.majorant, family,
                        tol=_tol(sc, args, "margin"))


def _margin_stage(sc, args, outdir, done):
    curve = done["curve"] = _sweep(sc, args)
    path = _write_csv(
        outdir / "margin.csv",
        ["tau", "lhs", "rhs", "margin", "rhs_budget", "note"],
        [curve.tau, curve.lhs, curve.rhs, curve.margin, curve.rhs_budget,
         curve.note])
    print("necessary criterion: %s  (growth exponent %s, budget %.3g)"
          % (curve.verdict,
             "n/a" if curve.growth_exponent is None
             else "%.3f" % curve.growth_exponent,
             curve.budget))
    return {"verdict": curve.verdict,
            "growth_exponent": curve.growth_exponent,
            "fit_r2": curve.fit_r2,
            "budget": curve.budget,
            "details": curve.details,
            "outputs": [path]}


def _m0_stage(sc, args, outdir, done):
    grid = sc.m0_grid
    power = sc.m0_power
    if grid is None:
        grid = m0_dyadic_grid(100.0, 8)
        power = sc.profile.power if isinstance(sc.profile, PlanePowerProfile) \
            else 1.0
    rep = check_m0(sc.majorant.up, power, grid, tol=_tol(sc, args, "m0"))
    path = _write_csv(
        outdir / "m0.csv",
        ["z_re", "z_im", "shell", "deviation", "budget"],
        [rep.z.real, rep.z.imag, rep.shell, rep.deviation, rep.budget])
    print("regularity probe: bounded=%s  sup estimate %.6g over %d shells"
          % (rep.bounded, rep.c_estimate, len(rep.shell_sups)))
    return {"bounded": rep.bounded,
            "c_estimate": rep.c_estimate,
            "shell_sups": list(rep.shell_sups),
            "flagged": [(z.real, z.imag, d) for z, d in rep.flagged],
            "power": rep.power,
            "outputs": [path]}


def _sufficiency_stage(sc, args, outdir, done):
    grid, spec = sc.sufficiency_grid, sc.sufficiency_spec
    if grid is None:
        blk = {"kind": "random-disk", "radius": 3.0, "count": 40}
        grid = build_sufficiency_grid(blk, seed=args.seed)
        spec = describe_sufficiency_grid(blk, seed=args.seed)
    profile = sc.profile or PlanePowerProfile(1.0)
    # the construction defers to the margin verdict of the scenario's
    # family: the necessary stage's curve when it ran, else a fresh sweep
    verdict, margin_source = None, "none"
    if sc.family is not None:
        curve = done.get("curve")
        margin_source = "reused" if curve is not None else "recomputed"
        verdict = (curve or _sweep(sc, args)).verdict
    rep = verify_sufficiency(sc.zeros, sc.majorant, profile, grid,
                             tol=max(_tol(sc, args, "sufficiency"), 1e-9),
                             margin_verdict=verdict)
    path = _write_csv(
        outdir / "sufficiency.csv",
        ["z_re", "z_im", "log_abs", "tail", "bound", "excess", "ok"],
        [rep.z.real, rep.z.imag, rep.log_abs, rep.tail, rep.bound,
         rep.excess, rep.ok])
    print("sufficiency: certified=%s (%s)  genus %d, retained %d, "
          "violations %d/%d"
          % (rep.certified, rep.reason, rep.genus, rep.retained,
             rep.violations, rep.checked))
    return {"certified": rep.certified,
            "reason": rep.reason,
            "margin_verdict": rep.margin_verdict,
            "margin_source": margin_source,
            "genus": rep.genus,
            "retained": rep.retained,
            "checked": rep.checked,
            "violations": rep.violations,
            "skipped_guard": rep.skipped_guard,
            "max_excess": rep.max_excess,
            "tail_budget_max": rep.tail_budget_max,
            "far_zeros": rep.far_zeros,
            "far_terms": rep.far_terms,
            "grid": spec,
            "outputs": [path]}


def _lemma1_stage(sc, args, outdir, done):
    if sc.lemma1 is not None:
        blk = sc.lemma1
    else:
        blk = {"d_tilde": Region.disk(0j, 1.0), "s": Region.disk(0j, 0.5),
               "z0": 0j, "b": 1.0}
    consts = lemma1_constants(blk["d_tilde"], blk["s"], blk["z0"], blk["b"],
                              sc.majorant)
    rows = [("c_test", consts.c_test, 0.0),
            ("inf_green", consts.inf_green, 0.0),
            ("c_majorant", consts.c_majorant, consts.budget)]
    rows += [(k, v, 0.0) for k, v in sorted(consts.parts.items())]
    path = _write_csv(outdir / "lemma1.csv", ["name", "value", "budget"],
                      zip(*rows))
    print("comparison constants: c_test %.6g  c_majorant %.6g "
          "(green floor %.6g)"
          % (consts.c_test, consts.c_majorant, consts.inf_green))
    return {"c_test": consts.c_test, "inf_green": consts.inf_green,
            "c_majorant": consts.c_majorant, "parts": consts.parts,
            "budget": consts.budget, "outputs": [path]}


# ---------------------------------------------------------------------------
# selftests (no scenario required)


def _selftest_report(name, rows, outdir):
    """Write and print (check, value, tolerance, ok) rows; raise unless
    every check passed."""
    ok = all(r[3] for r in rows)
    path = _write_csv(outdir / ("%s_selftest.csv" % name),
                      ["check", "value", "tolerance", "ok"], zip(*rows))
    for check, val, tol, good in rows:
        print("  %-34s %10.3e <= %8.1e  %s"
              % (check, val, tol, "ok" if good else "FAIL"))
    print("%s selftest: %s" % (name, "all ok" if ok else "FAILED"))
    if not ok:
        raise EngineError("%s selftest failed" % name)
    return {"checks": [{"name": n, "value": v, "tolerance": t, "ok": o}
                       for n, v, t, o in rows], "outputs": [path]}


def _jensen_selftest(outdir):
    from .jensen import (green_disk, log_potential, poisson_jensen_check,
                         potential_to_measure, uniform_circle)

    rows = []

    mu = uniform_circle(0j, 2.0)
    V = log_potential(mu)
    d = np.array([0.25, 1.0, 3.0, 8.0])
    want = np.maximum(0.0, np.log(2.0 / d))
    got = V.radial_profile(d)
    err = float(np.max(np.abs(got - want)))
    rows.append(("circle-potential-closed-form", err, 1e-10, err <= 1e-10))

    mu2 = potential_to_measure(V)
    err2 = abs(mu2.pole_mass - 0.0) + abs(mu2.parts[0].weight - 1.0) \
        + abs(mu2.parts[0].radius - 2.0)
    rows.append(("round-trip-circle", err2, 1e-7, err2 <= 1e-7))

    u = make_log_abs_poly(roots=[1.0 + 0j, -0.5j], mults=[1, 2])
    rep = poisson_jensen_check(u, uniform_circle(0.2 + 0.1j, 1.7))
    tol = 1e-8 + 10.0 * rep.budget
    rows.append(("representation-identity-atoms", abs(rep.residual), tol,
                 abs(rep.residual) <= tol))

    u2 = make_radial_power(1.0, 2.0)
    rep2 = poisson_jensen_check(u2, uniform_circle(0.5 + 0j, 1.0))
    tol2 = 1e-8 + 10.0 * rep2.budget
    rows.append(("representation-identity-density", abs(rep2.residual), tol2,
                 abs(rep2.residual) <= tol2))

    g = green_disk(1.0, 0.5 + 0j)
    e_center = abs(float(g(np.array([0j]))[0]) - math.log(2.0))
    e_bdry = float(np.max(np.abs(g(np.exp(1j * np.linspace(0, 6.28, 7))))))
    rows.append(("green-disk-center", e_center, 1e-12, e_center <= 1e-12))
    rows.append(("green-disk-boundary", e_bdry, 1e-12, e_bdry <= 1e-12))

    return _selftest_report("jensen", rows, outdir)


def _means_selftest(outdir):
    rows = []

    sq = make_radial_power(1.0, 2.0)
    v, e = disk_mean(sq, 0j, 1.0, tol=1e-10)
    rows.append(("disk-mean-square", abs(v - 0.5), 1e-9 + e, abs(v - 0.5) <= 1e-9 + e))

    v2, e2 = mollified_mean(sq, 0j, 1.0, tol=1e-10)
    rows.append(("mollified-square", abs(v2 - 0.2), 1e-9 + e2,
                 abs(v2 - 0.2) <= 1e-9 + e2))

    h = hat_radius(PlanePowerProfile(1.0), 0j)
    rows.append(("hat-radius-origin", abs(h.value - 1.5), 1e-9,
                 abs(h.value - 1.5) <= 1e-9))

    chain = check_mean_chain(sq, PlanePowerProfile(1.0),
                             [0.5 + 0.5j, 2.0 - 1.0j], tol=1e-9)
    rows.append(("chain-square", chain.max_violation, 1e-8, chain.ok))

    try:
        hat_radius(DiskFractionProfile(0.5, 0j, 1.0), 0.2 + 0j)
        rows.append(("disk-precondition-error-path", 1.0, 0.0, False))
    except PreconditionViolation:
        rows.append(("disk-precondition-error-path", 0.0, 0.0, True))

    return _selftest_report("means", rows, outdir)


# ---------------------------------------------------------------------------
# wiring


def _load(args):
    if not args.scenario:
        raise SchemaError(["/: this command needs --scenario"])
    if args.seed is not None and args.seed < 0:
        raise SchemaError(["--seed: %d is less than the minimum of 0"
                           % args.seed])
    for flag, value in (("--tol", args.tol), ("--tau-max", args.tau_max)):
        if value is not None and not (math.isfinite(value) and value > 0):
            raise SchemaError(["%s: %r is not a finite number greater than 0"
                               % (flag, value)])
    return load_scenario(args.scenario, tau_max=args.tau_max, seed=args.seed)


def _finish(report, outdir):
    with open(outdir / "report.json", "w", encoding="utf-8") as fh:
        json.dump(_jsonable(report), fh, sort_keys=True, indent=2)
        fh.write("\n")


# (command, report stage, stage function, the Scenario field that ``all``
# needs to run the stage); the function is named, not bound, because
# bench/tracer.py wraps it on the module after import
_STAGES = (("check-necessary", "necessary", "_margin_stage", None),
           ("check-m0", "m0", "_m0_stage", "m0_grid"),
           ("construct-verify", "sufficiency", "_sufficiency_stage",
            "sufficiency_grid"),
           ("lemma1", "lemma1", "_lemma1_stage", "lemma1"))
_SELFTESTS = {"jensen-selftest": _jensen_selftest,
              "means-selftest": _means_selftest}
COMMANDS = tuple(row[0] for row in _STAGES) + ("all",) + tuple(_SELFTESTS)


def _parser():
    parser = argparse.ArgumentParser(
        prog="zerocert",
        description="Certification engine for candidate zero distributions "
                    "under a growth majorant.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--scenario", default=None,
                        help="scenario JSON file")
    parser.add_argument("--out", default="zerocert-out",
                        help="output directory (default zerocert-out)")
    parser.add_argument("--tol", type=float, default=None,
                        help="override stage tolerance")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for generated grids")
    parser.add_argument("--tau-max", type=float, default=None, dest="tau_max",
                        help="override the sweep's largest cutoff")
    return parser


def main(argv=None):
    # a run never frees the heap that import built, so the collector's
    # older-generation passes need not rescan it mid-run; unfreeze hands an
    # in-process caller its collector back
    gc.freeze()
    try:
        return _main(argv)
    finally:
        gc.unfreeze()


def _main(argv):
    args = _parser().parse_args(argv)

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    report = {"command": args.command, "stages": {}}

    try:
        if args.command in _SELFTESTS:
            _run_stage(report, args.command, _SELFTESTS[args.command], outdir)
        else:
            sc = _load(args)
            report["label"] = sc.label
            done = {}
            for command, stage, fn, needs in _STAGES:
                if args.command == command or (args.command == "all" and (
                        needs is None or getattr(sc, needs) is not None)):
                    _run_stage(report, stage, globals()[fn], sc, args, outdir,
                               done)
    except SchemaError as exc:
        for msg in exc.messages:
            print("schema: %s" % msg, file=sys.stderr)
        return 2
    except _StageFailure as exc:
        _finish(report, outdir)
        print("stage %s failed: %s" % (exc.stage, exc.cause), file=sys.stderr)
        return 3

    _finish(report, outdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
