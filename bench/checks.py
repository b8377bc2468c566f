"""Output checks, computed apart from zerocert.

Expected values come from closed forms, direct sums and the independent
routes in tests/oracles.py, never from a stored copy of earlier output.
Each checker returns {operation name: [problem, ...]}; an operation with
a problem counts as failed.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from workloads import GAUSS_EPS

STAGE_CSV = {"necessary": "margin.csv", "m0": "m0.csv",
             "sufficiency": "sufficiency.csv", "lemma1": "lemma1.csv"}


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for k, v in row.items():
            try:
                row[k] = float(v)
            except ValueError:
                pass
    return rows


def _close(got, want, rel):
    return abs(got - want) <= rel * (1.0 + abs(want))


class ScenarioChecker:
    """Checks shared by the scenario workloads: m0, lemma1, the report."""

    def __init__(self, oracles):
        self.oracles = oracles

    def check(self, outdir, report):
        problems = {stage: [] for stage in STAGE_CSV}
        stages = report.get("stages", {})
        for stage, csv_name in STAGE_CSV.items():
            info = stages.get(stage)
            if info is None or info.get("status") != "ok":
                problems[stage].append("stage status %r" % (
                    None if info is None else info.get("status")))
                continue
            try:
                rows = _read_csv(outdir / csv_name)
                getattr(self, "_" + stage)(info, rows, problems[stage])
            except (OSError, KeyError, TypeError, ValueError) as exc:
                problems[stage].append("output unreadable: %r" % exc)
        return problems

    def _m0(self, info, rows, bad):
        if not rows:
            bad.append("no m0 rows")
        for r in rows:
            # sub-mean property: a circle mean never falls below the centre
            if r["deviation"] < -r["budget"]:
                bad.append("m0 deviation %r below -budget %r at (%r, %r)"
                           % (r["deviation"], r["budget"], r["z_re"], r["z_im"]))

    def _lemma1(self, info, rows, bad):
        vals = {r["name"]: r for r in rows}
        # Green function of the unit disk with pole 0 is ln(1/|z|): ln 2 on
        # |z| = 1/2, so c_test = b / ln 2 with b = 1
        if not _close(vals["c_test"]["value"], 1.0 / math.log(2.0), 1e-12):
            bad.append("c_test %r != 1/ln 2" % vals["c_test"]["value"])
        # charge of |z| is ds on each radius: int_0^1 ln(1/s) ds = 1
        cm = vals["c_majorant"]
        if abs(cm["value"] - 1.0) > cm["budget"] + 1e-12:
            bad.append("c_majorant %r != 1 within budget %r"
                       % (cm["value"], cm["budget"]))

    def _sufficiency(self, info, rows, bad):
        pass

    def _necessary(self, info, rows, bad):
        pass


class SineChecker(ScenarioChecker):
    def _necessary(self, info, rows, bad):
        if info.get("verdict") != "consistent":
            bad.append("verdict %r, want consistent" % info.get("verdict"))
        for r in rows:
            tau = r["tau"]
            k = int(tau / math.pi) + 1
            want = self.oracles.margin_lhs_direct(
                self.oracles.pi_lattice_radii(k), np.full(k, 2.0), tau)
            if not _close(r["lhs"], want, 1e-10):
                bad.append("lhs %r at tau %r, direct sum %r"
                           % (r["lhs"], tau, want))
            if tau >= 10.0 and not r["margin"] < 0.0:
                bad.append("margin %r >= 0 at tau %r" % (r["margin"], tau))

    def _sufficiency(self, info, rows, bad):
        if not info.get("certified") or info.get("violations") != 0:
            bad.append("certified %r with %r violations"
                       % (info.get("certified"), info.get("violations")))
        if not rows:
            bad.append("no sufficiency rows")
        for r in rows:
            z = complex(r["z_re"], r["z_im"])
            want = float(self.oracles.log_abs_sinc(z))
            if abs(r["log_abs"] - want) > r["tail"] + 1e-3:
                bad.append("log_abs %r vs ln|sin z/z| %r at %r"
                           % (r["log_abs"], want, z))
            # the bound is the circle mean of |w| about z at the enlarged
            # radius h: at least |z| (sub-mean), at most sqrt(|z|^2 + h^2)
            # (Cauchy-Schwarz), which stays below |z| + 2/(1+|z|) since
            # h <= r + 1/(1 + ||z| - r|) with r = 1/(1+|z|)
            a = abs(z)
            if not (a * (1 - 1e-12) <= r["bound"] <= a + 2.0 / (1.0 + a)):
                bad.append("bound %r outside [|z|, |z| + 2/(1+|z|)] at %r"
                           % (r["bound"], z))


class GaussChecker(ScenarioChecker):
    def __init__(self, oracles):
        super().__init__(oracles)
        self._sums = {}
        self._radii = None

    def _direct(self, tau):
        # sum of ln+(tau/|z|) over enumerated Gaussian integers
        got = self._sums.get(tau)
        if got is None:
            if self._radii is None or self._radii[-1] < tau:
                self._radii = self.oracles.gauss_lattice_radii(
                    max(tau, 300.0))
            r = self._radii[: np.searchsorted(self._radii, tau, "right")]
            got = self._sums[tau] = self.oracles.margin_lhs_direct(
                r, np.ones(r.size), tau)
        return got

    def _necessary(self, info, rows, bad):
        g = info.get("growth_exponent")
        if info.get("verdict") != "violated" or g is None \
                or not 1.8 <= g <= 2.2:
            bad.append("verdict %r with growth exponent %r, want violated "
                       "in [1.8, 2.2]" % (info.get("verdict"), g))
        grow = math.exp(GAUSS_EPS)
        for r in rows:
            tau = r["tau"]
            # max(0, x) <= eps B(x / eps) <= max(0, x + eps) for the smoothed
            # cap, so lhs sits between the truncated sums at tau and tau e^eps
            lo, hi = self._direct(tau), self._direct(tau * grow)
            if not lo * (1 - 1e-10) <= r["lhs"] <= hi * (1 + 1e-10):
                bad.append("lhs %r at tau %r outside direct sums [%r, %r]"
                           % (r["lhs"], tau, lo, hi))
            # the charge of |z| is ds on radii, and int_0^tau ln(tau/s) ds = tau
            slack = r["rhs_budget"] + 1e-12 * tau
            if not tau - slack <= r["rhs"] <= tau * grow + slack:
                bad.append("rhs %r at tau %r outside [tau, tau e^eps]"
                           % (r["rhs"], tau))

    def _sufficiency(self, info, rows, bad):
        # no certificate may stand next to a violated margin
        if info.get("certified"):
            bad.append("certified next to a violated margin")

