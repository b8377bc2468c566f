"""zerocert benchmark: time to verdict, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout; zerocert is imported from its
src/ directory, never from an installed copy.  The load is a closed loop:
one fresh child interpreter at a time (bench/child.py), each doing one
round (set-up, then the verdict), with ZEROCERT_THREADS and the BLAS
thread counts pinned to 1.  Rounds repeat until the next one would end
past --seconds (at least two, so determinism is checked on every run).
Every operation of a round (a CLI stage of ``zerocert all``) is checked
against closed forms, direct sums or tests/oracles.py, and its CSV must
be byte-identical to the first round's.

With --trace 0 the last stdout line reports setup_s and peak_rss_mb as
medians over rounds, and verdict_s as the mean over rounds.  With
--trace 1 rounds alternate untraced and traced; the traced ones wrap
zerocert's functions from outside (bench/tracer.py) and the last line
reports the per-layer metrics, the tracing overhead, and fails any
operation whose work counts differ between traced rounds.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, write_input  # noqa: E402

CHILD_TIMEOUT_S = 150.0

# name, unit, and how a run sums up its rounds: verdict_s is the mean,
# because the machine's speed drifts over tens of seconds, and a mean over
# the whole run damps that drift better than a median of its rounds does
END_TO_END = (("setup_s", "s", "median"), ("verdict_s", "s", "mean"),
              ("peak_rss_mb", "MB", "median"))

# per-layer metric -> (unit, source); sources:
#   ("s", span)        outermost inclusive seconds in the verdict phase
#   ("self_s", span)   self seconds in the verdict phase
#   ("count", key)     work count from the verdict phase
#   ("share", a, b)    count a over count b (0 when b is 0)
#   ("setup_s", span)  inclusive seconds in the set-up phase
#   ("child", key)     read from the child's own result
#   ("round", key)     measured by this script around the round
PER_LAYER = {
    "cli.import_s": ("s", ("child", "import_s")),
    "scenario.load_scenario.s": ("s", ("setup_s", "scenario.load_scenario")),
    "cli.necessary.s": ("s", ("s", "cli.necessary")),
    "cli.m0.s": ("s", ("s", "cli.m0")),
    "cli.sufficiency.s": ("s", ("s", "cli.sufficiency")),
    "cli.lemma1.s": ("s", ("s", "cli.lemma1")),
    "cli.output_bytes": ("bytes", ("round", "output_bytes")),
    "quadrature.integrate.calls": ("count", ("count", "quadrature.integrate.calls")),
    "quadrature.integrate.points": ("count", ("count", "quadrature.integrate.points")),
    "quadrature.integrate.self_s": ("s", ("self_s", "quadrature.integrate")),
    "quadrature.mean_on_circle.calls": ("count", ("count", "quadrature.mean_on_circle.calls")),
    "quadrature.mean_on_circle.s": ("s", ("s", "quadrature.mean_on_circle")),
    "quadrature.tolerance_failures": ("count", ("count", "quadrature.tolerance_failures")),
    "measures.points_up_to.points": ("count", ("count", "measures.points_up_to.points")),
    "measures.points_up_to.s": ("s", ("s", "measures.points_up_to")),
    "measures.integrate_radial.calls": ("count", ("count", "measures.integrate_radial.calls")),
    "measures.integrate_radial.s": ("s", ("s", "measures.integrate_radial")),
    "measures.charge_integrate.s": ("s", ("s", "measures.charge_integrate")),
    "testfam.profile.points": ("count", ("count", "testfam.profile.points")),
    "testfam.profile.s": ("s", ("s", "testfam.profile")),
    "testfam.profile.nonzero_share": ("ratio", ("share", "testfam.profile.nonzero", "testfam.profile.points")),
    "criterion.margin_sweep.calls": ("count", ("count", "criterion.margin_sweep.calls")),
    "criterion.margin_sweep.s": ("s", ("s", "criterion.margin_sweep")),
    "criterion.check_m0.s": ("s", ("s", "criterion.check_m0")),
    "criterion.lemma1_constants.s": ("s", ("s", "criterion.lemma1_constants")),
    "means.hat_radius.calls": ("count", ("count", "means.hat_radius.calls")),
    "means.hat_radius.s": ("s", ("s", "means.hat_radius")),
    "construct.build_product.s": ("s", ("s", "construct.build_product")),
    "construct.sum_log_E.s": ("s", ("s", "construct.sum_log_E")),
    "construct.sum_log_E.factor_evals": ("count", ("count", "construct.sum_log_E.factor_evals")),
    "construct.sum_log_E.near_share": ("ratio", ("share", "construct.sum_log_E.near_pairs", "construct.sum_log_E.factor_evals")),
    "construct.guard_mask.s": ("s", ("s", "construct.guard_mask")),
    "construct.verify_sufficiency.s": ("s", ("s", "construct.verify_sufficiency")),
    "trace.overhead_s": ("s", ("round", "overhead_s")),
}


class BenchError(Exception):
    """The benchmark cannot run here (no sources, a foreign zerocert)."""


def _load_oracles():
    path = ROOT / "tests" / "oracles.py"
    if not path.is_file():
        raise BenchError("missing %s" % path)
    spec = importlib.util.spec_from_file_location("oracles", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _child_env():
    env = dict(os.environ)
    env.update({"PYTHONPATH": str(ROOT / "src"), "ZEROCERT_THREADS": "1",
                "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"})
    return env


def _run_child(argv, timeout=CHILD_TIMEOUT_S):
    """Run one child to its end; returns (returncode, stderr tail)."""
    try:
        proc = subprocess.run(
            [sys.executable] + argv, cwd=ROOT, env=_child_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        return None, "timed out after %.0f s" % timeout
    return proc.returncode, proc.stderr.decode(errors="replace")[-2000:]


class Round:
    """One child's round: its result and the operations' problems."""

    def __init__(self, traced, result, problems, output_bytes=0):
        self.traced = traced
        self.result = result
        self.problems = problems
        self.output_bytes = output_bytes


class Bench:
    def __init__(self, workload, seed, work, oracles):
        self.workload = workload
        self.work = work
        self.input = write_input(workload, seed, work)
        self.ops = tuple(checks.STAGE_CSV)
        if workload == "sine-certify":
            self.checker = checks.SineChecker(oracles)
        else:
            self.checker = checks.GaussChecker(oracles)
        self.first_csv = {}
        self.first_counts = None

    def warm_up(self):
        # compile bytecode and fill the file cache before any timing
        rc, err = _run_child(["-c", "import zerocert.cli"])
        if rc != 0:
            raise BenchError("cannot import zerocert from %s/src: %s"
                             % (ROOT, err.strip()))

    def round(self, k, traced):
        rdir = self.work / ("round-%d" % k)
        rdir.mkdir()
        rc, err = _run_child([str(BENCH / "child.py"),
                              "--input", str(self.input), "--out", str(rdir), "--trace", str(int(traced))])
        res_path = rdir / "result.json"
        if rc != 0 or not res_path.is_file():
            msg = "child exited %r: %s" % (rc, err.strip().splitlines()[-1:]
                                           if err.strip() else "")
            return Round(traced, None, {op: [msg] for op in self.ops})
        result = json.loads(res_path.read_text())
        where = Path(result["env"]["zerocert"])
        if where != (ROOT / "src" / "zerocert").resolve():
            raise BenchError("child imported zerocert from %s" % where)
        out = rdir / "cli"
        try:
            report = json.loads((out / "report.json").read_text())
        except (OSError, ValueError):
            report = {}
        problems = self.checker.check(out, report)
        if result["rc"] != 0:
            for op in self.ops:
                problems[op].append("zerocert all exited %r" % result["rc"])
        for op, name in checks.STAGE_CSV.items():
            if (out / name).is_file():
                self._same_as_first(op, (out / name).read_bytes(), problems)
        out_bytes = sum(p.stat().st_size for p in out.iterdir())
        if traced:
            self._same_counts(result, problems)
            result["spans"] = tracer.span_totals(rdir / "spans.npz")
        shutil.rmtree(rdir)
        return Round(traced, result, problems, out_bytes)

    def _same_as_first(self, op, data, problems):
        # the same inputs must give byte-identical outputs in every round
        first = self.first_csv.setdefault(op, data)
        if data != first:
            problems[op].append("output differs from the first round's")

    def _same_counts(self, result, problems):
        # work counts are deterministic: every traced round repeats them
        counts = {span[len("cli."):]: delta
                  for span, delta in result["op_counts"]}
        if self.first_counts is None:
            self.first_counts = counts
            return
        for op in self.ops:
            if counts.get(op) != self.first_counts.get(op):
                problems[op].append(
                    "work counts differ from the first traced round's")


def _owner(metric):
    """The traced target whose wrapper feeds a per-layer metric."""
    for alias, target in (("quadrature.tolerance_failures",
                           "quadrature.integrate"),
                          ("testfam.profile.", "testfam.inversion_pullback")):
        if metric.startswith(alias):
            return target
    spans = [t[0] for t in tracer.TARGETS if metric.startswith(t[0] + ".")]
    return max(spans, key=len) if spans else None


def _median(values):
    return statistics.median(values) if values else 0.0


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def _per_layer(rounds):
    traced = [r for r in rounds if r.traced and r.result is not None]
    plain = [r for r in rounds if not r.traced and r.result is not None]
    missing = dict(traced[0].result["missing"]) if traced else {}
    counts = traced[0].result["counts"] if traced else {}
    metrics = {}
    for name, (unit, src) in PER_LAYER.items():
        kind = src[0]
        if kind in ("s", "self_s", "setup_s"):
            phase = "setup" if kind == "setup_s" else "verdict"
            field = "self_s" if kind == "self_s" else "s"
            value = _median([r.result["spans"].get(
                "%s|%s" % (src[1], phase), {}).get(field, 0.0)
                for r in traced])
        elif kind == "count":
            value = counts.get(src[1], 0)
        elif kind == "share":
            den = counts.get(src[2], 0)
            value = counts.get(src[1], 0) / den if den else 0.0
        elif kind == "child":
            value = _median([r.result[src[1]] for r in traced])
        elif src[1] == "output_bytes":
            value = traced[0].output_bytes if traced else 0
        else:
            value = (_mean([r.result["verdict_s"] for r in traced])
                     - _mean([r.result["verdict_s"] for r in plain]))
        owner = _owner(name)
        if owner in missing:
            print("missing %s: %s" % (name, missing[owner]))
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def _end_to_end(rounds):
    ok = [r.result for r in rounds if r.result is not None]
    summary = {"median": _median, "mean": _mean}
    return {name: {"value": summary[how]([res[name] for res in ok]),
                   "unit": unit}
            for name, unit, how in END_TO_END}


def _check_declared():
    # BENCHMARK.json declares the metrics this script prints
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return
    doc = json.loads(path.read_text(encoding="utf-8"))
    declared = ([m["name"] for m in doc["end_to_end"]],
                [m["name"] for m in doc["per_layer"]])
    if declared != ([m[0] for m in END_TO_END], list(PER_LAYER)):
        raise BenchError("BENCHMARK.json metrics differ from bench/run.py's")


def run(args):
    # the whole run, warm-up included, keeps within --seconds
    t_start = time.perf_counter()
    if not (ROOT / "src" / "zerocert" / "cli.py").is_file():
        raise BenchError("no zerocert sources under %s/src" % ROOT)
    _check_declared()
    oracles = _load_oracles()
    work = ROOT / ".bench_work" / ("%s-s%d-%d" % (args.workload, args.seed,
                                                  os.getpid()))
    work.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed, work, oracles)
        bench.warm_up()
        rounds = []
        min_rounds = 4 if args.trace else 2
        longest = 0.0
        while len(rounds) < min_rounds or (
                time.perf_counter() - t_start + longest <= args.seconds):
            t0 = time.perf_counter()
            rounds.append(bench.round(len(rounds),
                                      traced=bool(args.trace)
                                      and len(rounds) % 2 == 1))
            longest = max(longest, time.perf_counter() - t0)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(rounds) * len(bench.ops)
    failed = sum(1 for r in rounds for op in bench.ops if r.problems.get(op))
    for k, r in enumerate(rounds):
        for op in bench.ops:
            for msg in r.problems.get(op, [])[:5]:
                print("round %d %s: %s" % (k, op, msg), file=sys.stderr)
    first = next((r.result for r in rounds if r.result is not None), {})
    info = {"workload": args.workload, "seed": args.seed,
            "trace": args.trace, "rounds": len(rounds),
            "env": first.get("env"),
            "verdict_s": [r.result["verdict_s"] for r in rounds
                          if r.result is not None],
            "setup_s": [r.result["setup_s"] for r in rounds
                        if r.result is not None],
            "counts": next((r.result["counts"] for r in rounds
                            if r.traced and r.result is not None), None)}
    print(json.dumps(info))
    metrics = _per_layer(rounds) if args.trace else _end_to_end(rounds)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # turn SIGTERM into SystemExit, so the running child is killed and
    # waited for, and the work directory removed, on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result = run(args)
    except BenchError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
