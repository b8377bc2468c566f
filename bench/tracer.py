"""Spans and work counts recorded around zerocert's functions, from outside.

Tracer.install() replaces each target function by a wrapper on every
zerocert module that binds it (``from .means import hat_radius`` binds
``construct.hat_radius`` too), and on the class for methods.  A wrapper
records one span (name, start, end, parent, phase) per call and bumps
``<name>.calls``; a few also count the work their arguments or results
describe.  Spans stay in memory until dump() writes them; counts are
reported per operation (a CLI stage) so two rounds can be compared
exactly.  A target that no longer exists is named in
``missing`` with the reason, and the run goes on without it.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import importlib
import sys
import time

import numpy as np

_now = time.perf_counter


def _integrate_hook(tracer, args, kwargs):
    # count the abscissae handed to the integrand, one array per panel
    f = args[0] if args else kwargs["f"]

    def counted(x):
        tracer.counts["quadrature.integrate.points"] += x.size
        return f(x)

    if args:
        return (counted,) + tuple(args[1:]), kwargs
    return args, {**kwargs, "f": counted}


def _integrate_error(tracer, exc):
    # count each ToleranceFailure once, where it is raised, even when it
    # passes through enclosing integrate calls or is downgraded later
    if (type(exc).__name__ == "ToleranceFailure"
            and not getattr(exc, "_bench_counted", False)):
        exc._bench_counted = True
        tracer.counts["quadrature.tolerance_failures"] += 1


def _points_result(tracer, result):
    tracer.counts["measures.points_up_to.points"] += result[0].size
    return result


def _profile_result(tracer, values):
    arr = np.asarray(values)
    tracer.counts["testfam.profile.points"] += arr.size
    tracer.counts["testfam.profile.nonzero"] += int(np.count_nonzero(arr))
    return values


def _pullback_result(tracer, result):
    # the pulled-back radial profile is a closure: trace it as its own span
    return dataclasses.replace(result, radial_profile=tracer.wrap(
        "testfam.profile", result.radial_profile,
        {"result": _profile_result}))


def _sum_log_E_hook(tracer, args, kwargs):
    zflat, points = np.asarray(args[0]), np.asarray(args[1])
    tracer.counts["construct.sum_log_E.factor_evals"] += zflat.size * points.size
    if zflat.size and points.size:
        # pairs with |a| <= 2|z|: the ones a far-field expansion cannot take
        ra = np.sort(np.abs(points))
        near = np.searchsorted(ra, 2.0 * np.abs(zflat), side="right")
        tracer.counts["construct.sum_log_E.near_pairs"] += int(near.sum())
    return args, kwargs


# (span name, module, attribute, hooks, is an operation)
TARGETS = (
    ("quadrature.integrate", "zerocert.quadrature", "integrate",
     {"args": _integrate_hook, "error": _integrate_error}, False),
    ("quadrature.mean_on_circle", "zerocert.quadrature", "mean_on_circle",
     {}, False),
    ("measures.points_up_to", "zerocert.measures",
     "ZeroDistribution.points_up_to", {"result": _points_result}, False),
    ("measures.integrate_radial", "zerocert.measures",
     "RieszCharge.integrate_radial", {}, False),
    ("measures.charge_integrate", "zerocert.measures", "RieszCharge.integrate",
     {}, False),
    ("testfam.inversion_pullback", "zerocert.testfam", "inversion_pullback",
     {"result": _pullback_result}, False),
    ("criterion.margin_sweep", "zerocert.criterion", "margin_sweep", {}, False),
    ("criterion.check_m0", "zerocert.criterion", "check_m0", {}, False),
    ("criterion.lemma1_constants", "zerocert.criterion", "lemma1_constants",
     {}, False),
    ("means.hat_radius", "zerocert.means", "hat_radius", {}, False),
    ("construct.build_product", "zerocert.construct", "build_product", {},
     False),
    ("construct.sum_log_E", "zerocert.construct", "_sum_log_E",
     {"args": _sum_log_E_hook}, False),
    ("construct.guard_mask", "zerocert.construct",
     "ProductRepresentation._guard_mask", {}, False),
    ("construct.verify_sufficiency", "zerocert.construct",
     "verify_sufficiency", {}, False),
    ("scenario.load_scenario", "zerocert.scenario", "load_scenario", {},
     False),
    ("cli.necessary", "zerocert.cli", "_margin_stage", {}, True),
    ("cli.m0", "zerocert.cli", "_m0_stage", {}, True),
    ("cli.sufficiency", "zerocert.cli", "_sufficiency_stage", {}, True),
    ("cli.lemma1", "zerocert.cli", "_lemma1_stage", {}, True),
)

PHASES = ("setup", "verdict")


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        # one row per span: name id, parent index, phase, outermost, start, end
        self.spans = []
        self._stack = []
        self._depth = {}
        self.phase = 0
        self.counts = collections.Counter()
        self.op_counts = []
        self.missing = {}

    def set_phase(self, phase):
        """Start a phase; counts restart so they cover one phase only."""
        self.phase = PHASES.index(phase)
        self.counts = collections.Counter()
        self.op_counts = []

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name, fn, hooks=None, op=False):
        nid = self._name_id(name)
        calls = name + ".calls"
        pre = (hooks or {}).get("args")
        post = (hooks or {}).get("result")
        on_error = (hooks or {}).get("error")
        spans, stack, depth = self.spans, self._stack, self._depth
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[calls] += 1
            if pre is not None:
                args, kwargs = pre(tracer, args, kwargs)
            before = dict(tracer.counts) if op else None
            idx = len(spans)
            d = depth.get(nid, 0)
            row = [nid, stack[-1] if stack else -1, tracer.phase, d == 0,
                   0.0, 0.0]
            spans.append(row)
            stack.append(idx)
            depth[nid] = d + 1
            row[4] = _now()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(tracer, exc)
                raise
            finally:
                row[5] = _now()
                depth[nid] = d
                stack.pop()
                if op:
                    tracer._record_op(name, before)
            return result if post is None else post(tracer, result)

        return wrapper

    def _record_op(self, name, before):
        after = self.counts
        delta = {k: v - before.get(k, 0) for k, v in after.items()
                 if v != before.get(k, 0)}
        self.op_counts.append([name, delta])

    def install(self):
        """Wrap every target on every zerocert module that binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "zerocert" or n.startswith("zerocert.")]
        for name, modname, attr, hooks, op in TARGETS:
            try:
                module = importlib.import_module(modname)
                owner, _, method = attr.rpartition(".")
                holder = getattr(module, owner) if owner else module
                original = (holder.__dict__[method] if owner
                            else getattr(module, attr))
            except (ImportError, AttributeError, KeyError) as exc:
                self.missing[name] = "%s.%s not found (%s: %s)" % (
                    modname, attr, type(exc).__name__, exc)
                continue
            wrapped = self.wrap(name, original, hooks, op)
            if owner:
                setattr(holder, method, wrapped)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)

    def dump(self, path):
        """Write the spans recorded so far (numpy .npz)."""
        cols = list(zip(*self.spans)) or [()] * 6
        np.savez(path, names=np.asarray(self.names, dtype=str),
                 name=np.asarray(cols[0], dtype=np.int32),
                 parent=np.asarray(cols[1], dtype=np.int64),
                 phase=np.asarray(cols[2], dtype=np.int8),
                 outer=np.asarray(cols[3], dtype=bool),
                 start=np.asarray(cols[4], dtype=float),
                 end=np.asarray(cols[5], dtype=float))


def span_totals(path):
    """Per "span|phase": outermost inclusive seconds and self seconds.

    Self time is a span's duration minus the time its direct children
    cover; inclusive time counts only spans with no ancestor of the same
    name, so recursion is not counted twice.
    """
    with np.load(path) as d:
        names = [str(n) for n in d["names"]]
        name, parent, phase, outer = d["name"], d["parent"], d["phase"], d["outer"]
        dur = d["end"] - d["start"]
    child = np.zeros(dur.size)
    has = parent >= 0
    np.add.at(child, parent[has], dur[has])
    self_t = dur - child
    out = {}
    for nid, span in enumerate(names):
        for ph, phase_name in enumerate(PHASES):
            sel = (name == nid) & (phase == ph)
            if sel.any():
                out["%s|%s" % (span, phase_name)] = {
                    "s": float(dur[sel & outer].sum()),
                    "self_s": float(self_t[sel].sum()),
                }
    return out
