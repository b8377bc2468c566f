"""Scenario files: one JSON document describing a certification run.

A scenario names the candidate zeros, the majorant, and optional blocks
for the radius profile, sweep family, probe grids, tolerances, and the
disk-regime constants.  Validation reports every schema violation with
a JSON-pointer path before any numerics start.
"""

from __future__ import annotations

import json
import math
import numbers
import random

import numpy as np

from ._record import Record, ValueRecord, setfield
from .criterion import m0_dyadic_grid, m0_shell_count
from .errors import SchemaError
from .majorants import (DSubharmonicMajorant, make_log_abs_poly,
                        make_log_poly_growth, make_radial_power,
                        make_zero_model)
from .means import DiskFractionProfile, PlanePowerProfile
from .measures import Region, ZeroDistribution
from .testfam import SmoothCappedLogFamily, TruncatedLogFamily

_COMPLEX = {
    "type": "object",
    "properties": {"re": {"type": "number"}, "im": {"type": "number"}},
    "required": ["re"],
    "additionalProperties": False,
}

_MODEL = {
    "type": "object",
    "oneOf": [
        {
            "properties": {
                "kind": {"const": "radial-power"},
                "sigma": {"type": "number", "exclusiveMinimum": 0},
                "rho": {"type": "number", "exclusiveMinimum": 0},
            },
            "required": ["kind", "rho"],
            "additionalProperties": False,
        },
        {
            "properties": {
                "kind": {"const": "log-abs-poly"},
                "coeffs": {
                    "type": "array",
                    "items": {"$ref": "#/$defs/complex"},
                    "minItems": 1,
                },
            },
            "required": ["kind", "coeffs"],
            "additionalProperties": False,
        },
        {
            "properties": {"kind": {"const": "log-poly-growth"}},
            "required": ["kind"],
            "additionalProperties": False,
        },
        {
            "properties": {"kind": {"const": "zero"}},
            "required": ["kind"],
            "additionalProperties": False,
        },
    ],
}

SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "$defs": {"complex": _COMPLEX, "model": _MODEL},
    "properties": {
        "label": {"type": "string"},
        "notes": {"type": "string"},
        "zeros": {
            "type": "object",
            "oneOf": [
                {
                    "properties": {
                        "points": {
                            "type": "array",
                            "items": {
                                "type": "object",
                                "properties": {
                                    "re": {"type": "number"},
                                    "im": {"type": "number"},
                                    "mult": {"type": "integer", "minimum": 1},
                                },
                                "required": ["re"],
                                "additionalProperties": False,
                            },
                        },
                    },
                    "required": ["points"],
                    "additionalProperties": False,
                },
                {
                    "properties": {
                        "generator": {
                            "type": "object",
                            "properties": {
                                "kind": {"enum": ["real-multiples",
                                                  "gaussian-integers"]},
                                "step": {"type": "number",
                                         "exclusiveMinimum": 0},
                                "scale": {"type": "number",
                                          "exclusiveMinimum": 0},
                                "max_radius": {"type": ["number", "null"],
                                               "exclusiveMinimum": 0},
                            },
                            "required": ["kind"],
                            "additionalProperties": False,
                        },
                    },
                    "required": ["generator"],
                    "additionalProperties": False,
                },
            ],
        },
        "majorant": {
            "type": "object",
            "properties": {
                "up": {"$ref": "#/$defs/model"},
                "low": {"$ref": "#/$defs/model"},
            },
            "required": ["up"],
            "additionalProperties": False,
        },
        "profile": {
            "type": "object",
            "oneOf": [
                {
                    "properties": {
                        "kind": {"const": "plane-power"},
                        "power": {"type": "number", "minimum": 0},
                    },
                    "required": ["kind", "power"],
                    "additionalProperties": False,
                },
                {
                    "properties": {
                        "kind": {"const": "disk-fraction"},
                        "fraction": {"type": "number",
                                     "exclusiveMinimum": 0,
                                     "exclusiveMaximum": 1},
                        "center": {"$ref": "#/$defs/complex"},
                        "R": {"type": "number", "exclusiveMinimum": 0},
                    },
                    "required": ["kind", "fraction", "R"],
                    "additionalProperties": False,
                },
            ],
        },
        "family": {
            "type": "object",
            "properties": {
                "kind": {"enum": ["truncated-log", "smooth-capped-log"]},
                "t_min": {"type": "number", "exclusiveMinimum": 0},
                "t_max": {"type": "number", "exclusiveMinimum": 0},
                "ratio": {"type": "number", "exclusiveMinimum": 1},
                "eps": {"type": "number", "exclusiveMinimum": 0},
            },
            "required": ["kind", "t_max"],
            "additionalProperties": False,
        },
        "grids": {
            "type": "object",
            "properties": {
                "sufficiency": {
                    "type": "object",
                    "oneOf": [
                        {
                            "properties": {
                                "kind": {"const": "random-disk"},
                                "radius": {"type": "number",
                                           "exclusiveMinimum": 0},
                                "count": {"type": "integer", "minimum": 1,
                                          "maximum": 1000000},
                                "seed": {"type": "integer", "minimum": 0},
                                "center": {"$ref": "#/$defs/complex"},
                            },
                            "required": ["kind", "radius", "count"],
                            "additionalProperties": False,
                        },
                        {
                            "properties": {
                                "kind": {"const": "explicit"},
                                "points": {
                                    "type": "array",
                                    "items": {"$ref": "#/$defs/complex"},
                                    "minItems": 1,
                                },
                            },
                            "required": ["kind", "points"],
                            "additionalProperties": False,
                        },
                    ],
                },
                "m0": {
                    "type": "object",
                    "properties": {
                        "r_max": {"type": "number", "exclusiveMinimum": 0,
                                  "maximum": 1e15},
                        "per_shell": {"type": "integer", "minimum": 1,
                                      "maximum": 1000000},
                        "power": {"type": "number", "minimum": 0},
                    },
                    "required": ["r_max"],
                    "additionalProperties": False,
                },
            },
            "additionalProperties": False,
        },
        "tolerances": {
            "type": "object",
            "properties": {
                "default": {"type": "number", "exclusiveMinimum": 0},
                "margin": {"type": "number", "exclusiveMinimum": 0},
                "m0": {"type": "number", "exclusiveMinimum": 0},
                "sufficiency": {"type": "number", "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
        "lemma1": {
            "type": "object",
            "properties": {
                "d_tilde": {
                    "type": "object",
                    "properties": {
                        "center": {"$ref": "#/$defs/complex"},
                        "radius": {"type": "number", "exclusiveMinimum": 0},
                    },
                    "required": ["radius"],
                    "additionalProperties": False,
                },
                "s": {
                    "type": "object",
                    "properties": {
                        "center": {"$ref": "#/$defs/complex"},
                        "radius": {"type": "number", "exclusiveMinimum": 0},
                    },
                    "required": ["radius"],
                    "additionalProperties": False,
                },
                "z0": {"$ref": "#/$defs/complex"},
                "b": {"type": "number", "exclusiveMinimum": 0},
            },
            "required": ["d_tilde", "s", "b"],
            "additionalProperties": False,
        },
    },
    "required": ["zeros", "majorant"],
    "additionalProperties": False,
}


def _cx(obj, default=0j):
    if obj is None:
        return default
    return complex(obj.get("re", 0.0), obj.get("im", 0.0))


def _given(blk, *keys):
    return {key: blk[key] for key in keys if key in blk}


def _make_model(blk):
    if blk is None:
        return make_zero_model()
    kind = blk["kind"]
    if kind == "radial-power":
        return make_radial_power(rho=blk["rho"], **_given(blk, "sigma"))
    if kind == "log-abs-poly":
        coeffs = [_cx(c) for c in blk["coeffs"]]
        return make_log_abs_poly(coeffs=coeffs)
    if kind == "log-poly-growth":
        return make_log_poly_growth()
    if kind == "zero":
        return make_zero_model()
    raise SchemaError(["/majorant: unknown model kind %r" % kind])


def _make_zeros(blk):
    if "points" in blk:
        pts = blk["points"]
        return ZeroDistribution.from_points(
            [complex(p["re"], p.get("im", 0.0)) for p in pts],
            [int(p.get("mult", 1)) for p in pts])
    gen = blk["generator"]
    if gen["kind"] == "real-multiples":
        field, other, make = "step", "scale", ZeroDistribution.real_multiples
    else:
        field, other = "scale", "step"
        make = ZeroDistribution.gaussian_integers
    # the schema admits both fields on either kind
    if other in gen:
        raise SchemaError(["/zeros/generator: %r is not a field of %s"
                           % (other, gen["kind"])])
    return make(**_given(gen, field, "max_radius"))


def _make_profile(blk):
    if blk is None:
        return None
    if blk["kind"] == "plane-power":
        return PlanePowerProfile(blk["power"])
    return DiskFractionProfile(blk["fraction"], _cx(blk.get("center")),
                               blk["R"])


def _make_family(blk, tau_max=None):
    if blk is None:
        return None
    given = _given(blk, "t_min", "ratio")
    given["t_max"] = float(tau_max) if tau_max is not None else blk["t_max"]
    if blk["kind"] == "truncated-log":
        return TruncatedLogFamily(**given)
    return SmoothCappedLogFamily(**given, **_given(blk, "eps"))


def describe_sufficiency_grid(blk, seed=None):
    """The grid a sufficiency block asks for, with ``seed`` (--seed) in
    place of the block's own: kind and count, and for a random disk its
    radius, center and seed."""
    if blk["kind"] == "explicit":
        return {"kind": "explicit", "count": len(blk["points"])}
    # the schema admits integral floats such as 6.0 as integers
    seed = int(blk.get("seed", 0) if seed is None else seed)
    if seed < 0:
        raise ValueError("random-disk seed must be >= 0, got %d" % seed)
    return {"kind": "random-disk", "count": int(blk["count"]),
            "radius": float(blk["radius"]), "center": _cx(blk.get("center")),
            "seed": seed}


def build_sufficiency_grid(blk, seed=None):
    """The probe points of a sufficiency block.  A random disk draws its
    radii, then its angles, from the stdlib Mersenne Twister
    ``random.Random(seed)``, so a seed gives the same points everywhere."""
    if blk["kind"] == "explicit":
        return np.asarray([_cx(p) for p in blk["points"]], dtype=complex)
    spec = describe_sufficiency_grid(blk, seed)
    draw = random.Random(spec["seed"]).random
    n = spec["count"]
    r = spec["radius"] * np.sqrt(np.array([draw() for _ in range(n)]))
    theta = 2.0 * math.pi * np.array([draw() for _ in range(n)])
    return spec["center"] + r * np.exp(1j * theta)


class Scenario(ValueRecord):
    """A loaded scenario; profile, family, the grids, m0_power and lemma1
    are None where the file does not give them.  tolerances is a fresh
    dict unless given, and sufficiency_spec is describe_sufficiency_grid
    of the block the sufficiency grid came from."""

    __slots__ = ("label", "zeros", "majorant", "profile", "family",
                 "sufficiency_grid", "m0_grid", "m0_power", "lemma1",
                 "tolerances", "sufficiency_spec")
    _defaults = {"tolerances": None, "sufficiency_spec": None}

    def __init__(self, *args, **kwargs):
        Record.__init__(self, *args, **kwargs)
        if self.tolerances is None:
            setfield(self, "tolerances", {})

    def tol(self, stage):
        return self.tolerances.get(stage, self.tolerances.get("default", 1e-9))


# JSON Schema 2020-12 types; bool is neither number nor integer, and a
# float with an integral value is an integer
_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "null": lambda x: x is None,
    "number": lambda x: (isinstance(x, numbers.Number)
                         and not isinstance(x, bool)),
    "integer": lambda x: ((isinstance(x, int) and not isinstance(x, bool))
                          or (isinstance(x, float) and x.is_integer())),
}


def _is_valid(instance, schema, root):
    return next(_iter_errors(instance, schema, root, ()), None) is None


def _named_branch(instance, branches):
    """The one oneOf branch whose ``kind`` const the instance names, or
    None."""
    if not isinstance(instance, dict) or "kind" not in instance:
        return None
    named = [sub for sub in branches
             if sub.get("properties", {}).get("kind", {}).get("const")
             == instance["kind"]]
    return named[0] if len(named) == 1 else None


def _iter_errors(instance, schema, root, path):
    """Yield (path, message) for each violation of ``schema``.

    Covers the keywords SCHEMA uses, each applied only to instances of
    its type.  Keywords are visited in schema order and messages follow
    jsonschema's Draft202012Validator word for word, so both report the
    same errors in the same order.  const and enum values are strings
    here, for which JSON equality is Python's.  One rule is the
    package's own: when no oneOf branch holds and the instance's ``kind``
    names one branch, that branch's errors are reported, as jsonschema
    lists them in the oneOf error's context, in place of the oneOf
    error, so the message names the field that failed.
    """
    for key, value in schema.items():
        if key == "$ref":
            sub = root
            for part in value[2:].split("/"):  # "#/$defs/..."
                sub = sub[part]
            yield from _iter_errors(instance, sub, root, path)
        elif key == "type":
            kinds = [value] if isinstance(value, str) else value
            if not any(_TYPES[k](instance) for k in kinds):
                yield path, "%r is not of type %s" % (
                    instance, ", ".join(repr(k) for k in kinds))
        elif key == "const":
            if instance != value:
                yield path, "%r was expected" % (value,)
        elif key == "enum":
            if instance not in value:
                yield path, "%r is not one of %r" % (instance, value)
        elif key == "oneOf":
            rest = iter(value)
            first = next((sub for sub in rest
                          if _is_valid(instance, sub, root)), None)
            if first is None:
                named = _named_branch(instance, value)
                if named is not None:
                    yield from _iter_errors(instance, named, root, path)
                else:
                    yield path, ("%r is not valid under any of the given "
                                 "schemas" % (instance,))
                continue
            more = [sub for sub in rest if _is_valid(instance, sub, root)]
            if more:
                yield path, "%r is valid under each of %s" % (
                    instance, ", ".join(repr(sub) for sub in more + [first]))
        elif isinstance(instance, dict):
            if key == "properties":
                for name, sub in value.items():
                    if name in instance:
                        yield from _iter_errors(instance[name], sub, root,
                                                path + (name,))
            elif key == "required":
                for name in value:
                    if name not in instance:
                        yield path, "%r is a required property" % (name,)
            elif key == "additionalProperties" and value is False:
                props = schema.get("properties", {})
                extras = sorted((k for k in instance if k not in props),
                                key=str)
                if extras:
                    yield path, ("Additional properties are not allowed "
                                 "(%s %s unexpected)" % (
                                     ", ".join(repr(k) for k in extras),
                                     "was" if len(extras) == 1 else "were"))
        elif isinstance(instance, list):
            if key == "items":
                for i, item in enumerate(instance):
                    yield from _iter_errors(item, value, root, path + (i,))
            elif key == "minItems" and len(instance) < value:
                yield path, "%r %s" % (instance, "should be non-empty"
                                       if value == 1 else "is too short")
        elif _TYPES["number"](instance):
            if key == "minimum" and instance < value:
                yield path, "%r is less than the minimum of %r" % (
                    instance, value)
            elif key == "maximum" and instance > value:
                yield path, "%r is greater than the maximum of %r" % (
                    instance, value)
            elif key == "exclusiveMinimum" and instance <= value:
                yield path, ("%r is less than or equal to the minimum of %r"
                             % (instance, value))
            elif key == "exclusiveMaximum" and instance >= value:
                yield path, ("%r is greater than or equal to the maximum "
                             "of %r" % (instance, value))


def validate_scenario(doc):
    """Raise SchemaError listing every violation of SCHEMA in ``doc``, as
    "/json/pointer: message" lines sorted by path."""
    errors = sorted(_iter_errors(doc, SCHEMA, SCHEMA, ()),
                    key=lambda e: e[0])
    if errors:
        raise SchemaError(["/" + "/".join(str(p) for p in path) + ": " + msg
                           for path, msg in errors])


def load_scenario(path, *, tau_max=None, seed=None):
    """Read and validate a scenario file, building the runtime objects."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(["/: not valid JSON (%s)" % exc]) from exc
    validate_scenario(doc)
    zeros = _make_zeros(doc["zeros"])
    majorant = DSubharmonicMajorant(
        up=_make_model(doc["majorant"]["up"]),
        low=_make_model(doc["majorant"].get("low")))
    profile = _make_profile(doc.get("profile"))
    family = _make_family(doc.get("family"), tau_max=tau_max)
    grids = doc.get("grids", {})
    grid_s = spec_s = None
    if "sufficiency" in grids:
        grid_s = build_sufficiency_grid(grids["sufficiency"], seed=seed)
        spec_s = describe_sufficiency_grid(grids["sufficiency"], seed=seed)
    grid_m = None
    power = None
    if "m0" in grids:
        blk = grids["m0"]
        per_shell = int(blk.get("per_shell", 8))
        # the dyadic shells m0_dyadic_grid fills, counted before any point
        # is built; the total obeys the same cap as a random-disk count
        shells = m0_shell_count(blk["r_max"])
        if shells * per_shell > 1000000:
            raise SchemaError(
                ["/grids/m0: %d shells of %d points exceed 1000000 points"
                 % (shells, per_shell)])
        grid_m = m0_dyadic_grid(blk["r_max"], per_shell)
        if "power" in blk:
            power = float(blk["power"])
        elif isinstance(profile, PlanePowerProfile):
            power = profile.power
        else:
            raise SchemaError(
                ["/grids/m0: needs a power (no plane profile to take it from)"])
    lemma1 = None
    if "lemma1" in doc:
        blk = doc["lemma1"]
        lemma1 = {
            "d_tilde": Region.disk(_cx(blk["d_tilde"].get("center")),
                                   blk["d_tilde"]["radius"]),
            "s": Region.disk(_cx(blk["s"].get("center")),
                             blk["s"]["radius"]),
            "z0": _cx(blk.get("z0")),
            "b": float(blk["b"]),
        }
    return Scenario(
        label=doc.get("label", ""), zeros=zeros, majorant=majorant,
        profile=profile, family=family, sufficiency_grid=grid_s,
        m0_grid=grid_m, m0_power=power, lemma1=lemma1,
        tolerances=dict(doc.get("tolerances", {})), sufficiency_spec=spec_s)
