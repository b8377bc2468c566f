"""The package's shape: a namespace that imports on first use, and frozen
record classes that behave as the dataclasses they replace."""

import copy
import dataclasses
import importlib
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zerocert
from zerocert._record import Record, ValueRecord
from zerocert.construct import ProductRepresentation, SufficiencyReport
from zerocert.criterion import (Lemma1Constants, M0Report, MarginCurve,
                                MarginSample)
from zerocert.jensen import CirclePart, JensenMeasure, JensenPotential, PJReport
from zerocert.majorants import (DSubharmonicMajorant, SubharmonicModel,
                                make_radial_power)
from zerocert.means import (DiskFractionProfile, HatRadius, MeanChainReport,
                            PlanePowerProfile)
from zerocert.measures import Region, RieszCharge, ZeroDistribution
from zerocert.scenario import Scenario
from zerocert.testfam import SmoothCappedLogFamily, TruncatedLogFamily


def _zerocert_classes():
    for info in pkgutil.iter_modules(zerocert.__path__):
        module = importlib.import_module("zerocert." + info.name)
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                yield obj


def test_import_resolves_names_on_first_use():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    code = (
        "import sys\n"
        "import zerocert\n"
        "loaded = [m for m in sys.modules if m.startswith('zerocert.')]\n"
        "assert loaded == [], loaded\n"
        "missing = [n for n in zerocert.__all__ if not hasattr(zerocert, n)]\n"
        "assert missing == [], missing\n"
        "assert set(zerocert.__all__) <= set(dir(zerocert))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_namespace_names_are_the_modules_own():
    for name in zerocert.__all__:
        module = importlib.import_module("zerocert." + zerocert._HOME[name])
        assert getattr(zerocert, name) is getattr(module, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        zerocert.no_such_name


def test_only_the_replaced_records_stay_dataclasses():
    # a dataclass declaration generates and compiles code on every import;
    # these three are copied with dataclasses.replace
    kept = {cls.__name__ for cls in _zerocert_classes()
            if dataclasses.is_dataclass(cls)}
    assert kept == {"RadialDensity", "TestPotential", "PulledBackTest"}


# ---------------------------------------------------------------------------
# record parity


_MODEL = make_radial_power(1.0, 1.0)
_ZEROS = ZeroDistribution.from_points([1.0, 2.0j])


class _Fresh:
    """A default factory's value: a new object for each record, which
    passes ``check``."""

    def __init__(self, check):
        self.check = check


def _fresh_empty(dtype=float):
    return _Fresh(lambda v: isinstance(v, np.ndarray) and v.shape == (0,)
                  and v.dtype == np.dtype(dtype))


_ZERO_MODEL = _Fresh(lambda v: isinstance(v, SubharmonicModel)
                     and v.kind == "zero")
_NO_TOLERANCES = _Fresh(lambda v: v == {})


# class, compares by value, required (field, value) pairs in order, then
# the defaulted fields with their defaults
_RECORDS = [
    (Region, True, [("center", 1j), ("radius", 2.0)], []),
    (RieszCharge, False, [],
     [("atom_points", _fresh_empty(complex)),
      ("atom_masses", _fresh_empty()), ("radial", ())]),
    (PlanePowerProfile, True, [], [("power", 1.0)]),
    (DiskFractionProfile, True, [("fraction", 0.5)],
     [("center", 0j), ("R", 1.0)]),
    (HatRadius, True, [("value", 1.0), ("certified_upper", 1.5)], []),
    (MeanChainReport, True, [("rows", ()), ("ok", True),
                             ("max_violation", 0.0), ("slack", 1e-8)], []),
    (MarginSample, True, [("tau", 1.0), ("lhs", 2.0), ("rhs", 3.0),
                          ("margin", -1.0), ("rhs_budget", 1e-12)],
     [("note", "")]),
    (MarginCurve, False, [("tau", np.array([1.0])), ("lhs", np.array([2.0])),
                          ("rhs", np.array([3.0])),
                          ("margin", np.array([-1.0])),
                          ("rhs_budget", np.array([1e-12])),
                          ("note", np.array([""])),
                          ("verdict", "consistent"),
                          ("growth_exponent", None), ("fit_r2", None),
                          ("budget", 1e-9), ("details", {"kept": 1})], []),
    (M0Report, False, [("c_estimate", 0.5), ("bounded", True),
                       ("flagged", ()), ("shell_sups", (0.5,)),
                       ("power", 1.0), ("z", np.array([1j])),
                       ("shell", np.array([0])),
                       ("deviation", np.array([0.5])),
                       ("budget", np.array([0.0]))], []),
    (Lemma1Constants, True, [("c_test", 1.0), ("inf_green", 0.7),
                             ("c_majorant", 1.0), ("parts", {"pole-term": 0.0}),
                             ("budget", 0.0)], []),
    (CirclePart, True, [("radius", 2.0), ("weight", 1.0)], []),
    (JensenMeasure, True, [("pole", 0.5j), ("parts", (CirclePart(1.0, 1.0),))],
     [("pole_mass", 0.0)]),
    (JensenPotential, False, [("pole", 0j), ("radial_profile", abs),
                              ("parts", (CirclePart(1.0, 1.0),)),
                              ("pole_coefficient", 1.0)], []),
    (PJReport, True, [("u_pole", 0.0), ("mean_term", 1.0),
                      ("charge_term", 1.0), ("residual", 0.0),
                      ("budget", 1e-12)], []),
    (SubharmonicModel, False, [("kind", "k"), ("params", {}), ("eval", abs),
                               ("riesz", _MODEL.riesz)],
     [("singular_points", ()), ("exact_circle_mean", None)]),
    (DSubharmonicMajorant, False, [("up", _MODEL)], [("low", _ZERO_MODEL)]),
    (ProductRepresentation, False,
     [("genus", 1), ("points", np.array([2.0 + 0j])),
      ("mults", np.array([1.0])), ("origin_mult", 0),
      ("cutoff_radius", 3.0), ("tail_sum_bound", 0.1)], [("guard", 1e-12)]),
    (SufficiencyReport, False,
     [("certified", False), ("reason", "margin-violated"),
      ("margin_verdict", "violated"), ("genus", -1), ("retained", 0),
      ("checked", 0), ("violations", 0), ("skipped_guard", 0),
      ("max_excess", math.nan), ("tail_budget_max", math.nan)],
     [("far_zeros", 0), ("far_terms", 0), ("z", _fresh_empty(complex)),
      ("log_abs", _fresh_empty()), ("tail", _fresh_empty()),
      ("bound", _fresh_empty()), ("excess", _fresh_empty()),
      ("ok", _fresh_empty(bool))]),
    (Scenario, True, [("label", "s"), ("zeros", _ZEROS),
                      ("majorant", DSubharmonicMajorant(_MODEL)),
                      ("profile", None), ("family", None),
                      ("sufficiency_grid", None), ("m0_grid", None),
                      ("m0_power", None), ("lemma1", None)],
     [("tolerances", _NO_TOLERANCES), ("sufficiency_spec", None)]),
    (TruncatedLogFamily, True, [],
     [("t_min", 0.5), ("t_max", 200.0), ("ratio", 2.0 ** 0.25)]),
    (SmoothCappedLogFamily, True, [],
     [("t_min", 0.5), ("t_max", 200.0), ("ratio", 2.0 ** 0.25),
      ("eps", 0.25)]),
]

_IDS = [row[0].__name__ for row in _RECORDS]

# records whose own __init__ converts or checks its arguments
_CONVERTING = {RieszCharge, JensenMeasure, PlanePowerProfile,
               DiskFractionProfile}
# records whose __init__ fills in a fresh default after Record.__init__
_FRESH = {SufficiencyReport, DSubharmonicMajorant, Scenario}
_SHARED = [row for row in _RECORDS if row[0] not in _CONVERTING]
_DECLARED = [row for row in _RECORDS if "_defaults" in vars(row[0])]


def test_every_record_class_is_covered():
    records = {cls for cls in _zerocert_classes()
               if issubclass(cls, Record) and cls not in (Record, ValueRecord)}
    assert records == {row[0] for row in _RECORDS}


@pytest.mark.parametrize("cls, by_value, required, defaults", _RECORDS,
                         ids=_IDS)
def test_record_construction(cls, by_value, required, defaults):
    names = [n for n, _ in required] + [n for n, _ in defaults]
    assert cls.__slots__ == tuple(names)
    values = [v for _, v in required]
    by_position = cls(*values)
    by_keyword = cls(**dict(required))
    for name, value in required:
        assert getattr(by_position, name) is value
        assert getattr(by_keyword, name) is value
    for name, want in defaults:
        got = getattr(by_position, name)
        if isinstance(want, _Fresh):
            assert want.check(got)
            assert got is not getattr(by_keyword, name)
        else:
            assert got == want and type(got) is type(want)
    assert not hasattr(by_position, "__dict__")


def test_only_the_named_records_write_an_init():
    own = {row[0] for row in _RECORDS if "__init__" in vars(row[0])}
    assert own == _CONVERTING | _FRESH


@pytest.mark.parametrize("cls, by_value, required, defaults", _SHARED,
                         ids=[row[0].__name__ for row in _SHARED])
def test_shared_constructor_rejects_bad_fields(cls, by_value, required,
                                               defaults):
    values = [v for _, v in required]
    if required:
        with pytest.raises(TypeError, match="missing field %r"
                           % required[-1][0]):
            cls(*values[:-1])
    with pytest.raises(TypeError, match="%r twice" % cls.__slots__[0]):
        cls(*(values or [0]), **{cls.__slots__[0]: 0})
    with pytest.raises(TypeError, match="'not_a_field' but has no such"):
        cls(not_a_field=0, **dict(required))
    with pytest.raises(TypeError, match="takes %d fields but %d were given"
                       % (len(cls.__slots__), len(cls.__slots__) + 1)):
        cls(*[0] * (len(cls.__slots__) + 1))


@pytest.mark.parametrize("cls, by_value, required, defaults", _DECLARED,
                         ids=[row[0].__name__ for row in _DECLARED])
def test_record_defaults_are_a_hashable_suffix(cls, by_value, required,
                                                defaults):
    # as in a dataclass, only trailing fields have defaults; a hashable
    # default cannot be a mutable object that every record would share
    names = cls.__slots__
    assert set(cls._defaults) == set(names[len(names) - len(cls._defaults):])
    for value in cls._defaults.values():
        hash(value)


@pytest.mark.parametrize("cls, by_value, required, defaults", _RECORDS,
                         ids=_IDS)
def test_record_is_frozen(cls, by_value, required, defaults):
    rec = cls(**dict(required))
    for name in cls.__slots__ + ("not_a_field",):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rec, name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(rec, name)


@pytest.mark.parametrize("cls, by_value, required, defaults", _RECORDS,
                         ids=_IDS)
def test_record_equality_and_hash(cls, by_value, required, defaults):
    a, b = cls(**dict(required)), cls(**dict(required))
    assert a == a
    assert a != object()
    if not by_value:
        assert a != b
        assert hash(a) == object.__hash__(a)
        return
    assert a == b
    fields = tuple(getattr(a, n) for n in cls.__slots__)
    try:
        want = hash(fields)
    except TypeError:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == want
    # a record of another class with the same fields is not equal
    twin = type("Twin", (ValueRecord,),
                {"__slots__": cls.__slots__, "__init__": cls.__init__,
                 "_defaults": cls._defaults})
    assert a != twin(**dict(required))


@pytest.mark.parametrize("cls, by_value, required, defaults", _RECORDS,
                         ids=_IDS)
def test_record_repr_and_copy(cls, by_value, required, defaults):
    rec = cls(**dict(required))
    text = repr(rec)
    assert text.startswith(cls.__qualname__ + "(")
    pos = 0
    for name in cls.__slots__:
        pos = text.index("%s=%r" % (name, getattr(rec, name)), pos)
    dup = copy.copy(rec)
    assert type(dup) is cls
    for name in cls.__slots__:
        assert getattr(dup, name) is getattr(rec, name)


def test_record_init_conversions():
    charge = RieszCharge([1.0, 2j], [1, 2])
    assert charge.atom_points.dtype == complex
    assert charge.atom_masses.dtype == float
    assert charge.radial == ()
    with pytest.raises(zerocert.DomainError):
        RieszCharge([1.0], [1.0, 2.0])
    mu = JensenMeasure(pole=1, parts=[CirclePart(1.0, 0.5)], pole_mass=0.5)
    assert type(mu.pole) is complex and mu.parts == (CirclePart(1.0, 0.5),)
    with pytest.raises(zerocert.DomainError):
        JensenMeasure(0j, (CirclePart(1.0, 0.5),))
    with pytest.raises(zerocert.PreconditionViolation):
        PlanePowerProfile(-1.0)
    with pytest.raises(zerocert.PreconditionViolation):
        DiskFractionProfile(1.5)
