"""The benchmark tracer's targets still exist in zerocert.

bench/tracer.py wraps zerocert functions by module and dotted attribute,
and names a target it cannot find as missing instead of failing, so a
rename would silently drop a layer from the benchmark's counts.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

from planes import truncated_log_plane
from zerocert import inversion_pullback

_TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize("module,attribute",
                         [(t[1], t[2]) for t in _targets()])
def test_tracer_target_resolves(module, attribute):
    obj = importlib.import_module(module)
    for part in attribute.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def test_pullback_profile_can_be_replaced():
    # the tracer swaps the pulled-back profile with dataclasses.replace
    spike = inversion_pullback(truncated_log_plane(2.0))
    assert "radial_profile" in {f.name for f in dataclasses.fields(spike)}
    swapped = dataclasses.replace(spike, radial_profile=abs)
    assert swapped.radial_profile is abs
