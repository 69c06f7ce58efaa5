"""Every name the benchmark tracer patches, and every exported name, exists.

``perfbench/tracer.py`` looks vpmix functions up by name, so deleting or
renaming one would silently drop its spans from ``perfbench/run.py --trace 1``.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import vpmix

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_targets():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def vpmix_modules():
    return [importlib.import_module(f"vpmix.{info.name}")
            for info in pkgutil.iter_modules(vpmix.__path__)]


@pytest.mark.parametrize("module, attr", [t[:2] for t in tracer_targets()])
def test_tracer_targets_resolve(module, attr):
    assert module.startswith("vpmix.")
    assert callable(getattr(importlib.import_module(module), attr, None))


def test_every_module_export_resolves():
    modules = vpmix_modules()
    assert {m.__name__ for m in modules} >= {"vpmix.cli", "vpmix.spectrum", "vpmix.dynamics"}
    missing = [f"{m.__name__}.{name}" for m in modules
               for name in getattr(m, "__all__", ()) if not hasattr(m, name)]
    assert missing == []
