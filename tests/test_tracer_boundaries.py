"""The benchmark's tracer patches girycheck functions by module and name.

A rename in the package would only surface in a traced benchmark run; this
test resolves every boundary so that it fails here first.
"""

import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_boundary_resolves():
    tracer = load_tracer()
    missing = []
    for module, path, _, _ in tracer.BOUNDARIES:
        try:
            tracer._resolve(module, path)
        except (ImportError, AttributeError, KeyError) as exc:
            missing.append(f"{module}.{path}: {exc!r}")
    assert not missing
