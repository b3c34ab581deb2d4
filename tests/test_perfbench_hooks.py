"""The benchmark's tracer binds every hook to a name the package has.

``perfbench/smoke.py`` fails on an absent hook, so a refactor that drops
or renames a hooked function fails here too, before the benchmark runs.
"""

import importlib.util
from pathlib import Path

import raypose


def _tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_perfbench_hook_has_a_target():
    # Building the tracer resolves its hooks; nothing is installed.
    assert _tracing().Tracer(raypose).absent == []
