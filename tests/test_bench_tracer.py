"""The benchmark's per-layer tracer (bench/tracing.py) wraps library functions
by name, so renaming or deleting one of them breaks only a traced benchmark
run unless this test catches it."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module: str, name: str):
    # "Class.method" names an operator by its short name ("MultiPoly.mul")
    owner = importlib.import_module(f"hyperforms.{module}")
    *path, attr = name.split(".")
    for part in path:
        owner = getattr(owner, part)
    return getattr(owner, attr, None) or getattr(owner, f"__{attr}__")


def test_every_traced_name_resolves():
    tracing = _load_tracing()
    names = [(module, name) for module, names in tracing.LAYERS.items() for name in names]
    originals = {key: _resolve(*key) for key in names}
    recorder = tracing.Recorder()
    try:
        recorder.install()
        for key in names:
            assert hasattr(_resolve(*key), "__wrapped__"), key
    finally:
        recorder.uninstall()
    for key, original in originals.items():
        assert _resolve(*key) == original, key
