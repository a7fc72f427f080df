"""The bench tracer's lookups still name functions that bandgauge exports."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_installs_and_restores_every_lookup():
    tracer = _load_tracer()
    lookups = [lookup for _, names, _ in tracer.STAGES for lookup in names]

    def current():
        out = {}
        for lookup in lookups:
            mod_name, attr = lookup.split(".")
            out[lookup] = getattr(importlib.import_module(f"bandgauge.{mod_name}"), attr)
        return out

    before = current()
    t = tracer.Tracer()
    try:
        t.install()
        wrapped = current()
        assert all(wrapped[k] is not before[k] for k in lookups)
        assert all(wrapped[k].__wrapped__ is before[k] for k in lookups)
    finally:
        t.uninstall()
    assert current() == before
