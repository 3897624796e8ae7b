"""The per-layer tracer of bench/tracing.py still fits the package it wraps."""

import importlib
import importlib.util
from pathlib import Path

import meanbounds

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_tracer_installs_on_every_traced_module_and_restores_them():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    # importing each traced module fails here if one is renamed or deleted
    modules = [meanbounds] + [
        importlib.import_module(f"meanbounds.{short}") for short in tracing.MODULES
    ]
    before = [dict(vars(mod)) for mod in modules]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert meanbounds.power_bound_certificate is not before[0]["power_bound_certificate"]
        meanbounds.power_bound_certificate()
        names = [span[0] for span in tracer.spans]
        assert names[0] == "series.power_bound_certificate"
        assert set(names[1:]) == {"kernels.curvature_coefficient"}
    finally:
        tracer.uninstall()
    for mod, saved in zip(modules, before):
        assert vars(mod).keys() == saved.keys(), mod.__name__
        changed = [name for name, obj in saved.items() if vars(mod)[name] is not obj]
        assert not changed, (mod.__name__, changed)
