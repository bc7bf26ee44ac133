"""The benchmark's tracer hooks still find every attribute they wrap.

``bench/tracer.py`` rebinds module attributes of the package by name, so a
refactor that renames one breaks the traced benchmark; this test makes it
break tier-1 first.
"""

import importlib.util
from pathlib import Path

import psqrnn
from conftest import make_panel
from psqrnn.losses import TauGrid
from psqrnn.model import ModelKind, PenaltyConfig
from psqrnn.trainer import TrainConfig

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_a_fit_and_unwraps(rng):
    tracer_module = load_tracer()
    modules = [psqrnn.losses, psqrnn.network, psqrnn.model, psqrnn.trainer,
               psqrnn.selection, psqrnn.pipeline, psqrnn.paneldata, psqrnn.metrics]
    before = [dict(vars(m)) for m in modules]
    tracer = tracer_module.Tracer("t")
    tracer_module.install(tracer, psqrnn)
    try:
        ds = make_panel(rng.standard_normal((2, 6)), z=rng.standard_normal((2, 6, 1)))
        psqrnn.trainer.fit(ds, ModelKind.LINEAR, TauGrid.single(0.5), PenaltyConfig(), None,
                           TrainConfig(restarts=1, max_iters_per_stage=3))
        counts = tracer.counts
        assert counts["trainer.nfev"] > 0
        assert counts["trainer.nfev"] == counts["trainer.evaluations"]
        assert tracer.totals()["trainer.fit"][0] == 1
    finally:
        tracer.unwrap_all()
    for module, attrs in zip(modules, before):
        assert all(getattr(module, name) is value for name, value in attrs.items())
