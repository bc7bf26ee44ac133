"""In-memory spans around the calls into each psqrnn layer.

The tracer never edits the package: it rebinds the module attributes that
callers look up (``psqrnn.model._evaluate``, ``psqrnn.trainer.minimize``, ...)
to timing wrappers. Because a module's functions resolve their globals through
the same attribute table, rebinding ``network.forward_batch`` also catches the
forward pass that ``network.backward_batch`` runs internally.

A span records its name, start, end, parent span and run id; its self time is
its duration minus the time covered by its child spans. Spans stay in memory
until :meth:`Tracer.write` is called at the end of the run.
"""

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager

#: L-BFGS-B's message when a stage stops on ``maxiter``.
_ITERATION_CAP_MESSAGE = "ITERATIONS REACHED LIMIT"


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        #: (span id, parent id or -1, name, start, end, self seconds)
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._names = []
        self._child_time = defaultdict(float)
        self._next_id = 0
        self._restore = []

    def reset(self):
        """Drop the recorded spans and counters; the wrappers stay installed."""
        self.spans = []
        self.counts.clear()
        self._child_time.clear()

    # -- span bookkeeping -------------------------------------------------

    def _open(self, name):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        self._names.append(name)
        return span_id, parent, time.perf_counter()

    def _close(self, span_id, parent, name, start):
        end = time.perf_counter()
        self._stack.pop()
        self._names.pop()
        duration = end - start
        self._child_time[parent] += duration
        self_s = duration - self._child_time.pop(span_id, 0.0)
        self.spans.append((span_id, parent, name, start, end, self_s))

    @contextmanager
    def span(self, name):
        span_id, parent, start = self._open(name)
        try:
            yield
        finally:
            self._close(span_id, parent, name, start)

    def inside(self, name) -> bool:
        return name in self._names

    # -- attribute wrapping -----------------------------------------------

    def wrap(self, module, attr, name=None, namer=None, after=None):
        """Rebind ``module.attr`` to a span-recording wrapper.

        ``namer(args, kwargs)`` picks the span name per call; ``after(args,
        kwargs, result)`` records counters from a call that returned.
        """
        original = getattr(module, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            span_name = namer(args, kwargs) if namer else name
            span_id, parent, start = tracer._open(span_name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span_id, parent, span_name, start)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        setattr(module, attr, wrapper)
        self._restore.append((module, attr, original))

    def unwrap_all(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    # -- results ----------------------------------------------------------

    def totals(self) -> dict:
        """name -> [calls, seconds, self seconds]."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for _, _, name, start, end, self_s in self.spans:
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += self_s
        return dict(out)

    def write(self, path):
        """Write every span as one JSON line, times relative to the first span."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        origin = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end, _ in sorted(self.spans):
                handle.write(json.dumps({
                    "run": self.run_id, "id": span_id, "parent": parent, "name": name,
                    "start": start - origin, "end": end - origin,
                }) + "\n")


def install(tracer: Tracer, psqrnn) -> None:
    """Wrap every traced layer boundary of an imported ``psqrnn`` package."""
    losses, network, model = psqrnn.losses, psqrnn.network, psqrnn.model
    trainer, selection, pipeline = psqrnn.trainer, psqrnn.selection, psqrnn.pipeline
    paneldata, metrics = psqrnn.paneldata, psqrnn.metrics
    counts = tracer.counts

    def loss_bytes(args, kwargs, result):
        counts["losses.bytes_per_eval"] = max(counts["losses.bytes_per_eval"], result.nbytes)

    tracer.wrap(losses, "smoothed_pinball", "losses.smoothed_pinball", after=loss_bytes)
    tracer.wrap(losses, "smoothed_pinball_deriv", "losses.smoothed_pinball_deriv")
    tracer.wrap(network, "forward_batch", "network.forward_batch")
    tracer.wrap(network, "backward_batch", "network.backward_batch")

    def evaluate_name(args, kwargs):
        return "model.evaluate_grad" if kwargs.get("want_grad") else "model.evaluate"

    def count_fit_evaluations(args, kwargs, result):
        if tracer.inside("trainer.fit"):
            counts["trainer.evaluations"] += 1

    tracer.wrap(model, "_evaluate", namer=evaluate_name, after=count_fit_evaluations)
    tracer.wrap(model, "pack_parameters", "model.pack_parameters")
    tracer.wrap(model, "unpack_parameters", "model.unpack_parameters")

    def stage_result(args, kwargs, result):
        counts["trainer.nit"] += int(result.nit)
        counts["trainer.nfev"] += int(result.nfev)
        if _ITERATION_CAP_MESSAGE in str(result.message):
            counts["trainer.stages_capped"] += 1

    def fit_result(args, kwargs, result):
        counts["trainer.fits_converged"] += int(bool(result.converged))

    tracer.wrap(trainer, "minimize", "trainer.stage", after=stage_result)
    tracer.wrap(trainer, "fit", "trainer.fit", after=fit_result)

    def search_result(args, kwargs, result):
        counts["selection.points"] += len(result.table)
        counts["selection.points_failed"] += sum(p.status != "ok" for p in result.table)

    tracer.wrap(selection, "grid_search", "selection.grid_search", after=search_result)
    tracer.wrap(pipeline, "prepare_scenario", "pipeline.prepare_scenario")
    tracer.wrap(pipeline, "train_model", "pipeline.train_model")

    def ingest_result(args, kwargs, result):
        counts["paneldata.ingest.bytes"] += os.path.getsize(args[0])
        counts["paneldata.ingest.rows"] += result.n_individuals * result.n_periods

    def emit_result(args, kwargs, result):
        counts["paneldata.emit.bytes"] += os.path.getsize(args[1])

    tracer.wrap(paneldata, "ingest", "paneldata.ingest", after=ingest_result)
    tracer.wrap(paneldata, "emit", "paneldata.emit", after=emit_result)
    for attr in ("impute_mean", "standardize", "materialize_split", "describe"):
        tracer.wrap(paneldata, attr, f"paneldata.{attr}")
    tracer.wrap(metrics, "report", "metrics.report")


#: Per-layer metric name -> unit, in the order the benchmark reports them.
PER_LAYER_UNITS = {}
for _name in ("losses.smoothed_pinball", "losses.smoothed_pinball_deriv",
              "network.forward_batch", "network.backward_batch", "model.evaluate",
              "model.evaluate_grad", "model.pack_parameters", "model.unpack_parameters",
              "trainer.fit", "trainer.stage", "paneldata.ingest", "paneldata.emit",
              "metrics.report"):
    PER_LAYER_UNITS[f"{_name}.calls"] = "count"
    PER_LAYER_UNITS[f"{_name}.time_s"] = "s"
    if _name in ("network.backward_batch", "model.evaluate", "model.evaluate_grad",
                 "trainer.stage"):
        PER_LAYER_UNITS[f"{_name}.self_s"] = "s"
PER_LAYER_UNITS.update({
    "losses.bytes_per_eval": "bytes",
    "trainer.nit": "count",
    "trainer.nfev": "count",
    "trainer.stages_capped": "count",
    "trainer.fits_converged": "count",
    "trainer.useful_eval_ratio": "ratio",
    "selection.grid_search.time_s": "s",
    "selection.grid_search.self_s": "s",
    "selection.points": "count",
    "selection.points_failed": "count",
    "pipeline.prepare_scenario.time_s": "s",
    "pipeline.train_model.time_s": "s",
    "paneldata.ingest.bytes": "bytes",
    "paneldata.ingest.rows_per_s": "1/s",
    "paneldata.emit.bytes": "bytes",
    "paneldata.impute_mean.time_s": "s",
    "paneldata.standardize.time_s": "s",
    "paneldata.materialize_split.time_s": "s",
    "paneldata.describe.time_s": "s",
    "cli.ingest.time_s": "s",
    "cli.train.time_s": "s",
    "cli.grid-search.time_s": "s",
    "cli.predict.time_s": "s",
    "cli.evaluate.time_s": "s",
    "cli.self_s": "s",
    "cli.artifact_bytes": "bytes",
    "trace.spans": "count",
    "trace.overhead_s": "s",
})
del _name

#: Per-layer metrics that count work; they repeat exactly for one input.
DETERMINISTIC = tuple(
    name for name, unit in PER_LAYER_UNITS.items() if unit in ("count", "bytes")
)


def layer_metrics(tracer: Tracer, artifact_bytes: int) -> dict:
    """Reduce one traced pipeline to the per-layer metrics (all but the overhead)."""
    totals = tracer.totals()
    counts = tracer.counts
    out = {}
    for name, unit in PER_LAYER_UNITS.items():
        base, _, field = name.rpartition(".")
        calls, seconds, self_s = totals.get(base, (0, 0.0, 0.0))
        if field == "calls":
            out[name] = calls
        elif field == "time_s":
            out[name] = seconds
        elif field == "self_s" and base != "cli":
            out[name] = self_s
    for name in ("losses.bytes_per_eval", "trainer.nit", "trainer.nfev", "trainer.stages_capped",
                 "trainer.fits_converged", "selection.points", "selection.points_failed",
                 "paneldata.ingest.bytes", "paneldata.emit.bytes"):
        out[name] = counts[name]
    evaluations = counts["trainer.evaluations"]
    out["trainer.useful_eval_ratio"] = (
        counts["trainer.nfev"] / evaluations if evaluations else 0.0
    )
    ingest_s = totals.get("paneldata.ingest", (0, 0.0, 0.0))[1]
    out["paneldata.ingest.rows_per_s"] = (
        counts["paneldata.ingest.rows"] / ingest_s if ingest_s else 0.0
    )
    out["cli.self_s"] = sum(
        self_s for _, _, name, _, _, self_s in tracer.spans if name.startswith("cli.")
    )
    out["cli.artifact_bytes"] = artifact_bytes
    out["trace.spans"] = len(tracer.spans)
    return out
