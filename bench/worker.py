"""One worker process: set up once, then run a workload's CLI sequence.

Set-up imports psqrnn from the checkout's ``src`` and writes the worker's
first panel. The CLI sequence then runs in-process through
``psqrnn.cli.main(argv)``, each command starting only after the previous one
returned (a closed loop with one client), and repeats until ``--until``, on
the next panel drawn from the seed or, with ``--same-panel``, on panel 0
every time. The worker writes its
set-up end, peak memory and, per sequence, timings, quality figures,
operation outcomes and (when traced) per-layer metrics to a JSON file for
``run.py``.

    python3 bench/worker.py --workload paper-fit --seed 1 --until T --trace 0 \
        --workdir DIR --result FILE [--first J] [--same-panel] [--tiny]
"""

import argparse
import csv
import io
import json
import math
import os
import resource
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def import_psqrnn():
    """Import the package from this checkout's sources, never from site-packages."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "psqrnn", "__init__.py")):
        raise SystemExit(f"no psqrnn sources under {src}")
    sys.path.insert(0, src)
    import psqrnn
    import psqrnn.cli
    if not os.path.abspath(psqrnn.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported psqrnn from {psqrnn.__file__}, not from {src}")
    return psqrnn


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


class Ops:
    """Every attempted operation and whether it succeeded."""

    def __init__(self):
        self.records = []

    def record(self, name: str, ok: bool, detail: str = ""):
        self.records.append({"op": name, "ok": bool(ok), "detail": detail})
        return ok

    def check(self, name: str, fn):
        """Run one output check; an exception counts as a failed check."""
        try:
            ok, detail = fn()
        except Exception as exc:  # a broken output must fail the check, not the run
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        return self.record(name, ok, detail)


def run_sequence(psqrnn, workload, seed, inputs, workdir, tracer, ops):
    """Run the four CLI commands in order.

    Returns per-command seconds, per-command stdout, the wall time of the whole
    sequence, and whether every command exited 0.
    """
    path = lambda name: os.path.join(workdir, name)  # noqa: E731
    fit_name = workload.fit_command[0]
    fit_argv = [*workload.fit_command, "--input", path("clean.csv"),
                "--output", path("fit.json"), "--scenario", str(workload.scenario),
                "--seed", str(seed)]
    if fit_name == "grid-search":
        fit_argv += ["--table-output", path("table.csv")]
    evaluate_argv = ["evaluate", "--predictions", path("pred.csv"),
                     "--actuals", path("clean.csv"), "--output", path("report.json")]
    if workload.series_output:
        evaluate_argv += ["--series-output", path("series.csv")]
    sequence = [
        ("ingest", ["ingest", "--input", inputs.raw_csv, "--output", path("clean.csv"),
                    *workloads.SCHEMA_FLAGS]),
        (fit_name, fit_argv),
        ("predict", ["predict", "--artifact", path("fit.json"), "--input", path("clean.csv"),
                     "--output", path("pred.csv")]),
        ("evaluate", evaluate_argv),
    ]
    seconds, stdout = {}, {}
    began = time.perf_counter()
    for command, argv in sequence:
        out, err = io.StringIO(), io.StringIO()
        span = tracer.span(f"cli.{command}") if tracer else nullcontext()
        start = time.perf_counter()
        with span, redirect_stdout(out), redirect_stderr(err):
            code = psqrnn.cli.main(argv)
        seconds[command] = time.perf_counter() - start
        stdout[command] = out.getvalue()
        if not ops.record(f"{command}.exit", code == 0,
                          f"exit {code}: {err.getvalue().strip()[-500:]}"):
            return seconds, stdout, time.perf_counter() - began, False
    return seconds, stdout, time.perf_counter() - began, True


def check_outputs(workload, inputs, workdir, stdout, ops) -> dict:
    """Check every output of a completed sequence; return the quality figures."""
    path = lambda name: os.path.join(workdir, name)  # noqa: E731
    quality = {}
    for command, text in stdout.items():
        ops.check(f"{command}.stdout_json", lambda text=text: (strict_json(text) is not None, ""))

    def read_json(name):
        with open(path(name), encoding="utf-8") as handle:
            return strict_json(handle.read())

    artifact = {}

    def artifact_check():
        artifact.update(read_json("fit.json"))
        fit = artifact["fits"][0]
        quality["final_objective"] = float(fit["final_objective"])
        quality["converged"] = bool(fit["converged"])
        return math.isfinite(quality["final_objective"]), ""

    ops.check("artifact.strict_json", artifact_check)

    def report_check():
        report = read_json("report.json")["report"]
        quality["test_mape"] = float(report["total_mape"])
        quality["test_rrmse"] = float(report["total_rrmse"])
        return math.isfinite(quality["test_mape"]) and math.isfinite(quality["test_rrmse"]), ""

    ops.check("report.strict_json", report_check)

    def grid_check():
        expected = {(ind, per) for ind in inputs.individuals for per in inputs.test_periods}
        seen = {}
        with open(path("pred.csv"), encoding="utf-8", newline="") as handle:
            reader = csv.reader(ln for ln in handle if not ln.startswith("#"))
            next(reader)
            for individual, period, _, value in reader:
                seen[(individual, int(period))] = float(value)
        finite = all(math.isfinite(v) for v in seen.values())
        return (set(seen) == expected and len(seen) == len(expected) and finite,
                f"{len(seen)} predicted cells, {len(expected)} test cells")

    ops.check("predictions.full_grid", grid_check)

    oracle = inputs.oracle_mape
    quality["oracle_mape"] = oracle

    def mape_check():
        limit = workload.mape_factor * oracle
        return (quality["test_mape"] <= limit,
                f"test_mape {quality['test_mape']:.5f}, limit {limit:.5f} "
                f"({workload.mape_factor} x oracle {oracle:.5f})")

    ops.check("test_mape.oracle_bound", mape_check)

    if workload.fit_command[0] == "grid-search":
        rows = []

        def table_check():
            with open(path("table.csv"), encoding="utf-8", newline="") as handle:
                rows.extend(csv.DictReader(ln for ln in handle if not ln.startswith("#")))
            return len(rows) > 0, f"{len(rows)} grid points"

        ops.check("grid.table", table_check)
        for index, row in enumerate(rows):
            ops.record(f"grid.point{index}", row["status"] == "ok", row["status"])

        def argmin_check():
            ok_rows = [r for r in rows if r["status"] == "ok"]
            best = min(ok_rows, key=lambda r: float(r["bic"]))
            selected = artifact["config"]["selected"]
            chosen = (int(best["n1"]), int(best["n2"]) if best["n2"] else None,
                      float(best["lambda1"]), float(best["lambda2"]))
            picked = (selected["n1"], selected["n2"], selected["lambda1"], selected["lambda2"])
            return (chosen == picked and float(best["bic"]) == selected["bic"],
                    f"argmin {chosen}, selected {picked}")

        ops.check("grid.selected_is_argmin_bic", argmin_check)
    return quality


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--first", type=int, default=0,
                        help="index of the first panel drawn from the seed")
    parser.add_argument("--same-panel", action="store_true",
                        help="run every sequence on panel 0")
    parser.add_argument("--until", type=float, required=True,
                        help="start no sequence predicted to end after this time.monotonic()")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", help="write the last traced sequence's spans here")
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the panel and cap iterations (harness self-check)")
    args = parser.parse_args(argv)

    psqrnn = import_psqrnn()
    workload = workloads.WORKLOADS[args.workload]
    if args.tiny:
        workload = workloads.resize(workload, n_individuals=8, n_periods=16, max_iters=3)
    panel = 0 if args.same_panel else args.first
    raw_csv = os.path.join(args.workdir, "raw.csv")
    inputs = workloads.make_inputs(psqrnn.paneldata, workload,
                                   workloads.panel_seed(args.seed, panel), raw_csv)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        tracing.install(tracer, psqrnn)
    ready = time.monotonic()

    sequences = []
    while True:
        began = time.monotonic()
        ops = Ops()
        seconds, stdout, wall, completed = run_sequence(
            psqrnn, workload, workloads.panel_seed(args.seed, panel), inputs,
            args.workdir, tracer, ops)
        quality = check_outputs(workload, inputs, args.workdir, stdout, ops) if completed else {}
        sequence = {"panel": panel, "seconds": seconds, "pipeline_s": wall,
                    "quality": quality, "ops": ops.records, "layers": None}
        if tracer is not None:
            fit_json = os.path.join(args.workdir, "fit.json")
            artifact_bytes = os.path.getsize(fit_json) if os.path.exists(fit_json) else 0
            sequence["layers"] = tracing.layer_metrics(tracer, artifact_bytes)
        sequences.append(sequence)
        now = time.monotonic()
        if not completed or args.tiny or now + (now - began) >= args.until:
            break
        if tracer is not None:
            tracer.reset()
        if not args.same_panel:
            panel += 1
            inputs = workloads.make_inputs(psqrnn.paneldata, workload,
                                           workloads.panel_seed(args.seed, panel), raw_csv)

    if tracer is not None:
        tracer.unwrap_all()
        if args.spans:
            tracer.write(args.spans)
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump({
            "ready_monotonic": ready,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "sequences": sequences,
        }, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
