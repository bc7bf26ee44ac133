"""psqrnn benchmark: run one workload for a while and print its metrics.

    python3 bench/run.py --workload paper-fit --seed 1 --seconds 40 --trace 0

A run starts worker processes (``worker.py``) one after another until
``--seconds`` are used. Each worker sets up once, which is what ``setup_s``
and ``peak_rss_mb`` measure, then repeats the workload's CLI sequence. An
untraced run (``--trace 0``) draws a new panel from the seed for every
sequence and reports the median of each end-to-end metric. A traced run
(``--trace 1``) alternates untraced and traced workers that all repeat the
seed's panel 0, and reports the per-layer metrics plus the tracing overhead:
the traced pipeline time minus the untraced one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
print every metric with its unit, sample count and quartiles, every output
check that ran, ``failed_ops_ratio`` and the environment block.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

#: End-to-end metric -> unit; lower is better for every one. Each is the
#: median over the run's samples: per worker process for setup_s and
#: peak_rss_mb, per sequence (one panel each) for the rest.
END_TO_END_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "train_s": "s",
    "ingest_s": "s",
    "predict_s": "s",
    "evaluate_s": "s",
    "peak_rss_mb": "MB",
    "test_mape": "fraction",
    "test_rrmse": "fraction",
    "final_objective": "loss",
}
#: Printed in the table but left out of the result: on paper-size panels these
#: commands take 10-20 ms, and their run medians followed the host's speed
#: phases with a spread of 0.36-0.40 over ten seeds, beyond any allowed bound.
TABLE_ONLY = ("predict_s", "evaluate_s")

#: Worker processes of an untraced run, so that set-up is measured several
#: times; a traced run has two pairs of untraced and traced workers.
WORKERS = 3
#: A run starts no worker predicted to end after this, so it ends within the
#: three minutes a run may take.
WALL_LIMIT_S = 150.0


def environment(workload) -> dict:
    """Versions, BLAS and cache sizes of this machine; nothing here is changed."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(base):
        for entry in sorted(os.listdir(base)):
            try:
                with open(os.path.join(base, entry, "level")) as handle:
                    level = handle.read().strip()
                with open(os.path.join(base, entry, "type")) as handle:
                    kind = handle.read().strip()
                with open(os.path.join(base, entry, "size")) as handle:
                    size = handle.read().strip()
            except OSError:
                continue
            if kind != "Instruction":
                caches[f"L{level}"] = size
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads(numpy)},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "caches": caches,
        "loss_kernel_bytes_per_eval": {
            name: w.loss_bytes_per_eval for name, w in workloads.WORKLOADS.items()
        },
        "workload": workload.name,
        "settings_changed": "none: no BLAS thread count, CPU affinity, frequency "
                            "or environment variable is set by the benchmark",
    }


def _git_sha():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def _blas_threads(numpy):
    """OpenBLAS's own thread count, read through its C API when it is present."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "lib*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def run_worker(args, workdir, first, trace, until, deadline, spans=None):
    """Start one worker and wait for it; returns (result or None, error)."""
    result_path = os.path.join(workdir, "result.json")
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--first", str(first), "--until", repr(until),
            "--trace", str(trace), "--workdir", workdir, "--result", result_path]
    if args.trace:
        argv.append("--same-panel")
    if args.tiny:
        argv.append("--tiny")
    if spans:
        argv += ["--spans", spans]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        return None, "worker timed out"
    if proc.returncode != 0:
        return None, f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    with open(result_path, encoding="utf-8") as handle:
        result = json.load(handle)
    os.remove(result_path)
    result["setup_s"] = result["ready_monotonic"] - spawned
    return result, ""


def run_workers(args, workdir):
    """Start the run's workers one after another; return them all.

    Worker i starts no sequence predicted to end after (i + 1) / slots of
    --seconds, but runs at least one. Untraced workers continue with the next
    panel. Traced runs alternate untraced and traced workers that all repeat
    panel 0, so the traced counts repeat exactly and both sides time the same
    work.
    """
    start = time.monotonic()
    deadline = start + WALL_LIMIT_S
    slots = 2 * 2 if args.trace else WORKERS
    if args.tiny:
        slots = 2 if args.trace else 1
    workers, ops = [], []
    first = 0
    for index in range(slots):
        trace = (index + index // 2) % 2 if args.trace else 0
        until = start + args.seconds * (index + 1) / slots
        spans = os.path.join(ROOT, ".bench_out", f"spans-{args.workload}.jsonl")
        result, error = run_worker(args, workdir, first, trace, until, deadline,
                                   spans if trace else None)
        ops.append({"op": f"worker{index}.exit", "ok": not error, "detail": error})
        workers.append((trace, result))
        if result:
            first += len(result["sequences"])
        now = time.monotonic()
        if now + (now - start) / len(workers) > deadline:
            break
    return workers, ops


def end_to_end_samples(workers, sequences) -> dict:
    """Samples of each end-to-end metric from the untraced side of a run."""
    samples = {
        "setup_s": [worker["setup_s"] for worker in workers],
        "peak_rss_mb": [worker["peak_rss_mb"] for worker in workers],
    }
    samples["pipeline_s"] = [s["pipeline_s"] for s in sequences]
    for name, command in (("ingest_s", "ingest"), ("predict_s", "predict"),
                          ("evaluate_s", "evaluate")):
        samples[name] = [s["seconds"][command] for s in sequences]
    samples["train_s"] = [s["seconds"].get("train", s["seconds"].get("grid-search"))
                          for s in sequences]
    for name in ("test_mape", "test_rrmse", "final_objective"):
        samples[name] = [s["quality"][name] for s in sequences]
    return samples


def summarize(samples: dict, units: dict) -> dict:
    """Median of each metric over its samples, with quartiles for the table."""
    out = {}
    for name, unit in units.items():
        values = samples[name]
        q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
        out[name] = {"value": statistics.median(values), "unit": unit,
                     "q1": q[0], "q3": q[2], "n": len(values)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken panels, one sequence per worker (harness self-check)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(ROOT, "src", "psqrnn", "__init__.py")):
        print(f"error: no psqrnn sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    began = time.monotonic()
    scratch = os.path.join(ROOT, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        workers, ops = run_workers(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass

    sides = {0: [], 1: []}
    for trace, worker in workers:
        if worker is None:
            continue
        for sequence in worker["sequences"]:
            ops.extend(sequence["ops"])
            if all(op["ok"] for op in sequence["ops"]):
                sides[trace].append((worker, sequence))
    traced = [sequence["layers"] for _, sequence in sides[1]]
    if traced:
        counts = [{name: layers[name] for name in tracing.DETERMINISTIC} for layers in traced]
        ops.append({"op": "trace.counts_repeat", "ok": all(c == counts[0] for c in counts),
                    "detail": f"{len(counts)} traced sequences of one panel"})
    failed = sum(not op["ok"] for op in ops)
    for op in ops:
        if not op["ok"]:
            print(f"FAILED {op['op']}: {op['detail']}", file=sys.stderr)
    if not sides[0] or (args.trace and not traced):
        print("error: no sequence completed on every side of the run", file=sys.stderr)
        return 1

    if args.trace:
        samples = {name: [layers[name] for layers in traced]
                   for name in tracing.PER_LAYER_UNITS if name != "trace.overhead_s"}
        for name in tracing.DETERMINISTIC:
            # Counts repeat exactly (checked above); report them as integers.
            samples[name] = samples[name][:1]
        samples["trace.overhead_s"] = [
            statistics.median(s["pipeline_s"] for _, s in sides[1])
            - statistics.median(s["pipeline_s"] for _, s in sides[0])
        ]
        metrics = summarize(samples, tracing.PER_LAYER_UNITS)
    else:
        finished = [worker for _, worker in workers if worker is not None]
        samples = end_to_end_samples(finished, [sequence for _, sequence in sides[0]])
        metrics = summarize(samples, END_TO_END_UNITS)

    sequences = len(sides[0]) + len(sides[1])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"workers {len(workers)}  sequences {sequences}  "
          f"wall {time.monotonic() - began:.1f} s")
    checks = sorted({op["op"] for op in ops if not op["op"].startswith("worker")})
    print(f"checks run: {', '.join(checks)}")
    print(f"{'failed_ops_ratio':34s} {failed / len(ops):.6g} ratio "
          f"({failed} of {len(ops)} operations)")
    converged = [s["quality"]["converged"] for side in sides.values() for _, s in side]
    print(f"{'artifact_converged':34s} {sum(converged)} of {len(converged)} fits")
    for name, m in metrics.items():
        note = "  table only" if name in TABLE_ONLY else ""
        print(f"{name:34s} {m['value']:.6g} {m['unit']}  "
              f"(median of {m['n']}; q1 {m['q1']:.6g}, q3 {m['q3']:.6g}){note}")
    print(json.dumps({"environment": environment(workloads.WORKLOADS[args.workload])},
                     sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items() if name not in TABLE_ONLY},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
