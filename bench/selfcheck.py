"""Fast self-check of the benchmark harness (not part of the test suite).

    python3 bench/selfcheck.py

Runs every workload of BENCHMARK.json on a tiny panel with one sequence per
worker, untraced and traced, and verifies that:

* the last output line has exactly the keys the benchmark contract names,
  every operation succeeded and ``correct`` is true;
* every end-to-end metric, including the table-only ones, is printed;
* every end-to-end (untraced) or per-layer (traced) metric is emitted with
  the unit BENCHMARK.json gives it, and nothing else;
* every output check of the workload ran;
* layers.json documents every workload and assigns every per-layer metric
  to exactly one layer;
* in a directory holding only BENCHMARK.json and the benchmark, the command
  exits nonzero without printing a result.

Exits 0 when all hold and prints each failure otherwise.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

LAYERS = ("losses", "network", "model", "trainer", "selection", "paneldata", "metrics",
          "pipeline", "cli", "trace")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def expected_checks(name: str, trace: int) -> set:
    fit = workloads.WORKLOADS[name].fit_command[0]
    checks = {f"{command}.{kind}" for command in ("ingest", fit, "predict", "evaluate")
              for kind in ("exit", "stdout_json")}
    checks |= {"artifact.strict_json", "report.strict_json", "predictions.full_grid",
               "test_mape.oracle_bound"}
    if fit == "grid-search":
        checks |= {"grid.table", "grid.selected_is_argmin_bic"}
        checks |= {f"grid.point{i}" for i in range(4)}
    if trace:
        checks.add("trace.counts_repeat")
    return checks


def invoke(cwd, *args):
    command = [sys.executable, os.path.join("bench", "run.py"), *args]
    return subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)


def check_run(bench: dict, name: str, trace: int) -> list:
    proc = invoke(ROOT, "--workload", name, "--seed", "0", "--seconds", "1",
               "--trace", str(trace), "--tiny")
    where = f"{name} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-1000:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    if emitted != declared:
        missing = sorted(set(declared) - set(emitted))
        extra = sorted(set(emitted) - set(declared))
        wrong = sorted(k for k in set(declared) & set(emitted) if declared[k] != emitted[k])
        problems.append(f"{where}: metrics missing {missing}, extra {extra}, "
                        f"wrong unit {wrong}")
    for metric in result["metrics"].values():
        if not isinstance(metric["value"], (int, float)):
            problems.append(f"{where}: non-numeric value {metric}")
    ran = next((ln for ln in lines if ln.startswith("checks run: ")), "checks run: ")
    ran = set(ran[len("checks run: "):].split(", "))
    missing = expected_checks(name, trace) - ran
    if missing:
        problems.append(f"{where}: checks that did not run: {sorted(missing)}")
    if not trace:
        printed = {ln.split()[0] for ln in lines if ln and not ln.startswith("{")}
        missing = sorted(set(run.END_TO_END_UNITS) - printed)
        if missing:
            problems.append(f"{where}: end-to-end metrics not printed: {missing}")
    if not any(ln.startswith('{"environment"') for ln in lines):
        problems.append(f"{where}: no environment block")
    return problems


def check_layers(bench: dict) -> list:
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as handle:
        doc = json.load(handle)
    problems = []
    for w in bench["workloads"]:
        entry = doc["workloads"].get(w["name"])
        if entry is None or not {"why", "loads", "bypasses"} <= set(entry):
            problems.append(f"layers.json: workload {w['name']} lacks why/loads/bypasses")
            continue
        for layer in entry["loads"] + entry["bypasses"]:
            if layer not in LAYERS:
                problems.append(f"layers.json: {w['name']} names unknown layer {layer}")
    owners = {}
    for layer, entry in doc["layer_map"].items():
        if layer not in LAYERS:
            problems.append(f"layers.json: unknown layer {layer}")
        for metric in entry["metrics"]:
            owners.setdefault(metric, []).append(layer)
        for target in entry.get("moves", {}):
            if target not in run.END_TO_END_UNITS:
                problems.append(f"layers.json: {layer} moves unknown metric {target}")
    for metric in (m["name"] for m in bench["per_layer"]):
        if len(owners.get(metric, [])) != 1:
            problems.append(f"layers.json: {metric} belongs to {owners.get(metric, [])}")
    return problems


def check_without_program(bench: dict) -> list:
    """The benchmark alone, without the package's sources, must refuse to run."""
    bare = os.path.join(ROOT, ".bench_work", "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in bench["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        name = bench["workloads"][0]["name"]
        proc = invoke(bare, "--workload", name, "--seed", "0", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".bench_work"))
        except OSError:
            pass
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["bare directory: the benchmark ran without the program"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    problems = check_layers(bench) + check_without_program(bench)
    for w in bench["workloads"]:
        for trace in (0, 1):
            problems += check_run(bench, w["name"], trace)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
