"""zoneplan benchmark: seeded workloads run as chains of real CLI commands.

Usage (from the repository root):

    python3 bench/run.py --workload states_long --seed 1 --seconds 60 --trace 0

One closed loop, one client: each iteration spawns one fresh worker
process (bench/worker.py) that runs the workload's commands one after
another through zoneplan.cli.main, then the next iteration starts.  The
first iteration is a warm-up: its outputs are checked and kept as the
reference that later iterations must match byte for byte, but it is
left out of the medians.  The loop repeats until --seconds is used up
(at least two iterations after the warm-up).  With --trace 0 the last
line of stdout is a JSON object with the end-to-end metrics (medians
over the iterations after the warm-up, times scaled by a host-speed
probe); with --trace 1 the warm-up runs untraced and the rest traced,
and the JSON holds the per-layer metrics.  See bench/README.md for the
metrics, the workloads and the checks.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import tracer  # noqa: E402

BLAS_THREADS = 1
MIN_ITERATIONS = 2  # measured iterations after the warm-up
RUN_LIMIT_S = 165  # no worker may outlast this many seconds after the loop starts
STATE_AGREEMENT_FLOOR = 0.97  # share of steps whose inferred state matches the truth
# The guest's single-thread speed drifts by up to ~40 % over minutes (other
# tenants of the host), and every timing of the program drifts with it.
# Before each worker the parent times a fixed loop that runs no zoneplan
# code; wall_s and setup_s are scaled by PROBE_REF_S / probe, i.e. given in
# seconds of a host on which the probe takes PROBE_REF_S.
PROBE_REF_S = 0.01
PROBE_REPS = 15

# why each workload exists: bench/README.md
WORKLOADS = {
    "states_long": {"occupants": 16, "days": 21, "plug_load": True},
    "search": {"occupants": 36, "days": 7},
}
# the search workload's surrogates: kind, train-surrogate options, GA generations
SEARCH_MODELS = (("rf", ["--set", "surrogate.rf.n_trees=5"], 2), ("mlr", [], 6))

CLI_COMMANDS = ["ingest", "infer_states", "train_surrogate", "optimize", "simulate"]
PER_LAYER = (
    [("ingest.load_plug_load.s", "s"), ("ingest.load_plug_load.rows", "count"),
     ("ingest.resample_15min.s", "s"), ("ingest.write_grid.s", "s"),
     ("ingest.load_grid.s", "s"), ("ingest.grid_csv.bytes", "bytes"),
     ("states.fit_vbgmm.calls", "count"), ("states.fit_vbgmm.s", "s"),
     ("states.fit_vbgmm.iterations", "count"),
     ("states.fit_vbgmm.s_per_iteration", "s"),
     ("states.fit_vbgmm.converged_ratio", "ratio"),
     ("states.infer_states_detailed.self_s", "s"), ("states.write_states.s", "s"),
     ("states.load_states.s", "s"),
     ("diversity.layout_diversity.s", "s"),
     ("surrogate.build_features.s", "s"), ("surrogate.build_features.calls", "count"),
     ("surrogate.targets_from_lighting.s", "s"),
     ("surrogate.fit_random_forest.s", "s"), ("surrogate.fit_random_forest.nodes", "count"),
     ("surrogate.save_model.s", "s"), ("surrogate.model_json.bytes", "bytes"),
     ("surrogate.predict_energy.calls", "count"), ("surrogate.predict_energy.s", "s"),
     ("surrogate.predict_energy.self_s", "s"),
     ("surrogate.RfModel.predict_raw.rows", "count"),
     ("surrogate.RfModel.predict_raw.s", "s"),
     ("surrogate.MlrModel.predict_rows.s", "s"),
     ("optimize.ga_optimize.self_s", "s"),
     ("optimize.crossover.calls", "count"), ("optimize.crossover.s", "s"),
     ("optimize.mutate.calls", "count"), ("optimize.mutate.s", "s"),
     ("optimize.ga.fitness_calls", "count"), ("optimize.ga.cache_hit_ratio", "ratio"),
     ("reduce.svd_decompose.s", "s"),
     ("optimize.swap_optimize.s", "s"), ("optimize.swap_optimize.iterations", "count"),
     ("optimize.swap_optimize.accepted", "count")]
    + [(f"cli.cmd_{c}.{k}", "s") for c in CLI_COMMANDS for k in ("s", "self_s")]
    + [("process.cpu_s", "s"), ("trace.wall_s", "s"), ("trace.overhead_s", "s")]
)
# counts that must repeat exactly from one traced iteration to the next
EXACT = ["ingest.load_plug_load.rows", "states.fit_vbgmm.calls",
         "states.fit_vbgmm.iterations", "surrogate.fit_random_forest.nodes",
         "surrogate.predict_energy.calls", "surrogate.build_features.calls",
         "surrogate.RfModel.predict_raw.rows", "optimize.crossover.calls",
         "optimize.mutate.calls", "optimize.ga.fitness_calls",
         "optimize.swap_optimize.iterations", "optimize.swap_optimize.accepted"]


def commands(name: str, window: list[str]):
    """(setup, measured) argv lists; command k writes to out/<k>_<command>.

    Paths are relative to the work directory, so output files (whose
    headers hash the config, paths included) do not depend on where the
    checkout lives.
    """
    states = ["--states", "in/truth_states.csv", "--zone-map", "in/zone_map.csv"]
    if name == "states_long":
        return [], [
            ["ingest", "--plug-load", "in/plug_load.csv", "--out-dir", "out/0_ingest",
             "--set", f"window.start={window[0]}", "--set", f"window.end={window[1]}"],
            ["infer-states", "--grid", "out/0_ingest/grid.csv", "--out-dir",
             "out/1_infer-states"],
        ]
    setup = []
    measured = [["optimize", "--method", "cluster", "--dims", "3", "--batch", "4", *states,
                 "--out-dir", "out/2_cluster"]]
    for k, (kind, train_options, generations) in enumerate(SEARCH_MODELS):
        model = f"out/{k}_train-{kind}/model.json"
        setup.append(["train-surrogate", *states, "--lighting", "in/lighting.csv",
                      "--kind", kind, *train_options, "--out-dir", f"out/{k}_train-{kind}"])
        ga = f"out/{3 + 2 * k}_ga-{kind}"
        measured += [
            ["optimize", "--method", "ga", *states, "--model", model,
             "--seed-layouts", "out/2_cluster",
             "--set", f"optimize.ga.generations={generations}", "--out-dir", ga],
            ["simulate", "--states", "in/truth_states.csv", "--model", model,
             "--layout", f"{ga}/layout_000.csv", "--zone-map", "in/zone_map.csv",
             "--out-dir", f"out/{4 + 2 * k}_simulate-{kind}"],
        ]
    return setup, measured


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [r for r in csv.reader(fh) if r and not r[0].startswith("#")][1:]


def check_outputs(name: str, work: Path) -> dict[int, str]:
    """Content checks on one iteration's outputs: {command index: problem}."""
    out = work / "out"
    problems: dict[int, str] = {}
    try:
        if name == "states_long":
            truth = [r[2] for r in _rows(work / "in/truth_states.csv")]
            got = [r[2] for r in _rows(out / "1_infer-states/states.csv")]
            agree = np.mean([a == b for a, b in zip(truth, got)]) if len(truth) == len(got) else 0.0
            if agree < STATE_AGREEMENT_FLOOR:
                problems[1] = f"state agreement {agree:.4f} < {STATE_AGREEMENT_FLOOR}"
        else:
            for k, (kind, _, _) in enumerate(SEARCH_MODELS):
                ga, sim = 3 + 2 * k, 4 + 2 * k
                summary = out / f"{ga}_ga-{kind}/optimize_summary.csv"
                energy = {r[0]: float(r[2]) for r in _rows(summary)}
                if not energy["0"] <= energy["existing"]:
                    problems[ga] = f"{kind} GA energy {energy['0']} > existing {energy['existing']}"
                with open(out / f"{sim}_simulate-{kind}/energy.csv", encoding="utf-8") as fh:
                    total = next(float(line.split(":", 1)[1]) for line in fh
                                 if line.startswith("# grand_total_wh:"))
                if total != energy["0"]:
                    problems[sim] = f"{kind} simulate total {total!r} != summary {energy['0']!r}"
    except (OSError, KeyError, ValueError, StopIteration) as exc:
        problems.setdefault(-1, f"unreadable output: {type(exc).__name__}: {exc}")
    return problems


def output_hashes(out: Path) -> dict[str, str]:
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file()
    }


def environment(inputs: dict) -> dict:
    import scipy

    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = (
                (idx / "size").read_text().strip())
        except OSError:
            continue
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": BLAS_THREADS,
        "inputs": inputs,
    }


def host_probe() -> float:
    """Median time of a fixed Python and small-numpy loop, like GA and forest code."""
    x = np.linspace(0.0, 1.0, 64)
    times = []
    for _ in range(PROBE_REPS):
        t = time.perf_counter()
        acc = 0.0
        for i in range(1500):
            acc += float((x * i).sum())
            acc += sum({j: j * i for j in range(10)}.values()) % 7
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def run_worker(root: Path, work: Path, setup, measured, trace: bool, timeout: float) -> dict:
    """Spawn one worker, wait for it (killing it after timeout seconds);
    returns its timings plus setup_s."""
    spec = {"setup": setup, "measured": measured, "trace": trace,
            "spans": "spans.jsonl", "result": "result.json"}
    (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    for stale in ("spans.jsonl", "result.json"):
        (work / stale).unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS=str(BLAS_THREADS), OMP_NUM_THREADS=str(BLAS_THREADS),
               MKL_NUM_THREADS=str(BLAS_THREADS))
    with open(work / "worker.log", "w", encoding="utf-8") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), "spec.json"],
                                cwd=work, env=env, stdout=log, stderr=subprocess.STDOUT)
        try:
            rc = proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            rc = "killed after timeout"
    t_done = time.monotonic()
    if rc != 0 or not (work / "result.json").exists():
        return {"ok": False, "duration": t_done - t_spawn,
                "error": f"worker exit {rc}: {(work / 'worker.log').read_text()[-2000:]}"}
    res = json.loads((work / "result.json").read_text(encoding="utf-8"))
    res.update(ok=True, duration=t_done - t_spawn, setup_s=res["t_first"] - t_spawn,
               wall_s=res["t_end"] - res["t_first"])
    if trace:
        res["spans"] = tracer.load_spans(work / "spans.jsonl")
    return res


def layer_metrics(res: dict, out: Path) -> dict[str, float]:
    """Per-layer numbers for one traced iteration."""
    spans = res["spans"]
    agg = tracer.summarize(spans)

    def get(name: str, field: str) -> float:
        a = agg.get(name)
        if a is None:
            return 0
        return a["counts"].get(field, 0) if field not in ("calls", "s", "self_s") else a[field]

    m: dict[str, float] = {}
    for metric, _ in PER_LAYER:
        if metric.count(".") >= 2:
            span, field = metric.rsplit(".", 1)
            m[metric] = get(span, field)
    vb_iter = get("states.fit_vbgmm", "iterations")
    vb_calls = get("states.fit_vbgmm", "calls")
    m["states.fit_vbgmm.s_per_iteration"] = get("states.fit_vbgmm", "s") / vb_iter if vb_iter else 0
    m["states.fit_vbgmm.converged_ratio"] = (
        get("states.fit_vbgmm", "converged") / vb_calls if vb_calls else 0)
    fitness = get("optimize.ga_optimize", "fitness_calls")
    m["optimize.ga.fitness_calls"] = fitness
    in_ga = tracer.calls_under(spans, "surrogate.predict_energy", "optimize.ga_optimize")
    m["optimize.ga.cache_hit_ratio"] = 1 - in_ga / fitness if fitness else 0
    grid = out / "0_ingest/grid.csv"
    m["ingest.grid_csv.bytes"] = grid.stat().st_size if grid.exists() else 0
    m["surrogate.model_json.bytes"] = sum(p.stat().st_size for p in out.glob("*/model.json"))
    m["process.cpu_s"] = res["cpu_s"]
    m["trace.wall_s"] = res["wall_s"]
    return m


def check_iteration(name: str, root: Path, work: Path, res: dict,
                    reference: dict | None) -> dict[int, str]:
    """Failed commands of one iteration, by command index: {index: problem}."""
    bad = {k: f"{c['command']} exited {c['rc']}"
           for k, c in enumerate(res["setup"] + res["measured"]) if c["rc"] != 0}
    if not str(Path(res["zoneplan"]).resolve()).startswith(str(root / "src")):
        bad[-1] = f"imported zoneplan from {res['zoneplan']}, not this checkout"
    if reference is None:
        bad.update(check_outputs(name, work))
        return bad
    hashes = output_hashes(work / "out")
    for path in sorted(set(hashes) | set(reference)):
        if hashes.get(path) != reference.get(path):
            bad.setdefault(int(path.split("_", 1)[0]), f"{path} differs from the first iteration")
    return bad


def end_to_end(untraced: list[dict]) -> dict:
    def scaled(key: str) -> float:
        return statistics.median(r[key] * PROBE_REF_S / r["probe_s"] for r in untraced)

    return {
        "wall_s": {"value": scaled("wall_s"), "unit": "s"},
        "setup_s": {"value": scaled("setup_s"), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r["maxrss_kib"] / 1024 for r in untraced),
                        "unit": "MB"},
    }


def per_layer(traced: list[dict], untraced_wall_s: float, problems: list[str]) -> dict:
    """Medians over traced iterations; exact counts that differ go to problems."""
    layers = [t["layers"] for t in traced]
    metrics = {name: {"value": statistics.median(l[name] for l in layers), "unit": unit}
               for name, unit in PER_LAYER if name != "trace.overhead_s"}
    metrics["trace.overhead_s"] = {
        "value": metrics["trace.wall_s"]["value"] - untraced_wall_s, "unit": "s"}
    for name in EXACT:
        values = {l[name] for l in layers}
        if len(values) > 1:
            problems.append(f"{name} not exact across traced iterations: {sorted(values)}")
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src/zoneplan/cli.py").is_file():
        print(f"error: {root} has no src/zoneplan; run from the repository root",
              file=sys.stderr)
        return 2
    work = root / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "in").mkdir(parents=True)

    w = WORKLOADS[args.workload]
    t0 = time.monotonic()
    inputs = gen.generate(work / "in", args.seed, w["occupants"], w["days"],
                          plug_load=w.get("plug_load", False))
    print(f"inputs generated in {time.monotonic() - t0:.2f} s (information only, not a metric)")
    print("env " + json.dumps(environment(inputs), sort_keys=True))
    setup, measured = commands(args.workload, inputs["window"])
    n_cmd = len(setup) + len(measured)
    need = 1 + MIN_ITERATIONS  # the warm-up, untraced in both modes, then the measured ones

    attempted = failed = 0
    problems: list[str] = []
    untraced: list[dict] = []
    traced: list[dict] = []
    reference: dict[str, str] | None = None
    deadline = time.monotonic() + RUN_LIMIT_S
    t_loop = time.monotonic()
    while True:
        trace = bool(args.trace and untraced)
        shutil.rmtree(work / "out", ignore_errors=True)
        probe_s = host_probe()
        res = run_worker(root, work, setup, measured, trace, deadline - time.monotonic())
        res["probe_s"] = probe_s
        attempted += n_cmd
        if not res["ok"]:
            failed += n_cmd
            problems.append(res["error"])
            break
        bad = check_iteration(args.workload, root, work, res, reference)
        reference = reference or output_hashes(work / "out")
        failed += len(bad)
        problems += [v for _, v in sorted(bad.items())]
        if trace:
            res["layers"] = layer_metrics(res, work / "out")
            del res["spans"]
        (traced if trace else untraced).append(res)
        n = len(untraced) + len(traced)
        kind = "traced" if trace else "untraced" if n > 1 else "untraced warm-up"
        print(f"iteration {n}: {kind} setup_s={res['setup_s']:.4f} "
              f"wall_s={res['wall_s']:.4f} probe_s={probe_s:.5f} "
              + " ".join(f"{c['command']}={c['s']:.3f}" for c in res["setup"] + res["measured"]))
        now = time.monotonic()
        if now + res["duration"] > deadline:
            break
        if n >= need and now - t_loop + res["duration"] > args.seconds:
            break

    if args.trace:
        metrics = per_layer(traced, untraced[0]["wall_s"], problems) if traced else {}
        runs = len(traced)
    else:
        metrics = end_to_end(untraced[1:]) if len(untraced) > 1 else {}
        runs = max(len(untraced) - 1, 0)
    for text in problems:
        print(f"FAILED: {text}")
    print(f"workload={args.workload} seed={args.seed} runs={runs} "
          f"operations attempted={attempted} failed={failed}")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:>16.6g} {m['unit']:6s} (median of {runs})")
    if not args.trace and runs:
        for key, label in (("wall_s", "unscaled wall_s"), ("setup_s", "unscaled setup_s"),
                           ("probe_s", "host-speed probe")):
            raw = statistics.median(r[key] for r in untraced[1:])
            print(f"  {label:42s} {raw:>16.6g} s      (median of {runs}, information only)")
    result = {"correct": not problems and bool(metrics), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
