"""ECAD benchmark: runs one workload (or all) and prints every metric.

    python3 perfbench/run.py --workload search_hw --seed 0 --seconds 30 --trace 0

Each iteration of a workload runs in a fresh process (``workload.py``) from
its own scratch directory under ``.perfbench_work/``, so set-up, imports
included, is paid and measured every time. Iterations repeat, cycling
through four seeds derived from the run's seed, until ``--seconds`` is used
up; the run reports medians over them. ``--trace 1`` alternates untraced and
traced iterations and reports the per-layer metrics of the traced ones plus
the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every correctness and determinism check held. See README.md.
"""

from __future__ import annotations

import argparse
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
from typing import Any

import table2
from tracer import percentile

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".perfbench_work"
LISTING = ROOT / "configs" / "mlp_mnist.ecad.cfg"
WORKLOADS = ("search_hw", "search_joint", "deploy_table2")
CHILD_TIMEOUT_S = 170

# Sizes per profile. "full" is the benchmark; "tiny" is the smoke run
# (smoke.py), which only checks that every metric is emitted.
PROFILES: dict[str, dict[str, dict[str, Any]]] = {
    "full": {
        "search_hw": {"generations": None},
        "search_joint": {"generations": 2, "train_subset": 500},
        "deploy_table2": {"epochs": 1, "train_subset": None, "sim_images": 1000},
    },
    "tiny": {
        "search_hw": {"generations": 20},
        "search_joint": {"generations": 2, "train_subset": 100},
        "deploy_table2": {"epochs": 1, "train_subset": 1000, "sim_images": 20},
    },
}

# A workload that does not exercise a metric's layer (no training in
# search_hw, no simulator in the searches, no search in deploy_table2) still
# has to report every end-to-end metric; it reports this constant, which
# cannot regress. README.md lists which metric each workload measures.
NOT_EXERCISED = 1.0


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    """Environment of every iteration: synthetic dataset, BLAS threads = nproc."""
    env = {k: v for k, v in os.environ.items() if k != "ECAD_MNIST_DIR"}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH_DIR)])
    threads = str(nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def source_digest() -> str:
    """sha256 over the program, its configs and the benchmark (identifies the code run)."""
    h = hashlib.sha256()
    for top in ("src", "configs", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict[str, Any]:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": nproc(),
        "git_commit": commit,
        "source_sha256": source_digest(),
        "dataset": "synthetic_mnist(seed=0)",
    }


# --- inputs ------------------------------------------------------------------------

def write_config(dest: Path, workload: str, size: dict[str, Any]) -> Path:
    """The listing config, adjusted for the workload, with its include files."""
    doc = json.loads(LISTING.read_text(encoding="utf-8"))
    pop = doc["popConfigValues"]
    if workload == "search_hw":
        for et in pop["evalTypes"]:
            if et["type"] == "simJob":
                et["active"] = False
    if size.get("generations"):
        pop["maxGenerations"] = size["generations"]
    for inc in doc.get("includes", []):
        shutil.copy(LISTING.parent / inc, dest / inc)
    path = dest / LISTING.name
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return path


def write_table2_network(dest: Path) -> Path:
    """The Table 2 network, with the input and output widths of the config's cell array."""
    cells = json.loads(LISTING.read_text(encoding="utf-8"))["cellArray"]
    n_in = next(c["input_size"] for c in cells if c["cell_type"] == "input")
    n_out = next(c["output_size"] for c in cells if c["cell_type"] == "output")
    path = dest / "table2_net.json"
    path.write_text(json.dumps(table2.network(n_in, n_out), indent=1) + "\n", encoding="utf-8")
    return path


# --- one run -----------------------------------------------------------------------

def run_iteration(spec: dict[str, Any], it_dir: Path) -> tuple[dict[str, Any], str]:
    it_dir.mkdir(parents=True)
    spec = dict(spec, spawn_t=time.perf_counter())
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "workload.py"), json.dumps(spec)],
                          cwd=it_dir, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{spec['workload']} iteration exited {proc.returncode}")
    result = json.loads((it_dir / "result.json").read_text(encoding="utf-8"))
    shutil.rmtree(it_dir)
    return result, proc.stderr


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def iteration_seed(seed: int, i: int, traced: bool) -> int:
    """Run seed n cycles through workload seeds 4n .. 4n+3, so a run averages
    over several of search_joint's seed-dependent network mixes; a traced run
    keeps each seed for one untraced/traced pair, so its overhead compares
    equal work."""
    return 4 * seed + (i // 2 if traced else i) % 4


def run_workload(workload: str, seed: int, seconds: float, traced: bool, profile: str,
                 bench: dict[str, Any], env: dict[str, Any]) -> dict[str, Any]:
    size = PROFILES[profile][workload]
    run_dir = WORK / f"{workload}-seed{seed}-trace{int(traced)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)   # left by a killed run with a reused pid
    run_dir.mkdir(parents=True)
    spec = dict(size, workload=workload,
                cfg_path=str(write_config(run_dir, workload, size)),
                net_path=str(write_table2_network(run_dir)))

    results: list[dict[str, Any]] = []
    durations: list[float] = []
    problems: list[str] = []
    start = time.perf_counter()
    try:
        while True:
            i = len(results)
            it_traced = traced and i % 2 == 1
            it_seed = iteration_seed(seed, i, traced)
            check = all(r["seed"] != it_seed for r in results)
            t0 = time.perf_counter()
            res, stderr = run_iteration(dict(spec, seed=it_seed, traced=it_traced, check=check),
                                        run_dir / f"iter{i}")
            durations.append(time.perf_counter() - t0)
            res.update(seed=it_seed, traced=it_traced)
            results.append(res)
            if workload != "search_hw" and "synthetic stand-in" not in stderr:
                problems.append(f"iteration {i} did not use the synthetic dataset")
            elapsed = time.perf_counter() - start
            if len(results) >= 2 and elapsed + median(durations) > seconds:
                break
    finally:
        shutil.rmtree(run_dir)

    for res in results:
        problems += [f"check failed: {name}" for name, ok in res["checks"].items() if not ok]
    for it_seed in sorted({r["seed"] for r in results}):
        digests = [r["digests"] for r in results if r["seed"] == it_seed]
        if any(d != digests[0] for d in digests):
            problems.append(f"iterations at seed {it_seed} produced different artifacts")
        problems += ledger_check(f"{env['source_sha256']}/{workload}/{profile}/seed{it_seed}",
                                 digests[0])

    if traced:
        traced_runs = [r for r in results if r["traced"]]
        layer_names = [m["name"] for m in bench["per_layer"]]
        metrics = {name: median([r["layers"].get(name, 0.0) for r in traced_runs])
                   for name in layer_names if name != "trace.overhead_share"}
        # iterations 2k (untraced) and 2k+1 (traced) ran at the same seed
        metrics["trace.overhead_share"] = median(
            [t["work_s"] / p["work_s"] - 1 for p, t in zip(results[::2], results[1::2])])
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    else:
        metrics = {}
        for m in bench["end_to_end"]:
            values = [r["e2e"][m["name"]] for r in results if m["name"] in r["e2e"]]
            if m["name"] == "genomes_per_s" and values:
                values = [rate for r in results for rate in r["gen_rates"]]
            if not values:
                metrics[m["name"]] = NOT_EXERCISED
            elif m["unit"] == "1/s":
                # The host has slow spells, about 1.75 times slower and seconds
                # to minutes long. The upper quartile of a run's samples
                # follows the program as long as a quarter of the run is
                # outside a spell; the median flips with the spells.
                metrics[m["name"]] = percentile(values, 75)
            else:
                metrics[m["name"]] = median(values)
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}

    return {
        "workload": workload,
        "seed": seed,
        "iterations": len(results),
        "traced_iterations": sum(1 for r in results if r["traced"]),
        "problems": problems,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "digests": {r["seed"]: r["digests"] for r in results},
        "per_iteration": [{k: r[k] for k in ("seed", "traced", "work_s", "e2e")}
                          for r in results],
        "sim_logit_max_abs_diff": results[0].get("sim_logit_max_abs_diff"),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def ledger_check(key: str, digests: dict[str, str]) -> list[str]:
    """Compare artifact digests with earlier runs of the same code at the same seed."""
    path = WORK / "digests.json"
    ledger = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    seen = ledger.setdefault(key, digests)
    path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    if seen != digests:
        return [f"artifacts differ from an earlier run of the same code at the same seed ({key})"]
    return []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--profile", choices=sorted(PROFILES), default="full")
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "ecad" / "__init__.py", LISTING, ROOT / "BENCHMARK.json"):
        if not needed.is_file():
            fail(f"{needed.relative_to(ROOT)} not found; run from a full checkout")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = []
    for workload in workloads:
        run = run_workload(workload, args.seed, args.seconds, bool(args.trace),
                           args.profile, bench, env)
        runs.append(run)
        for name, m in run["metrics"].items():
            print(f"{workload} {name} = {m['value']:.6g} {m['unit']}")
        print(f"{workload} iterations={run['iterations']} attempted={run['attempted']} "
              f"failed={run['failed']} digests={json.dumps(run['digests'], sort_keys=True)}")
        for problem in run["problems"]:
            print(f"{workload} PROBLEM: {problem}", file=sys.stderr)
        record = dict(run, env=env, seconds=args.seconds, profile=args.profile)
        out = WORK / "results" / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    if len(runs) == 1:
        metrics = runs[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m for r in runs for name, m in r["metrics"].items()}
    correct = not any(r["problems"] for r in runs)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in runs),
                      "failed": sum(r["failed"] for r in runs),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
