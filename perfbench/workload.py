"""One measured iteration of a benchmark workload, in a fresh process.

``run.py`` starts this script once per iteration with a JSON spec as its only
argument and the iteration's own scratch directory as working directory. The
script drives the ``ecad`` command line in-process, times it through the
probes (and, in traced iterations, the full trace) of ``tracer.py``, checks
the artifacts and writes ``result.json`` into the scratch directory.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import resource
import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path
from typing import Any

from ecad import cli, dataset, dispatch, engine, hwmodel, nnsim, store, sysarray, workers
from ecad.config import parse_config
from ecad.genome import NetworkDescription

import table2
from tracer import Tracer, bind, percentile, training_macs

# simulator logits may differ from the trainer's float32 forward pass only by
# accumulation order
LOGIT_ABS_TOL = 1e-3


class Iteration:
    """What the probes and the trace saw during one iteration."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.jobs: Counter[str] = Counter()
        self.gen_genomes: list[int] = []
        self.failed = 0
        self.infeasible_ids: set[int] = set()
        self.sim_on_infeasible = 0
        self.train_keys: set[Any] = set()
        self.train_repeats = 0
        self.train_rows = 0
        self.train_macs = 0
        self.layers_by_id: dict[int, Any] = {}
        self.mutate_pairs: list[tuple[int, int]] = []
        self.compute_cycles = 0
        self.drain_elements = 0
        self.sim_runs: list[tuple[Any, Any]] = []

    # --- probes ---------------------------------------------------------------

    def on_dispatch(self, args: tuple, kwargs: dict, results: list) -> None:
        jobs = args[1] if len(args) > 1 else kwargs["jobs"]
        self.jobs.update(job.eval_type for job in jobs)
        self.gen_genomes.append(len({job.genome_id for job in jobs}))
        infeasible = set()
        for res in results:
            verdict = res.eval_type == "hwDBJob" and res.metrics.get("feasible") == 0.0
            if verdict:
                infeasible.add(res.genome_id)
            elif not res.ok:
                self.failed += 1
        self.infeasible_ids |= infeasible
        self.sim_on_infeasible += sum(
            1 for job in jobs if job.eval_type == "simJob" and job.genome_id in infeasible)

    def on_train(self, args: tuple, kwargs: dict, result: Any) -> None:
        call = bind(nnsim.train, args, kwargs)
        data, epochs = call["data"], call["epochs"]
        self.train_rows += data.train_x.shape[0] * epochs
        self.train_macs += training_macs(call["desc"], data.train_x.shape[0],
                                         data.test_x.shape[0], epochs)

    def on_run_network(self, args: tuple, kwargs: dict, result: Any) -> None:
        inputs = args[2] if len(args) > 2 else kwargs["inputs"]
        self.sim_runs.append((inputs, result))

    # --- trace ------------------------------------------------------------------

    def on_to_description(self, args: tuple, kwargs: dict, desc: Any) -> None:
        self.layers_by_id[desc.id] = desc.layers

    def on_mutate(self, args: tuple, kwargs: dict, child: Any) -> None:
        self.mutate_pairs.append((child.parent_id, child.id))

    def on_sim_job(self, args: tuple, kwargs: dict, result: Any) -> None:
        job = args[0]
        key = (job.network.layers, int(job.params.get("epochs", 1)),
               int(job.params.get("batchSize", job.network.batch)))
        self.train_repeats += key in self.train_keys
        self.train_keys.add(key)

    def on_simulate_layer(self, args: tuple, kwargs: dict, result: Any) -> None:
        self.compute_cycles += result[1].compute_cycles
        self.drain_elements += result[1].drain_elements


def instrument(it: Iteration, traced: bool) -> None:
    t = it.tracer
    t.patch(dispatch.Dispatcher, "dispatch_all", "dispatch.dispatch_all", it.on_dispatch)
    t.patch(workers, "train", "nnsim.train", it.on_train)
    t.patch(nnsim, "train", "nnsim.train", it.on_train)
    t.patch(sysarray, "run_network", "sysarray.run_network", it.on_run_network)
    if not traced:
        return
    t.patch(cli, "parse_config", "config.parse")
    t.patch(dataset, "synthetic_mnist", "dataset.build")
    t.patch(engine, "run", "engine.run")
    t.patch(engine, "spawn", "genome.spawn")
    t.patch(engine, "mutate", "genome.mutate", it.on_mutate)
    t.patch(engine, "to_description", "genome.to_description", it.on_to_description)
    t.patch(workers, "estimate", "hwmodel.estimate")
    t.patch(hwmodel, "estimate", "hwmodel.estimate")
    t.patch(nnsim, "accuracy", "nnsim.accuracy")
    t.patch(store.EcadDb, "append", "store.append")
    t.patch(sysarray, "simulate_layer", "sysarray.simulate_layer", it.on_simulate_layer)
    t.patch(sysarray, "block_pack", "sysarray.block_pack")
    for attr, name, hook in (("make_hwdb_worker", "workers.hwDBJob", None),
                             ("make_sim_worker", "workers.simJob", it.on_sim_job)):
        factory = getattr(cli, attr)
        t.replace(cli, attr, lambda *a, _f=factory, _n=name, _h=hook, **kw:
                  t.wrap(_n, _f(*a, **kw), _h))


def call_cli(it: Iteration, argv: list[str]) -> dict[str, Any]:
    """Run one ``ecad`` command in this process; returns its exit code and stdout."""
    main = it.tracer.wrap("cli.main", cli.main)
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"code": code, "stdout": out.getvalue(), "start": start,
            "end": time.perf_counter()}


def peak_rss_mb() -> float:
    """High-water RSS of this process so far; read before the checks allocate."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def sha256(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def model_table2(spec: dict[str, Any]) -> float:
    """``table2.max_error`` of the hardware model, called directly."""
    hw = parse_config(spec["cfg_path"]).hw
    desc = NetworkDescription.from_json(json.loads(Path(spec["net_path"]).read_text()))
    array = hwmodel.SystolicConfig.from_desc(desc.systolic, freq_mhz=hw.freq)
    rows = {}
    for batch in table2.ROWS:
        est = hwmodel.estimate(replace(desc, batch=batch), array, hw)
        rows[batch] = (est.effective_gops, est.total_time_ms)
    return table2.max_error(rows)


# --- workloads ------------------------------------------------------------------

def run_search(spec: dict[str, Any], it: Iteration, res: dict[str, Any]) -> None:
    out_dir = Path("out")
    argv = ["search", spec["cfg_path"], "--seed", str(spec["seed"]), "--out-dir", str(out_dir)]
    if spec.get("train_subset"):
        argv += ["--train-subset", str(spec["train_subset"])]
    run = call_cli(it, argv)
    if run["code"] != 0:
        raise RuntimeError(f"ecad search exited {run['code']}")
    res["e2e"]["peak_rss_mb"] = peak_rss_mb()
    disp = it.tracer.stat("dispatch.dispatch_all")
    first = disp.starts[0]
    db_path, report_path = out_dir / "ecad.db.jsonl", out_dir / "report.json"
    train = it.tracer.stat("nnsim.train")
    res["e2e"]["setup_s"] = first - spec["spawn_t"]
    # one generation runs from its dispatch to the next one's, the last one to
    # the end of the command
    bounds = disp.starts + [run["end"]]
    res["gen_rates"] = [n / (b - a) for n, a, b in zip(it.gen_genomes, bounds, bounds[1:])]
    res["e2e"]["genomes_per_s"] = sum(it.gen_genomes) / (run["end"] - first)
    if train.calls:
        res["e2e"]["train_samples_per_s"] = it.train_rows / train.busy_s
    res["attempted"] = sum(it.jobs.values())
    res["failed"] = it.failed
    res["digests"] = {"db": sha256(db_path), "report": sha256(report_path)}
    res["work_s"] = run["end"] - run["start"]
    report = json.loads(report_path.read_text(encoding="utf-8"))
    if spec["check"]:
        check_search(spec, report, db_path, res)
    if spec["traced"]:
        res["layers"] = search_layers(it, report, db_path)


def check_search(spec: dict[str, Any], report: dict[str, Any], db_path: Path,
                 res: dict[str, Any]) -> None:
    pop = parse_config(spec["cfg_path"]).pop
    gens = pop.max_generations
    expected = pop.initial_pop_size + math.ceil(pop.change_rate * pop.max_pop_size) * (gens - 1)
    db = store.EcadDb(db_path)
    records = list(db.scan())
    checks = res["checks"]
    checks["generations_run"] = report["generations_run"] == gens
    checks["db_record_count"] = len(records) == expected
    checks["db_combined_recomputed"] = all(r.combined == r.card.combined(pop) for r in records)
    top = db.top(1)
    checks["report_best_is_db_top"] = bool(top) and (
        report["best"]["id"] == top[0].genome.id and report["best"]["combined"] == top[0].combined)
    checks["one_job_per_record_and_eval_type"] = (
        res["attempted"] == len(records) * len(pop.active_eval_types()))


def search_layers(it: Iteration, report: dict[str, Any], db_path: Path) -> dict[str, float]:
    s = it.tracer.stat
    disp = s("dispatch.dispatch_all")
    bounds = disp.starts + [s("engine.run").starts[0] + s("engine.run").busy_s]
    gen_ms = [(b - a) * 1e3 for a, b in zip(bounds, bounds[1:])]
    pairs = [(p, c) for p, c in it.mutate_pairs
             if p in it.layers_by_id and c in it.layers_by_id]
    same = sum(1 for p, c in pairs if it.layers_by_id[p] == it.layers_by_id[c])
    top10 = store.EcadDb(db_path).top(10)
    hw_jobs, sim_jobs = it.jobs["hwDBJob"], it.jobs["simJob"]
    layers = common_layers(it)
    layers.update({
        "genome.spawn.calls": s("genome.spawn").calls,
        "genome.mutate.calls": s("genome.mutate").calls,
        "genome.mutate.busy_s": s("genome.mutate").busy_s,
        "genome.to_description.busy_s": s("genome.to_description").busy_s,
        "genome.mutate.same_stack_share": same / len(pairs) if pairs else 0.0,
        "engine.self_s": s("engine.run").self_s,
        "engine.gen_ms_p50": percentile(gen_ms, 50),
        "engine.gen_ms_p99": percentile(gen_ms, 99),
        "engine.infeasible_top10": sum(1 for r in top10 if r.genome.id in it.infeasible_ids),
        "engine.best_combined": report["best"]["combined"],
        "dispatch.jobs.hwDBJob": hw_jobs,
        "dispatch.jobs.simJob": sim_jobs,
        "dispatch.self_s": disp.self_s,
        "dispatch.retries": s("workers.hwDBJob").errors + s("workers.simJob").errors,
        "dispatch.failed": it.failed,
        "workers.hwDBJob.busy_s": s("workers.hwDBJob").busy_s,
        "workers.hwDBJob.infeasible_share": len(it.infeasible_ids) / hw_jobs if hw_jobs else 0.0,
        "workers.simJob.busy_s": s("workers.simJob").busy_s,
        "workers.simJob.infeasible_share": it.sim_on_infeasible / sim_jobs if sim_jobs else 0.0,
        "workers.simJob.repeat_share": it.train_repeats / sim_jobs if sim_jobs else 0.0,
        "store.append.calls": s("store.append").calls,
        "store.append.busy_s": s("store.append").busy_s,
        "store.append.us_p50": percentile(s("store.append").durations, 50) * 1e6,
        "store.bytes": db_path.stat().st_size,
    })
    return layers


def run_deploy(spec: dict[str, Any], it: Iteration, res: dict[str, Any]) -> None:
    params_dir = Path("params")
    train_argv = ["train", spec["net_path"], str(params_dir), "--epochs", str(spec["epochs"]),
                  "--batch-size", "100", "--save-wb", "--seed", str(spec["seed"])]
    if spec.get("train_subset"):
        train_argv += ["--train-subset", str(spec["train_subset"])]
    array = ",".join(str(v) for v in table2.CFG)
    sim_argv = ["simulate-array", "--cfg", array, "--network", spec["net_path"],
                "--params-dir", str(params_dir), "--limit", str(spec["sim_images"])]
    runs = [call_cli(it, train_argv), call_cli(it, sim_argv)]
    for batch in table2.ROWS:
        runs.append(call_cli(it, ["eval", spec["net_path"], "--config", spec["cfg_path"],
                                  "--batch", str(batch)]))
    res["attempted"] = len(runs)
    res["failed"] = sum(1 for r in runs if r["code"] != 0)
    if res["failed"]:
        raise RuntimeError(f"{res['failed']} ecad commands failed")
    res["e2e"]["peak_rss_mb"] = peak_rss_mb()
    res["work_s"] = runs[-1]["end"] - runs[0]["start"]

    train = it.tracer.stat("nnsim.train")
    sim = it.tracer.stat("sysarray.run_network")
    sim_doc = json.loads(runs[1]["stdout"])
    report = json.loads((params_dir / "report.json").read_text(encoding="utf-8"))
    evals = [json.loads(r["stdout"]) for r in runs[2:]]
    rows = {b: (e["effective_gops"], e["total_time_ms"]) for b, e in zip(table2.ROWS, evals)}
    res["e2e"]["setup_s"] = train.starts[0] - spec["spawn_t"]
    res["e2e"].update({
        "train_samples_per_s": it.train_rows / train.busy_s,
        "train_accuracy": report["accuracy"],
        "sim_images_per_s": sim_doc["images"] / sim.busy_s,
        "table2_err_max": table2.max_error(rows),
    })
    bins = sorted(params_dir.glob("*.bin"))
    eval_out = "".join(r["stdout"] for r in runs[2:]).encode()
    res["digests"] = {"params": sha256(*bins),
                      "simulate_array": hashlib.sha256(runs[1]["stdout"].encode()).hexdigest(),
                      "eval": hashlib.sha256(eval_out).hexdigest()}

    if spec["check"]:
        desc = NetworkDescription.from_json(json.loads(Path(spec["net_path"]).read_text()))
        (inputs, (logits, _)), = it.sim_runs
        mlp = nnsim.build_mlp(desc, nnsim.load_params(params_dir, [l.name for l in desc.layers]))
        ref = nnsim.forward(mlp, inputs)
        cfg = hwmodel.SystolicConfig.from_desc(desc.systolic)
        n_images = inputs.shape[0]
        modelled = sum(hwmodel.compute_cycles(cfg, n_images, l.in_features, l.out_features)
                       for l in desc.layers)
        diff = float(abs(logits - ref).max())
        checks = res["checks"]
        checks["sim_argmax_matches_forward"] = bool((logits.argmax(1) == ref.argmax(1)).all())
        checks["sim_logits_close"] = diff <= LOGIT_ABS_TOL
        checks["sim_cycles_match_model"] = (
            sum(l["compute_cycles"] for l in sim_doc["layers"]) == modelled)
        res["sim_logit_max_abs_diff"] = diff
    if spec["traced"]:
        res["layers"] = common_layers(it)


def common_layers(it: Iteration) -> dict[str, float]:
    """Per-layer metrics every workload reports (0 where a layer does no work)."""
    s = it.tracer.stat
    sim_busy = s("sysarray.simulate_layer").busy_s
    return {
        "config.parse_s": s("config.parse").busy_s,
        "dataset.build_s": s("dataset.build").busy_s,
        "hwmodel.estimate.calls": s("hwmodel.estimate").calls,
        "hwmodel.estimate.busy_s": s("hwmodel.estimate").busy_s,
        "hwmodel.estimate.us_p50": percentile(s("hwmodel.estimate").durations, 50) * 1e6,
        "nnsim.train.calls": s("nnsim.train").calls,
        "nnsim.train.busy_s": s("nnsim.train").busy_s,
        "nnsim.train.ms_p50": percentile(s("nnsim.train").durations, 50) * 1e3,
        "nnsim.accuracy.busy_s": s("nnsim.accuracy").busy_s,
        "nnsim.train.macs": it.train_macs,
        "sysarray.simulate_layer.busy_s": sim_busy,
        "sysarray.block_pack.busy_s": s("sysarray.block_pack").busy_s,
        "sysarray.compute_cycles": it.compute_cycles,
        "sysarray.drain_elements": it.drain_elements,
        "sysarray.host_ns_per_cycle":
            sim_busy * 1e9 / it.compute_cycles if it.compute_cycles else 0.0,
        "cli.self_s": s("cli.main").self_s,
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    res: dict[str, Any] = {"e2e": {}, "checks": {}, "digests": {}}
    it = Iteration(Tracer())
    instrument(it, spec["traced"])
    try:
        if spec["workload"] == "deploy_table2":
            run_deploy(spec, it, res)
        else:
            run_search(spec, it, res)
    finally:
        it.tracer.close()
    if spec["workload"] != "deploy_table2":
        res["e2e"]["table2_err_max"] = model_table2(spec)
    Path("result.json").write_text(json.dumps(res, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
