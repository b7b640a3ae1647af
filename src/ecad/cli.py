"""Command-line surface: search, train, eval, simulate-array, export, actualize.

`ecad search` folds the records it streams into the database into
report.json and generations.csv. Every command exits 0 only on success and
writes diagnostics to stderr. A command that needs images reads real MNIST
only from the --mnist-dir directory; without the flag it uses the synthetic
stand-in.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np

from . import dataset as ds
from . import engine, hwmodel, nnsim, sysarray
from .config import ConfigError, EcadConfig, HwConfig, parse_config
from .dispatch import Dispatcher, Worker
from .genome import GenomeError, NetworkDescription, SystolicConfig
from .store import DB_FILENAME, EcadDb, StoreError
from .workers import make_hwdb_worker, make_sim_worker

MACRO_NAMES = ("SYS_ROWS", "SYS_COLS", "SYS_VEC", "INTERLEAVE", "SCALE")
MNIST_DIR_HELP = "directory of the MNIST IDX files; without it, the synthetic stand-in"
STAND_IN_ROWS_HELP = "; only those rows are read or built (the stand-in has 60,000)"

DEFAULT_HW = HwConfig(dsp=1518, freq=250, sram=54260,
                      mem_banks=1, mem_speed=2400, mem_rate=8)


class CliError(RuntimeError):
    pass


def _require_at_least_one(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        value = getattr(args, name)
        if value is not None and value < 1:
            raise CliError(f"--{name.replace('_', '-')} must be at least 1, got {value}")


def _load_description(path: str | Path) -> NetworkDescription:
    try:
        return NetworkDescription.from_json(json.loads(Path(path).read_text(encoding="utf-8")))
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot load network description {path}: {exc}") from exc


def _resolve_dataset(mnist_dir: str | None, train_subset: int | None,
                     test_limit: int | None = None) -> ds.Dataset:
    """Real MNIST from the --mnist-dir directory, which must exist; without the
    flag, the synthetic stand-in. Pixels stay 8-bit. Either source reads or
    builds only the first ``train_subset`` training rows and the first
    ``test_limit`` test rows (None: the whole split); with ``train_subset`` 0
    the train files are not read."""
    if mnist_dir:
        if not Path(mnist_dir).is_dir():
            raise CliError(f"MNIST directory not found: {mnist_dir}")
        return ds.load_mnist(mnist_dir, n_train=train_subset, n_test=test_limit)
    print("note: no --mnist-dir given, using the synthetic stand-in dataset",
          file=sys.stderr)
    n_train = ds.MNIST_TRAIN_ROWS if train_subset is None else min(train_subset, ds.MNIST_TRAIN_ROWS)
    n_test = ds.MNIST_TEST_ROWS if test_limit is None else min(test_limit, ds.MNIST_TEST_ROWS)
    return ds.synthetic_mnist(seed=0, n_train=n_train, n_test=n_test)


def _check_widths(what: str, n_in: int | None, n_out: int | None, data: ds.Dataset) -> None:
    """Raise CliError unless the network maps the dataset's features to its classes."""
    features = data.train_x.shape[1]
    if (n_in, n_out) != (features, ds.NUM_CLASSES):
        raise CliError(f"{what} maps {n_in} inputs to {n_out} outputs, but the dataset "
                       f"has {features} features and {ds.NUM_CLASSES} classes")


def _build_dispatcher(cfg: EcadConfig, mnist_dir: str | None,
                      train_subset: int | None) -> Dispatcher:
    workers: dict[str, Worker] = {}
    for et in cfg.pop.active_eval_types():
        if et.type == "hwDBJob":
            workers["hwDBJob"] = make_hwdb_worker(cfg.hw)
        elif et.type == "simJob":
            data = _resolve_dataset(mnist_dir, train_subset)
            cells = cfg.cell_array
            _check_widths("config", cells[0].input_size, cells[-1].output_size, data)
            workers["simJob"] = make_sim_worker(data)
    return Dispatcher(workers)


def write_report(out_dir: Path, report: dict[str, Any]) -> None:
    """report.json and generations.csv, one row per generation, of an `engine.report`."""
    with open(out_dir / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    with open(out_dir / "generations.csv", "w", newline="", encoding="utf-8") as fh:
        rows = csv.writer(fh)
        rows.writerow([
            "generation", "best_score", "mean_score", "best_neurons",
            "best_batch", "best_cfg", "best_img_per_s", "best_accuracy",
        ])
        for h in report["history"]:
            bg = h["best_genome"]
            neurons = bg["traits"]["neurons"]
            rows.writerow([
                h["generation"],
                repr(h["best"]),
                repr(h["mean"]),
                ";".join(str(v) for v in neurons),
                bg["traits"]["batch"],
                bg["traits"]["cfg"],
                "" if bg["img_per_s"] is None else repr(bg["img_per_s"]),
                "" if bg["accuracy"] is None else repr(bg["accuracy"]),
            ])


# --- commands --------------------------------------------------------------------

def cmd_search(args: argparse.Namespace) -> int:
    _require_at_least_one(args, "train_subset")
    cfg = parse_config(Path(args.config))
    dispatcher = _build_dispatcher(cfg, args.mnist_dir, args.train_subset)
    out_dir = Path(args.out_dir)
    # each search writes a fresh database, headed by the config's cell array
    with EcadDb.create(out_dir / DB_FILENAME, cfg.cell_array) as store:
        report = engine.run(cfg, dispatcher, store=store, seed=args.seed)
    write_report(out_dir, report)
    best = report["best"]
    print(f"search finished after {report['generations_run']} generations ({report['stop_reason']})")
    print(f"best: genome {best.get('id')} combined {best.get('combined'):.4f} "
          f"traits {best.get('traits')}")
    print(f"artifacts written to {out_dir}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    _require_at_least_one(args, "epochs", "batch_size", "train_subset")
    desc = _load_description(args.network)
    data = _resolve_dataset(args.mnist_dir, args.train_subset)
    _check_widths(f"network {args.network}", desc.layers[0].in_features,
                  desc.layers[-1].out_features, data)
    dest = Path(args.dest_dir)
    dest.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    mlp, report = nnsim.train(desc, data, epochs=args.epochs,
                              batch_size=args.batch_size, seed=args.seed)
    seconds = time.perf_counter() - t0
    report.write(dest / "report.json")
    if args.save_wb:
        nnsim.save_params(mlp, dest, [l.name for l in desc.layers])
    print(f"test accuracy {report.accuracy:.4f} after {report.epochs} epochs "
          f"({seconds:.1f}s); report in {dest}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    _require_at_least_one(args, "batch")
    desc = _load_description(args.network)
    hw = parse_config(Path(args.config)).hw if args.config else DEFAULT_HW
    if args.batch is not None:
        desc = NetworkDescription(id=desc.id, batch=args.batch,
                                  layers=desc.layers, systolic=desc.systolic)
    cfg = SystolicConfig.parse(args.cfg) if args.cfg else desc.systolic
    if cfg is None:
        raise CliError("network has no systolic configuration; pass --cfg R,C,V,I,S")
    est = hwmodel.estimate(desc, cfg, hw)
    print(json.dumps(est.metrics(), indent=2))
    return 0


def _cycle_counts(cost: hwmodel.GemmCost) -> dict[str, int]:
    """The counts simulate-array prints for one GEMM, all of them the model's."""
    return {key: getattr(cost, key) for key in ("compute_cycles", "blocks", "drain_elements")}


def cmd_simulate_array(args: argparse.Namespace) -> int:
    _require_at_least_one(args, "m", "k", "n", "limit")
    cfg = SystolicConfig.parse(args.cfg)
    if args.network:
        desc = _load_description(args.network)
        if not args.params_dir:
            raise CliError("--params-dir is required with --network")
        try:
            params = nnsim.load_params(args.params_dir, [l.name for l in desc.layers])
        except (OSError, ValueError) as exc:
            raise CliError(f"cannot load parameters from {args.params_dir}: {exc}") from exc
        data = _resolve_dataset(args.mnist_dir, 0, args.limit)
        _check_widths(f"network {args.network}", desc.layers[0].in_features,
                      desc.layers[-1].out_features, data)
        x = ds.to_float(data.test_x)
        outputs, costs = sysarray.run_network(desc, params, x, cfg)
        acc = float(np.mean(np.argmax(outputs, axis=1) == data.test_y))
        print(json.dumps({
            "cfg": list(cfg.as_tuple()),
            "images": int(x.shape[0]),
            "accuracy": acc,
            "layers": [_cycle_counts(c) for c in costs],
        }, indent=2))
        return 0

    rng = np.random.default_rng(args.seed)
    a = rng.uniform(-1.0, 1.0, size=(args.m, args.k)).astype(np.float32)
    b = rng.uniform(-1.0, 1.0, size=(args.k, args.n)).astype(np.float32)
    result, cost = sysarray.simulate_layer(a, b, cfg)
    doc = {
        "cfg": list(cfg.as_tuple()),
        "m": args.m, "k": args.k, "n": args.n,
        **_cycle_counts(cost),
        "result_checksum": float(np.sum(result, dtype=np.float64)),
    }
    if result.size <= 64:
        doc["result"] = result.tolist()
    print(json.dumps(doc, indent=2))
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    out = EcadDb(args.db).export(args.genome_id, args.out)
    print(f"wrote {out}")
    return 0


def cmd_actualize(args: argparse.Namespace) -> int:
    desc = _load_description(args.network)
    if desc.systolic is None:
        raise CliError("network description has no systolic section")
    values = desc.systolic.as_tuple()
    text = "".join(f"#define {name} {value}\n" for name, value in zip(MACRO_NAMES, values))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text, encoding="utf-8")
    print(f"wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ecad",
                                     description="evolutionary NN/hardware co-design search")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", help="run the evolutionary search")
    p.add_argument("config", help="ECAD configuration file (.ecad.cfg / .json)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default="search-out")
    p.add_argument("--mnist-dir", default=None, help=MNIST_DIR_HELP)
    p.add_argument("--train-subset", type=int, default=None,
                   help="train simJob evaluations on the first N samples" + STAND_IN_ROWS_HELP)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("train", help="train one network description")
    p.add_argument("network", help="network description JSON file")
    p.add_argument("dest_dir", help="destination directory for report and parameters")
    p.add_argument("--epochs", type=int, default=4)
    p.add_argument("--batch-size", type=int, default=100)
    p.add_argument("--save-wb", action="store_true", help="export weights and biases")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mnist-dir", default=None, help=MNIST_DIR_HELP)
    p.add_argument("--train-subset", type=int, default=None,
                   help="train on the first N samples" + STAND_IN_ROWS_HELP)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="run the hardware model on a network description")
    p.add_argument("network")
    p.add_argument("--config", default=None, help="ECAD config supplying the device budget")
    p.add_argument("--cfg", default=None, help="systolic config override, R,C,V,I,S")
    p.add_argument("--batch", type=int, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("simulate-array", help="run the functional array simulator")
    p.add_argument("--cfg", required=True, help="systolic config, R,C,V,I,S")
    p.add_argument("--m", type=int, default=8)
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--network", default=None, help="network description JSON")
    p.add_argument("--params-dir", default=None, help="directory of *_weights.bin/*_biases.bin")
    p.add_argument("--mnist-dir", default=None, help=MNIST_DIR_HELP)
    p.add_argument("--limit", type=int, default=100,
                   help="network mode: classify the first N test images; only those are read or built")
    p.set_defaults(func=cmd_simulate_array)

    p = sub.add_parser("export", help="export a genome's network description from the database")
    p.add_argument("db")
    p.add_argument("genome_id", type=int)
    p.add_argument("out")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("actualize", help="emit the hardware macro-definition file")
    p.add_argument("network")
    p.add_argument("out")
    p.set_defaults(func=cmd_actualize)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ConfigError, StoreError, OSError,
            GenomeError, sysarray.SimulationError, ds.DatasetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
