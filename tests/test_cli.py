import builtins
import hashlib
import itertools
import json
import math
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from ecad import cli, engine, nnsim, store
from ecad.config import parse_config
from ecad.dataset import synthetic_mnist, write_idx_images, write_idx_labels
from ecad.dispatch import Dispatcher, EvalJob
from ecad.genome import to_description
from ecad.hwmodel import resource_estimate
from ecad.store import EcadDb
from ecad.workers import make_hwdb_worker

from helpers import LISTING_CONFIG, listing_doc, mlp_desc, time_limit
from oracles import init_mlp, stand_in_sim_worker

GENERATIONS = 30
NOT_A_FILE_NAME = "cannot name a file: it must not be empty, '.' or '..', or hold '/' or '\\'"


@pytest.fixture
def network_file(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(mlp_desc([784, 4, 10], batch=4, cfg=(2, 2, 2, 4, 2)).to_json()))
    return path


def write_hw_only_config(directory: Path, generations: int) -> Path:
    """The listing config with simJob deactivated and the given generation cap."""
    doc = json.loads(LISTING_CONFIG.read_text(encoding="utf-8"))
    pop = doc["popConfigValues"]
    pop["maxGenerations"] = generations
    for et in pop["evalTypes"]:
        if et["type"] == "simJob":
            et["active"] = False
    for inc in doc["includes"]:
        shutil.copy(LISTING_CONFIG.parent / inc, directory / inc)
    path = directory / LISTING_CONFIG.name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.fixture
def hw_only_config(tmp_path):
    """The listing config with simJob deactivated and a short generation cap."""
    return write_hw_only_config(tmp_path, GENERATIONS)


def test_search_is_byte_reproducible(tmp_path, hw_only_config):
    outs = [tmp_path / "run_a", tmp_path / "run_b"]
    for out in outs:
        argv = ["search", str(hw_only_config), "--seed", "3", "--out-dir", str(out)]
        assert cli.main(argv) == 0
    for name in ("ecad.db.jsonl", "report.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    pop = parse_config(hw_only_config).pop
    records = (outs[0] / "ecad.db.jsonl").read_text(encoding="utf-8").splitlines()[1:]   # after the header
    children = math.ceil(pop.change_rate * pop.max_pop_size)
    assert len(records) == pop.initial_pop_size + children * (GENERATIONS - 1)
    report = json.loads((outs[0] / "report.json").read_text(encoding="utf-8"))
    assert report["generations_run"] == GENERATIONS


def test_search_matches_golden_digests(tmp_path, hw_only_config):
    # the hardware-only path uses only Python floats and random.Random, so these
    # digests pin the trajectory on every supported Python; a change that alters
    # the trajectory on purpose updates them and says why in CHANGES.md
    out = tmp_path / "out"
    assert cli.main(["search", str(hw_only_config), "--seed", "3", "--out-dir", str(out)]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("ecad.db.jsonl", "report.json")}
    assert digests == {
        "ecad.db.jsonl": "1c1c654f65b93ecfde102e9f51dca87a98f9781030b8acbb4553b929b60d9481",
        "report.json": "1bf88218ff6e00de28717e50f98265f7e936e61caf70b5d2858ff5e439a018d3",
    }


def test_long_search_matches_golden_digests(tmp_path):
    # a ten times longer run at another seed, pinned like the digests above;
    # report.json and generations.csv are a fold over the database's records,
    # given the config and the seed, so they come back from it byte for byte
    config = write_hw_only_config(tmp_path, 300)
    out, rebuilt = tmp_path / "out", tmp_path / "rebuilt"
    assert cli.main(["search", str(config), "--seed", "0", "--out-dir", str(out)]) == 0
    rebuilt.mkdir()
    cli.write_report(rebuilt, engine.report(parse_config(config), 0,
                                            EcadDb(out / "ecad.db.jsonl").scan()))
    for name in ("report.json", "generations.csv"):
        assert (rebuilt / name).read_bytes() == (out / name).read_bytes()
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("ecad.db.jsonl", "report.json", "generations.csv")}
    assert digests == {
        "ecad.db.jsonl": "d8882cf7e0f8d9b5f0a11206e4b1b2d9c0e8b3b4d6265248bdfbde81ca32fc81",
        "report.json": "ed974b59de0e9703e3439af18ee6e6ed401926392d8effe34f519b7335d586bd",
        "generations.csv": "58dd751718bffe962f5d7c14cfeba25daf716806146e44b3ac6f08481667d224",
    }


def test_joint_search_matches_golden_digests(tmp_path, monkeypatch):
    # the shipped config, both objectives, all of its generations: the real
    # hwDBJob worker and the stand-in trainer, whose exact float arithmetic
    # keeps these digests host-independent (see its docstring for what it
    # cannot show)
    monkeypatch.setattr(cli, "_build_dispatcher", lambda cfg, mnist_dir, train_subset: Dispatcher(
        {"hwDBJob": make_hwdb_worker(cfg.hw), "simJob": stand_in_sim_worker}))
    out = tmp_path / "out"
    assert cli.main(["search", str(LISTING_CONFIG), "--seed", "0", "--out-dir", str(out)]) == 0
    assert parse_config(LISTING_CONFIG).pop.max_generations == 2000
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("ecad.db.jsonl", "report.json", "generations.csv")}
    assert digests == {
        "ecad.db.jsonl": "12c9ed2323cb4bcad827b947adaa302535a2e0d47cfb1b2cf722bbbf29be117e",
        "report.json": "989afee4e07a347d1d19fb0b1166248388b2cd1a06474ea3e3f34c11c08ef33e",
        "generations.csv": "bf66c597990608a9c00de1edc647a0ae0c05cd3cc81ac151d015876adf8b2cc2",
    }


def test_infeasible_record_keeps_its_screen_metrics(tmp_path, hw_only_config):
    out = tmp_path / "out"
    assert cli.main(["search", str(hw_only_config), "--seed", "3", "--out-dir", str(out)]) == 0
    hw = parse_config(hw_only_config).hw
    infeasible = 0
    cells = parse_config(hw_only_config).cell_array
    for rec in EcadDb(out / "ecad.db.jsonl").scan():
        dsp_est, mem_kb_est, feasible = resource_estimate(to_description(rec.genome, cells).systolic, hw)
        if feasible:
            continue
        infeasible += 1
        assert rec.card.metrics["hwDBJob"] == {"dsp_est": dsp_est, "mem_kb_est": mem_kb_est,
                                               "feasible": 0.0}
        assert rec.card.scores["hwDBJob"] == 0.0
        assert rec.card.failed["hwDBJob"].startswith("resource budget exceeded")
    assert infeasible > 0


def spy_store_opens(monkeypatch) -> list:
    """Record (path, mode, handle) for every file the store module opens."""
    opened = []

    def spy(file, mode="r", *args, **kwargs):
        fh = builtins.open(file, mode, *args, **kwargs)
        opened.append((Path(file), mode, fh))
        return fh

    monkeypatch.setattr(store, "open", spy, raising=False)
    return opened


def search(config, seed, out) -> int:
    return cli.main(["search", str(config), "--seed", str(seed), "--out-dir", str(out)])


def test_search_opens_its_database_for_writing_once(tmp_path, hw_only_config, monkeypatch):
    opened = spy_store_opens(monkeypatch)
    out = tmp_path / "out"
    assert search(hw_only_config, 3, out) == 0
    writes = [(path, mode, fh) for path, mode, fh in opened if mode != "r"]
    assert [(path, mode) for path, mode, _ in writes] == [(out / "ecad.db.jsonl", "wb")]
    assert writes[0][2].closed


def test_interrupted_search_leaves_completed_generations(tmp_path, hw_only_config,
                                                         monkeypatch):
    full = tmp_path / "full"
    assert search(hw_only_config, 3, full) == 0
    pop = parse_config(hw_only_config).pop
    done = pop.initial_pop_size + math.ceil(pop.change_rate * pop.max_pop_size)  # generations 1-2
    real_factory = cli.make_hwdb_worker

    def interrupting_factory(hw):
        worker, calls = real_factory(hw), itertools.count(1)

        def interrupting(job):
            if next(calls) == done + 3:   # the third job of generation 3
                raise KeyboardInterrupt
            return worker(job)
        return interrupting

    monkeypatch.setattr(cli, "make_hwdb_worker", interrupting_factory)
    opened = spy_store_opens(monkeypatch)
    out = tmp_path / "out"
    with pytest.raises(KeyboardInterrupt):
        search(hw_only_config, 3, out)
    assert [mode for _, mode, _ in opened] == ["wb"] and opened[0][2].closed
    data = (out / "ecad.db.jsonl").read_bytes()
    assert data.endswith(b"\n")
    lines = data.splitlines(keepends=True)
    # the header, then the records of generations 1-2
    assert lines == (full / "ecad.db.jsonl").read_bytes().splitlines(keepends=True)[:1 + done]
    assert [r.genome.id for r in EcadDb(out / "ecad.db.jsonl").scan()] == list(range(done))
    assert not (out / "report.json").exists()


def test_crashed_database_folds_to_its_last_whole_generation(tmp_path):
    # a database cut 3 records into its last generation, then a torn line, is
    # the search up to the generation before, stopped for no known reason
    config = write_hw_only_config(tmp_path, 5)
    cfg, out = parse_config(config), tmp_path / "out"
    assert search(config, 3, out) == 0
    whole = engine.report(cfg, 3, EcadDb(out / "ecad.db.jsonl").scan())
    assert whole == json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert whole["stop_reason"] == "max generations reached"
    lines = (out / "ecad.db.jsonl").read_bytes().splitlines(keepends=True)
    kept = len(lines) - cfg.pop.children + 3
    cut = tmp_path / "cut.jsonl"
    cut.write_bytes(b"".join(lines[:kept]) + lines[kept][:20])
    crashed = engine.report(cfg, 3, EcadDb(cut).scan())
    assert crashed["generations_run"] == 4
    assert crashed["history"] == whole["history"][:4]
    assert crashed["history"][-1]["population"] == cfg.pop.max_pop_size
    assert crashed["best"] == crashed["history"][-1]["best_genome"]
    assert crashed["stop_reason"] is None


def test_second_search_into_same_dir_matches_fresh_run(tmp_path, hw_only_config):
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    assert search(hw_only_config, 3, fresh) == 0
    assert search(hw_only_config, 4, reused) == 0
    with open(reused / "ecad.db.jsonl", "a", encoding="utf-8") as fh:
        fh.write('{"card":{"fai')   # torn tail left by an earlier crash
    assert search(hw_only_config, 3, reused) == 0
    for name in ("ecad.db.jsonl", "report.json", "generations.csv"):
        assert (reused / name).read_bytes() == (fresh / name).read_bytes()


def test_compact_command_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["compact", "ecad.db.jsonl"])
    assert exc.value.code == 2
    assert "invalid choice: 'compact'" in capsys.readouterr().err


def test_worker_command_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["worker", "--eval-type", "hwDBJob"])
    assert exc.value.code == 2
    assert "invalid choice: 'worker'" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--m", "-3"), ("--m", "0"), ("--k", "0"),
                                        ("--n", "0"), ("--limit", "0")])
def test_simulate_array_rejects_sizes_below_one(capsys, flag, value):
    assert cli.main(["simulate-array", "--cfg", "1,1,1,1,1", flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag} must be at least 1")


@pytest.mark.parametrize("command", ["simulate-array", "eval"])
def test_non_integer_array_field_is_an_error(network_file, capsys, command):
    argv = {"simulate-array": ["simulate-array"], "eval": ["eval", str(network_file)]}[command]
    assert cli.main([*argv, "--cfg", "4,4,x,8,8"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: expected 5 comma-separated integers, got '4,4,x,8,8'\n"


def test_simulate_array_matches_golden_digest(capsys):
    # 64 outputs, so the printed result lists every value: the digest pins each
    # output bit of the Table 2 array over 98 vec-wide K steps
    argv = ["simulate-array", "--cfg", "4,4,8,8,8", "--m", "8", "--k", "784", "--n", "8", "--seed", "0"]
    assert cli.main(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "aa64b53175767ee63216dae100873288cd31941bb2b74e61e1a61a8a606b511b"


def test_simulate_array_hand_computed_cycles(capsys):
    # the counts worked by hand in test_sysarray.py::TestSimulateLayer::test_hand_computed_cycles
    assert cli.main(["simulate-array", "--cfg", "2,2,2,2,2", "--m", "5", "--k", "9", "--n", "6"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["compute_cycles"], doc["blocks"], doc["drain_elements"]) == (96, 12, 64)
    assert "a_blocks" not in doc and "b_blocks" not in doc


@pytest.mark.parametrize("command,flag,value", [
    ("train", "--epochs", "0"), ("train", "--batch-size", "0"),
    ("train", "--train-subset", "0"), ("train", "--train-subset", "-5"),
    ("search", "--train-subset", "0"), ("eval", "--batch", "0")])
def test_sizes_below_one_rejected(tmp_path, network_file, hw_only_config, capsys,
                                  command, flag, value):
    positional = {
        "train": [str(network_file), str(tmp_path / "dest")],
        "search": [str(hw_only_config), "--out-dir", str(tmp_path / "out")],
        "eval": [str(network_file)],
    }[command]
    assert cli.main([command, *positional, flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag} must be at least 1, got {value}")
    assert not (tmp_path / "dest").exists() and not (tmp_path / "out").exists()


def _drop_dsp(doc):
    del doc["hwConfig"]["dsp"]


def _dsp_lots(doc):
    doc["hwConfig"]["dsp"] = "lots"


def _drop_max_pop_size(doc):
    del doc["popConfigValues"]["maxPopSize"]


def _drop_cell_name(doc):
    del doc["cellArray"][1]["cell_name"]


def _activate_phys_job(doc):
    next(et for et in doc["popConfigValues"]["evalTypes"] if et["type"] == "physJob")["active"] = True


def _pow_value_one(doc):
    next(ct for ct in doc["cellTypes"] if ct["cell_type"] == "dense")["sys_cols"]["powValue"] = 1


def _trait_values_list(doc):
    doc["traitConfigValues"] = [1]


def _eval_type_int(doc):
    doc["popConfigValues"]["evalTypes"].append(5)


def _cell_types_object(doc):
    doc["cellTypes"] = {ct["cell_type"]: ct for ct in doc["cellTypes"]}


def _hw_only(doc):
    # a hardware-only search is where these shapes fail late: it reads no dataset
    next(et for et in doc["popConfigValues"]["evalTypes"] if et["type"] == "simJob")["active"] = False


def _dense_type(doc):
    return next(ct for ct in doc["cellTypes"] if ct["cell_type"] == "dense")


def _inner_input_cell(doc):
    _hw_only(doc)
    doc["cellArray"][2]["cell_type"] = "input"


def _wrong_input_link(doc):
    _hw_only(doc)
    doc["cellArray"][1]["input"] = "Y"


def _dense_named_a_path(doc):
    # a layer name no network description accepts: the search must not run only
    # to leave a database that no `ecad export` can read
    _hw_only(doc)
    doc["cellArray"][1]["cell_name"] = doc["cellArray"][0]["output"] = "../d"
    doc["cellArray"][2]["input"] = "../d"


def _drop_input_size(doc):
    _hw_only(doc)
    del doc["cellArray"][0]["input_size"]


def _drop_neurons(doc):
    _hw_only(doc)
    del _dense_type(doc)["neurons"]


def _drop_sys_scale(doc):
    _hw_only(doc)
    del _dense_type(doc)["sys_scale"]


def _drop_array_traits(doc):
    _hw_only(doc)
    for name in ("sys_rows", "sys_cols", "sys_vec", "sys_intrlv", "sys_scale"):
        del _dense_type(doc)[name]


def _sys_scale_zero(doc):
    _hw_only(doc)
    _dense_type(doc)["sys_scale"]["minValue"] = 0


@pytest.mark.parametrize("edit,message", [
    (_drop_dsp, "hwConfig: missing key 'dsp'"),
    (_dsp_lots, 'hwConfig: dsp must be a JSON integer, got "lots"'),
    (_drop_max_pop_size, "popConfigValues: missing key 'maxPopSize'"),
    (_drop_cell_name, "cellArray: missing key 'cell_name'"),
    (_activate_phys_job, "evalType 'physJob' has no worker; it must be inactive"),
    (_pow_value_one, "trait 'dense.sys_cols': func PowFunction requires powValue >= 2, got 1"),
    (_trait_values_list, "config: traitConfigValues must be a JSON object, got a JSON array"),
    (_eval_type_int, "popConfigValues: evalTypes[3] must be a JSON object, got 5"),
    (_cell_types_object, "config: cellTypes must be a JSON array, got a JSON object"),
    (_inner_input_cell, "cell 'relu00' of type 'input' is cell 3 of 4; "
                        "the chain must run from one input cell to one output cell"),
    (_wrong_input_link, "cell 'dense00' links 'Y' -> 'relu00', but cellArray lists it "
                        "between 'X' and 'relu00'"),
    (_dense_named_a_path, f"layer name '../d' {NOT_A_FILE_NAME}"),
    (_drop_input_size, "input cell 'X': input_size must be >= 1, got None"),
    (_drop_neurons, "cell_type 'dense' must declare the trait 'neurons'"),
    (_drop_sys_scale, "cell_type 'dense' lacks array trait(s) sys_scale; declare all five or none"),
    (_drop_array_traits, "evalType 'hwDBJob' needs a dense cell whose cell_type declares the "
                         "array traits sys_rows, sys_cols, sys_vec, sys_intrlv, sys_scale"),
    (_sys_scale_zero, "trait 'dense.sys_scale': every legal value must be >= 1, got 0"),
], ids=["no-dsp", "dsp-lots", "no-maxPopSize", "no-cell_name", "active-physJob", "powValue-1",
        "traitConfigValues-list", "evalTypes-int", "cellTypes-object", "inner-input-cell",
        "wrong-input-link", "dense-named-a-path", "no-input_size", "no-neurons", "no-sys_scale",
        "no-array-traits", "sys_scale-0"])
def test_search_rejects_bad_config(tmp_path, capsys, edit, message):
    doc = listing_doc()
    edit(doc)
    config = tmp_path / "bad.ecad.cfg"
    config.write_text(json.dumps(doc), encoding="utf-8")
    with time_limit(10):
        code = cli.main(["search", str(config), "--out-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def _self_include(directory):
    doc = listing_doc()
    doc["includes"] = ["main.ecad.cfg"]
    return doc


def _include_cycle(directory):
    (directory / "a.cfg").write_text(json.dumps({"includes": ["b.cfg"]}), encoding="utf-8")
    (directory / "b.cfg").write_text(json.dumps({"includes": ["a.cfg"]}), encoding="utf-8")
    doc = listing_doc()
    doc["includes"] = ["a.cfg"]
    return doc


def _includes_string(directory):
    doc = listing_doc()
    doc["includes"] = "GlobalSettings.ecad.cfg"
    return doc


def _includes_int(directory):
    doc = listing_doc()
    doc["includes"] = [5]
    return doc


def _includes_directory(directory):
    doc = listing_doc()
    doc["includes"] = ["."]
    return doc


def _hw_only_nan_weight(directory):
    # json.dumps writes the weight as the literal NaN, which JSON does not have
    doc = listing_doc()
    for et in doc["popConfigValues"]["evalTypes"]:
        et["active"] = et["type"] == "hwDBJob"
    next(et for et in doc["popConfigValues"]["evalTypes"] if et["active"])["weight"] = math.nan
    return doc


@pytest.mark.parametrize("make,message", [
    (None, "config file not found: {dir}/main.ecad.cfg"),
    (_self_include, "include cycle: {dir}/main.ecad.cfg -> {dir}/main.ecad.cfg"),
    (_include_cycle, "include cycle: {dir}/main.ecad.cfg -> {dir}/a.cfg -> {dir}/b.cfg -> {dir}/a.cfg"),
    (_includes_string, 'config: includes must be a JSON array, got "GlobalSettings.ecad.cfg"'),
    (_includes_int, "config: includes[0] must be a JSON string, got 5"),
    (_includes_directory, "cannot read include file {dir}: Is a directory"),
    (_hw_only_nan_weight, "config syntax error: NaN is not a JSON value"),
], ids=["missing-file", "self-include", "include-cycle", "includes-string", "includes-int",
        "includes-directory", "nan-weight"])
def test_search_rejects_unloadable_config(tmp_path, capsys, make, message):
    directory = tmp_path.resolve()
    config = directory / "main.ecad.cfg"
    if make is not None:
        config.write_text(json.dumps(make(directory)), encoding="utf-8")
    with time_limit(10):
        code = cli.main(["search", str(config), "--out-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {message.format(dir=directory)}\n"
    assert not (tmp_path / "out").exists()


def _no_active_eval_type(doc):
    for et in doc["popConfigValues"]["evalTypes"]:
        et["active"] = False


def _unsatisfiable_interleave(doc):
    # the listing's widest sys_rows + sys_cols is 128
    next(ct for ct in doc["cellTypes"] if ct["cell_type"] == "dense")["sys_intrlv"]["maxValue"] = 64


def _cell_type_twice(doc):
    doc["cellTypes"].append({"cell_type": "relu"})


def _eval_type_twice(doc):
    doc["popConfigValues"]["evalTypes"].append(
        {"type": "hwDBJob", "weight": 5, "minValue": 0, "maxValue": 1e9, "active": True})


def _bad_metric(doc):
    next(et for et in doc["popConfigValues"]["evalTypes"]
         if et["type"] == "hwDBJob")["metric"] = "effective_gop"


@pytest.mark.parametrize("edit,message", [
    (_no_active_eval_type, "popConfigValues: no active evalType"),
    (_unsatisfiable_interleave, "trait 'dense.sys_intrlv': no power of two >= 128 within [2, 64]"),
    (_cell_type_twice, "cell_type 'relu' is declared twice in cellTypes"),
    (_eval_type_twice, "popConfigValues: evalType 'hwDBJob' is listed twice"),
    (_bad_metric, "evalType 'hwDBJob': unknown metric 'effective_gop'; expected one of "
                  "total_time_ms, potential_gops, effective_gops, img_per_s, latency_ms, "
                  "dsp_est, mem_kb_est, feasible"),
], ids=["no-active", "interleave", "cell-type-twice", "eval-type-twice", "bad-metric"])
def test_refused_config_keeps_the_previous_run(tmp_path, capsys, edit, message):
    out = tmp_path / "out"
    out.mkdir()
    before = {name: f"previous {name}\n".encode() for name in
              ("ecad.db.jsonl", "report.json", "generations.csv")}
    for name, data in before.items():
        (out / name).write_bytes(data)
    doc = json.loads(write_hw_only_config(tmp_path, 3).read_text(encoding="utf-8"))
    edit(doc)
    config = tmp_path / "bad.ecad.cfg"
    config.write_text(json.dumps(doc), encoding="utf-8")
    code = cli.main(["search", str(config), "--out-dir", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert {name: (out / name).read_bytes() for name in before} == before


@pytest.mark.parametrize("command", ["search", "train", "export", "actualize"])
def test_output_path_that_cannot_be_created(tmp_path, capsys, network_file, tiny_mnist, command):
    afile = tmp_path / "afile"
    afile.write_text("not a directory\n", encoding="utf-8")
    config = write_hw_only_config(tmp_path, 1)
    if command == "export":
        assert cli.main(["search", str(config), "--out-dir", str(tmp_path / "run")]) == 0
        capsys.readouterr()
    argv = {
        "search": ["search", str(config), "--out-dir", str(afile / "sub")],
        "train": ["train", str(network_file), str(afile / "sub"), "--mnist-dir", str(tiny_mnist)],
        "export": ["export", str(tmp_path / "run" / store.DB_FILENAME), "0", str(afile / "x.json")],
        "actualize": ["actualize", str(network_file), str(afile / "x.h")],
    }[command]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
    assert str(afile) in captured.err


@pytest.fixture
def tiny_mnist(tmp_path):
    """Six training and three test images of the MNIST shape, labels in 0..9."""
    mnist = tmp_path / "mnist"
    mnist.mkdir()
    for stem, n in (("train", 6), ("t10k", 3)):
        write_idx_images(mnist / f"{stem}-images-idx3-ubyte", np.zeros((n, 784), dtype=np.uint8))
        write_idx_labels(mnist / f"{stem}-labels-idx1-ubyte", np.arange(n, dtype=np.uint8))
    return mnist


def _no_layers(doc):
    doc["layers"] = []


def _unchained(doc):
    doc["layers"][1]["in"] = 20


def _input_100(doc):
    doc["layers"][0]["in"] = 100


def _output_12(doc):
    doc["layers"][-1]["out"] = 12


def _sigmoid(doc):
    doc["layers"][0]["activation"] = "sigmoid"


def _bias_string(doc):
    doc["layers"][0]["bias"] = "false"


def _width_0(doc):
    doc["layers"][0]["out"] = 0


def _batch_0(doc):
    doc["batch"] = 0


@pytest.mark.parametrize("edit,message", [
    (_no_layers, "cannot load network description {net}: network description has no layers"),
    (_unchained, "cannot load network description {net}: "
                 "layer 'Y' takes 20 inputs, but 'dense00' gives 16"),
    (_input_100, "network {net} maps 100 inputs to 10 outputs, "
                 "but the dataset has 784 features and 10 classes"),
    (_output_12, "network {net} maps 784 inputs to 12 outputs, "
                 "but the dataset has 784 features and 10 classes"),
    (_sigmoid, "cannot load network description {net}: "
               "layer 'dense00': activation must be 'relu' or 'none', got 'sigmoid'"),
    (_bias_string, "cannot load network description {net}: "
                   "layer 'dense00': bias must be a JSON boolean, got \"false\""),
    (_width_0, "cannot load network description {net}: "
               "layer 'dense00' maps 784 inputs to 0 outputs; both must be >= 1"),
    (_batch_0, "cannot load network description {net}: "
               "network description batch must be >= 1, got 0"),
], ids=["no-layers", "unchained", "input-100", "output-12", "sigmoid", "bias-string",
        "width-0", "batch-0"])
def test_train_rejects_widths_that_do_not_fit(tmp_path, tiny_mnist, capsys, edit, message):
    doc = mlp_desc([784, 16, 10], batch=4).to_json()
    edit(doc)
    net = tmp_path / "net.json"
    net.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["train", str(net), str(tmp_path / "dest"), "--mnist-dir", str(tiny_mnist)]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message.format(net=net)}\n"
    assert not (tmp_path / "dest").exists()


def test_eval_rejects_unchained_layers(tmp_path, capsys):
    doc = mlp_desc([784, 16, 10], batch=4, cfg=(2, 2, 2, 4, 2)).to_json()
    _unchained(doc)
    net = tmp_path / "net.json"
    net.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["eval", str(net)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: cannot load network description {net}: "
                            "layer 'Y' takes 20 inputs, but 'dense00' gives 16\n")


@pytest.mark.parametrize("sim_active", [True, False], ids=["joint", "hw-only"])
def test_search_checks_config_widths_when_training(tmp_path, tiny_mnist, capsys, sim_active):
    doc = listing_doc()
    next(c for c in doc["cellArray"] if c["cell_type"] == "input")["input_size"] = 100
    doc["popConfigValues"]["maxGenerations"] = 1
    next(et for et in doc["popConfigValues"]["evalTypes"] if et["type"] == "simJob")["active"] = sim_active
    config = tmp_path / "wide.ecad.cfg"
    config.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    code = cli.main(["search", str(config), "--out-dir", str(out), "--mnist-dir", str(tiny_mnist)])
    captured = capsys.readouterr()
    if sim_active:
        assert code == 1
        assert captured.out == ""
        assert captured.err == ("error: config maps 100 inputs to 10 outputs, "
                                "but the dataset has 784 features and 10 classes\n")
        assert not out.exists()
    else:   # the hardware model reads no dataset, so any input width is searched
        assert code == 0
        assert (out / "report.json").exists()


def test_train_rejects_label_outside_classes(tmp_path, network_file, capsys):
    mnist = tmp_path / "mnist"
    mnist.mkdir()
    for stem, n in (("train", 6), ("t10k", 3)):
        write_idx_images(mnist / f"{stem}-images-idx3-ubyte", np.zeros((n, 784), dtype=np.uint8))
        write_idx_labels(mnist / f"{stem}-labels-idx1-ubyte", np.full(n, 12, dtype=np.uint8))
    argv = ["train", str(network_file), str(tmp_path / "dest"), "--mnist-dir", str(mnist)]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {mnist / 'train-labels-idx1-ubyte'}: label 12 is outside 0..9\n"
    assert not (tmp_path / "dest").exists()


def test_train_report_is_byte_reproducible(tmp_path, tiny_mnist, network_file, capsys):
    # the report holds no wall-clock time, so one seed gives one file
    dests = [tmp_path / "a", tmp_path / "b"]
    for dest in dests:
        assert cli.main(["train", str(network_file), str(dest), "--epochs", "2",
                         "--batch-size", "3", "--seed", "4", "--mnist-dir", str(tiny_mnist)]) == 0
    assert "s); report in" in capsys.readouterr().out   # the time is still printed
    assert (dests[0] / "report.json").read_bytes() == (dests[1] / "report.json").read_bytes()


def write_bin(path, dims, values):
    path.write_bytes(struct.pack("<4i", *dims) + struct.pack(f"<{len(values)}f", *values))


@pytest.mark.parametrize("fault", ["missing dir", "short header", "bias length"])
def test_simulate_array_bad_params_dir(tmp_path, network_file, capsys, fault):
    params = tmp_path / "params"
    if fault != "missing dir":
        params.mkdir()
        write_bin(params / "dense00_weights.bin", (784, 4, 1, 1), [0.0] * (784 * 4))
        write_bin(params / "dense00_biases.bin", (3, 1, 1, 1), [0.0] * 3)
        if fault == "short header":
            (params / "dense00_weights.bin").write_bytes(b"\x00" * 8)
    argv = ["simulate-array", "--cfg", "2,2,2,4,2", "--network", str(network_file),
            "--params-dir", str(params)]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot load parameters from {params}: ")


@pytest.mark.parametrize("command", ["simulate-array", "eval"])
def test_array_flag_field_below_one_is_an_error(network_file, capsys, command):
    argv = {"simulate-array": ["simulate-array"], "eval": ["eval", str(network_file)]}[command]
    assert cli.main([*argv, "--cfg", "4,4,8,0,8"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: systolic config: interleave must be >= 1, got 0\n"


def _root_list(doc):
    return [doc]


def _layer_int(doc):
    doc["layers"][0] = 5
    return doc


def _systolic_int(doc):
    doc["systolic"] = 5
    return doc


def _width_null(doc):
    doc["layers"][0]["out"] = None
    return doc


def _layer_name_null(doc):
    doc["layers"][1]["name"] = None
    return doc


def _no_layers_key(doc):
    del doc["layers"]
    return doc


def _array_field_below_one(doc):
    doc["systolic"] = {"rows": 0, "cols": 4, "vec": 8, "interleave": 8, "scale": -3}
    return doc


@pytest.mark.parametrize("edit,message", [
    (_root_list, "network description must be a JSON object, got a JSON array"),
    (_layer_int, "network description: layers[0] must be a JSON object, got 5"),
    (_systolic_int, "network description: systolic must be a JSON object, got 5"),
    (_width_null, "layer 'dense00': out must be a JSON integer, got null\n"),
    (_array_field_below_one, "systolic config: rows must be >= 1, got 0\n"),
    (_layer_name_null, "network description: layers[1]: name must be a JSON string, got null\n"),
    (_no_layers_key, "network description: missing key 'layers'\n"),
], ids=["root-list", "layer-int", "systolic-int", "width-null", "rows-0", "name-null", "no-layers-key"])
def test_description_refused_with_one_error_line(tmp_path, capsys, edit, message):
    net, out = tmp_path / "net.json", tmp_path / "array.h"
    net.write_text(json.dumps(edit(mlp_desc([784, 4, 10], batch=4, cfg=(2, 2, 2, 4, 2)).to_json())),
                   encoding="utf-8")
    assert cli.main(["actualize", str(net), str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: cannot load network description {net}: {message}")
    assert not out.exists()


def _set_field(path, value):
    """Edit that sets the field at ``path`` (keys and list indices) of a description."""
    def edit(doc):
        *parents, last = path
        target = doc
        for key in parents:
            target = target[key]
        target[last] = value
        return doc
    return edit


@pytest.mark.parametrize("command", ["eval", "actualize"])
@pytest.mark.parametrize("path,value,message", [
    (("systolic", "rows"), 2.7, "systolic: rows must be a JSON integer, got 2.7"),
    (("systolic", "scale"), 2.0, "systolic: scale must be a JSON integer, got 2.0"),
    (("layers", 0, "in"), 4.5, "layer 'dense00': in must be a JSON integer, got 4.5"),
    (("layers", 1, "out"), "4", "layer 'Y': out must be a JSON integer, got \"4\""),
    (("batch",), 1.9, "network description: batch must be a JSON integer, got 1.9"),
    (("id",), True, "network description: id must be a JSON integer, got true"),
], ids=["rows-2.7", "scale-2.0", "in-4.5", "out-string", "batch-1.9", "id-true"])
def test_non_integer_description_number_refused(tmp_path, capsys, command, path, value, message):
    net, out = tmp_path / "net.json", tmp_path / "array.h"
    doc = _set_field(path, value)(mlp_desc([784, 4, 10], batch=4, cfg=(2, 2, 2, 4, 2)).to_json())
    net.write_text(json.dumps(doc), encoding="utf-8")
    argv = {"eval": ["eval", str(net)], "actualize": ["actualize", str(net), str(out)]}[command]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot load network description {net}: {message}\n"
    assert sorted(tmp_path.iterdir()) == [net]


@pytest.mark.parametrize("names,message", [
    (("a", "a"), "layer name 'a' is used twice; each layer's parameters are saved under its name"),
    (("", "Y"), f"layer name '' {NOT_A_FILE_NAME}"),
    ((".", "Y"), f"layer name '.' {NOT_A_FILE_NAME}"),
    (("..", "Y"), f"layer name '..' {NOT_A_FILE_NAME}"),
    (("../escaped", "Y"), f"layer name '../escaped' {NOT_A_FILE_NAME}"),
    (("dense00", "out/Y"), f"layer name 'out/Y' {NOT_A_FILE_NAME}"),
    (("a\\b", "Y"), f"layer name 'a\\\\b' {NOT_A_FILE_NAME}"),
], ids=["twice", "empty", "dot", "dotdot", "escapes", "slash", "backslash"])
def test_layer_name_that_cannot_name_a_file_is_refused(tmp_path, capsys, tiny_mnist, names,
                                                       message):
    # `train --save-wb` writes <name>_weights.bin per layer: a repeated name
    # would overwrite the first layer's files, a path would leave the destination
    net, dest = tmp_path / "net.json", tmp_path / "out" / "p"
    doc = mlp_desc([784, 4, 10], batch=4).to_json()
    for layer, name in zip(doc["layers"], names):
        layer["name"] = name
    net.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["train", str(net), str(dest), "--epochs", "1", "--batch-size", "3", "--save-wb",
            "--mnist-dir", str(tiny_mnist)]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot load network description {net}: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["mnist", "net.json"]


def test_explicit_mnist_dir_must_exist(tmp_path, network_file, capsys):
    missing = tmp_path / "no" / "such" / "dir"
    argv = ["train", str(network_file), str(tmp_path / "dest"), "--mnist-dir", str(missing)]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: MNIST directory not found: {missing}\n"
    assert not (tmp_path / "dest").exists()


def test_empty_test_split_is_an_error(tmp_path, tiny_mnist, network_file, capsys):
    images = tiny_mnist / "t10k-images-idx3-ubyte"
    write_idx_images(images, np.zeros((0, 784), dtype=np.uint8))
    write_idx_labels(tiny_mnist / "t10k-labels-idx1-ubyte", np.zeros(0, dtype=np.uint8))
    argv = ["train", str(network_file), str(tmp_path / "dest"), "--mnist-dir", str(tiny_mnist)]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {images}: holds no images\n"
    assert not (tmp_path / "dest").exists()


def test_dataset_comes_only_from_the_mnist_dir_flag(tmp_path, tiny_mnist, network_file, capsys,
                                                    monkeypatch):
    # neither $ECAD_MNIST_DIR nor ./data/mnist names the dataset: without the
    # flag a command uses the synthetic stand-in
    params = tmp_path / "params"
    assert cli.main(["train", str(network_file), str(params), "--epochs", "1", "--batch-size", "3",
                     "--save-wb", "--mnist-dir", str(tiny_mnist)]) == 0
    capsys.readouterr()
    work = tmp_path / "work"
    shutil.copytree(tiny_mnist, work / "data" / "mnist")
    monkeypatch.chdir(work)
    monkeypatch.setenv("ECAD_MNIST_DIR", str(tiny_mnist))
    argv = ["simulate-array", "--cfg", "2,2,2,4,2", "--network", str(network_file),
            "--params-dir", str(params), "--limit", "5"]
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == "note: no --mnist-dir given, using the synthetic stand-in dataset\n"
    assert json.loads(captured.out)["images"] == 5   # the IDX fixture holds 3 test images
    data, stand_in = cli._resolve_dataset(None, 0), synthetic_mnist(seed=0, n_train=0)
    assert data.train_x.shape[0] == 0
    assert np.array_equal(data.test_x, stand_in.test_x)
    assert np.array_equal(data.test_y, stand_in.test_y)


def test_simulate_network_reads_only_the_test_split(tmp_path, tiny_mnist, network_file, capsys):
    # simulate-array classifies test images only: a directory holding just the
    # t10k files, or an empty train split next to them, gives the full one's output
    params = tmp_path / "params"
    assert cli.main(["train", str(network_file), str(params), "--epochs", "1", "--batch-size", "3",
                     "--save-wb", "--mnist-dir", str(tiny_mnist)]) == 0
    test_only, empty_train = tmp_path / "t10k-only", tmp_path / "empty-train"
    for d in (test_only, empty_train):
        d.mkdir()
        for name in ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"):
            shutil.copy(tiny_mnist / name, d / name)
    write_idx_images(empty_train / "train-images-idx3-ubyte", np.zeros((0, 784), dtype=np.uint8))
    write_idx_labels(empty_train / "train-labels-idx1-ubyte", np.zeros(0, dtype=np.uint8))
    capsys.readouterr()
    outputs = []
    for mnist in (tiny_mnist, test_only, empty_train):
        argv = ["simulate-array", "--cfg", "2,2,2,4,2", "--network", str(network_file),
                "--params-dir", str(params), "--mnist-dir", str(mnist), "--limit", "5"]
        assert cli.main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs.append(captured.out)
    assert outputs[1] == outputs[2] == outputs[0]
    assert json.loads(outputs[0])["images"] == 3


@pytest.fixture(scope="module")
def stand_in():
    """The whole synthetic stand-in, 60,000 training and 10,000 test rows."""
    return synthetic_mnist(seed=0)


@pytest.mark.parametrize("n", [1, 255, 257, 2000, 60001])
def test_train_subset_builds_a_prefix_of_the_stand_in(n, stand_in):
    data = cli._resolve_dataset(None, n)
    kept = min(n, 60000)
    assert data.train_x.shape[0] == kept
    for got, want in ((data.train_x, stand_in.train_x[:kept]), (data.train_y, stand_in.train_y[:kept]),
                      (data.test_x, stand_in.test_x), (data.test_y, stand_in.test_y)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("limit", [5, 300])
def test_simulate_network_builds_only_its_limit_of_stand_in_rows(
        tmp_path, tiny_mnist, network_file, stand_in, capsys, monkeypatch, limit):
    # the output equals that of an IDX directory holding the first --limit
    # rows of the whole stand-in test split
    params = tmp_path / "params"
    assert cli.main(["train", str(network_file), str(params), "--epochs", "1", "--batch-size", "3",
                     "--save-wb", "--mnist-dir", str(tiny_mnist)]) == 0
    t10k = tmp_path / "t10k"
    t10k.mkdir()
    write_idx_images(t10k / "t10k-images-idx3-ubyte", stand_in.test_x[:limit])
    write_idx_labels(t10k / "t10k-labels-idx1-ubyte", stand_in.test_y[:limit])
    built = []
    build = cli.ds.synthetic_mnist
    monkeypatch.setattr(cli.ds, "synthetic_mnist", lambda **kw: built.append(kw) or build(**kw))
    capsys.readouterr()
    outputs = []
    for flags in ([], ["--mnist-dir", str(t10k)]):
        argv = ["simulate-array", "--cfg", "2,2,2,4,2", "--network", str(network_file),
                "--params-dir", str(params), "--limit", str(limit), *flags]
        assert cli.main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["images"] == limit
    assert built == [{"seed": 0, "n_train": 0, "n_test": limit}]



@pytest.fixture
def random_mnist(tmp_path):
    """40 training and 20 test images of random pixels, labels in 0..9."""
    rng = np.random.default_rng(3)
    mnist = tmp_path / "random-mnist"
    mnist.mkdir()
    for stem, n in (("train", 40), ("t10k", 20)):
        write_idx_images(mnist / f"{stem}-images-idx3-ubyte", rng.integers(0, 256, (n, 784), dtype=np.uint8))
        write_idx_labels(mnist / f"{stem}-labels-idx1-ubyte", rng.integers(0, 10, n))
    return mnist


def copy_with_prefix(src: Path, dest: Path, stem: str, n: int) -> Path:
    """A copy of the IDX directory src whose stem split holds only its first n rows."""
    shutil.copytree(src, dest)
    images = np.frombuffer((src / f"{stem}-images-idx3-ubyte").read_bytes()[16:], dtype=np.uint8)
    labels = np.frombuffer((src / f"{stem}-labels-idx1-ubyte").read_bytes()[8:], dtype=np.uint8)
    write_idx_images(dest / f"{stem}-images-idx3-ubyte", images.reshape(-1, 784)[:n])
    write_idx_labels(dest / f"{stem}-labels-idx1-ubyte", labels[:n])
    return dest


@pytest.mark.parametrize("n", [1, 13, 40, 45])
def test_train_subset_reads_a_prefix_of_the_idx_files(tmp_path, random_mnist, network_file, capsys, n):
    # training on the first N rows of an IDX directory writes the same bytes
    # as training on a directory that holds only those rows
    prefix = copy_with_prefix(random_mnist, tmp_path / "prefix", "train", n)
    outputs = []
    for mnist in (random_mnist, prefix):
        dest = tmp_path / f"params-{mnist.name}"
        assert cli.main(["train", str(network_file), str(dest), "--epochs", "2", "--batch-size", "4",
                         "--save-wb", "--train-subset", str(n), "--mnist-dir", str(mnist)]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(dest.iterdir())})
    assert capsys.readouterr().err == ""
    assert sorted(outputs[0]) == ["Y_biases.bin", "Y_weights.bin", "dense00_biases.bin",
                                  "dense00_weights.bin", "report.json"]
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("limit", [1, 7, 20, 25])
def test_simulate_network_reads_only_its_limit_of_idx_rows(
        tmp_path, random_mnist, network_file, capsys, limit):
    # the output equals that of an IDX directory holding only the first
    # --limit test rows, as for the stand-in
    params = tmp_path / "params"
    assert cli.main(["train", str(network_file), str(params), "--epochs", "1", "--batch-size", "4",
                     "--save-wb", "--mnist-dir", str(random_mnist)]) == 0
    prefix = copy_with_prefix(random_mnist, tmp_path / "prefix", "t10k", limit)
    capsys.readouterr()
    outputs = []
    for mnist in (random_mnist, prefix):
        argv = ["simulate-array", "--cfg", "2,2,2,4,2", "--network", str(network_file),
                "--params-dir", str(params), "--mnist-dir", str(mnist), "--limit", str(limit)]
        assert cli.main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["images"] == min(limit, 20)


def test_simulate_network_rejects_widths_that_do_not_fit(tmp_path, tiny_mnist, capsys):
    # a 784 -> 5 network with saved parameters is refused as train refuses it
    net = tmp_path / "net.json"
    desc = mlp_desc([784, 4, 5], batch=4)
    net.write_text(json.dumps(desc.to_json()), encoding="utf-8")
    params = tmp_path / "params"
    nnsim.save_params(init_mlp(desc, seed=0), params, [l.name for l in desc.layers])
    message = (f"error: network {net} maps 784 inputs to 5 outputs, but the dataset "
               f"has 784 features and 10 classes\n")
    argvs = (["train", str(net), str(tmp_path / "dest"), "--mnist-dir", str(tiny_mnist)],
             ["simulate-array", "--cfg", "2,2,2,4,2", "--network", str(net),
              "--params-dir", str(params), "--mnist-dir", str(tiny_mnist), "--limit", "3"])
    for argv in argvs:
        assert cli.main(argv) == 1
        assert capsys.readouterr() == ("", message)
    assert not (tmp_path / "dest").exists()

def test_clock_comes_from_the_device_config(tmp_path, capsys):
    # the (4, 4, 8, 8, 8) array is compute-bound on every Table 2 layer, so
    # every time scales with the clock period
    desc = mlp_desc([784, 196, 190, 150, 10], batch=64, cfg=(4, 4, 8, 8, 8))
    net = tmp_path / "net.json"
    net.write_text(json.dumps(desc.to_json()), encoding="utf-8")
    configs = {}
    for freq in (250, 300):
        doc = listing_doc()
        doc["hwConfig"]["freq"] = freq
        configs[freq] = tmp_path / f"f{freq}.ecad.cfg"
        configs[freq].write_text(json.dumps(doc), encoding="utf-8")
    by_worker, by_eval = {}, {}
    for freq, path in configs.items():
        job = EvalJob(genome_id=0, eval_type="hwDBJob", network=desc)
        by_worker[freq] = make_hwdb_worker(parse_config(path).hw)(job).metrics
        assert cli.main(["eval", str(net), "--config", str(path)]) == 0
        by_eval[freq] = json.loads(capsys.readouterr().out)
    assert by_eval == by_worker
    fast, slow = by_worker[300], by_worker[250]
    assert fast["potential_gops"] == pytest.approx(76.8, rel=1e-12)
    assert slow["potential_gops"] == pytest.approx(64.0, rel=1e-12)
    for name in ("total_time_ms", "latency_ms"):
        assert fast[name] == pytest.approx(slow[name] * 250 / 300, rel=1e-12)
    for name in ("effective_gops", "img_per_s"):
        assert fast[name] == pytest.approx(slow[name] * 300 / 250, rel=1e-12)
