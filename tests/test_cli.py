import builtins
import hashlib
import itertools
import json
import math
import shutil
import struct
from pathlib import Path

import pytest

from ecad import cli, store
from ecad.config import parse_config
from ecad.store import EcadDb

from helpers import LISTING_CONFIG, listing_doc, mlp_desc, time_limit

GENERATIONS = 30


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
    records = (outs[0] / "ecad.db.jsonl").read_text(encoding="utf-8").splitlines()
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
        "ecad.db.jsonl": "101d58a122358d7ef815023223d8e6de09102af0a99ea38d1e22a3f8f9c1ed32",
        "report.json": "1bf88218ff6e00de28717e50f98265f7e936e61caf70b5d2858ff5e439a018d3",
    }


def test_long_search_matches_golden_digests(tmp_path):
    # a ten times longer run at another seed, pinned like the digests above
    config = write_hw_only_config(tmp_path, 300)
    out = tmp_path / "out"
    assert cli.main(["search", str(config), "--seed", "0", "--out-dir", str(out)]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("ecad.db.jsonl", "report.json", "generations.csv")}
    assert digests == {
        "ecad.db.jsonl": "5276f387f463e57a7a3af0b60684590429c6f67ce5e6565dc9c0fc1fcdabb317",
        "report.json": "ed974b59de0e9703e3439af18ee6e6ed401926392d8effe34f519b7335d586bd",
        "generations.csv": "58dd751718bffe962f5d7c14cfeba25daf716806146e44b3ac6f08481667d224",
    }


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
    assert lines == (full / "ecad.db.jsonl").read_bytes().splitlines(keepends=True)[:done]
    assert [r.seq for r in EcadDb(out / "ecad.db.jsonl").scan()] == list(range(done))
    assert not (out / "report.json").exists()


def test_second_search_into_same_dir_matches_fresh_run(tmp_path, hw_only_config):
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    assert search(hw_only_config, 3, fresh) == 0
    assert search(hw_only_config, 4, reused) == 0
    with open(reused / "ecad.db.jsonl", "a", encoding="utf-8") as fh:
        fh.write('{"seq":999,"gen')   # torn tail left by an earlier crash
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


def test_simulate_array_hand_computed_cycles(capsys):
    # the counts worked by hand in test_sysarray.py::TestSimulateLayer::test_hand_computed_cycles
    assert cli.main(["simulate-array", "--cfg", "2,2,2,2,2", "--m", "5", "--k", "9", "--n", "6"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["compute_cycles"], doc["a_blocks"], doc["b_blocks"], doc["drain_elements"]) == (96, 12, 12, 64)


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


@pytest.mark.parametrize("edit,message", [
    (_drop_dsp, "hwConfig: missing key 'dsp'"),
    (_dsp_lots, "hwConfig: bad value: invalid literal for int() with base 10: 'lots'"),
    (_drop_max_pop_size, "popConfigValues: missing key 'maxPopSize'"),
    (_drop_cell_name, "cellArray: missing key 'cell_name'"),
    (_activate_phys_job, "evalType 'physJob' has no worker; it must be inactive"),
    (_pow_value_one, "trait 'dense.sys_cols': func PowFunction requires powValue >= 2, got 1"),
], ids=["no-dsp", "dsp-lots", "no-maxPopSize", "no-cell_name", "active-physJob", "powValue-1"])
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
