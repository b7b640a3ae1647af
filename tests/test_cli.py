import json
import math
import shutil

import pytest

from ecad import cli
from ecad.config import parse_config

from helpers import LISTING_CONFIG

GENERATIONS = 30


@pytest.fixture
def hw_only_config(tmp_path):
    """The listing config with simJob deactivated and a short generation cap."""
    doc = json.loads(LISTING_CONFIG.read_text(encoding="utf-8"))
    pop = doc["popConfigValues"]
    pop["maxGenerations"] = GENERATIONS
    for et in pop["evalTypes"]:
        if et["type"] == "simJob":
            et["active"] = False
    for inc in doc["includes"]:
        shutil.copy(LISTING_CONFIG.parent / inc, tmp_path / inc)
    path = tmp_path / LISTING_CONFIG.name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


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


def test_simulate_array_hand_computed_cycles(capsys):
    # the counts worked by hand in test_sysarray.py::TestSimulateLayer::test_hand_computed_cycles
    assert cli.main(["simulate-array", "--cfg", "2,2,2,2,2", "--m", "5", "--k", "9", "--n", "6"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["compute_cycles"], doc["a_blocks"], doc["b_blocks"], doc["drain_elements"]) == (96, 12, 12, 64)
