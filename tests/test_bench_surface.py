"""The parts of the package the benchmark in perfbench/ uses still exist.

perfbench/ is read here, never changed: its directory goes on sys.path and its
modules are imported without writing bytecode. A change that drops or renames
a name the benchmark patches or calls fails here, in the tier-1 suite, rather
than first in the benchmark's smoke run.
"""

import importlib
import json
import sys

import numpy as np
import pytest

from ecad import cli, hwmodel, nnsim, sysarray

from helpers import LISTING_CONFIG, REPO_ROOT, mlp_desc
from oracles import init_mlp

# the hardware model's largest relative error against the paper's Table 2; it
# moves only together with test_hwmodel.py::TestEstimate::test_table2_within_tolerance
TABLE2_ERR_MAX = 0.08755072847348254


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    return {name: importlib.import_module(name) for name in ("workload", "table2", "tracer")}


def test_every_traced_name_exists(bench):
    workload, tracer = bench["workload"], bench["tracer"]
    before = (cli.make_hwdb_worker, hwmodel.estimate)
    t = tracer.Tracer()
    try:
        workload.instrument(workload.Iteration(t), traced=True)
        assert cli.make_hwdb_worker is not before[0]
    finally:
        t.close()
    assert (cli.make_hwdb_worker, hwmodel.estimate) == before


def test_array_conversion_kept_for_the_benchmark(bench):
    array = hwmodel.SystolicConfig(*bench["table2"].CFG)
    assert hwmodel.SystolicConfig.from_desc(array) is array
    assert hwmodel.SystolicConfig.from_desc(array, freq_mhz=300) is array


def test_model_table2_error(bench, tmp_path):
    net = tmp_path / "table2.json"
    net.write_text(json.dumps(bench["table2"].network(784, 10)), encoding="utf-8")
    spec = {"cfg_path": str(LISTING_CONFIG), "net_path": str(net)}
    assert bench["workload"].model_table2(spec) == pytest.approx(TABLE2_ERR_MAX, rel=1e-12)


def test_simulator_results_carry_what_the_benchmark_reads(bench, tmp_path, capsys):
    # the traced hook on simulate_layer sums two fields of its result, and the
    # deploy check sums the per-layer compute_cycles that simulate-array prints
    workload, tracer = bench["workload"], bench["tracer"]
    cfg = hwmodel.SystolicConfig(2, 2, 2, 4, 2)
    a, b = np.ones((5, 9), dtype=np.float32), np.ones((9, 6), dtype=np.float32)
    t = tracer.Tracer()
    try:
        it = workload.Iteration(t)
        it.on_simulate_layer((a, b, cfg), {}, sysarray.simulate_layer(a, b, cfg))
    finally:
        t.close()
    cost = hwmodel.gemm_cost(cfg, 5, 9, 6)
    assert (it.compute_cycles, it.drain_elements) == (cost.compute_cycles, cost.drain_elements)
    assert it.compute_cycles == hwmodel.compute_cycles(cfg, 5, 9, 6)

    desc = mlp_desc([784, 12, 10], batch=4, cfg=cfg.as_tuple())
    net, params = tmp_path / "net.json", tmp_path / "params"
    net.write_text(json.dumps(desc.to_json()), encoding="utf-8")
    nnsim.save_params(init_mlp(desc, seed=0), params, [l.name for l in desc.layers])
    argv = ["simulate-array", "--cfg", "2,2,2,4,2", "--network", str(net),
            "--params-dir", str(params), "--limit", "5"]
    assert cli.main(argv) == 0
    layers = json.loads(capsys.readouterr().out)["layers"]
    assert [layer["compute_cycles"] for layer in layers] == [
        hwmodel.compute_cycles(cfg, 5, l.in_features, l.out_features) for l in desc.layers]
