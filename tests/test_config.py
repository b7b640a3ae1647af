import json
from dataclasses import replace

import pytest

from ecad.config import ConfigError, TraitSpec, parse_config

from helpers import time_limit


def minimal_doc(**overrides):
    doc = {
        "name": "minimal",
        "version": "v1",
        "popConfigValues": {
            "initialPopSize": 2,
            "maxPopSize": 4,
            "changeRate": 0.5,
            "minIndivEvalCompleteBeforeFitSelect": 1,
            "maxGenerations": 3,
            "fitnessScoreGoal": 2.0,
            "evalTypes": [
                {"type": "hwDBJob", "weight": 1.0, "minValue": 0, "maxValue": 1000.0,
                 "active": True, "allowOverflow": False},
            ],
        },
        "traitConfigValues": {"defChangeRate": 0.1},
        "cellTypes": [
            {"cell_type": "input", "batch_size": {"minValue": 2, "maxValue": 8, "modValue": 2}},
            {"cell_type": "dense",
             "neurons": {"minValue": 2, "maxValue": 16, "modValue": 2},
             "sys_rows": {"minValue": 2, "maxValue": 4, "modValue": 2},
             "sys_cols": {"minValue": 2, "maxValue": 4, "powValue": 2, "func": "PowFunction"},
             "sys_vec": {"minValue": 2, "maxValue": 4, "powValue": 2, "func": "PowFunction"},
             "sys_intrlv": {"minValue": 2, "maxValue": 16, "modValue": 2},
             "sys_scale": {"minValue": 2, "maxValue": 4, "modValue": 2},
             "enableBias": {"minValue": 0, "maxValue": 1}},
            {"cell_type": "relu"},
            {"cell_type": "output"},
        ],
        "netConfig": {"netType": "mlp"},
        "hwConfig": {"deviceType": "test", "dsp": 100, "freq": 100, "sram": 1000,
                     "mem_banks": 1, "mem_speed": 1000, "mem_rate": 8},
        "cellArray": [
            {"cell_type": "input", "cell_name": "X", "input": "global", "output": "d0",
             "input_size": 8, "fixed": True},
            {"cell_type": "dense", "cell_name": "d0", "input": "X", "output": "r0"},
            {"cell_type": "relu", "cell_name": "r0", "input": "d0", "output": "Y"},
            {"cell_type": "output", "cell_name": "Y", "input": "r0", "output": "global",
             "output_size": 4, "fixed": True},
        ],
    }
    doc.update(overrides)
    return doc


class TestParseListing:
    def test_population_values(self, listing_cfg):
        assert listing_cfg.pop.initial_pop_size == 20
        assert listing_cfg.pop.max_pop_size == 40
        assert listing_cfg.pop.change_rate == 0.20
        assert listing_cfg.pop.max_generations == 2000
        assert listing_cfg.pop.fitness_score_goal == 2.0

    def test_device_budget(self, listing_cfg):
        assert listing_cfg.hw.dsp == 1518
        assert listing_cfg.hw.freq == 250
        assert listing_cfg.hw.sram == 54260
        assert listing_cfg.hw.bandwidth_bytes_per_s == 1 * 2400 * 1e6 * 8

    def test_eval_types(self, listing_cfg):
        types = {et.type: et for et in listing_cfg.pop.eval_types}
        assert types["simJob"].active and types["hwDBJob"].active
        assert not types["physJob"].active
        assert types["simJob"].epochs == 4 and types["simJob"].batch_size == 100
        assert types["simJob"].min_value == 0.9
        assert types["hwDBJob"].scored_metric == "effective_gops"
        assert types["physJob"].minimize

    def test_trait_specs(self, listing_cfg):
        dense = listing_cfg.cell_type_config("dense")
        assert dense.traits["sys_cols"].legal_values() == [2, 4, 8, 16, 32, 64]
        assert dense.traits["neurons"].legal_values()[:3] == [2, 4, 6]
        assert dense.traits["neurons"].legal_values()[-1] == 1024
        assert dense.traits["enableBias"].legal_values() == [0, 1]
        # static fields, computed geometry caches and comments are not traits
        assert {ct.cell_type: set(ct.traits) for ct in listing_cfg.cell_types} == {
            "input": {"batch_size"},
            "dense": {"neurons", "sys_rows", "sys_cols", "sys_vec", "sys_intrlv",
                      "sys_scale", "enableBias"},
            "relu": set(),
            "output": set(),
        }

    def test_mutation_rows(self, listing_cfg):
        rows = listing_cfg.mutation_rows
        assert [name for name, _, _ in rows["dense"]] == list(
            listing_cfg.cell_type_config("dense").traits)
        dense = {name: (rate, values) for name, rate, values in rows["dense"]}
        assert dense["sys_cols"] == (0.5, (2, 4, 8, 16, 32, 64))
        assert dense["sys_intrlv"][0] == 0.1          # no changeRate: defChangeRate
        assert dense["neurons"][1] == tuple(range(2, 1025, 2))
        assert rows["input"] == (("batch_size", 0.1, tuple(range(2, 1025, 2))),)
        assert rows["relu"] == rows["output"] == ()

    def test_per_config_data_follows_replaced_values(self, listing_cfg):
        dense = listing_cfg.cell_type_config("dense")
        narrowed = replace(dense, traits={
            **dense.traits, "neurons": replace(dense.traits["neurons"], max_value=8)})
        cfg = replace(listing_cfg, def_change_rate=0.3, cell_types=tuple(
            narrowed if ct.cell_type == "dense" else ct for ct in listing_cfg.cell_types))
        rows = {name: (rate, values) for name, rate, values in cfg.mutation_rows["dense"]}
        assert rows["neurons"] == (0.1, (2, 4, 6, 8))
        assert rows["sys_intrlv"][0] == 0.3
        assert cfg.cell_type_config("dense") is narrowed
        assert listing_cfg.cell_type_config("dense") is dense
        assert listing_cfg.mutation_rows["dense"][0] == ("neurons", 0.1, tuple(range(2, 1025, 2)))

        pop = replace(listing_cfg.pop, eval_types=tuple(
            replace(et, active=not et.active) for et in listing_cfg.pop.eval_types))
        assert [et.type for et in listing_cfg.pop.active_eval_types()] == ["simJob", "hwDBJob"]
        assert [et.type for et in pop.active_eval_types()] == ["physJob"]

    def test_chain_order(self, listing_cfg):
        assert [c.cell_name for c in listing_cfg.chain()] == ["X", "dense00", "relu00", "Y"]
        assert listing_cfg.chain()[0].input_size == 784
        assert listing_cfg.chain()[-1].output_size == 10

    def test_metric_override_preserved(self):
        doc = minimal_doc()
        doc["popConfigValues"]["evalTypes"][0]["metric"] = "img_per_s"
        cfg = parse_config(json.dumps(doc))
        assert cfg.pop.eval_types[0].scored_metric == "img_per_s"

    def test_comment_keys_ignored(self):
        doc = minimal_doc()
        trait_shaped = {"minValue": 2, "maxValue": 4}
        doc["cellTypes"][1].update({"comment": trait_shaped, "neurons_comment": trait_shaped,
                                    "sys_rows-comment": trait_shaped})
        dense = parse_config(json.dumps(doc)).cell_type_config("dense")
        assert not {"comment", "neurons_comment", "sys_rows-comment"} & dense.traits.keys()
        assert dense.traits["neurons"].legal_values()[-1] == 16

    def test_unread_keys_ignored(self):
        plain = parse_config(json.dumps(minimal_doc()))
        doc = minimal_doc(custom_key={"anything": 1}, netConfig={"netType": "cnn"},
                          cellConfigValues=[1, 2])
        doc["popConfigValues"]["minIndivEvalCompleteBeforeFitSelect"] = 10_000
        doc["cellTypes"][1]["HWGenMode"] = "MSA"
        assert parse_config(json.dumps(doc)) == plain


class TestIncludes:
    def test_main_file_wins(self, tmp_path):
        (tmp_path / "base.cfg").write_text(json.dumps(
            {"name": "from-include", "traitConfigValues": {"defChangeRate": 0.5}}))
        doc = minimal_doc(includes=["base.cfg"])
        del doc["traitConfigValues"]
        main = tmp_path / "main.cfg"
        main.write_text(json.dumps(doc))
        cfg = parse_config(main)
        assert cfg.name == "minimal"               # main file wins
        assert cfg.def_change_rate == 0.5          # the include fills what main lacks

    def test_missing_include(self, tmp_path):
        doc = minimal_doc(includes=["nope.cfg"])
        main = tmp_path / "main.cfg"
        main.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="include file not found"):
            parse_config(main)

    def test_nested_include(self, tmp_path):
        (tmp_path / "inner.cfg").write_text(json.dumps(
            {"name": "inner", "traitConfigValues": {"defChangeRate": 0.25}}))
        (tmp_path / "outer.cfg").write_text(json.dumps(
            {"includes": ["inner.cfg"], "traitConfigValues": {"defChangeRate": 0.5}}))
        doc = minimal_doc(includes=["outer.cfg"])
        del doc["name"], doc["traitConfigValues"]
        main = tmp_path / "main.cfg"
        main.write_text(json.dumps(doc))
        cfg = parse_config(main)
        assert cfg.def_change_rate == 0.5          # outer wins over inner
        assert cfg.name == "inner"                 # inner reaches main through outer


class TestValidation:
    def test_empty_cell_array(self):
        with pytest.raises(ConfigError, match="empty cell array"):
            parse_config(json.dumps(minimal_doc(cellArray=[])))

    def test_unknown_cell_type_named(self):
        doc = minimal_doc()
        doc["cellArray"][1]["cell_type"] = "conv"
        with pytest.raises(ConfigError, match="conv"):
            parse_config(json.dumps(doc))

    def test_broken_chain(self):
        doc = minimal_doc()
        doc["cellArray"][1]["output"] = "missing_cell"
        with pytest.raises(ConfigError, match="missing_cell"):
            parse_config(json.dumps(doc))

    def test_cycle_detected(self):
        doc = minimal_doc()
        doc["cellArray"][3]["output"] = "d0"
        with pytest.raises(ConfigError):
            parse_config(json.dumps(doc))

    def test_duplicate_names(self):
        doc = minimal_doc()
        doc["cellArray"][2]["cell_name"] = "d0"
        with pytest.raises(ConfigError, match="unique"):
            parse_config(json.dumps(doc))

    def test_syntax_error_position(self):
        with pytest.raises(ConfigError, match="line"):
            parse_config("{\n  broken json\n}")

    def test_pop_invariants(self):
        doc = minimal_doc()
        doc["popConfigValues"]["initialPopSize"] = 10
        doc["popConfigValues"]["maxPopSize"] = 5
        with pytest.raises(ConfigError, match="initialPopSize"):
            parse_config(json.dumps(doc))

    def test_eval_bounds(self):
        doc = minimal_doc()
        doc["popConfigValues"]["evalTypes"][0]["minValue"] = 5
        doc["popConfigValues"]["evalTypes"][0]["maxValue"] = 5
        with pytest.raises(ConfigError, match="minValue"):
            parse_config(json.dumps(doc))

    @pytest.mark.parametrize("change_rate,max_pop", [(1.0, 4), (0.99, 40)])
    def test_children_that_fill_population(self, change_rate, max_pop):
        doc = minimal_doc()
        doc["popConfigValues"]["changeRate"] = change_rate
        doc["popConfigValues"]["maxPopSize"] = max_pop
        with pytest.raises(ConfigError, match=rf"changeRate {change_rate} with maxPopSize {max_pop}"):
            parse_config(json.dumps(doc))
        doc["popConfigValues"]["maxGenerations"] = 1   # no children are ever made
        assert parse_config(json.dumps(doc)).pop.change_rate == change_rate

    @pytest.mark.parametrize("value", [0, -2])
    def test_sim_epochs_at_least_one(self, value):
        doc = minimal_doc()
        doc["popConfigValues"]["evalTypes"].append(
            {"type": "simJob", "minValue": 0, "maxValue": 1, "epochs": value})
        with pytest.raises(ConfigError, match=rf"simJob': epochs must be >= 1, got {value}"):
            parse_config(json.dumps(doc))

    @pytest.mark.parametrize("value", [0, -100])
    def test_sim_batch_size_at_least_one(self, value):
        doc = minimal_doc()
        doc["popConfigValues"]["evalTypes"].append(
            {"type": "simJob", "minValue": 0, "maxValue": 1, "batchSize": value})
        with pytest.raises(ConfigError, match=rf"simJob': batchSize must be >= 1, got {value}"):
            parse_config(json.dumps(doc))

    @pytest.mark.parametrize("active", [{"active": True}, {}])
    def test_active_phys_job_rejected(self, active):
        # physJob has no worker; only an inactive entry, as in the listing, parses
        doc = minimal_doc()
        doc["popConfigValues"]["evalTypes"].append(
            {"type": "physJob", "minValue": 0, "maxValue": 1, **active})
        with pytest.raises(ConfigError, match="evalType 'physJob' has no worker"):
            parse_config(json.dumps(doc))

    def test_hw_positive(self):
        doc = minimal_doc()
        doc["hwConfig"]["dsp"] = 0
        with pytest.raises(ConfigError, match="dsp"):
            parse_config(json.dumps(doc))


class TestTraitSpec:
    def test_min_above_max(self):
        with pytest.raises(ConfigError, match="minValue"):
            TraitSpec.from_json("t", {"minValue": 5, "maxValue": 2})

    def test_mod_alignment(self):
        with pytest.raises(ConfigError, match="multiples"):
            TraitSpec.from_json("t", {"minValue": 3, "maxValue": 8, "modValue": 2})

    def test_pow_requires_pow_value(self):
        with pytest.raises(ConfigError, match="powValue"):
            TraitSpec.from_json("t", {"minValue": 2, "maxValue": 8, "func": "PowFunction"})

    @pytest.mark.parametrize("pow_value", [1, 0, -2])
    def test_pow_value_below_two_rejected(self, pow_value):
        # powers of 0 or 1 never pass maxValue, so listing them would not end
        doc = minimal_doc()
        doc["cellTypes"][1]["sys_cols"]["powValue"] = pow_value
        with time_limit(5), pytest.raises(
                ConfigError, match=f"trait 'dense.sys_cols': .* powValue >= 2, got {pow_value}"):
            parse_config(json.dumps(doc))

    def test_unsatisfiable_pow_range(self):
        with pytest.raises(ConfigError, match="no legal value"):
            TraitSpec.from_json("t", {"minValue": 5, "maxValue": 7, "powValue": 2,
                                      "func": "PowFunction"})

    @pytest.mark.parametrize("rate", [5, -1, 1.01])
    def test_change_rate_in_unit_interval(self, rate):
        with pytest.raises(ConfigError, match=r"trait 't': changeRate must be in \[0, 1\]"):
            TraitSpec.from_json("t", {"minValue": 2, "maxValue": 8, "changeRate": rate})
        for edge in (0, 1):
            assert TraitSpec.from_json("t", {"minValue": 2, "maxValue": 8,
                                             "changeRate": edge}).change_rate == edge

    def test_legal_values(self):
        spec = TraitSpec.from_json("t", {"minValue": 2, "maxValue": 64, "powValue": 2,
                                         "func": "PowFunction"})
        assert spec.legal_values() == [2, 4, 8, 16, 32, 64]
        spec = TraitSpec.from_json("t", {"minValue": 4, "maxValue": 4, "modValue": 2})
        assert spec.legal_values() == [4]

