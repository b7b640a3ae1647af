import json
import math
import random
import re
from dataclasses import replace

import pytest

from ecad import hwmodel
from ecad.cli import DEFAULT_HW
from ecad.config import HW_METRICS, SYS_ARRAY, ConfigError, TraitSpec, parse_config
from ecad.genome import SystolicConfig, mutate, spawn, to_description

from helpers import LISTING_CONFIG, listing_doc, mlp_desc, time_limit


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


def rename_cell(doc, pos, name):
    """Rename cell ``pos`` of ``doc``'s cellArray, and its neighbours' links to it."""
    old = doc["cellArray"][pos]["cell_name"]
    for cell in doc["cellArray"]:
        for key in ("cell_name", "input", "output"):
            if cell[key] == old:
                cell[key] = name


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
        dense = listing_cfg.cell_types["dense"]
        assert dense["sys_cols"].legal_values() == [2, 4, 8, 16, 32, 64]
        assert dense["neurons"].legal_values()[:3] == [2, 4, 6]
        assert dense["neurons"].legal_values()[-1] == 1024
        assert dense["enableBias"].legal_values() == [0, 1]
        # static fields, computed geometry caches and comments are not traits
        assert {ctype: set(traits) for ctype, traits in listing_cfg.cell_types.items()} == {
            "input": {"batch_size"},
            "dense": {"neurons", "sys_rows", "sys_cols", "sys_vec", "sys_intrlv",
                      "sys_scale", "enableBias"},
            "relu": set(),
            "output": set(),
        }

    def test_mutation_rows(self, listing_cfg):
        rows = listing_cfg.mutation_rows
        assert [name for name, _, _ in rows["dense"]] == list(listing_cfg.cell_types["dense"])
        dense = {name: (rate, values) for name, rate, values in rows["dense"]}
        assert dense["sys_cols"] == (0.5, (2, 4, 8, 16, 32, 64))
        assert dense["sys_intrlv"][0] == 0.1          # no changeRate: defChangeRate
        assert dense["neurons"][1] == tuple(range(2, 1025, 2))
        assert rows["input"] == (("batch_size", 0.1, tuple(range(2, 1025, 2))),)
        assert rows["relu"] == rows["output"] == ()

    def test_per_config_data_follows_replaced_values(self, listing_cfg):
        dense = listing_cfg.cell_types["dense"]
        narrowed = {**dense, "neurons": replace(dense["neurons"], max_value=8)}
        cfg = replace(listing_cfg, def_change_rate=0.3,
                      cell_types={**listing_cfg.cell_types, "dense": narrowed})
        rows = {name: (rate, values) for name, rate, values in cfg.mutation_rows["dense"]}
        assert rows["neurons"] == (0.1, (2, 4, 6, 8))
        assert rows["sys_intrlv"][0] == 0.3
        assert cfg.cell_types["dense"] is narrowed
        assert listing_cfg.cell_types["dense"] is dense
        assert listing_cfg.mutation_rows["dense"][0] == ("neurons", 0.1, tuple(range(2, 1025, 2)))

        pop = replace(listing_cfg.pop, eval_types=tuple(
            replace(et, active=not et.active) for et in listing_cfg.pop.eval_types))
        assert [et.type for et in listing_cfg.pop.active_eval_types()] == ["simJob", "hwDBJob"]
        assert [et.type for et in pop.active_eval_types()] == ["physJob"]

    def test_chain_order(self, listing_cfg):
        assert [c.cell_name for c in listing_cfg.cell_array] == ["X", "dense00", "relu00", "Y"]
        assert listing_cfg.cell_array[0].input_size == 784
        assert listing_cfg.cell_array[-1].output_size == 10

    def test_metric_override_preserved(self):
        doc = minimal_doc()
        doc["popConfigValues"]["evalTypes"][0]["metric"] = "img_per_s"
        cfg = parse_config(doc)
        assert cfg.pop.eval_types[0].scored_metric == "img_per_s"

    def test_comment_keys_ignored(self):
        doc = minimal_doc()
        trait_shaped = {"minValue": 2, "maxValue": 4}
        doc["cellTypes"][1].update({"comment": trait_shaped, "neurons_comment": trait_shaped,
                                    "sys_rows-comment": trait_shaped})
        dense = parse_config(doc).cell_types["dense"]
        assert not {"comment", "neurons_comment", "sys_rows-comment"} & dense.keys()
        assert dense["neurons"].legal_values()[-1] == 16

    def test_unread_keys_ignored(self):
        plain = parse_config(minimal_doc())
        doc = minimal_doc(custom_key={"anything": 1}, netConfig={"netType": "cnn"},
                          cellConfigValues=[1, 2])
        doc["popConfigValues"]["minIndivEvalCompleteBeforeFitSelect"] = 10_000
        doc["cellTypes"][1]["HWGenMode"] = "MSA"
        assert parse_config(doc) == plain


class TestSources:
    def test_path_str_and_document_agree(self):
        cfg = parse_config(LISTING_CONFIG)
        assert parse_config(str(LISTING_CONFIG)) == cfg
        assert parse_config(listing_doc()) == cfg

    def test_missing_file_named_by_str(self):
        # a str is always a path, never JSON text
        with pytest.raises(ConfigError, match="config file not found: no/such.cfg"):
            parse_config("no/such.cfg")

    def test_relative_include_in_document_refused(self):
        with pytest.raises(ConfigError, match="include 'base.cfg' is relative"):
            parse_config(minimal_doc(includes=["base.cfg"]))

    def test_absolute_include_in_document(self, tmp_path):
        (tmp_path / "base.cfg").write_text(json.dumps({"name": "from-include"}))
        doc = minimal_doc(includes=[str(tmp_path / "base.cfg")])
        del doc["name"]
        assert parse_config(doc).name == "from-include"


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
            parse_config(minimal_doc(cellArray=[]))

    def test_unknown_cell_type_named(self):
        doc = minimal_doc()
        doc["cellArray"][1]["cell_type"] = "conv"
        with pytest.raises(ConfigError, match="conv"):
            parse_config(doc)

    @pytest.mark.parametrize("edit,message", [
        (lambda d: d["cellArray"][1].update(input="Y"),
         "cell 'd0' links 'Y' -> 'r0', but cellArray lists it between 'X' and 'r0'"),
        (lambda d: d["cellArray"].insert(1, d["cellArray"].pop(2)),
         "cell 'X' links 'global' -> 'd0', but cellArray lists it between 'global' and 'r0'"),
        (lambda d: d["cellArray"][1].update(output="missing_cell"),
         "cell 'd0' links 'X' -> 'missing_cell', but cellArray lists it between 'X' and 'r0'"),
        (lambda d: d["cellArray"][3].update(output="d0"),
         "cell 'Y' links 'r0' -> 'd0', but cellArray lists it between 'r0' and 'global'"),
    ], ids=["wrong-input", "out-of-order", "broken-output", "links-back"])
    def test_link_must_name_the_listed_neighbour(self, edit, message):
        # the cell array is the chain in listed order; it is never reordered
        doc = minimal_doc()
        edit(doc)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(doc)

    def test_duplicate_names(self):
        doc = minimal_doc()
        doc["cellArray"][2]["cell_name"] = "d0"
        with pytest.raises(ConfigError, match="unique"):
            parse_config(doc)

    def test_cell_named_global_refused(self):
        # its links would read as links to either end of the chain
        doc = minimal_doc()
        rename_cell(doc, 2, "global")
        with pytest.raises(ConfigError, match="^cell_name values must be unique and not 'global'$"):
            parse_config(doc)

    @pytest.mark.parametrize("pos,name", [(1, ""), (1, "."), (1, ".."), (1, "../d"),
                                          (1, "a\\b"), (3, "out/Y")],
                             ids=["empty", "dot", "dotdot", "escapes", "backslash", "output-slash"])
    def test_layer_name_that_cannot_name_a_file_refused(self, pos, name):
        # a dense or output cell's name becomes its layer's parameter file names
        doc = minimal_doc()
        rename_cell(doc, pos, name)
        with pytest.raises(ConfigError, match=f"^layer name {re.escape(repr(name))} cannot name a file"):
            parse_config(doc)

    def test_names_of_cells_that_are_no_layer_are_free(self):
        doc = minimal_doc()
        rename_cell(doc, 0, "")
        rename_cell(doc, 2, "r/0")
        assert [c.cell_name for c in parse_config(doc).cell_array] == ["", "d0", "r/0", "Y"]

    @pytest.mark.parametrize("edit", [lambda d: d.pop("version"), lambda d: d.update(version="")],
                             ids=["absent", "empty"])
    def test_version_required(self, edit):
        doc = minimal_doc()
        edit(doc)
        with pytest.raises(ConfigError, match="^missing 'version'$"):
            parse_config(doc)

    def test_syntax_error_position(self, tmp_path):
        (tmp_path / "broken.cfg").write_text("{\n  broken json\n}")
        with pytest.raises(ConfigError, match="line 2, column 3"):
            parse_config(tmp_path / "broken.cfg")

    @pytest.mark.parametrize("literal,edit", [
        ("NaN", lambda d: d["popConfigValues"]["evalTypes"][0].update(weight=math.nan)),
        ("NaN", lambda d: d["hwConfig"].update(freq=math.nan)),
        ("NaN", lambda d: d["hwConfig"].update(sram=math.nan)),
        ("Infinity", lambda d: d["cellTypes"][1]["neurons"].update(maxValue=math.inf)),
        ("-Infinity", lambda d: d.update(unread=-math.inf)),
    ], ids=["weight", "freq", "sram", "maxValue", "unread-key"])
    @pytest.mark.parametrize("where", ["main", "include"])
    def test_non_json_number_refused(self, tmp_path, literal, edit, where):
        # json.dumps writes these literals and json.loads reads them, but JSON has none
        doc = minimal_doc()
        edit(doc)
        main = tmp_path / "main.cfg"
        if where == "include":
            (tmp_path / "base.cfg").write_text(json.dumps(doc))
            doc = {"includes": ["base.cfg"]}
        main.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=f"^config syntax error: {literal} is not a JSON value$"):
            parse_config(main)

    def test_pop_invariants(self):
        doc = minimal_doc()
        doc["popConfigValues"]["initialPopSize"] = 10
        doc["popConfigValues"]["maxPopSize"] = 5
        with pytest.raises(ConfigError, match="initialPopSize"):
            parse_config(doc)

    def test_eval_bounds(self):
        doc = minimal_doc()
        doc["popConfigValues"]["evalTypes"][0]["minValue"] = 5
        doc["popConfigValues"]["evalTypes"][0]["maxValue"] = 5
        with pytest.raises(ConfigError, match="minValue"):
            parse_config(doc)

    @pytest.mark.parametrize("change_rate,max_pop", [(1.0, 4), (0.99, 40)])
    def test_children_that_fill_population(self, change_rate, max_pop):
        doc = minimal_doc()
        doc["popConfigValues"]["changeRate"] = change_rate
        doc["popConfigValues"]["maxPopSize"] = max_pop
        with pytest.raises(ConfigError, match=rf"changeRate {change_rate} with maxPopSize {max_pop}"):
            parse_config(doc)
        doc["popConfigValues"]["maxGenerations"] = 1   # no children are ever made
        assert parse_config(doc).pop.change_rate == change_rate

    @pytest.mark.parametrize("value", [0, -2])
    def test_sim_epochs_at_least_one(self, value):
        doc = minimal_doc()
        doc["popConfigValues"]["evalTypes"].append(
            {"type": "simJob", "minValue": 0, "maxValue": 1, "epochs": value})
        with pytest.raises(ConfigError, match=rf"simJob': epochs must be >= 1, got {value}"):
            parse_config(doc)

    @pytest.mark.parametrize("value", [0, -100])
    def test_sim_batch_size_at_least_one(self, value):
        doc = minimal_doc()
        doc["popConfigValues"]["evalTypes"].append(
            {"type": "simJob", "minValue": 0, "maxValue": 1, "batchSize": value})
        with pytest.raises(ConfigError, match=rf"simJob': batchSize must be >= 1, got {value}"):
            parse_config(doc)

    @pytest.mark.parametrize("active", [{"active": True}, {}])
    def test_active_phys_job_rejected(self, active):
        # physJob has no worker; only an inactive entry, as in the listing, parses
        doc = minimal_doc()
        doc["popConfigValues"]["evalTypes"].append(
            {"type": "physJob", "minValue": 0, "maxValue": 1, **active})
        with pytest.raises(ConfigError, match="evalType 'physJob' has no worker"):
            parse_config(doc)

    def test_no_active_eval_type(self):
        doc = minimal_doc()
        doc["popConfigValues"]["evalTypes"][0]["active"] = False
        with pytest.raises(ConfigError, match="no active evalType"):
            parse_config(doc)

    @pytest.mark.parametrize("active", [True, False])
    def test_eval_type_listed_twice(self, active):
        doc = minimal_doc()
        doc["popConfigValues"]["evalTypes"].append(
            {"type": "hwDBJob", "weight": 5, "minValue": 0, "maxValue": 1e9, "active": active})
        with pytest.raises(ConfigError, match="evalType 'hwDBJob' is listed twice"):
            parse_config(doc)

    @pytest.mark.parametrize("entry,message", [
        ({"type": "hwDBJob", "metric": "effective_gop"}, "unknown metric 'effective_gop'"),
        ({"type": "simJob", "metric": "accuracy"}, "simJob': metric is only valid on hwDBJob"),
    ])
    def test_metric_checked(self, entry, message):
        doc = minimal_doc()
        doc["popConfigValues"]["evalTypes"] = [{"minValue": 0, "maxValue": 1, **entry}]
        with pytest.raises(ConfigError, match=message):
            parse_config(doc)

    def test_metric_names_are_the_estimate_keys(self):
        est = hwmodel.estimate(mlp_desc([8, 4, 2], batch=2), SystolicConfig(2, 2, 2, 4, 2),
                               DEFAULT_HW)
        assert HW_METRICS == tuple(est.metrics())

    def test_interleave_boundary(self):
        # the listing's widest sys_rows + sys_cols is 64 + 64 = 128
        doc = listing_doc()
        dense = next(ct for ct in doc["cellTypes"] if ct["cell_type"] == "dense")
        dense["sys_intrlv"] = {"minValue": 2, "maxValue": 128, "modValue": 2}
        cfg = parse_config(doc)
        rng = random.Random(0)
        g = spawn(cfg, rng, 0)
        for gid in range(1, 1001):
            g = mutate(g, cfg, rng, gid)
        dense["sys_rows"] = {"minValue": 2, "maxValue": 66, "modValue": 2}
        with pytest.raises(ConfigError, match=r"dense.sys_intrlv': no power of two >= 130"):
            parse_config(doc)

    def test_interleave_range_without_a_power_of_two(self):
        doc = minimal_doc()
        doc["cellTypes"][1]["sys_intrlv"] = {"minValue": 0, "maxValue": 0, "modValue": 2}
        with pytest.raises(ConfigError, match=r"no power of two >= 8 within \[0, 0\]"):
            parse_config(doc)

    def test_sim_only_dense_without_array_traits_parses(self):
        doc = minimal_doc()
        doc["popConfigValues"]["evalTypes"] = [
            {"type": "simJob", "minValue": 0.9, "maxValue": 1, "epochs": 1, "batchSize": 10}]
        for name in SYS_ARRAY:
            del doc["cellTypes"][1][name]
        cfg = parse_config(doc)
        assert set(cfg.cell_types["dense"]) == {"neurons", "enableBias"}
        assert to_description(spawn(cfg, random.Random(0), 0), cfg.cell_array).systolic is None

    @pytest.mark.parametrize("edit,message", [
        (lambda d: d["cellArray"][0].update(cell_type="dense"),
         "cell 'X' of type 'dense' is cell 1 of 4; the chain must run from one input cell"),
        (lambda d: d["cellArray"][3].update(cell_type="relu"),
         "cell 'Y' of type 'relu' is cell 4 of 4"),
        (lambda d: d["cellArray"][2].update(cell_type="output"),
         "cell 'r0' of type 'output' is cell 3 of 4"),
        (lambda d: d["cellArray"][0].update(input_size=0),
         "input cell 'X': input_size must be >= 1, got 0"),
        (lambda d: d["cellArray"][3].pop("output_size"),
         "output cell 'Y': output_size must be >= 1, got None"),
        (lambda d: d["cellTypes"][1]["neurons"].update(minValue=0),
         "trait 'dense.neurons': every legal value must be >= 1, got 0"),
        (lambda d: d["cellTypes"][0]["batch_size"].update(minValue=-2),
         "trait 'input.batch_size': every legal value must be >= 1, got -2"),
        (lambda d: d["cellTypes"][1].pop("sys_vec"),
         r"cell_type 'dense' lacks array trait\(s\) sys_vec; declare all five or none"),
        (lambda d: d["cellTypes"][0].update(sys_rows={"minValue": 1, "maxValue": 2}),
         r"cell_type 'input' lacks array trait\(s\) sys_cols, sys_vec, sys_intrlv, sys_scale"),
        (lambda d: d.update(cellArray=[d["cellArray"][0] | {"output": "Y"},
                                       d["cellArray"][3] | {"input": "X"}]),
         "evalType 'hwDBJob' needs a dense cell whose cell_type declares the array traits"),
    ], ids=["first-not-input", "last-not-output", "inner-output", "input_size-0", "no-output_size",
            "neurons-0", "batch_size-negative", "no-sys_vec", "partial-input-array",
            "hwDBJob-without-dense"])
    def test_cell_array_shape_checked(self, edit, message):
        doc = minimal_doc()
        edit(doc)
        with pytest.raises(ConfigError, match=message):
            parse_config(doc)

    @pytest.mark.parametrize("edit,message", [
        (lambda d: d["popConfigValues"]["evalTypes"][0].update(active="false"),
         "evalType 'hwDBJob': active must be a JSON boolean, got \"false\""),
        (lambda d: d["popConfigValues"]["evalTypes"][0].update(allowOverflow="false"),
         "evalType 'hwDBJob': allowOverflow must be a JSON boolean, got \"false\""),
        (lambda d: d["popConfigValues"]["evalTypes"][0].update(minimize="false"),
         "evalType 'hwDBJob': minimize must be a JSON boolean, got \"false\""),
        (lambda d: d["popConfigValues"].update(maxPopSize=40.9),
         "popConfigValues: maxPopSize must be a JSON integer, got 40.9"),
        (lambda d: d["popConfigValues"]["evalTypes"].append(
            {"type": "simJob", "minValue": 0, "maxValue": 1, "epochs": 4.5}),
         "evalType 'simJob': epochs must be a JSON integer, got 4.5"),
        (lambda d: d["popConfigValues"]["evalTypes"].append(
            {"type": "simJob", "minValue": 0, "maxValue": 1, "batchSize": True}),
         "evalType 'simJob': batchSize must be a JSON integer, got true"),
        (lambda d: d["hwConfig"].update(dsp="1518"),
         "hwConfig: dsp must be a JSON integer, got \"1518\""),
        (lambda d: d["cellArray"][0].update(input_size=784.7),
         "cell 'X': input_size must be a JSON integer, got 784.7"),
        (lambda d: d["cellTypes"][1]["sys_cols"].update(maxValue=64.9),
         "trait 'dense.sys_cols': maxValue must be a JSON integer, got 64.9"),
    ], ids=["active-string", "allowOverflow-string", "minimize-string", "maxPopSize-40.9",
            "epochs-4.5", "batchSize-true", "dsp-string", "input_size-784.7", "maxValue-64.9"])
    def test_value_of_wrong_json_type_refused(self, edit, message):
        doc = minimal_doc()
        edit(doc)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(doc)

    def test_hw_positive(self):
        doc = minimal_doc()
        doc["hwConfig"]["dsp"] = 0
        with pytest.raises(ConfigError, match="dsp"):
            parse_config(doc)


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
            parse_config(doc)

    def test_unknown_func_refused(self):
        # only PowFunction is implemented; a misspelt name must not make a plain range
        with pytest.raises(ConfigError, match="trait 't': unknown func 'powFunction'"):
            TraitSpec.from_json("t", {"minValue": 2, "maxValue": 8, "powValue": 2,
                                      "func": "powFunction"})

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

