import json
import random
from dataclasses import replace

import pytest

from ecad.config import ConfigError, parse_config
from ecad.genome import NetworkGenome, mutate, spawn, to_description

from helpers import listing_doc
from oracles import reference_mutate, reference_spawn


def traits_of(genome, cell_name, cfg):
    return genome.traits[[c.cell_name for c in cfg.cell_array].index(cell_name)]


def dense_traits(genome, cfg):
    return traits_of(genome, "dense00", cfg)


def with_traits(genome, cfg, **by_cell):
    """``genome`` with the traits of each named cell updated by the given dict."""
    traits = tuple({**tv, **by_cell.get(cell.cell_name, {})}
                   for cell, tv in zip(cfg.cell_array, genome.traits))
    return NetworkGenome(id=genome.id, parent_id=genome.parent_id, traits=traits)


def genome_valid(genome, cfg):
    """Every trait in range, mod/pow respected, interleave rule satisfied."""
    assert len(genome.traits) == len(cfg.cell_array)
    for cell, tv in zip(cfg.cell_array, genome.traits):
        specs = cfg.cell_types[cell.cell_type]
        assert set(tv) == set(specs)
        for name, value in tv.items():
            assert value in specs[name].legal_values(), (cell.cell_name, name, value)
        if {"sys_rows", "sys_cols", "sys_intrlv"} <= tv.keys():
            iv = tv["sys_intrlv"]
            assert iv >= tv["sys_rows"] + tv["sys_cols"]
            assert iv & (iv - 1) == 0
    return True


class TestSpawn:
    def test_traits_within_ranges(self, listing_cfg):
        rng = random.Random(7)
        for gid in range(50):
            g = spawn(listing_cfg, rng, gid)
            tv = dense_traits(g, listing_cfg)
            assert tv["neurons"] % 2 == 0 and 2 <= tv["neurons"] <= 1024
            assert tv["sys_cols"] in {2, 4, 8, 16, 32, 64}
            assert genome_valid(g, listing_cfg)

    def test_determinism(self, listing_cfg):
        g1 = spawn(listing_cfg, random.Random(11), 0)
        g2 = spawn(listing_cfg, random.Random(11), 0)
        assert g1 == g2
        g3 = spawn(listing_cfg, random.Random(12), 0)
        assert g1.traits != g3.traits

    def test_sys_vec_covers_all_legal_powers(self, listing_cfg):
        legal = set(listing_cfg.cell_types["dense"]["sys_vec"].legal_values())
        rng = random.Random(123)
        seen = {dense_traits(spawn(listing_cfg, rng, i), listing_cfg)["sys_vec"]
                for i in range(10_000)}
        assert seen == legal == {2, 4, 8, 16, 32, 64}

    def test_singleton_range_is_constant(self):
        doc = listing_doc()
        for ct in doc["cellTypes"]:
            if ct["cell_type"] == "input":
                ct["batch_size"] = {"minValue": 4, "maxValue": 4, "modValue": 2}
        cfg = parse_config(doc)
        rng = random.Random(0)
        assert all(traits_of(spawn(cfg, rng, i), "X", cfg)["batch_size"] == 4
                   for i in range(20))


class TestMutate:
    def test_child_differs_and_is_valid(self, listing_cfg):
        rng = random.Random(3)
        parent = spawn(listing_cfg, rng, 0)
        for gid in range(1, 200):
            child = mutate(parent, listing_cfg, rng, gid)
            assert child.id == gid and child.parent_id == parent.id
            assert child.traits != parent.traits
            assert genome_valid(child, listing_cfg)
            parent = child

    def test_zero_rates_force_exactly_one_change(self):
        doc = listing_doc()
        for ct in doc["cellTypes"]:
            for key, val in ct.items():
                if isinstance(val, dict) and "minValue" in val:
                    val["changeRate"] = 0.0
        cfg = parse_config(doc)
        rng = random.Random(5)
        parent = spawn(cfg, rng, 0)
        for gid in range(1, 100):
            child = mutate(parent, cfg, rng, gid)
            diffs = [
                (cell.cell_name, name)
                for cell, tv, ptv in zip(cfg.cell_array, child.traits, parent.traits)
                for name in tv
                if tv[name] != ptv[name]
            ]
            assert len(diffs) == 1, diffs
            assert genome_valid(child, cfg)

    def test_interleave_rule_on_known_parent(self, listing_cfg):
        rng = random.Random(9)
        parent = spawn(listing_cfg, rng, 0)
        parent = with_traits(parent, listing_cfg,
                             dense00={"sys_rows": 2, "sys_cols": 8, "sys_intrlv": 16})
        allowed = {16, 32, 64, 128, 256}
        for gid in range(1, 300):
            child = mutate(parent, listing_cfg, rng, gid)
            tv = dense_traits(child, listing_cfg)
            if (tv["sys_rows"], tv["sys_cols"]) == (2, 8):
                assert tv["sys_intrlv"] in allowed

    def test_seeded_mutation_reproducible(self, listing_cfg):
        parent = spawn(listing_cfg, random.Random(1), 0)
        child_a = mutate(parent, listing_cfg, random.Random(42), 1)
        child_b = mutate(parent, listing_cfg, random.Random(42), 1)
        assert child_a == child_b

    def test_mass_mutation_never_invalid(self, listing_cfg):
        # long random walk; every intermediate genome satisfies all invariants
        rng = random.Random(777)
        g = spawn(listing_cfg, rng, 0)
        for gid in range(1, 100_000):
            g = mutate(g, listing_cfg, rng, gid)
            tv = dense_traits(g, listing_cfg)
            iv = tv["sys_intrlv"]
            assert iv >= tv["sys_rows"] + tv["sys_cols"] and iv & (iv - 1) == 0
            assert tv["neurons"] % 2 == 0 and 2 <= tv["neurons"] <= 1024
        assert genome_valid(g, listing_cfg)


def edited_configs(cfg):
    """The listing config and two copies changed with dataclasses.replace.

    One narrows neurons and changes rates (one trait falls back to a new
    defChangeRate); the other zeroes every rate so that each child comes from
    the forced single change.
    """
    dense = cfg.cell_types["dense"]
    narrowed = {
        **dense,
        "neurons": replace(dense["neurons"], max_value=64, change_rate=0.9),
        "sys_rows": replace(dense["sys_rows"], change_rate=None),
    }
    edited = replace(cfg, def_change_rate=0.02, cell_types={**cfg.cell_types, "dense": narrowed})
    still = replace(cfg, def_change_rate=0.0, cell_types={
        ctype: {n: replace(t, change_rate=0.0) for n, t in traits.items()}
        for ctype, traits in cfg.cell_types.items()})
    return [cfg, edited, still]


class TestMatchesReference:
    """spawn and mutate read per-config tables; they must draw exactly as the
    per-trait loop in oracles.py does, one random number for one."""

    @pytest.mark.parametrize("which", ["listing", "edited", "zero rates"])
    def test_same_genomes_and_draws(self, listing_cfg, which):
        cfg = edited_configs(listing_cfg)[["listing", "edited", "zero rates"].index(which)]
        for seed in range(300):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            genome = spawn(cfg, rng, 0)
            assert [(c.cell_name, tv) for c, tv in zip(cfg.cell_array, genome.traits)] == \
                reference_spawn(cfg, cfg.cell_array, ref_rng)
            for gid in range(1, 4):
                parent = [(c.cell_name, c.cell_type, tv)
                          for c, tv in zip(cfg.cell_array, genome.traits)]
                genome = mutate(genome, cfg, rng, gid)
                assert list(genome.traits) == reference_mutate(cfg, parent, ref_rng)
                assert genome_valid(genome, cfg)
            assert rng.getstate() == ref_rng.getstate()


class TestDescription:
    def build_with(self, listing_cfg, neurons, batch, bias=1):
        return with_traits(spawn(listing_cfg, random.Random(2), 0), listing_cfg,
                           dense00={"neurons": neurons, "enableBias": bias},
                           X={"batch_size": batch})

    def test_table3_shape(self, listing_cfg):
        g = self.build_with(listing_cfg, neurons=852, batch=508)
        desc = to_description(g, listing_cfg.cell_array)
        assert desc.batch == 508
        dims = [(l.in_features, l.out_features, l.activation, l.bias) for l in desc.layers]
        assert dims == [(784, 852, "relu", True), (852, 10, "none", True)]

    def test_bias_disabled(self, listing_cfg):
        desc = to_description(self.build_with(listing_cfg, neurons=64, batch=16, bias=0),
                              listing_cfg.cell_array)
        assert all(not l.bias for l in desc.layers)

    def test_dimension_chain(self, listing_cfg):
        rng = random.Random(31)
        for gid in range(50):
            desc = to_description(spawn(listing_cfg, rng, gid), listing_cfg.cell_array)
            assert desc.layers[0].in_features == 784
            assert desc.layers[-1].out_features == 10
            for a, b in zip(desc.layers, desc.layers[1:]):
                assert a.out_features == b.in_features

    def test_cells_pair_with_traits_one_to_one(self, listing_cfg):
        g = spawn(listing_cfg, random.Random(4), 0)
        with pytest.raises(ValueError):
            to_description(g, listing_cfg.cell_array[:-1])

    def test_description_json_round_trip(self, listing_cfg):
        desc = to_description(spawn(listing_cfg, random.Random(8), 5), listing_cfg.cell_array)
        again = type(desc).from_json(json.loads(json.dumps(desc.to_json())))
        assert again == desc

    def test_genome_json_round_trip(self, listing_cfg):
        g = spawn(listing_cfg, random.Random(6), 3)
        assert NetworkGenome.from_json(json.loads(json.dumps(g.to_json()))) == g

    def test_systolic_string(self, listing_cfg):
        desc = to_description(spawn(listing_cfg, random.Random(2), 0), listing_cfg.cell_array)
        parts = str(desc.systolic).split(",")
        assert len(parts) == 5 and all(p.isdigit() for p in parts)


class TestErrors:
    def test_unsatisfiable_interleave(self):
        doc = listing_doc()
        for ct in doc["cellTypes"]:
            if ct["cell_type"] == "dense":
                ct["sys_intrlv"] = {"minValue": 2, "maxValue": 4, "modValue": 2}
                ct["sys_rows"] = {"minValue": 64, "maxValue": 64, "modValue": 2}
                ct["sys_cols"] = {"minValue": 64, "maxValue": 64, "powValue": 2,
                                  "func": "PowFunction"}
        with pytest.raises(ConfigError, match="power of two"):
            parse_config(doc)
