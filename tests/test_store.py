import json
import random
import re
from dataclasses import replace

import pytest

from ecad import cli
from ecad.fitness import ScoreCard
from ecad.genome import mutate, spawn
from ecad.store import DbRecord, EcadDb, StoreError, replay


def fill(path, cfg, n: int) -> None:
    rng = random.Random(0)
    with EcadDb.create(path, cfg.cell_array) as db:
        for gid in range(n):
            card = ScoreCard(scores={"hwDBJob": gid / 10})
            db.append(DbRecord(spawn(cfg, rng, gid), card, 1, gid / 10))


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def test_lines_are_canonical_json(tmp_path, listing_cfg):
    # line 1 is the header holding the cell array once; each later line is one
    # record whose genome is its id, parent id and one trait object per cell
    rng = random.Random(0)
    genomes = [spawn(listing_cfg, rng, 0)]
    for gid in range(1, 60):
        genomes.append(mutate(genomes[-1], listing_cfg, rng, gid))
    path = tmp_path / "ecad.db.jsonl"
    with EcadDb.create(path, listing_cfg.cell_array) as db:
        for g in genomes:
            card = ScoreCard(metrics={"hwDBJob": {"img_per_s": 1.5e3 / (g.id + 1)}},
                             scores={"hwDBJob": g.id / 7}, failed={"simJob": "diverged: \"nan\""})
            db.append(DbRecord(g, card, g.id + 1, g.id / 7))
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    assert header == canonical({"cells": [
        {"cell_type": "input", "cell_name": "X", "input": "global", "output": "dense00",
         "input_size": 784},
        {"cell_type": "dense", "cell_name": "dense00", "input": "X", "output": "relu00"},
        {"cell_type": "relu", "cell_name": "relu00", "input": "dense00", "output": "Y"},
        {"cell_type": "output", "cell_name": "Y", "input": "relu00", "output": "global",
         "output_size": 10}]})
    assert len(lines) == len(genomes)
    for line, g in zip(lines, genomes):
        assert canonical(json.loads(line)) == line
        assert json.loads(line)["genome"] == {"id": g.id, "parent_id": g.parent_id,
                                              "traits": list(g.traits)}
    db = EcadDb(path)
    assert db.cells() == listing_cfg.cell_array
    assert [r.genome for r in db.scan()] == genomes


def test_replay_ranks_ties_by_older_id_and_keeps_room_for_the_children(listing_cfg):
    # three founders, then maxPopSize 4 and changeRate 0.5: two children a
    # generation, so two members survive; generation 3's one record is a torn tail
    pop = replace(listing_cfg.pop, initial_pop_size=3, max_pop_size=4, change_rate=0.5)
    rng = random.Random(0)
    records = [DbRecord(spawn(listing_cfg, rng, gid), ScoreCard(), generation, combined)
               for gid, generation, combined in [(1, 1, 0.5), (0, 1, 0.5), (2, 1, 0.9),
                                                 (3, 2, 0.5), (4, 2, 0.7), (5, 3, 0.1)]]
    read = []

    def stream():
        for rec in records:
            read.append(rec.genome.id)
            yield rec

    replayed = replay(pop, stream())
    generation, ranked = next(replayed)
    # one generation is ranked once the next one's first record is read, not later
    assert (generation, [r.genome.id for r in ranked], read) == (1, [2, 0, 1], [1, 0, 2, 3])
    assert [(g, [r.genome.id for r in ranked]) for g, ranked in replayed] == [(2, [2, 4, 0, 3])]


def test_torn_last_line_is_skipped_by_readers(tmp_path, listing_cfg):
    path = tmp_path / "ecad.db.jsonl"
    fill(path, listing_cfg, 3)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"card":{"failed":{},"metr')       # crash mid-append
    db = EcadDb(path)
    assert [r.genome.id for r in db.scan()] == [0, 1, 2]
    assert db.top(1)[0].genome.id == 2
    assert cli.main(["export", str(path), "1", str(tmp_path / "net.json")]) == 0
    assert json.loads((tmp_path / "net.json").read_text())["layers"]


def test_corrupt_middle_line_names_its_line(tmp_path, listing_cfg, capsys):
    path = tmp_path / "ecad.db.jsonl"
    fill(path, listing_cfg, 3)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1] = lines[1][:40] + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(StoreError, match=r":2: corrupt record"):
        list(EcadDb(path).scan())
    assert cli.main(["export", str(path), "2", str(tmp_path / "net.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and ":2: corrupt record" in err


def test_missing_database_file_is_named(tmp_path, capsys):
    path = tmp_path / "nonexistent.jsonl"
    with pytest.raises(StoreError, match=re.escape(f"database file {path} does not exist")):
        EcadDb(path).get(3)
    assert cli.main(["export", str(path), "3", str(tmp_path / "net.json")]) == 1
    assert capsys.readouterr().err == f"error: database file {path} does not exist\n"
    assert not (tmp_path / "net.json").exists()


def test_open_does_not_parse_records(tmp_path, listing_cfg):
    path = tmp_path / "ecad.db.jsonl"
    fill(path, listing_cfg, 3)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1] = "not json\n"
    path.write_text("".join(lines), encoding="utf-8")
    db = EcadDb(path)
    with pytest.raises(StoreError, match=r":2: corrupt record"):
        list(db.scan())



def test_record_without_generation_is_corrupt(tmp_path, listing_cfg):
    path = tmp_path / "ecad.db.jsonl"
    fill(path, listing_cfg, 2)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    raw = json.loads(lines[1])
    del raw["generation"]
    lines[1] = json.dumps(raw) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(StoreError, match=r":2: corrupt record"):
        list(EcadDb(path).scan())



def _dense_neurons(rec):
    return next(traits for traits in rec["genome"]["traits"] if "neurons" in traits)


@pytest.mark.parametrize("edit,message", [
    (lambda r: r["genome"].update(id=0.9), "genome: id must be a JSON integer, got 0.9"),
    (lambda r: r["genome"].update(parent_id="0"),
     'genome: parent_id must be a JSON integer, got "0"'),
    (lambda r: r.update(generation="3"), 'record: generation must be a JSON integer, got "3"'),
    (lambda r: _dense_neurons(r).update(neurons=37.8),
     "genome: traits[1]: neurons must be a JSON integer, got 37.8"),
    (lambda r: r["genome"]["traits"].pop(),
     "genome has 3 trait objects, but the header has 4 cells"),
    (lambda r: r.update(combined=True), "record: combined must be a JSON number, got true"),
    (lambda r: r["card"]["scores"].update(hwDBJob="0.1"),
     'card: scores: hwDBJob must be a JSON number, got "0.1"'),
    (lambda r: r["card"].update(metrics={"hwDBJob": {"feasible": None}}),
     "card: metrics: hwDBJob: feasible must be a JSON number, got null"),
    (lambda r: r["card"].pop("failed"), "card: missing key 'failed'"),
], ids=["id-0.9", "parent-string", "generation-string", "neurons-37.8", "traits-short",
        "combined-true", "score-string", "metric-null", "no-failed"])
def test_mistyped_record_value_is_corrupt(tmp_path, listing_cfg, edit, message):
    # a record is read by type, never coerced or filled in
    path = tmp_path / "ecad.db.jsonl"
    fill(path, listing_cfg, 2)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    raw = json.loads(lines[1])
    edit(raw)
    lines[1] = json.dumps(raw) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(StoreError) as exc:
        list(EcadDb(path).scan())
    assert str(exc.value).startswith(f"{path}:2: corrupt record: ")
    assert str(exc.value).endswith(message)

def test_keys_readers_do_not_read_are_ignored(tmp_path, listing_cfg):
    path = tmp_path / "ecad.db.jsonl"
    fill(path, listing_cfg, 2)
    records = list(EcadDb(path).scan())
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    header, rec = json.loads(lines[0]), json.loads(lines[2])
    header["version"] = rec["seq"] = rec["genome"]["generation"] = 1
    lines[0], lines[2] = json.dumps(header) + "\n", json.dumps(rec) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    db = EcadDb(path)
    assert list(db.scan()) == records and db.cells() == listing_cfg.cell_array


def test_export_refuses_a_genome_that_is_no_network(tmp_path, listing_cfg, capsys):
    # parse_config guarantees a search's genomes flatten; a hand-edited header is checked on export
    path = tmp_path / "ecad.db.jsonl"
    fill(path, listing_cfg, 2)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    header = json.loads(lines[0])
    del header["cells"][0]["input_size"]
    lines[0] = json.dumps(header) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    assert cli.main(["export", str(path), "1", str(tmp_path / "net.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: genome 1 in {path} is not a valid network: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "net.json").exists()


def test_each_append_reaches_the_file(tmp_path, listing_cfg):
    path = tmp_path / "ecad.db.jsonl"
    rng = random.Random(0)
    with EcadDb.create(path, listing_cfg.cell_array) as db:
        for gid in range(3):
            db.append(DbRecord(spawn(listing_cfg, rng, gid), ScoreCard(), 1, 0.0))
            # a reader sees the record while the writer is still open
            assert [r.genome.id for r in EcadDb(path).scan()] == list(range(gid + 1))


def test_file_without_a_header_is_refused(tmp_path, listing_cfg, capsys):
    # a database written before the cell array moved to the header repeats it
    # in every record; such a file has no header and is not read
    rec = DbRecord(spawn(listing_cfg, random.Random(0), 0), ScoreCard(), 1, 0.0)
    old = rec.to_json()
    old["genome"] = {"id": 0, "parent_id": None, "cells": [
        {"instance": {**cell.to_json(), "fixed": False}, "trait_values": traits}
        for cell, traits in zip(listing_cfg.cell_array, rec.genome.traits)]}
    path = tmp_path / "ecad.db.jsonl"
    path.write_text(canonical(old) + "\n", encoding="utf-8")
    message = f"{path}:1: not a database header: header: missing key 'cells'"
    with pytest.raises(StoreError) as exc:
        list(EcadDb(path).scan())
    assert str(exc.value) == message
    assert cli.main(["export", str(path), "0", str(tmp_path / "net.json")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "net.json").exists()


@pytest.mark.parametrize("keep", [0, 20, -1], ids=["empty", "torn-header", "header-no-newline"])
def test_torn_header_yields_no_records(tmp_path, listing_cfg, capsys, keep):
    # a search killed while writing line 1 leaves no records, and no cell array to read
    path = tmp_path / "ecad.db.jsonl"
    fill(path, listing_cfg, 0)
    header = path.read_bytes()
    path.write_bytes(header[:keep])
    db = EcadDb(path)
    assert list(db.scan()) == [] and db.top(1) == []
    with pytest.raises(StoreError, match=re.escape(f"{path} has no complete header line")):
        db.cells()
    assert cli.main(["export", str(path), "0", str(tmp_path / "net.json")]) == 1
    assert capsys.readouterr().err == f"error: genome id 0 not in {path}\n"
