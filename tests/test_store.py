import json
import random
import re

import pytest

from ecad import cli
from ecad.fitness import ScoreCard
from ecad.genome import mutate, spawn
from ecad.store import DbRecord, EcadDb, StoreError


def fill(path, cfg, n: int) -> None:
    rng = random.Random(0)
    with EcadDb.create(path) as db:
        for gid in range(n):
            card = ScoreCard(scores={"hwDBJob": gid / 10})
            db.append(DbRecord(spawn(cfg, rng, gid), card, 1, gid / 10))


def test_lines_are_canonical_json(tmp_path, listing_cfg):
    # lines are assembled from each cell's cached text; each must parse back to
    # its record and equal the canonical encoding of what it parses to
    rng = random.Random(0)
    genomes = [spawn(listing_cfg, rng, 0)]
    for gid in range(1, 60):
        genomes.append(mutate(genomes[-1], listing_cfg, rng, gid))
    path = tmp_path / "ecad.db.jsonl"
    with EcadDb.create(path) as db:
        for g in genomes:
            card = ScoreCard(metrics={"hwDBJob": {"img_per_s": 1.5e3 / (g.id + 1)}},
                             scores={"hwDBJob": g.id / 7}, failed={"simJob": "diverged: \"nan\""})
            db.append(DbRecord(g, card, g.id + 1, g.id / 7))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(genomes)
    for line in lines:
        assert json.dumps(json.loads(line), sort_keys=True, separators=(",", ":")) == line
    assert [r.genome for r in EcadDb(path).scan()] == genomes


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
    raw = json.loads(lines[0])
    del raw["generation"]
    lines[0] = json.dumps(raw) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(StoreError, match=r":1: corrupt record"):
        list(EcadDb(path).scan())



def _dense_neurons(rec):
    cell = next(c for c in rec["genome"]["cells"] if "neurons" in c["trait_values"])
    return cell["trait_values"]


@pytest.mark.parametrize("edit,message", [
    (lambda r: r["genome"].update(id=0.9), "genome: id must be a JSON integer, got 0.9"),
    (lambda r: r["genome"].update(parent_id="0"),
     'genome: parent_id must be a JSON integer, got "0"'),
    (lambda r: r.update(generation="3"), 'record: generation must be a JSON integer, got "3"'),
    (lambda r: _dense_neurons(r).update(neurons=37.8),
     "trait_values: neurons must be a JSON integer, got 37.8"),
    (lambda r: r.update(combined=True), "record: combined must be a JSON number, got true"),
    (lambda r: r["card"]["scores"].update(hwDBJob="0.1"),
     'card: scores: hwDBJob must be a JSON number, got "0.1"'),
    (lambda r: r["card"].update(metrics={"hwDBJob": {"feasible": None}}),
     "card: metrics: hwDBJob: feasible must be a JSON number, got null"),
    (lambda r: r["card"].pop("failed"), "card: missing key 'failed'"),
], ids=["id-0.9", "parent-string", "generation-string", "neurons-37.8", "combined-true",
        "score-string", "metric-null", "no-failed"])
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

def test_line_with_the_old_id_keys_reads_as_the_same_record(tmp_path, listing_cfg, capsys):
    # lines written before `seq`, `card.genome_id` and `genome.generation` were
    # dropped carry those keys; readers, and so `ecad export`, still load them
    rng = random.Random(0)
    parent = spawn(listing_cfg, rng, 0)
    child = mutate(parent, listing_cfg, rng, 1)
    card = ScoreCard(metrics={"hwDBJob": {"effective_gops": 174.0}}, scores={"hwDBJob": 0.174})
    rec = DbRecord(child, card, 2, 0.174)
    old = json.loads(rec.to_json_text())
    old["seq"] = old["card"]["genome_id"] = 1
    old["genome"]["generation"] = 1
    path = tmp_path / "ecad.db.jsonl"
    path.write_text(rec.to_json_text() + "\n" + json.dumps(old) + "\n", encoding="utf-8")
    assert list(EcadDb(path).scan()) == [rec, rec]
    path.write_text(json.dumps(old) + "\n", encoding="utf-8")
    assert cli.main(["export", str(path), "1", str(tmp_path / "net.json")]) == 0
    assert json.loads((tmp_path / "net.json").read_text())["id"] == 1


def test_export_refuses_a_genome_that_is_no_network(tmp_path, listing_cfg, capsys):
    # parse_config guarantees a search's genomes flatten; a hand-edited line is checked on export
    path = tmp_path / "ecad.db.jsonl"
    fill(path, listing_cfg, 2)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    rec = json.loads(lines[1])
    del rec["genome"]["cells"][0]["instance"]["input_size"]
    lines[1] = json.dumps(rec) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    assert cli.main(["export", str(path), "1", str(tmp_path / "net.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: genome 1 in {path} is not a valid network: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "net.json").exists()


def test_each_append_reaches_the_file(tmp_path, listing_cfg):
    path = tmp_path / "ecad.db.jsonl"
    rng = random.Random(0)
    with EcadDb.create(path) as db:
        for gid in range(3):
            db.append(DbRecord(spawn(listing_cfg, rng, gid), ScoreCard(), 1, 0.0))
            # a reader sees the record while the writer is still open
            assert [r.genome.id for r in EcadDb(path).scan()] == list(range(gid + 1))
