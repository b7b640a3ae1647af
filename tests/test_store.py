import json
import random

import pytest

from ecad import cli
from ecad.fitness import ScoreCard
from ecad.genome import spawn
from ecad.store import DbRecord, EcadDb, StoreError


def fill(path, cfg, n: int) -> None:
    rng = random.Random(0)
    with EcadDb.create(path) as db:
        for gid in range(n):
            card = ScoreCard(genome_id=gid, scores={"hwDBJob": gid / 10})
            db.append(DbRecord(spawn(cfg, rng, gid), card, 1, gid / 10, seq=gid))


def test_torn_last_line_is_skipped_by_readers(tmp_path, listing_cfg):
    path = tmp_path / "ecad.db.jsonl"
    fill(path, listing_cfg, 3)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"seq":3,"generation":1,"comb')       # crash mid-append
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


def test_open_does_not_parse_records(tmp_path, listing_cfg):
    path = tmp_path / "ecad.db.jsonl"
    fill(path, listing_cfg, 3)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1] = "not json\n"
    path.write_text("".join(lines), encoding="utf-8")
    db = EcadDb(path)
    with pytest.raises(StoreError, match=r":2: corrupt record"):
        list(db.scan())



def test_record_without_seq_is_corrupt(tmp_path, listing_cfg):
    path = tmp_path / "ecad.db.jsonl"
    fill(path, listing_cfg, 2)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    raw = json.loads(lines[0])
    del raw["seq"]
    lines[0] = json.dumps(raw) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(StoreError, match=r":1: corrupt record"):
        list(EcadDb(path).scan())


def test_each_append_reaches_the_file(tmp_path, listing_cfg):
    path = tmp_path / "ecad.db.jsonl"
    rng = random.Random(0)
    with EcadDb.create(path) as db:
        for gid in range(3):
            db.append(DbRecord(spawn(listing_cfg, rng, gid), ScoreCard(genome_id=gid), 1, 0.0,
                               seq=gid))
            # a reader sees the record while the writer is still open
            assert [r.seq for r in EcadDb(path).scan()] == list(range(gid + 1))
