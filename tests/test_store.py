import json
import random

import pytest

from ecad import cli, store
from ecad.fitness import ScoreCard
from ecad.genome import spawn
from ecad.store import EcadDb, StoreError


def fill(db: EcadDb, cfg, n: int) -> None:
    rng = random.Random(0)
    for gid in range(n):
        card = ScoreCard(genome_id=gid, scores={"hwDBJob": gid / 10})
        db.append(spawn(cfg, rng, gid), card, generation=1, combined=gid / 10)


def test_torn_last_line_is_skipped_by_readers(tmp_path, listing_cfg):
    path = tmp_path / "ecad.db.jsonl"
    fill(EcadDb(path), listing_cfg, 3)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"seq":3,"generation":1,"comb')       # crash mid-append
    db = EcadDb(path)
    assert [r.genome.id for r in db.scan()] == [0, 1, 2]
    assert db.top(1)[0].genome.id == 2
    assert cli.main(["export", str(path), "1", str(tmp_path / "net.json")]) == 0
    assert json.loads((tmp_path / "net.json").read_text())["layers"]
    assert cli.main(["compact", str(path)]) == 0
    assert [r.genome.id for r in EcadDb(path).scan()] == [0, 1, 2]


def test_append_after_torn_line_starts_clean(tmp_path, listing_cfg):
    path = tmp_path / "ecad.db.jsonl"
    fill(EcadDb(path), listing_cfg, 2)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"seq":2,"gen')
    db = EcadDb(path)
    rng = random.Random(1)
    rec = db.append(spawn(listing_cfg, rng, 7), ScoreCard(genome_id=7), 2, 0.0)
    assert rec.seq == 2
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3
    assert [r.seq for r in EcadDb(path).scan()] == [0, 1, 2]
    assert [r.genome.id for r in EcadDb(path).scan()] == [0, 1, 7]


def test_corrupt_middle_line_names_its_line(tmp_path, listing_cfg, capsys):
    path = tmp_path / "ecad.db.jsonl"
    fill(EcadDb(path), listing_cfg, 3)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1] = lines[1][:40] + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(StoreError, match=r":2: corrupt record"):
        list(EcadDb(path).scan())
    assert cli.main(["compact", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and ":2: corrupt record" in err


def test_open_does_not_parse_records(tmp_path, listing_cfg):
    path = tmp_path / "ecad.db.jsonl"
    fill(EcadDb(path), listing_cfg, 3)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1] = "not json\n"
    path.write_text("".join(lines), encoding="utf-8")
    db = EcadDb(path)
    with pytest.raises(StoreError, match=r":2: corrupt record"):
        list(db.scan())


def test_only_first_append_checks_the_tail(tmp_path, listing_cfg, monkeypatch):
    calls = []
    real = store._cut_torn_tail
    monkeypatch.setattr(store, "_cut_torn_tail", lambda fh: (calls.append(1), real(fh)))
    path = tmp_path / "ecad.db.jsonl"
    fill(EcadDb(path), listing_cfg, 4)
    assert len(calls) == 1
    assert [r.seq for r in EcadDb(path).scan()] == [0, 1, 2, 3]
