"""EcadDB: write-once JSON-lines store of evaluated individuals.

One search writes one fresh file: `EcadDb.create` truncates it and holds one
open handle until the search ends, and the engine appends each genome once, in
genome-id order. Every record is flushed as it is written, so a killed search
leaves the records it completed and at most a torn last line. Readers
(`EcadDb(path)`) skip that torn line; a corrupt line anywhere else raises
StoreError naming its line.

A record is one line of canonical JSON: the `genome` (`id`, `parent_id`,
`cells`), the `generation` that scored it, its score `card` (per eval type the
raw `metrics`, the normalized `scores` and the `failed` diagnostics) and the
`combined` score. A failed result keeps its metrics, so the hwDBJob entry of a
design that does not fit the device holds the screen metrics `dsp_est`,
`mem_kb_est` and `feasible` 0.0. Readers read each value by its JSON type
(`config.Fields`), never coercing or filling in: a missing key, an `id`,
`generation` or trait value that is not a JSON integer (0.9, "3"), a
`parent_id` that is neither an integer nor null, a metric, score or
`combined` that is not a number, or a non-string diagnostic makes the line
corrupt. They ignore other keys, such as the `seq`, `card.genome_id` and
`genome.generation` of older lines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, BinaryIO, Iterator

from .config import Fields
from .fitness import ScoreCard
from .genome import CANONICAL_JSON, NetworkDescription, NetworkGenome, to_description

DB_FILENAME = "ecad.db.jsonl"


class StoreError(ValueError):
    pass


@dataclass(frozen=True)
class DbRecord:
    genome: NetworkGenome
    card: ScoreCard
    generation: int
    combined: float

    def to_json_text(self) -> str:
        """The record as the text CANONICAL_JSON would give, assembled around the
        genome's text; one database line without its newline."""
        return (f'{{"card":{CANONICAL_JSON.encode(self.card.to_json())},'
                f'"combined":{CANONICAL_JSON.encode(self.combined)},'
                f'"generation":{self.generation},"genome":{self.genome.to_json_text()}}}')

    @classmethod
    def from_json(cls, raw: Any) -> "DbRecord":
        """One line's record, read by type; raises a ValueError naming the key."""
        rec = Fields(raw, "record", StoreError)
        return cls(
            genome=NetworkGenome.from_json(rec("genome", dict)),
            card=ScoreCard.from_json(rec("card", dict)),
            generation=rec("generation", int),
            combined=rec("combined", float),
        )


def rank_key(rec: DbRecord) -> tuple[float, int]:
    """Sort key of the search's ranking: best combined first, older genome id on ties."""
    return (-rec.combined, rec.genome.id)


class EcadDb:
    """Reader of a database file; `create` opens it for its one writer."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fh: BinaryIO | None = None

    @classmethod
    def create(cls, path: str | Path) -> "EcadDb":
        """Open a fresh, empty database for writing, replacing any file at path."""
        db = cls(path)
        db.path.parent.mkdir(parents=True, exist_ok=True)
        db._fh = open(db.path, "wb")
        return db

    def __enter__(self) -> "EcadDb":
        return self

    def __exit__(self, *exc: object) -> None:
        if self._fh is not None:
            self._fh.close()

    def append(self, rec: DbRecord) -> None:
        self._fh.write((rec.to_json_text() + "\n").encode("utf-8"))
        self._fh.flush()

    def scan(self) -> Iterator[DbRecord]:
        if not self.path.exists():
            raise StoreError(f"database file {self.path} does not exist")
        with open(self.path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.endswith("\n"):
                    return   # torn tail of an interrupted append
                if not line.strip():
                    continue
                try:
                    rec = DbRecord.from_json(json.loads(line))
                except ValueError as exc:   # bad JSON, or a missing key or mistyped value
                    raise StoreError(f"{self.path}:{lineno}: corrupt record: {exc}") from exc
                yield rec

    def top(self, k: int) -> list[DbRecord]:
        """Best k records by combined score, ties broken by older genome id."""
        if k <= 0:
            return []
        return sorted(self.scan(), key=rank_key)[:k]

    def get(self, genome_id: int) -> DbRecord:
        for rec in self.scan():
            if rec.genome.id == genome_id:
                return rec
        raise StoreError(f"genome id {genome_id} not in {self.path}")

    def export(self, genome_id: int, out_path: str | Path) -> Path:
        """Write the genome's network description as a standalone JSON file."""
        rec = self.get(genome_id)
        try:   # the file is outside input: check the description as `ecad eval` would
            desc = NetworkDescription.from_json(to_description(rec.genome).to_json())
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreError(f"genome {genome_id} in {self.path} is not a valid network: {exc}") from exc
        out = Path(out_path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(desc.to_json(), indent=2) + "\n", encoding="utf-8")
        return out
