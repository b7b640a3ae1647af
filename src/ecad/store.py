"""EcadDB: write-once JSON-lines store of evaluated individuals.

One search writes one fresh file: `EcadDb.create` truncates it, writes the
header and holds one open handle until the search ends, and the engine
appends each genome once, in genome-id order. Every line is flushed as it is
written, so a killed search leaves the records it completed and at most a
torn last line. Readers (`EcadDb(path)`) skip that torn line; a corrupt line
anywhere else raises StoreError naming its line.

Every line is canonical JSON. Line 1, the header, is written once per file:
``{"cells": [...]}``, the config's cell array in chain order. Each later line
is a record: the `genome` (`id`, `parent_id`, and `traits`, one object per
header cell), the `generation` that scored it, its score `card` (per eval
type the raw `metrics`, the normalized `scores` and the `failed` diagnostics)
and the `combined` score. A failed result keeps its metrics, so the hwDBJob
entry of a design that does not fit the device holds the screen metrics
`dsp_est`, `mem_kb_est` and `feasible` 0.0. Readers read each value by its
JSON type (`config.Fields`), never coercing or filling in. A file whose line
1 is not a header, such as one written before the header existed, is refused
naming line 1; a torn header means no records yet. A missing key, an `id`,
`generation` or trait value that is not a JSON integer (0.9, "3"), a
`parent_id` that is neither an integer nor null, a metric, score or
`combined` that is not a number, a non-string diagnostic, or a `traits` list
whose length is not the header's cell count makes a record corrupt. Other
keys are ignored.

The records are the whole run: `select`, one generation's step, and
`stop_reason` run in the search and again over its records (`replay`,
`engine.report`). `replay` holds only the survivors and one generation's
records, so a fold over `scan()` reads a whole database in constant memory.
Only a crashed search's last generation is shorter than the search writes,
so `replay` ends at the last whole generation before it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path
from typing import Any, BinaryIO, Iterable, Iterator

from .config import CellInstance, Fields, PopConfig
from .fitness import ScoreCard
from .genome import NetworkDescription, NetworkGenome, to_description

DB_FILENAME = "ecad.db.jsonl"

#: canonical JSON of database lines: sorted keys, no spaces, so a fixed seed gives fixed bytes
CANONICAL_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


class StoreError(ValueError):
    pass


@dataclass(frozen=True)
class DbRecord:
    genome: NetworkGenome
    card: ScoreCard
    generation: int
    combined: float

    def to_json(self) -> dict[str, Any]:
        return {"card": self.card.to_json(), "combined": self.combined,
                "generation": self.generation, "genome": self.genome.to_json()}

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


def select(pop: PopConfig, survivors: list[DbRecord],
           scored: Iterable[DbRecord]) -> tuple[list[DbRecord], list[DbRecord]]:
    """One generation's step: (its population by `rank_key`, the best
    maxPopSize - children of it, which survive and leave room for the children)."""
    ranked = sorted([*survivors, *scored], key=rank_key)
    return ranked, ranked[:pop.max_pop_size - pop.children]


def stop_reason(pop: PopConfig, generation: int, ranked: list[DbRecord]) -> str | None:
    """Why the search ends after ``generation``, whose population is ``ranked``, or None."""
    return ("fitness goal reached" if ranked[0].combined >= pop.fitness_score_goal
            else "max generations reached" if generation == pop.max_generations else None)


def replay(pop: PopConfig, records: Iterable[DbRecord]) -> Iterator[tuple[int, list[DbRecord]]]:
    """(generation, population by `rank_key`) per generation of ``records``, in
    file order, up to the first shorter than initialPopSize, then the children."""
    survivors: list[DbRecord] = []
    size = pop.initial_pop_size
    for generation, group in groupby(records, key=lambda rec: rec.generation):
        scored = list(group)
        if len(scored) < size:
            return
        ranked, survivors = select(pop, survivors, scored)
        yield generation, ranked
        size = pop.children


class EcadDb:
    """Reader of a database file; `create` opens it for its one writer."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fh: BinaryIO | None = None

    @classmethod
    def create(cls, path: str | Path, cells: tuple[CellInstance, ...]) -> "EcadDb":
        """Open a fresh database for writing, replacing any file at path, and
        write its header: the cell array every record's traits pair with."""
        db = cls(path)
        db.path.parent.mkdir(parents=True, exist_ok=True)
        db._fh = open(db.path, "wb")
        db._write({"cells": [cell.to_json() for cell in cells]})
        return db

    def __enter__(self) -> "EcadDb":
        return self

    def __exit__(self, *exc: object) -> None:
        if self._fh is not None:
            self._fh.close()

    def _write(self, doc: dict[str, Any]) -> None:
        self._fh.write((CANONICAL_JSON.encode(doc) + "\n").encode("utf-8"))
        self._fh.flush()

    def append(self, rec: DbRecord) -> None:
        self._write(rec.to_json())

    def _lines(self) -> Iterator[tuple[int, str]]:
        """(line number, text) of each complete line; a torn last line ends the file."""
        if not self.path.exists():
            raise StoreError(f"database file {self.path} does not exist")
        with open(self.path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.endswith("\n"):
                    return   # torn tail of an interrupted write
                yield lineno, line

    def _header(self, line: str) -> tuple[CellInstance, ...]:
        try:   # bad JSON, a record where the header belongs, or a mistyped cell
            header = Fields(json.loads(line), "header", StoreError)
            return tuple(map(CellInstance.from_json, header.items("cells", dict)))
        except ValueError as exc:
            raise StoreError(f"{self.path}:1: not a database header: {exc}") from exc

    def cells(self) -> tuple[CellInstance, ...]:
        """The cell array of the header line."""
        for _, line in self._lines():
            return self._header(line)
        raise StoreError(f"{self.path} has no complete header line")

    def scan(self) -> Iterator[DbRecord]:
        n_cells = 0
        for lineno, line in self._lines():
            if lineno == 1:
                n_cells = len(self._header(line))
                continue
            if not line.strip():
                continue
            try:
                rec = DbRecord.from_json(json.loads(line))
                if len(rec.genome.traits) != n_cells:
                    raise StoreError(f"genome has {len(rec.genome.traits)} trait objects, "
                                     f"but the header has {n_cells} cells")
            except ValueError as exc:   # bad JSON, a missing key or mistyped value, or wrong traits
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
        rec, cells = self.get(genome_id), self.cells()
        try:   # the file is outside input: check the description as `ecad eval` would
            desc = NetworkDescription.from_json(to_description(rec.genome, cells).to_json())
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreError(f"genome {genome_id} in {self.path} is not a valid network: {exc}") from exc
        out = Path(out_path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(desc.to_json(), indent=2) + "\n", encoding="utf-8")
        return out
