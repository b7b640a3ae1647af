"""EcadDB: append-only JSON-lines store of evaluated individuals.

One JSON object per line; records are never mutated (re-evaluation appends a
new record). The search engine stamps records with a logical sequence number
so fixed-seed reruns produce byte-identical files.

A crash during an append can leave a last line without its newline. Readers
skip that torn line and the first append of a process cuts it off before
writing; a corrupt line anywhere else raises StoreError.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, BinaryIO, Iterator

from .fitness import ScoreCard
from .genome import NetworkGenome, to_description

DB_FILENAME = "ecad.db.jsonl"


class StoreError(ValueError):
    pass


@dataclass(frozen=True)
class DbRecord:
    genome: NetworkGenome
    card: ScoreCard
    generation: int
    combined: float
    seq: int = 0

    def to_json(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "generation": self.generation,
            "combined": self.combined,
            "genome": self.genome.to_json(),
            "card": self.card.to_json(),
        }

    @classmethod
    def from_json(cls, raw: dict[str, Any]) -> "DbRecord":
        return cls(
            genome=NetworkGenome.from_json(raw["genome"]),
            card=ScoreCard.from_json(raw["card"]),
            generation=int(raw["generation"]),
            combined=float(raw["combined"]),
            seq=int(raw.get("seq", 0)),
        )


def _cut_torn_tail(fh: BinaryIO) -> None:
    """Truncate a last line that lacks its newline, so appends start on a clean line."""
    end = fh.seek(0, os.SEEK_END)
    if end == 0:
        return
    fh.seek(end - 1)
    if fh.read(1) == b"\n":
        return
    fh.seek(0)
    fh.truncate(fh.read().rfind(b"\n") + 1)


class EcadDb:
    """Single-writer append-only store; readers may scan concurrently."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._seq: int | None = None   # counted on the first append

    def append(self, genome: NetworkGenome, card: ScoreCard, generation: int,
               combined: float) -> DbRecord:
        first = self._seq is None
        if first:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a+b") as fh:
            if first:   # only a crash before this process opened the file can tear its tail
                _cut_torn_tail(fh)
                fh.seek(0)
                self._seq = sum(1 for raw in fh if raw.strip())
            rec = DbRecord(genome=genome, card=card, generation=generation,
                           combined=combined, seq=self._seq)
            line = json.dumps(rec.to_json(), sort_keys=True, separators=(",", ":")) + "\n"
            fh.write(line.encode("utf-8"))
            fh.flush()
        self._seq += 1
        return rec

    def scan(self) -> Iterator[DbRecord]:
        if not self.path.exists():
            return
        with open(self.path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.endswith("\n"):
                    return   # torn tail of an interrupted append
                if not line.strip():
                    continue
                try:
                    rec = DbRecord.from_json(json.loads(line))
                except (ValueError, KeyError, TypeError) as exc:
                    raise StoreError(f"{self.path}:{lineno}: corrupt record: {exc}") from exc
                yield rec

    def top(self, k: int) -> list[DbRecord]:
        """Best k records by combined score, ties broken by older genome id.

        Re-evaluated genomes count once, at their latest record.
        """
        if k <= 0:
            return []
        latest: dict[int, DbRecord] = {}
        for rec in self.scan():
            latest[rec.genome.id] = rec
        ranked = sorted(latest.values(), key=lambda r: (-r.combined, r.genome.id))
        return ranked[:k]

    def get(self, genome_id: int) -> DbRecord:
        found: DbRecord | None = None
        for rec in self.scan():
            if rec.genome.id == genome_id:
                found = rec
        if found is None:
            raise StoreError(f"genome id {genome_id} not in {self.path}")
        return found

    def export(self, genome_id: int, out_path: str | Path) -> Path:
        """Write the genome's network description as a standalone JSON file."""
        rec = self.get(genome_id)
        desc = to_description(rec.genome)
        out = Path(out_path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(desc.to_json(), indent=2) + "\n", encoding="utf-8")
        return out

    def compact(self) -> int:
        """Rewrite the file keeping only each genome's latest record; returns rows kept."""
        latest: dict[int, DbRecord] = {}
        order: list[int] = []
        for rec in self.scan():
            if rec.genome.id not in latest:
                order.append(rec.genome.id)
            latest[rec.genome.id] = rec
        tmp = self.path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            for gid in order:
                fh.write(json.dumps(latest[gid].to_json(), sort_keys=True,
                                    separators=(",", ":")) + "\n")
        tmp.replace(self.path)
        return len(order)
