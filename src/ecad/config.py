"""Parse and validate ECAD configuration files.

The configuration is a JSON document (conventionally ``*.ecad.cfg``) that
declares the population parameters, the fitness objectives, the cell types
with their mutable trait ranges, the target device budget, and the cell
array describing the network skeleton. Include files are merged shallowly
with the main file winning on key conflicts. Keys the search does not read
are ignored, at the top level and inside each section.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Callable


class ConfigError(ValueError):
    """Raised for syntax errors, broken references or invariant violations."""


EVAL_TYPES = ("simJob", "hwDBJob", "physJob")   # physJob has no worker: accepted only when inactive
CELL_TYPES = ("input", "dense", "relu", "output")


def _is_comment_key(key: str) -> bool:
    return key == "comment" or key.endswith(("_comment", "-comment"))


@dataclass(frozen=True)
class TraitSpec:
    """Legal-value constraint for one mutable integer trait."""

    min_value: int
    max_value: int
    mod_value: int | None = None
    pow_value: int | None = None
    change_rate: float | None = None
    func: str | None = None

    def validate(self, name: str) -> None:
        if self.min_value > self.max_value:
            raise ConfigError(f"trait '{name}': minValue {self.min_value} > maxValue {self.max_value}")
        if self.mod_value is not None:
            if self.mod_value <= 0:
                raise ConfigError(f"trait '{name}': modValue must be positive")
            if self.min_value % self.mod_value or self.max_value % self.mod_value:
                raise ConfigError(
                    f"trait '{name}': minValue/maxValue must be multiples of modValue {self.mod_value}"
                )
        if self.func == "PowFunction" and (self.pow_value is None or self.pow_value < 2):
            raise ConfigError(f"trait '{name}': func PowFunction requires powValue >= 2, got {self.pow_value}")
        if self.change_rate is not None and not 0 <= self.change_rate <= 1:
            raise ConfigError(f"trait '{name}': changeRate must be in [0, 1], got {self.change_rate}")
        if not self.legal_values():
            raise ConfigError(f"trait '{name}': no legal value in [{self.min_value}, {self.max_value}]")

    def legal_values(self) -> list[int]:
        """All integers this trait may take, ascending."""
        lo, hi = self.min_value, self.max_value
        if self.func == "PowFunction":
            p = self.pow_value
            vals, v = [], 1
            while v <= hi:
                if v >= lo:
                    vals.append(v)
                v *= p
            return vals
        if self.mod_value:
            m = self.mod_value
            start = lo + (-lo) % m
            return list(range(start, hi + 1, m))
        return list(range(lo, hi + 1))

    @classmethod
    def from_json(cls, name: str, raw: dict[str, Any]) -> "TraitSpec":
        spec = cls(
            min_value=int(raw["minValue"]),
            max_value=int(raw["maxValue"]),
            mod_value=int(raw["modValue"]) if "modValue" in raw else None,
            pow_value=int(raw["powValue"]) if "powValue" in raw else None,
            change_rate=float(raw["changeRate"]) if "changeRate" in raw else None,
            func=raw.get("func"),
        )
        spec.validate(name)
        return spec


@dataclass(frozen=True)
class EvalTypeConfig:
    """One fitness objective: which worker scores it and how it normalizes."""

    type: str
    weight: float
    min_value: float
    max_value: float
    active: bool
    allow_overflow: bool = False
    minimize: bool = False
    epochs: int | None = None          # simJob
    batch_size: int | None = None      # simJob
    metric: str | None = None          # hwDBJob, defaults to effective_gops

    def validate(self) -> None:
        if self.type not in EVAL_TYPES:
            raise ConfigError(f"unknown evalType '{self.type}'")
        if self.type == "physJob" and self.active:
            raise ConfigError("evalType 'physJob' has no worker; it must be inactive")
        if self.weight < 0:
            raise ConfigError(f"evalType '{self.type}': weight must be >= 0")
        if not self.min_value < self.max_value:
            raise ConfigError(f"evalType '{self.type}': minValue must be < maxValue")
        for key, value in (("epochs", self.epochs), ("batchSize", self.batch_size)):
            if value is not None and value < 1:
                raise ConfigError(f"evalType '{self.type}': {key} must be >= 1, got {value}")

    @property
    def scored_metric(self) -> str:
        if self.type == "simJob":
            return "accuracy"
        return self.metric or "effective_gops"

    @classmethod
    def from_json(cls, raw: dict[str, Any]) -> "EvalTypeConfig":
        et = cls(
            type=raw.get("type", ""),
            weight=float(raw.get("weight", 1.0)),
            min_value=float(raw["minValue"]),
            max_value=float(raw["maxValue"]),
            active=bool(raw.get("active", True)),
            allow_overflow=bool(raw.get("allowOverflow", False)),
            minimize=bool(raw.get("minimize", False)),
            epochs=int(raw["epochs"]) if "epochs" in raw else None,
            batch_size=int(raw["batchSize"]) if "batchSize" in raw else None,
            metric=raw.get("metric"),
        )
        et.validate()
        return et


@dataclass(frozen=True)
class PopConfig:
    initial_pop_size: int
    max_pop_size: int
    change_rate: float
    max_generations: int
    fitness_score_goal: float
    eval_types: tuple[EvalTypeConfig, ...]

    def validate(self) -> None:
        if not 0 < self.initial_pop_size <= self.max_pop_size:
            raise ConfigError("popConfigValues: need 0 < initialPopSize <= maxPopSize")
        if not 0 < self.change_rate <= 1:
            raise ConfigError("popConfigValues: need 0 < changeRate <= 1")
        if self.max_generations < 1:
            raise ConfigError("popConfigValues: maxGenerations must be >= 1")
        children = math.ceil(self.change_rate * self.max_pop_size)
        if self.max_generations > 1 and children >= self.max_pop_size:
            # the children alone would fill the population, evicting the best member
            raise ConfigError(
                f"popConfigValues: changeRate {self.change_rate} with maxPopSize "
                f"{self.max_pop_size} makes {children} children per generation; "
                "need ceil(changeRate * maxPopSize) < maxPopSize")

    def active_eval_types(self) -> tuple[EvalTypeConfig, ...]:
        """The active objectives, in declaration order."""
        return self._active_eval_types

    @cached_property
    def _active_eval_types(self) -> tuple[EvalTypeConfig, ...]:
        return tuple(et for et in self.eval_types if et.active)

    @classmethod
    def from_json(cls, raw: dict[str, Any]) -> "PopConfig":
        pop = cls(
            initial_pop_size=int(raw["initialPopSize"]),
            max_pop_size=int(raw["maxPopSize"]),
            change_rate=float(raw["changeRate"]),
            max_generations=int(raw["maxGenerations"]),
            fitness_score_goal=float(raw.get("fitnessScoreGoal", math.inf)),
            eval_types=tuple(
                EvalTypeConfig.from_json(e)
                for e in raw.get("evalTypes", [])
                if not isinstance(e, str)
            ),
        )
        pop.validate()
        return pop


@dataclass(frozen=True)
class CellTypeConfig:
    """A declared cell type and its mutable traits.

    A key is a trait when its value is an object with minValue and maxValue
    and it is not a comment key; every other key is ignored.
    """

    cell_type: str
    traits: dict[str, TraitSpec]

    @classmethod
    def from_json(cls, raw: dict[str, Any]) -> "CellTypeConfig":
        ctype = raw.get("cell_type")
        if ctype not in CELL_TYPES:
            raise ConfigError(f"unknown cell_type '{ctype}' in cellTypes")
        traits = {
            key: TraitSpec.from_json(f"{ctype}.{key}", val)
            for key, val in raw.items()
            if not _is_comment_key(key)
            and isinstance(val, dict) and "minValue" in val and "maxValue" in val
        }
        return cls(cell_type=ctype, traits=traits)


@dataclass(frozen=True)
class HwConfig:
    """Device resource budget and memory-system parameters."""

    dsp: int
    freq: float            # MHz
    sram: float            # embedded-memory budget (Kb per the device sheet)
    mem_banks: int
    mem_speed: float       # mega-transfers/s
    mem_rate: float        # bytes per transfer

    def validate(self) -> None:
        for name in ("dsp", "freq", "sram", "mem_banks", "mem_speed", "mem_rate"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"hwConfig: {name} must be positive")

    @property
    def bandwidth_bytes_per_s(self) -> float:
        return self.mem_banks * self.mem_speed * 1e6 * self.mem_rate

    @classmethod
    def from_json(cls, raw: dict[str, Any]) -> "HwConfig":
        hw = cls(
            dsp=int(raw["dsp"]),
            freq=float(raw["freq"]),
            sram=float(raw["sram"]),
            mem_banks=int(raw["mem_banks"]),
            mem_speed=float(raw["mem_speed"]),
            mem_rate=float(raw["mem_rate"]),
        )
        hw.validate()
        return hw


@dataclass(frozen=True)
class CellInstance:
    """One entry of the cell array: a named cell wired into the chain."""

    cell_type: str
    cell_name: str
    input: str
    output: str
    input_size: int | None = None
    output_size: int | None = None
    fixed: bool = False

    @cached_property
    def _json(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "cell_type": self.cell_type,
            "cell_name": self.cell_name,
            "input": self.input,
            "output": self.output,
        }
        if self.input_size is not None:
            out["input_size"] = self.input_size
        if self.output_size is not None:
            out["output_size"] = self.output_size
        out["fixed"] = self.fixed
        return out

    def to_json(self) -> dict[str, Any]:
        """The instance as a JSON object; built once, so callers must not mutate it."""
        return self._json

    @classmethod
    def from_json(cls, raw: dict[str, Any]) -> "CellInstance":
        return cls(
            cell_type=str(raw["cell_type"]),
            cell_name=str(raw["cell_name"]),
            input=str(raw["input"]),
            output=str(raw["output"]),
            input_size=int(raw["input_size"]) if "input_size" in raw else None,
            output_size=int(raw["output_size"]) if "output_size" in raw else None,
            fixed=bool(raw.get("fixed", False)),
        )


#: one trait's mutation data: name, effective change rate, legal values ascending
TraitRow = tuple[str, float, tuple[int, ...]]


@dataclass(frozen=True)
class EcadConfig:
    name: str
    version: str
    pop: PopConfig
    def_change_rate: float
    cell_types: tuple[CellTypeConfig, ...]
    hw: HwConfig
    cell_array: tuple[CellInstance, ...]

    def cell_type_config(self, cell_type: str) -> CellTypeConfig:
        try:
            return self.cell_type_map[cell_type]
        except KeyError:
            raise ConfigError(f"unknown cell_type '{cell_type}'") from None

    @cached_property
    def cell_type_map(self) -> dict[str, CellTypeConfig]:
        """cell_type -> its declaration; the first one wins if a type is declared twice."""
        by_type: dict[str, CellTypeConfig] = {}
        for ct in self.cell_types:
            by_type.setdefault(ct.cell_type, ct)
        return by_type

    @cached_property
    def mutation_rows(self) -> dict[str, tuple[TraitRow, ...]]:
        """cell_type -> one (trait, effective change rate, legal values) row per
        trait, in declaration order; a trait without its own changeRate takes
        defChangeRate."""
        return {
            ctype: tuple(
                (name,
                 self.def_change_rate if spec.change_rate is None else spec.change_rate,
                 tuple(spec.legal_values()))
                for name, spec in ct.traits.items())
            for ctype, ct in self.cell_type_map.items()
        }

    def chain(self) -> list[CellInstance]:
        """Cell array ordered by following the input/output links."""
        return _ordered_chain(self.cell_array)


def _ordered_chain(cells: tuple[CellInstance, ...]) -> list[CellInstance]:
    by_name = {c.cell_name: c for c in cells}
    heads = [c for c in cells if c.input == "global"]
    if len(heads) != 1:
        raise ConfigError(f"cell array must have exactly one cell with input 'global', found {len(heads)}")
    chain: list[CellInstance] = []
    seen: set[str] = set()
    cur: CellInstance | None = heads[0]
    while cur is not None:
        if cur.cell_name in seen:
            raise ConfigError(f"cell chain has a cycle at '{cur.cell_name}'")
        seen.add(cur.cell_name)
        chain.append(cur)
        if cur.output == "global":
            cur = None
        elif cur.output in by_name:
            cur = by_name[cur.output]
        else:
            raise ConfigError(f"cell '{cur.cell_name}' outputs to undeclared cell '{cur.output}'")
    if len(chain) != len(cells):
        stray = sorted(set(by_name) - seen)
        raise ConfigError(f"cell array is not a single chain; unreachable cells: {stray}")
    return chain


def _validate(cfg: EcadConfig) -> EcadConfig:
    if not cfg.version:
        raise ConfigError("missing 'version'")
    if not cfg.cell_array:
        raise ConfigError("empty cell array")
    names = [c.cell_name for c in cfg.cell_array]
    if len(names) != len(set(names)):
        raise ConfigError("cell_name values must be unique")
    declared = {ct.cell_type for ct in cfg.cell_types}
    for cell in cfg.cell_array:
        if cell.cell_type not in declared:
            raise ConfigError(f"cell '{cell.cell_name}' references undeclared cell_type '{cell.cell_type}'")
    _ordered_chain(cfg.cell_array)
    if not 0 < cfg.def_change_rate <= 1:
        raise ConfigError("traitConfigValues: defChangeRate must be in (0, 1]")
    return cfg


def _merge_includes(doc: dict[str, Any], base_dir: Path | None) -> dict[str, Any]:
    merged: dict[str, Any] = {}
    for inc in doc.get("includes", []):
        inc_path = Path(inc)
        if not inc_path.is_absolute():
            if base_dir is None:
                raise ConfigError(f"include '{inc}' is relative but the config was not loaded from a file")
            inc_path = base_dir / inc_path
        if not inc_path.exists():
            raise ConfigError(f"include file not found: {inc_path}")
        sub = _load_doc(inc_path.read_text(encoding="utf-8"), inc_path.parent)
        merged.update(sub)
    merged.update(doc)   # main file wins on conflicts
    return merged


def _load_doc(text: str, base_dir: Path | None) -> dict[str, Any]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return _merge_includes(doc, base_dir)


def parse_config(source: str | Path) -> EcadConfig:
    """Parse JSON text or a file path into a validated EcadConfig.

    Include files are resolved relative to the including file and merged
    shallowly (main file keys win). Keys the search does not read are ignored.
    """
    def _is_existing_path(s: str) -> bool:
        try:
            return "\n" not in s and Path(s).exists()
        except OSError:
            return False

    base_dir: Path | None = None
    if isinstance(source, Path) or (isinstance(source, str) and _is_existing_path(source)):
        path = Path(source)
        text = path.read_text(encoding="utf-8")
        base_dir = path.parent.resolve()
    else:
        text = str(source)
    doc = _load_doc(text, base_dir)

    pop_raw = doc.get("popConfigValues")
    if not isinstance(pop_raw, dict):
        raise ConfigError("missing 'popConfigValues'")
    hw_raw = doc.get("hwConfig")
    if not isinstance(hw_raw, dict):
        raise ConfigError("missing 'hwConfig'")

    def section(key: str, build: Callable[[], Any]) -> Any:
        try:
            return build()
        except KeyError as exc:
            raise ConfigError(f"{key}: missing key {exc}") from None
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"{key}: bad value: {exc}") from None

    cfg = EcadConfig(
        name=str(doc.get("name", "")),
        version=str(doc.get("version", "")),
        pop=section("popConfigValues", lambda: PopConfig.from_json(pop_raw)),
        def_change_rate=section("traitConfigValues", lambda: float(
            doc.get("traitConfigValues", {}).get("defChangeRate", 0.1))),
        cell_types=section("cellTypes", lambda: tuple(map(CellTypeConfig.from_json, doc.get("cellTypes", [])))),
        hw=section("hwConfig", lambda: HwConfig.from_json(hw_raw)),
        cell_array=section("cellArray", lambda: tuple(map(CellInstance.from_json, doc.get("cellArray", [])))),
    )
    return _validate(cfg)

