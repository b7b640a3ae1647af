"""Parse and validate ECAD configuration files.

The configuration is a JSON document (conventionally ``*.ecad.cfg``) that
declares the population parameters, the fitness objectives, the cell types
with their mutable trait ranges, the target device budget, and the cell
array describing the network skeleton. `parse_config` takes a file path or
an already-parsed document. Include files are merged shallowly with the
including document winning on key conflicts. Keys the search does not read
are ignored, at the top level and inside each section. Every value it does
read goes through `Fields`, which checks its JSON type and never coerces:
``"active": "false"``, ``"maxPopSize": 40.9`` and ``"dsp": "1518"`` are
refused. `genome.NetworkDescription.from_json` reads descriptions the same way.

`parse_config` is the one place that checks the input; `engine`, `genome`
and `workers` rely on what a config it returns guarantees, and do not check
it again: at least one eval type is active and none is listed twice; a
`metric` is set only on hwDBJob and names a key of `HwEstimate.metrics()`;
fewer than maxPopSize children are made per generation; each cell type is
declared once, each trait has a legal value, and every legal neurons,
batch_size and array trait value is >= 1; a cell type declares all five
array traits (`SYS_ARRAY`) or none, and every legal sys_rows + sys_cols has a
power of two at least as large in its sys_intrlv range; `cell_array` is the
chain in listed order: each cell's input and output name the cells listed
before and after it, 'global' at the ends, and names are unique and not
'global'; each cell's type is declared, and the chain runs from one input
cell with an input_size >= 1 to one output cell with an output_size >= 1,
with no other input or output cell; a dense or output cell's name is a layer
name, so it is not empty, '.' or '..' and holds no '/' or '\\'; a dense
cell's type declares neurons; and with hwDBJob active, the chain has a dense
cell whose type declares the array traits. So every genome `spawn` and
`mutate` make describes a valid network, and with hwDBJob a valid array.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path
from typing import Any


class ConfigError(ValueError):
    """Raised for syntax errors, broken references or invariant violations."""


EVAL_TYPES = ("simJob", "hwDBJob", "physJob")   # physJob has no worker: accepted only when inactive
CELL_TYPES = ("input", "dense", "relu", "output")
#: the keys of `hwmodel.HwEstimate.metrics()`, in order: what an hwDBJob may score
HW_METRICS = ("total_time_ms", "potential_gops", "effective_gops", "img_per_s",
              "latency_ms", "dsp_est", "mem_kb_est", "feasible")
#: the array traits, in `genome.SystolicConfig` field order: a cell type declares all or none
SYS_ARRAY = ("sys_rows", "sys_cols", "sys_vec", "sys_intrlv", "sys_scale")
SYS_ROWS, SYS_COLS, SYS_INTRLV = SYS_ARRAY[0], SYS_ARRAY[1], SYS_ARRAY[3]


def _powers(base: int, lo: int, hi: int) -> list[int]:
    """The powers of ``base``, 1 included, within [lo, hi], ascending."""
    vals, v = [], 1
    while v <= hi:
        if v >= lo:
            vals.append(v)
        v *= base
    return vals


def interleave_choices(spec: TraitSpec, rows: int, cols: int) -> list[int]:
    """Powers of two within the sys_intrlv range that satisfy interleave >= rows + cols."""
    return _powers(2, max(rows + cols, spec.min_value), spec.max_value)


def _is_comment_key(key: str) -> bool:
    return key == "comment" or key.endswith(("_comment", "-comment"))


_KINDS = {int: "integer", float: "number", bool: "boolean", str: "string", dict: "object",
          list: "array"}
_REQUIRED = object()


def _shown(value: Any) -> str:
    """`value` in an error message: an array or object by its kind, anything else as JSON."""
    if type(value) in (dict, list):
        return f"a JSON {_KINDS[type(value)]}"
    return json.dumps(value, default=repr)


class Fields:
    """One JSON object whose values are read by declared kind, never coerced.

    A kind is int (a JSON integer, so not 2.0, true or "4"), float (any JSON
    number but a boolean, returned as a float), bool, str, dict or list. Each
    refusal raises `error`, ConfigError for configs and GenomeError for network
    descriptions, naming `where` and the key.
    """

    def __init__(self, raw: Any, where: str, error: type[ValueError] = ConfigError) -> None:
        if type(raw) is not dict:
            raise error(f"{where} must be a JSON object, got {_shown(raw)}")
        self.raw, self.where, self.error = raw, where, error

    def _checked(self, name: str, value: Any, kind: type) -> Any:
        if type(value) is kind:
            return value
        if kind is float and type(value) is int:
            return float(value)
        raise self.error(f"{self.where}: {name} must be a JSON {_KINDS[kind]}, got {_shown(value)}")

    def __call__(self, key: str, kind: type, default: Any = _REQUIRED) -> Any:
        """The value at `key` as a `kind`; an absent key gives `default`, and
        without one raises "<where>: missing key '<key>'"."""
        if key in self.raw:
            return self._checked(key, self.raw[key], kind)
        if default is _REQUIRED:
            raise self.error(f"{self.where}: missing key '{key}'")
        return default

    def items(self, key: str, kind: type, default: Any = _REQUIRED,
              skip: type | None = None) -> list[Any]:
        """The array at `key` without its entries of type `skip`; every other
        entry must be a `kind`."""
        return [self._checked(f"{key}[{i}]", entry, kind)
                for i, entry in enumerate(self(key, list, default)) if type(entry) is not skip]

    def table(self, key: str, kind: type) -> dict[str, Any]:
        """The object at `key`, each of its values read as a `kind`."""
        inner = Fields(self(key, dict), f"{self.where}: {key}", self.error)
        return {name: inner(name, kind) for name in inner.raw}


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
        if self.func not in (None, "PowFunction"):
            raise ConfigError(f"trait '{name}': unknown func '{self.func}'; only PowFunction is implemented")
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
            return _powers(self.pow_value, lo, hi)
        if self.mod_value:
            m = self.mod_value
            start = lo + (-lo) % m
            return list(range(start, hi + 1, m))
        return list(range(lo, hi + 1))

    @classmethod
    def from_json(cls, name: str, raw: dict[str, Any]) -> "TraitSpec":
        f = Fields(raw, f"trait '{name}'")
        spec = cls(
            min_value=f("minValue", int),
            max_value=f("maxValue", int),
            mod_value=f("modValue", int, None),
            pow_value=f("powValue", int, None),
            change_rate=f("changeRate", float, None),
            func=f("func", str, None),
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
    epochs: int = 1                    # simJob
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
        if self.metric is not None:
            if self.type != "hwDBJob":
                raise ConfigError(f"evalType '{self.type}': metric is only valid on hwDBJob")
            if self.metric not in HW_METRICS:
                raise ConfigError(f"evalType 'hwDBJob': unknown metric '{self.metric}'; "
                                  f"expected one of {', '.join(HW_METRICS)}")

    @property
    def scored_metric(self) -> str:
        if self.type == "simJob":
            return "accuracy"
        return self.metric or "effective_gops"

    @classmethod
    def from_json(cls, raw: dict[str, Any]) -> "EvalTypeConfig":
        type_ = Fields(raw, "popConfigValues: evalTypes")("type", str)
        f = Fields(raw, f"evalType '{type_}'")
        et = cls(
            type=type_,
            weight=f("weight", float, 1.0),
            min_value=f("minValue", float),
            max_value=f("maxValue", float),
            active=f("active", bool, True),
            allow_overflow=f("allowOverflow", bool, False),
            minimize=f("minimize", bool, False),
            epochs=f("epochs", int, 1),
            batch_size=f("batchSize", int, None),
            metric=f("metric", str, None),
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
        types = [et.type for et in self.eval_types]
        for t in types:
            if types.count(t) > 1:
                raise ConfigError(f"popConfigValues: evalType '{t}' is listed twice")
        if not self.active_eval_types():
            raise ConfigError("popConfigValues: no active evalType")
        if self.max_generations > 1 and self.children >= self.max_pop_size:
            # the children alone would fill the population, evicting the best member
            raise ConfigError(
                f"popConfigValues: changeRate {self.change_rate} with maxPopSize "
                f"{self.max_pop_size} makes {self.children} children per generation; "
                "need ceil(changeRate * maxPopSize) < maxPopSize")

    @property
    def children(self) -> int:
        """Children mutated per generation: ceil(changeRate * maxPopSize)."""
        return math.ceil(self.change_rate * self.max_pop_size)

    def active_eval_types(self) -> tuple[EvalTypeConfig, ...]:
        """The active objectives, in declaration order."""
        return self._active_eval_types

    @cached_property
    def _active_eval_types(self) -> tuple[EvalTypeConfig, ...]:
        return tuple(et for et in self.eval_types if et.active)

    @classmethod
    def from_json(cls, raw: dict[str, Any]) -> "PopConfig":
        f = Fields(raw, "popConfigValues")
        pop = cls(
            initial_pop_size=f("initialPopSize", int),
            max_pop_size=f("maxPopSize", int),
            change_rate=f("changeRate", float),
            max_generations=f("maxGenerations", int),
            fitness_score_goal=f("fitnessScoreGoal", float, math.inf),
            # string entries are comments
            eval_types=tuple(map(EvalTypeConfig.from_json, f.items("evalTypes", dict, [], skip=str))),
        )
        pop.validate()
        return pop


def _cell_types(raw: list[dict[str, Any]]) -> dict[str, dict[str, TraitSpec]]:
    """cell_type -> its mutable traits, in declaration order.

    A key is a trait when its value is an object with minValue and maxValue
    and it is not a comment key; every other key is ignored.
    """
    types: dict[str, dict[str, TraitSpec]] = {}
    for entry in raw:
        ctype = Fields(entry, "cellTypes")("cell_type", str)
        if ctype not in CELL_TYPES:
            raise ConfigError(f"unknown cell_type '{ctype}' in cellTypes")
        if ctype in types:
            raise ConfigError(f"cell_type '{ctype}' is declared twice in cellTypes")
        types[ctype] = {
            key: TraitSpec.from_json(f"{ctype}.{key}", val)
            for key, val in entry.items()
            if not _is_comment_key(key)
            and isinstance(val, dict) and "minValue" in val and "maxValue" in val
        }
    return types


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
        f = Fields(raw, "hwConfig")
        hw = cls(
            dsp=f("dsp", int),
            freq=f("freq", float),
            sram=f("sram", float),
            mem_banks=f("mem_banks", int),
            mem_speed=f("mem_speed", float),
            mem_rate=f("mem_rate", float),
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

    def to_json(self) -> dict[str, Any]:
        """The instance as a JSON object, without the sizes it does not set."""
        return {key: value for key, value in asdict(self).items() if value is not None}

    @classmethod
    def from_json(cls, raw: dict[str, Any]) -> "CellInstance":
        name = Fields(raw, "cellArray")("cell_name", str)
        f = Fields(raw, f"cell '{name}'")
        return cls(
            cell_type=f("cell_type", str),
            cell_name=name,
            input=f("input", str),
            output=f("output", str),
            input_size=f("input_size", int, None),
            output_size=f("output_size", int, None),
        )


#: one trait's mutation data: name, effective change rate, legal values ascending
TraitRow = tuple[str, float, tuple[int, ...]]


@dataclass(frozen=True)
class EcadConfig:
    name: str
    pop: PopConfig
    def_change_rate: float
    cell_types: dict[str, dict[str, TraitSpec]]   # cell_type -> trait -> spec
    hw: HwConfig
    cell_array: tuple[CellInstance, ...]          # the chain, 'global' input first

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
                for name, spec in traits.items())
            for ctype, traits in self.cell_types.items()
        }


def check_layer_name(name: str, error: type[ValueError] = ConfigError) -> None:
    """Raise `error` unless `name` can name a layer's parameter files
    (``<name>_weights.bin``): not empty, ``.`` or ``..``, and without ``/`` or ``\\``."""
    if name in ("", ".", "..") or "/" in name or "\\" in name:
        raise error(f"layer name {name!r} cannot name a file: it must not be "
                    "empty, '.' or '..', or hold '/' or '\\'")


def _validate(cfg: EcadConfig) -> None:
    """Raise ConfigError unless `cfg` holds the invariants the module docstring lists."""
    chain = cfg.cell_array
    if not chain:
        raise ConfigError("empty cell array")
    links = ["global", *(c.cell_name for c in chain), "global"]
    if len(set(links)) != len(links) - 1:   # only 'global' may appear twice
        raise ConfigError("cell_name values must be unique and not 'global'")
    for pos, cell in enumerate(chain):
        before, after = links[pos], links[pos + 2]
        if (cell.input, cell.output) != (before, after):
            raise ConfigError(f"cell '{cell.cell_name}' links '{cell.input}' -> '{cell.output}', "
                              f"but cellArray lists it between '{before}' and '{after}'")
        if cell.cell_type not in cfg.cell_types:
            raise ConfigError(f"cell '{cell.cell_name}' references undeclared cell_type '{cell.cell_type}'")
        # the first cell must be the one input, the last the one output
        end = {0: "input", len(chain) - 1: "output"}.get(pos)
        if end != (cell.cell_type if cell.cell_type in ("input", "output") else None):
            raise ConfigError(f"cell '{cell.cell_name}' of type '{cell.cell_type}' is cell {pos + 1} "
                              f"of {len(chain)}; the chain must run from one input cell to one output cell")
        if cell.cell_type in ("dense", "output"):
            check_layer_name(cell.cell_name)
    if not 0 < cfg.def_change_rate <= 1:
        raise ConfigError("traitConfigValues: defChangeRate must be in (0, 1]")
    for ctype, traits in cfg.cell_types.items():
        missing = [name for name in SYS_ARRAY if name not in traits]
        if 0 < len(missing) < len(SYS_ARRAY):
            raise ConfigError(f"cell_type '{ctype}' lacks array trait(s) {', '.join(missing)}; "
                              "declare all five or none")
        if not missing:
            spec = traits[SYS_INTRLV]
            rows, cols = traits[SYS_ROWS].legal_values()[-1], traits[SYS_COLS].legal_values()[-1]
            # the widest rows and cols need the largest interleave
            if not interleave_choices(spec, rows, cols):
                raise ConfigError(f"trait '{ctype}.{SYS_INTRLV}': no power of two "
                                  f">= {max(rows + cols, spec.min_value)} "
                                  f"within [{spec.min_value}, {spec.max_value}]")
        for name in ("neurons", "batch_size", *SYS_ARRAY):
            lowest = traits[name].legal_values()[0] if name in traits else 1
            if lowest < 1:
                raise ConfigError(f"trait '{ctype}.{name}': every legal value must be >= 1, got {lowest}")
    for cell, key in ((chain[0], "input_size"), (chain[-1], "output_size")):
        size = getattr(cell, key)
        if size is None or size < 1:
            raise ConfigError(f"{cell.cell_type} cell '{cell.cell_name}': {key} must be >= 1, got {size}")
    dense = [c for c in chain if c.cell_type == "dense"]
    if dense and "neurons" not in cfg.cell_types["dense"]:
        raise ConfigError("cell_type 'dense' must declare the trait 'neurons'")
    if (any(et.type == "hwDBJob" for et in cfg.pop.active_eval_types())
            and not (dense and SYS_ROWS in cfg.cell_types["dense"])):
        raise ConfigError("evalType 'hwDBJob' needs a dense cell whose cell_type declares "
                          f"the array traits {', '.join(SYS_ARRAY)}")


def _not_json(literal: str) -> float:   # json.loads reads NaN, Infinity and -Infinity
    raise ConfigError(f"config syntax error: {literal} is not a JSON value")


def _document(source: str | Path | dict[str, Any], what: str = "config file",
              loading: tuple[Path, ...] = ()) -> dict[str, Any]:
    """The document at path `source`, or `source` itself when it is a dict,
    with its includes merged in. A relative include is resolved against the
    including file's directory, so a dict may not have one. `loading` holds
    the resolved files being read, to catch an include cycle."""
    base_dir = None
    if isinstance(source, dict):
        doc = source
    else:
        path = Path(source)
        key = path.resolve()
        if key in loading:
            raise ConfigError(f"include cycle: {' -> '.join(map(str, (*loading, key)))}")
        try:
            doc = json.loads(path.read_text(encoding="utf-8"), parse_constant=_not_json)
        except FileNotFoundError:
            raise ConfigError(f"{what} not found: {path}") from None
        except OSError as exc:
            raise ConfigError(f"cannot read {what} {path}: {exc.strerror or exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config syntax error at line {exc.lineno}, column {exc.colno}: "
                              f"{exc.msg}") from None
        base_dir, loading = path.parent.resolve(), (*loading, key)
    merged: dict[str, Any] = {}
    for inc in Fields(doc, "config").items("includes", str, []):
        inc_path = Path(inc)
        if not inc_path.is_absolute():
            if base_dir is None:
                raise ConfigError(f"include '{inc}' is relative but the config was not loaded from a file")
            inc_path = base_dir / inc_path
        merged.update(_document(inc_path, "include file", loading))
    merged.update(doc)   # the including document wins on conflicts
    return merged


def parse_config(source: str | Path | dict[str, Any]) -> EcadConfig:
    """Parse a config file, named by a str or Path, or an already-parsed JSON
    document (a dict), into a validated EcadConfig. Include files are resolved
    relative to the including file and merged shallowly (the including keys
    win), so a dict may only include absolute paths. Each value the search
    reads must have its JSON type (see `Fields`); other keys are ignored.
    """
    doc = Fields(_document(source), "config")
    if not doc("version", str, ""):
        raise ConfigError("missing 'version'")
    trait = Fields(doc("traitConfigValues", dict, {}), "traitConfigValues")
    cfg = EcadConfig(
        name=doc("name", str, ""),
        pop=PopConfig.from_json(doc("popConfigValues", dict)),
        def_change_rate=trait("defChangeRate", float, 0.1),
        cell_types=_cell_types(doc.items("cellTypes", dict, [])),
        hw=HwConfig.from_json(doc("hwConfig", dict)),
        cell_array=tuple(map(CellInstance.from_json, doc.items("cellArray", dict, []))),
    )
    _validate(cfg)
    return cfg
