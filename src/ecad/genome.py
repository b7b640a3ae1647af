"""Network genomes: one individual of the population.

A genome pairs the config's cell array with concrete trait values
(neuron counts, batch size, systolic-array shape). Genomes are immutable;
``spawn`` and ``mutate`` return new instances and draw randomness only from
the caller's ``random.Random`` so runs are reproducible from a seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

from .config import CellInstance, EcadConfig, TraitSpec

#: traits whose values participate in the interleave constraint
_SYS_ROWS, _SYS_COLS, _SYS_INTRLV = "sys_rows", "sys_cols", "sys_intrlv"
_SYS_TRAITS = frozenset((_SYS_ROWS, _SYS_COLS, _SYS_INTRLV))

_MUTATE_RETRIES = 16

#: canonical JSON of genomes and database records: sorted keys, no spaces,
#: so a fixed seed gives fixed bytes
CANONICAL_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


class GenomeError(ValueError):
    pass


@dataclass(frozen=True)
class CellState:
    """A cell instance plus its resolved trait values."""

    instance: CellInstance
    trait_values: dict[str, int] = field(default_factory=dict)

    @property
    def cell_name(self) -> str:
        return self.instance.cell_name

    @property
    def cell_type(self) -> str:
        return self.instance.cell_type

    @cached_property
    def json_text(self) -> str:
        """The cell as canonical JSON, encoded on first use. A child shares its
        parent's unchanged cells, so a cell is encoded once however many
        database records hold it."""
        return CANONICAL_JSON.encode(
            {"instance": self.instance.to_json(), "trait_values": self.trait_values})


@dataclass(frozen=True)
class NetworkGenome:
    id: int
    parent_id: int | None
    generation: int
    cells: tuple[CellState, ...]

    def to_json_text(self) -> str:
        """The genome as the text CANONICAL_JSON would give, assembled around
        each cell's cached text."""
        cells = ",".join(c.json_text for c in self.cells)
        return (f'{{"cells":[{cells}],"generation":{self.generation},"id":{self.id},'
                f'"parent_id":{CANONICAL_JSON.encode(self.parent_id)}}}')

    @classmethod
    def from_json(cls, raw: dict[str, Any]) -> "NetworkGenome":
        return cls(
            id=int(raw["id"]),
            parent_id=None if raw.get("parent_id") is None else int(raw["parent_id"]),
            generation=int(raw.get("generation", 0)),
            cells=tuple(
                CellState(
                    instance=CellInstance.from_json(c["instance"]),
                    trait_values={k: int(v) for k, v in c["trait_values"].items()},
                )
                for c in raw["cells"]
            ),
        )


def _sample(values: tuple[int, ...], rng: random.Random) -> int:
    if not values:
        raise GenomeError("unsatisfiable trait: no legal value")
    return rng.choice(values)


def _interleave_choices(spec: TraitSpec, rows: int, cols: int) -> list[int]:
    """Powers of two within the trait range that satisfy interleave >= rows + cols."""
    lo = max(rows + cols, spec.min_value)
    vals, v = [], 1
    while v <= spec.max_value:
        if v >= lo:
            vals.append(v)
        v *= 2
    return vals


def _apply_interleave_rule(traits: dict[str, int], specs: dict[str, TraitSpec], rng: random.Random) -> None:
    if not _SYS_TRAITS <= specs.keys():
        return
    choices = _interleave_choices(specs[_SYS_INTRLV], traits[_SYS_ROWS], traits[_SYS_COLS])
    if not choices:
        raise GenomeError(
            f"unsatisfiable trait: no power of two >= sys_rows+sys_cols "
            f"({traits[_SYS_ROWS]}+{traits[_SYS_COLS]}) within the sys_intrlv range"
        )
    traits[_SYS_INTRLV] = rng.choice(choices)


def _interleave_ok(traits: dict[str, int], specs: dict[str, TraitSpec]) -> bool:
    if not _SYS_TRAITS <= specs.keys():
        return True
    iv = traits[_SYS_INTRLV]
    return iv >= traits[_SYS_ROWS] + traits[_SYS_COLS] and iv & (iv - 1) == 0


def spawn(cfg: EcadConfig, rng: random.Random, genome_id: int) -> NetworkGenome:
    """Create a fresh genome with every trait randomized within its spec."""
    cells = []
    for inst in cfg.chain():
        specs = cfg.cell_type_config(inst.cell_type).traits
        traits = {name: _sample(values, rng) for name, _, values in cfg.mutation_rows[inst.cell_type]}
        _apply_interleave_rule(traits, specs, rng)
        cells.append(CellState(instance=inst, trait_values=traits))
    return NetworkGenome(id=genome_id, parent_id=None, generation=0, cells=tuple(cells))


def _mutation_pass(
    parent: NetworkGenome, cfg: EcadConfig, rng: random.Random
) -> list[CellState]:
    rows_by_type = cfg.mutation_rows
    cells = []
    for cell in parent.cells:
        ctype = cell.cell_type
        specs = cfg.cell_type_config(ctype).traits
        if not specs:
            cells.append(cell)   # nothing to mutate; genomes are immutable, so the child shares it
            continue
        drawn = [(name, _sample(values, rng))
                 for name, rate, values in rows_by_type[ctype] if rng.random() < rate]
        if not drawn and _interleave_ok(cell.trait_values, specs):
            cells.append(cell)
            continue
        traits = dict(cell.trait_values)
        traits.update(drawn)
        if any(name in _SYS_TRAITS for name, _ in drawn) or not _interleave_ok(traits, specs):
            _apply_interleave_rule(traits, specs, rng)
        cells.append(CellState(instance=cell.instance, trait_values=traits))
    return cells


def _force_single_change(
    parent: NetworkGenome, cfg: EcadConfig, rng: random.Random
) -> list[CellState]:
    """Change exactly one trait, preferring values that keep constraints intact."""
    candidates = [(idx, name) for idx, cell in enumerate(parent.cells)
                  for name, _, values in cfg.mutation_rows[cell.cell_type] if len(values) > 1]
    cells = [CellState(instance=c.instance, trait_values=dict(c.trait_values)) for c in parent.cells]
    if not candidates:
        return cells   # every trait is a singleton; the child cannot differ
    rng.shuffle(candidates)
    for idx, name in candidates:
        cell = cells[idx]
        specs = cfg.cell_type_config(cell.cell_type).traits
        traits = dict(cell.trait_values)
        current = traits[name]
        if name == _SYS_INTRLV:
            options = [v for v in _interleave_choices(specs[name], traits[_SYS_ROWS], traits[_SYS_COLS]) if v != current]
        else:
            legal = next(values for n, _, values in cfg.mutation_rows[cell.cell_type] if n == name)
            options = [v for v in legal if v != current]
            if name in (_SYS_ROWS, _SYS_COLS) and _SYS_INTRLV in traits:
                # keep the existing interleave valid so only this trait changes
                other = traits[_SYS_COLS if name == _SYS_ROWS else _SYS_ROWS]
                safe = [v for v in options if v + other <= traits[_SYS_INTRLV]]
                options = safe or options
        if not options:
            continue
        traits[name] = rng.choice(options)
        if not _interleave_ok(traits, specs):
            _apply_interleave_rule(traits, specs, rng)
        cells[idx] = CellState(instance=cell.instance, trait_values=traits)
        return cells
    return cells


def mutate(parent: NetworkGenome, cfg: EcadConfig, rng: random.Random, genome_id: int,
           generation: int | None = None) -> NetworkGenome:
    """Produce a child genome; guaranteed to differ from the parent when possible."""
    gen = parent.generation + 1 if generation is None else generation
    for _ in range(_MUTATE_RETRIES):
        cells = _mutation_pass(parent, cfg, rng)
        if [c.trait_values for c in cells] != [c.trait_values for c in parent.cells]:
            return NetworkGenome(id=genome_id, parent_id=parent.id, generation=gen, cells=tuple(cells))
    cells = _force_single_change(parent, cfg, rng)
    return NetworkGenome(id=genome_id, parent_id=parent.id, generation=gen, cells=tuple(cells))


# --- network description ----------------------------------------------------

@dataclass(frozen=True)
class LayerDesc:
    name: str
    in_features: int
    out_features: int
    activation: str      # "relu" | "none"
    bias: bool


@dataclass(frozen=True)
class SystolicDesc:
    rows: int
    cols: int
    vec: int
    interleave: int
    scale: int

    def as_tuple(self) -> tuple[int, int, int, int, int]:
        return (self.rows, self.cols, self.vec, self.interleave, self.scale)

    def __str__(self) -> str:
        return ",".join(str(v) for v in self.as_tuple())


@dataclass(frozen=True)
class NetworkDescription:
    """Self-contained description of one concrete network + array config."""

    id: int
    batch: int
    layers: tuple[LayerDesc, ...]
    systolic: SystolicDesc | None

    def to_json(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "id": self.id,
            "batch": self.batch,
            "layers": [
                {"name": l.name, "in": l.in_features, "out": l.out_features,
                 "activation": l.activation, "bias": l.bias}
                for l in self.layers
            ],
        }
        if self.systolic is not None:
            s = self.systolic
            doc["systolic"] = {"rows": s.rows, "cols": s.cols, "vec": s.vec,
                               "interleave": s.interleave, "scale": s.scale}
        return doc

    @classmethod
    def from_json(cls, raw: dict[str, Any]) -> "NetworkDescription":
        sys_raw = raw.get("systolic")
        return cls(
            id=int(raw["id"]),
            batch=int(raw["batch"]),
            layers=tuple(
                LayerDesc(
                    name=str(l["name"]),
                    in_features=int(l["in"]),
                    out_features=int(l["out"]),
                    activation=str(l["activation"]),
                    bias=bool(l["bias"]),
                )
                for l in raw["layers"]
            ),
            systolic=None if sys_raw is None else SystolicDesc(
                rows=int(sys_raw["rows"]), cols=int(sys_raw["cols"]), vec=int(sys_raw["vec"]),
                interleave=int(sys_raw["interleave"]), scale=int(sys_raw["scale"]),
            ),
        )


def to_description(genome: NetworkGenome) -> NetworkDescription:
    """Flatten the cell chain into an ordered layer list plus the array config.

    Dense cells contribute one affine layer each; a trailing relu cell sets the
    layer's activation. The output cell contributes the final projection to its
    declared output_size (no activation, bias inherited from the last dense cell).
    """
    batch = 1
    systolic: SystolicDesc | None = None
    layers: list[list[Any]] = []   # [name, in, out, activation, bias] per layer
    width: int | None = None
    last_bias = True

    for cell in genome.cells:
        kind = cell.cell_type
        traits = cell.trait_values
        if kind == "input":
            batch = traits.get("batch_size", 1)
            width = cell.instance.input_size
            if width is None:
                raise GenomeError(f"input cell '{cell.cell_name}' has no input_size")
        elif kind == "dense":
            if width is None:
                raise GenomeError(f"dense cell '{cell.cell_name}' appears before the input cell")
            neurons = traits["neurons"]
            last_bias = bool(traits.get("enableBias", 1))
            layers.append([cell.cell_name, width, neurons, "none", last_bias])
            width = neurons
            if systolic is None and _SYS_ROWS in traits:
                systolic = SystolicDesc(
                    rows=traits["sys_rows"], cols=traits["sys_cols"], vec=traits["sys_vec"],
                    interleave=traits["sys_intrlv"], scale=traits["sys_scale"],
                )
        elif kind == "relu":
            if layers:
                layers[-1][3] = "relu"
        elif kind == "output":
            if width is None or cell.instance.output_size is None:
                raise GenomeError(f"output cell '{cell.cell_name}' needs an output_size")
            layers.append([cell.cell_name, width, cell.instance.output_size, "none", last_bias])
            width = cell.instance.output_size
    return NetworkDescription(id=genome.id, batch=batch,
                              layers=tuple(LayerDesc(*layer) for layer in layers), systolic=systolic)

