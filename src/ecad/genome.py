"""Network genomes: one individual of the population.

A genome is its trait values: one ``{trait: value}`` dict per cell of the
config's cell array, in chain order (neuron counts, batch size, systolic-array
shape). The cell array itself belongs to the config, so `to_description`
takes it beside the genome. Genomes are immutable; ``spawn`` and ``mutate``
return new instances and draw randomness only from the caller's
``random.Random`` so runs are reproducible from a seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from .config import (SYS_ARRAY, SYS_COLS, SYS_INTRLV, SYS_ROWS, CellInstance, EcadConfig,
                     Fields, TraitSpec, check_layer_name, interleave_choices)

_MUTATE_RETRIES = 16


class GenomeError(ValueError):
    pass


@dataclass(frozen=True)
class NetworkGenome:
    """An individual: its id, its parent's id (None when spawned) and one trait
    dict per cell of ``cfg.cell_array``, in chain order."""

    id: int
    parent_id: int | None
    traits: tuple[dict[str, int], ...]

    def to_json(self) -> dict[str, Any]:
        return {"id": self.id, "parent_id": self.parent_id, "traits": self.traits}

    @classmethod
    def from_json(cls, raw: Any) -> "NetworkGenome":
        """A genome as `to_json` gives it, read by type (`config.Fields`); raises GenomeError."""
        genome = Fields(raw, "genome", GenomeError)
        traits = []
        for i, entry in enumerate(genome.items("traits", dict)):
            cell = Fields(entry, f"genome: traits[{i}]", GenomeError)
            traits.append({name: cell(name, int) for name in entry})
        return cls(
            id=genome("id", int),
            # a spawned genome's parent_id is null
            parent_id=None if raw.get("parent_id", 0) is None else genome("parent_id", int),
            traits=tuple(traits),
        )


def _apply_interleave_rule(traits: dict[str, int], specs: dict[str, TraitSpec], rng: random.Random) -> None:
    if SYS_INTRLV not in specs:
        return
    # parse_config guarantees a choice for every legal rows and cols
    traits[SYS_INTRLV] = rng.choice(
        interleave_choices(specs[SYS_INTRLV], traits[SYS_ROWS], traits[SYS_COLS]))


def spawn(cfg: EcadConfig, rng: random.Random, genome_id: int) -> NetworkGenome:
    """Create a fresh genome with every trait randomized within its spec."""
    cells = []
    for inst in cfg.cell_array:
        traits = {name: rng.choice(values) for name, _, values in cfg.mutation_rows[inst.cell_type]}
        _apply_interleave_rule(traits, cfg.cell_types[inst.cell_type], rng)
        cells.append(traits)
    return NetworkGenome(id=genome_id, parent_id=None, traits=tuple(cells))


def _mutation_pass(
    parent: NetworkGenome, cfg: EcadConfig, rng: random.Random
) -> list[dict[str, int]]:
    rows_by_type = cfg.mutation_rows
    cells = []
    for inst, parent_traits in zip(cfg.cell_array, parent.traits, strict=True):
        drawn = [(name, rng.choice(values))
                 for name, rate, values in rows_by_type[inst.cell_type] if rng.random() < rate]
        if not drawn:
            cells.append(parent_traits)   # genomes are immutable, so the child shares the unchanged dict
            continue
        traits = dict(parent_traits)
        traits.update(drawn)
        # the parent satisfies the interleave rule, so only a drawn rows, cols or intrlv can break it
        if any(name in (SYS_ROWS, SYS_COLS, SYS_INTRLV) for name, _ in drawn):
            _apply_interleave_rule(traits, cfg.cell_types[inst.cell_type], rng)
        cells.append(traits)
    return cells


def _force_single_change(
    parent: NetworkGenome, cfg: EcadConfig, rng: random.Random
) -> list[dict[str, int]]:
    """Change exactly one trait, preferring values that keep constraints intact."""
    kinds = [inst.cell_type for inst in cfg.cell_array]
    candidates = [(idx, name) for idx, kind in enumerate(kinds)
                  for name, _, values in cfg.mutation_rows[kind] if len(values) > 1]
    cells = list(parent.traits)
    if not candidates:
        return cells   # every trait is a singleton; the child cannot differ
    rng.shuffle(candidates)
    for idx, name in candidates:
        specs = cfg.cell_types[kinds[idx]]
        traits = dict(cells[idx])
        current = traits[name]
        if name == SYS_INTRLV:
            options = [v for v in interleave_choices(specs[name], traits[SYS_ROWS], traits[SYS_COLS]) if v != current]
        else:
            legal = next(values for n, _, values in cfg.mutation_rows[kinds[idx]] if n == name)
            options = [v for v in legal if v != current]
            if name in (SYS_ROWS, SYS_COLS):
                # keep the existing interleave valid so only this trait changes
                other = traits[SYS_COLS if name == SYS_ROWS else SYS_ROWS]
                safe = [v for v in options if v + other <= traits[SYS_INTRLV]]
                options = safe or options
        if not options:
            continue
        traits[name] = rng.choice(options)
        if name in (SYS_ROWS, SYS_COLS) and traits[SYS_ROWS] + traits[SYS_COLS] > traits[SYS_INTRLV]:
            _apply_interleave_rule(traits, specs, rng)
        cells[idx] = traits
        return cells
    return cells


def mutate(parent: NetworkGenome, cfg: EcadConfig, rng: random.Random,
           genome_id: int) -> NetworkGenome:
    """Produce a child genome; guaranteed to differ from the parent when possible."""
    for _ in range(_MUTATE_RETRIES):
        cells = _mutation_pass(parent, cfg, rng)
        if cells != list(parent.traits):
            return NetworkGenome(id=genome_id, parent_id=parent.id, traits=tuple(cells))
    cells = _force_single_change(parent, cfg, rng)
    return NetworkGenome(id=genome_id, parent_id=parent.id, traits=tuple(cells))


# --- network description ----------------------------------------------------

@dataclass(frozen=True)
class LayerDesc:
    name: str
    in_features: int
    out_features: int
    activation: str      # "relu" | "none"
    bias: bool


#: the array's fields, in the order of the R,C,V,I,S text form and of `config.SYS_ARRAY`
ARRAY_FIELDS = ("rows", "cols", "vec", "interleave", "scale")


@dataclass(frozen=True)
class SystolicConfig:
    """Array shape: a rows x cols grid of PEs, vec-wide data path, interleave, scale.

    The constructor refuses any field below 1, so every array is valid. The
    clock is not part of the array: the hardware model reads ``HwConfig.freq``.
    """

    rows: int
    cols: int
    vec: int
    interleave: int
    scale: int

    def __post_init__(self) -> None:
        for name, value in zip(ARRAY_FIELDS, self.as_tuple()):
            if value < 1:
                raise GenomeError(f"systolic config: {name} must be >= 1, got {value}")

    @classmethod
    def parse(cls, text: str) -> "SystolicConfig":
        """Parse the "rows,cols,vec,interleave,scale" notation."""
        try:
            parts = [int(p) for p in text.split(",")]
        except ValueError:
            raise GenomeError(f"expected 5 comma-separated integers, got {text!r}") from None
        if len(parts) != 5:
            raise GenomeError(f"expected 5 comma-separated values, got {text!r}")
        return cls(*parts)

    @classmethod
    def from_desc(cls, desc: "SystolicConfig", freq_mhz: float = 250.0) -> "SystolicConfig":
        """Return ``desc`` unchanged. Kept only for the benchmark scripts in
        ``perfbench/``, which still call it; the clock argument is ignored."""
        return desc

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
    systolic: SystolicConfig | None

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
            doc["systolic"] = dict(zip(ARRAY_FIELDS, self.systolic.as_tuple()))
        return doc

    @classmethod
    def from_json(cls, raw: Any) -> "NetworkDescription":
        """Parse outside input, reading each value by its JSON type (see
        `config.Fields`). Raises GenomeError for a missing key or a value of
        the wrong type, an empty stack, a width, batch or array field below 1,
        an activation other than relu or none, widths that do not chain, or a
        layer name that cannot name its parameter files: a repeated name, or
        one `config.check_layer_name` refuses."""
        desc = Fields(raw, "network description", GenomeError)
        layers = []
        for i, entry in enumerate(desc.items("layers", dict)):
            name = Fields(entry, f"network description: layers[{i}]", GenomeError)("name", str)
            layer = Fields(entry, f"layer '{name}'", GenomeError)
            layers.append(LayerDesc(name, layer("in", int), layer("out", int),
                                    layer("activation", str), layer("bias", bool)))
        if not layers:
            raise GenomeError("network description has no layers")
        names = [layer.name for layer in layers]
        for layer in layers:
            check_layer_name(layer.name, GenomeError)
            if names.count(layer.name) > 1:
                raise GenomeError(f"layer name '{layer.name}' is used twice; each layer's "
                                  "parameters are saved under its name")
            if min(layer.in_features, layer.out_features) < 1:
                raise GenomeError(f"layer '{layer.name}' maps {layer.in_features} inputs to "
                                  f"{layer.out_features} outputs; both must be >= 1")
            if layer.activation not in ("relu", "none"):
                raise GenomeError(f"layer '{layer.name}': activation must be 'relu' or 'none', "
                                  f"got {layer.activation!r}")
        for prev, layer in zip(layers, layers[1:]):
            if layer.in_features != prev.out_features:
                raise GenomeError(f"layer '{layer.name}' takes {layer.in_features} inputs, "
                                  f"but '{prev.name}' gives {prev.out_features}")
        batch = desc("batch", int)
        if batch < 1:
            raise GenomeError(f"network description batch must be >= 1, got {batch}")
        sys_raw = desc("systolic", dict, None)
        array = None if sys_raw is None else Fields(sys_raw, "systolic", GenomeError)
        return cls(
            id=desc("id", int),
            batch=batch,
            layers=tuple(layers),
            systolic=None if array is None else SystolicConfig(
                *(array(name, int) for name in ARRAY_FIELDS)),
        )


def to_description(genome: NetworkGenome, cells: tuple[CellInstance, ...]) -> NetworkDescription:
    """Flatten the cell chain into an ordered layer list plus the array config.

    ``cells`` is the cell array the genome was made for (``cfg.cell_array``, or
    a database header), paired with ``genome.traits`` one to one; a length
    mismatch raises ValueError. Dense cells contribute one affine layer each; a
    trailing relu cell sets the layer's activation. The output cell contributes
    the final projection to its declared output_size (no activation, bias
    inherited from the last dense cell). The first dense cell with array traits
    gives the array config. `parse_config` guarantees that the config's chain
    runs from a sized input cell to a sized output cell.
    """
    batch = 1
    systolic: SystolicConfig | None = None
    layers: list[list[Any]] = []   # [name, in, out, activation, bias] per layer
    width: int | None = None
    last_bias = True

    for cell, traits in zip(cells, genome.traits, strict=True):
        kind = cell.cell_type
        if kind == "input":
            batch = traits.get("batch_size", 1)
            width = cell.input_size
        elif kind == "dense":
            neurons = traits["neurons"]
            last_bias = bool(traits.get("enableBias", 1))
            layers.append([cell.cell_name, width, neurons, "none", last_bias])
            width = neurons
            if systolic is None and SYS_ROWS in traits:
                systolic = SystolicConfig(*(traits[name] for name in SYS_ARRAY))
        elif kind == "relu":
            if layers:
                layers[-1][3] = "relu"
        elif kind == "output":
            layers.append([cell.cell_name, width, cell.output_size, "none", last_bias])
    return NetworkDescription(id=genome.id, batch=batch,
                              layers=tuple(LayerDesc(*layer) for layer in layers), systolic=systolic)

