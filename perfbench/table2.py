"""Paper Table 2: the only reference data for the hardware model.

Modelled performance of the (4, 4, 8, 8, 8) array running the
784/196/190/150/10 MLP at 250 MHz. The hardware model is tuned against these
same nine rows, so its error against them is in-sample.
"""

from __future__ import annotations

CFG = (4, 4, 8, 8, 8)
HIDDEN = (196, 190, 150)

# batch -> (effective GOP/s, time in ms)
ROWS = {
    1: (1.16, 0.38),
    16: (18.6, 0.38),
    32: (37.2, 0.38),
    64: (40.3, 0.7),
    128: (42.0, 1.35),
    256: (42.98, 2.63),
    512: (43.47, 5.2),
    1024: (43.7, 10.35),
    2048: (43.84, 20.64),
}


def network(n_in: int, n_out: int) -> dict:
    """The Table 2 network as a network-description document (batch 100)."""
    dims = [n_in, *HIDDEN, n_out]
    last = len(dims) - 2
    layers = [{"name": f"dense{i:02d}" if i < last else "Y", "in": dims[i], "out": dims[i + 1],
               "activation": "relu" if i < last else "none", "bias": True}
              for i in range(len(dims) - 1)]
    systolic = dict(zip(("rows", "cols", "vec", "interleave", "scale"), CFG))
    return {"id": 0, "batch": 100, "layers": layers, "systolic": systolic}


def max_error(modelled: dict[int, tuple[float, float]]) -> float:
    """Largest relative error of modelled (GOP/s, ms) over all rows, both columns."""
    errs = []
    for batch, (ref_gops, ref_ms) in ROWS.items():
        gops, ms = modelled[batch]
        errs += [abs(gops - ref_gops) / ref_gops, abs(ms - ref_ms) / ref_ms]
    return max(errs)
