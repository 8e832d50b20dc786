"""The benchmark's workloads and the seeded configs it hands to ``fmgt run``.

Each workload is a fixed set of config keys plus initial data ``psi0`` drawn
from the seed.  The seed changes only the data, never the sizes, so every
seed of a workload does the same amount of work.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    entries: dict  # config keys other than the seeded data
    amplitude: float  # max |psi0 coefficient|
    # traced runs only: (metric, config key halved for the second point,
    # "steps" or "modes" as the size the exponent is fitted in)
    scaling: tuple | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="march-1d",
            why="Long time axis, few modes: the O(N^2 modes) history sum of the "
            "marcher dominates while spectral and Mittag-Leffler stay idle.",
            entries={
                "model.family": "iii",
                "model.nonlinearity": "westervelt",
                "model.alpha": "0.7",
                "model.k": "0.1",
                "model.delta": "0.1",
                "domain.kind": "interval",
                "domain.lengths": "1.0",
                "domain.cutoff": "16",
                "time.T": "1.0",
                "time.N": "2048",
            },
            amplitude=1e-3,
            scaling=("volterra.solve_mu.n_exponent", "time.N", "steps"),
        ),
        Workload(
            name="picard-2d",
            why="Short time axis, many modes: the history sum and the dense "
            "Kronecker collocation split the run, so neither can gain at the "
            "other's expense.",
            entries={
                "model.family": "iii",
                "model.nonlinearity": "kuznetsov",
                "model.alpha": "0.7",
                "model.k": "0.1",
                "model.l": "0.1",
                "model.delta": "0.1",
                "domain.kind": "rectangle",
                "domain.lengths": "1.0,1.0",
                "domain.cutoff": "16",
                "time.T": "1.0",
                "time.N": "256",
            },
            amplitude=1e-3,
            scaling=("volterra.solve_mu.mode_exponent", "domain.cutoff", "modes"),
        ),
        Workload(
            name="zform-limit",
            why="Seven z-form solves of an alpha -> 1 study: Mittag-Leffler "
            "evaluation dominates and the Volterra marcher is never called.",
            entries={
                "model.family": "ii",
                "model.nonlinearity": "linear",
                "model.alpha": "0.8",
                "model.tau": "0.25",
                "model.delta": "0.1",
                "domain.kind": "interval",
                "domain.lengths": "1.0",
                "domain.cutoff": "8",
                "time.T": "2.0",
                "time.N": "256",
                "study.alpha_sweep": "0.6,0.8,0.9,0.95,0.99",
            },
            amplitude=1e-2,
        ),
    )
}


def _text(entries: dict) -> str:
    body = {"schema": "1", **entries}
    return "".join(f"{k} = {v}\n" for k, v in body.items())


def draw_psi0(mode_index_map, seed: int, amplitude: float) -> np.ndarray:
    """Smooth seeded coefficients: the bump's (j k ...)^-3 envelope times
    random signs and magnitudes in [1/2, 1], scaled so max |c| = amplitude."""
    rng = np.random.default_rng(seed)
    idx = np.asarray(mode_index_map, dtype=float)
    envelope = np.prod(idx, axis=1) ** -3.0
    coeffs = envelope * rng.choice((-1.0, 1.0), idx.shape[0]) * rng.uniform(0.5, 1.0, idx.shape[0])
    return coeffs * (amplitude / np.max(np.abs(coeffs)))


def config_text(workload: Workload, seed: int, **overrides) -> str:
    """The config file for one seed; ``overrides`` replace workload keys."""
    from fmgt.config import RunConfig

    entries = {**workload.entries, **overrides}
    basis = RunConfig.from_text(_text(entries)).basis()
    psi0 = draw_psi0(basis.mode_index_map, seed, workload.amplitude)
    entries["data.preset"] = "coeffs"
    entries["data.psi0"] = ",".join(repr(float(c)) for c in psi0)
    entries["source.preset"] = "zero"
    text = _text(entries)

    cfg = RunConfig.from_text(text)
    if RunConfig.from_text(cfg.to_text()).entries != cfg.entries:
        raise RuntimeError(f"{workload.name}: config does not round-trip")
    if not np.array_equal(cfg.initial_data(basis).psi0.coeffs, psi0):
        raise RuntimeError(f"{workload.name}: psi0 changed in the config round-trip")
    return text

