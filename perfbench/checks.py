"""Output checks on the artifacts of one ``fmgt run``.

Every run is checked against invariants that hold for any seed; the first
run of a seed with a recorded reference is also compared to it.  The
references (``reference/<workload>.json``) were written by
``record_reference.py`` from the program as it stood when this benchmark
was defined.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
CSV_FILES = ("trajectory.csv", "energy.csv", "limit_study.csv")

# far below the discretisation error, far above rounding in a reordered sum
REFERENCE_RTOL = 1e-9
# the z-form recovery discrepancy stays near 1e-3 of the data amplitude
RECOVERY_BOUND_PER_AMPLITUDE = 1e-2
# the W1inf_H1 difference norm shrinks linearly in 1 - alpha
LIMIT_SLOPE_RANGE = (0.9, 1.1)
REFERENCE_ROWS = 17  # rows kept per CSV: first, last and evenly spaced between


def read_csv(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    values = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, values


def artifact_digest(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def _numbers(obj):
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _numbers(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _numbers(v)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield obj


def check_invariants(entries: dict, amplitude: float, out: Path) -> list:
    """Failures of the seed-independent invariants of a run of the config
    ``entries`` with data amplitude ``amplitude``, as messages."""
    failures = []
    expected = {"trajectory.csv", "energy.csv", "summary.json"}
    if "study.alpha_sweep" in entries:
        expected.add("limit_study.csv")
    present = {p.name for p in out.iterdir()}
    if present != expected:
        return [f"artifacts {sorted(present)} != {sorted(expected)}"]

    steps = int(entries["time.N"])
    for name in sorted(expected - {"summary.json"}):
        _, values = read_csv(out / name)
        if name != "limit_study.csv" and values.shape[0] != steps + 1:
            failures.append(f"{name}: {values.shape[0]} rows, expected {steps + 1}")
        if not np.all(np.isfinite(values)):
            failures.append(f"{name}: non-finite values")

    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    if not all(math.isfinite(v) for v in _numbers(summary)):
        failures.append("summary.json: non-finite values")
    if entries["model.nonlinearity"] != "linear":
        ratio = summary.get("contraction_ratio")
        if ratio is None or not ratio < 1.0:
            failures.append(f"Picard contraction_ratio {ratio} is not below 1")
    if entries["model.family"] == "ii":
        disc = summary.get("recovery_discrepancy")
        bound = RECOVERY_BOUND_PER_AMPLITUDE * amplitude
        if disc is None or not disc < bound:
            failures.append(f"recovery_discrepancy {disc} is not below {bound}")
    if "study.alpha_sweep" in entries:
        slope = summary.get("limit_study", {}).get("slopes", {}).get("W1inf_H1")
        lo, hi = LIMIT_SLOPE_RANGE
        if slope is None or not lo <= slope <= hi:
            failures.append(f"W1inf_H1 limit slope {slope} outside [{lo}, {hi}]")
    return failures


def reference_entry(out: Path) -> dict:
    """The reference record of one run's CSV artifacts."""
    entry = {}
    for name in CSV_FILES:
        if not (out / name).exists():
            continue
        header, values = read_csv(out / name)
        rows = np.unique(np.linspace(0, values.shape[0] - 1, REFERENCE_ROWS).round().astype(int))
        entry[name] = {
            "header": header,
            "rows": rows.tolist(),
            "values": values[rows].tolist(),
            "abs_sums": np.sum(np.abs(values), axis=0).tolist(),
        }
    return entry


def load_reference(workload_name: str) -> dict:
    """Reference records of one workload, keyed by seed as a string."""
    path = REFERENCE_DIR / f"{workload_name}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def check_reference(reference: dict, out: Path) -> list:
    """Failures of the comparison with one seed's reference record."""
    failures = []
    for name, ref in reference.items():
        header, values = read_csv(out / name)
        if header != ref["header"] or values.shape[0] <= max(ref["rows"]):
            failures.append(f"{name}: layout differs from the reference")
            continue
        want = np.array(ref["values"])
        scale = np.max(np.abs(want), axis=0)  # tolerance relative to each column
        got = values[ref["rows"]]
        if np.any(np.abs(got - want) > REFERENCE_RTOL * scale):
            worst = np.max(np.abs(got - want) / np.maximum(scale, 1e-300))
            failures.append(f"{name}: differs from the reference (max rel. {worst:.2e})")
        sums = np.array(ref["abs_sums"])
        if np.any(np.abs(np.sum(np.abs(values), axis=0) - sums) > REFERENCE_RTOL * sums):
            failures.append(f"{name}: column sums differ from the reference")
    return failures
