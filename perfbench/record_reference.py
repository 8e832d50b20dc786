#!/usr/bin/env python3
"""Record the reference artifacts that checks.py compares runs against.

    python3 perfbench/record_reference.py [workload ...]

Run from the root of a checkout, on the commit whose outputs are the
reference.  Writes ``perfbench/reference/<workload>.json`` for seeds
0-9, which run.py then checks whenever it is given one of those seeds.
"""
import json
import shutil
import sys

from checks import REFERENCE_DIR, check_invariants, reference_entry
from run import WORK, import_fmgt  # importing run pins BLAS to one thread, as in the benchmark
from workloads import WORKLOADS, config_text

SEEDS = range(10)


def record(workload, work) -> dict:
    from fmgt.cli import main

    seeds = {}
    for seed in SEEDS:
        config, out = work / "reference.cfg", work / "out"
        config.write_text(config_text(workload, seed), encoding="utf-8")
        shutil.rmtree(out, ignore_errors=True)
        if main(["--out", str(out), "run", "--config", str(config)]) != 0:
            raise SystemExit(f"{workload.name} seed {seed}: fmgt run failed")
        problems = check_invariants(workload.entries, workload.amplitude, out)
        if problems:
            raise SystemExit(f"{workload.name} seed {seed}: {problems}")
        seeds[str(seed)] = reference_entry(out)
        print(f"{workload.name} seed {seed}: recorded", flush=True)
    return seeds


def main(names):
    import_fmgt()
    work = WORK / "reference"
    work.mkdir(parents=True, exist_ok=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or WORKLOADS:
        seeds = record(WORKLOADS[name], work)
        path = REFERENCE_DIR / f"{name}.json"
        lines = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in seeds.items())
        path.write_text("{\n" + lines + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
