#!/usr/bin/env python3
"""Benchmark of ``fmgt run`` on generated workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload march-1d --seed 0 --seconds 30 --trace 0

The seed draws the initial data of the workload's config (workloads.py);
fmgt receives only that config file.  ``--trace 0`` measures the end-to-end
metrics of BENCHMARK.json:

- ``setup_s``: fresh interpreter start until ``fmgt.cli`` is imported, the
  config parsed and the basis, grid and initial data built (median of
  several probes);
- ``cli_wall_s`` and ``peak_rss_mb``: wall time and peak RSS of a fresh
  ``python -m fmgt.cli run`` process (medians);
- ``run_s``: wall time of one warm in-process ``fmgt.cli.main`` run (median);
- ``check_pass_ratio``: share of fmgt runs whose outputs passed every check.

Fresh-process and warm runs alternate for ``--seconds`` seconds.
``--trace 1`` alternates untraced and traced warm runs instead and reports
the per-layer metrics (tracer.py) as medians over the traced runs.  Every run
is checked (checks.py).  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
import os

# single-threaded BLAS here and in every process started from here
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, config_text  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_PROBES = 5
WARMUP_STEPS = 16  # time steps of the untimed run that pays the lazy imports
# samples of each timed quantity per benchmark run, taken even when they
# outlast --seconds, as long as the measuring stays below 1.5 --seconds
MIN_SAMPLES = 3
BUDGET_S = 150.0  # no new sample starts later than this after launch
CHILD_TIMEOUT_S = 120.0

SETUP_PROBE = """\
import sys
import fmgt.cli
from fmgt.config import RunConfig
cfg = RunConfig.from_file(sys.argv[1])
basis = cfg.basis()
grid = cfg.grid()
data = cfg.initial_data(basis)
print("ready", basis.size, grid.steps, flush=True)
"""


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# processes


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv, cwd: Path, log: Path, ready_line: bool = False) -> dict:
    """Run one process to its end through launch.py; returns launch.py's
    record (wall_s, ready_s, exit_code, peak_rss_mib, first_line)."""
    launcher = [sys.executable, str(Path(__file__).with_name("launch.py")),
                str(CHILD_TIMEOUT_S), "1" if ready_line else "0"]
    with open(log, "wb") as err:
        done = subprocess.run(launcher + argv, cwd=cwd, env=_child_env(), stdout=subprocess.PIPE,
                              stderr=err, timeout=CHILD_TIMEOUT_S + 30, check=True)
    return json.loads(done.stdout)


def _clear(out: Path):
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)


def run_inprocess(cli_main, config: Path, out: Path):
    """One warm ``fmgt.cli.main`` run; returns (wall_s, exit code)."""
    _clear(out)
    gc.collect()
    start = time.perf_counter()
    code = cli_main(["--out", str(out), "run", "--config", str(config)])
    return time.perf_counter() - start, code


# ---------------------------------------------------------------------------
# checks


class Tally:
    """Checks every fmgt run; repeated runs of one config must give
    byte-identical artifacts."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self._digests = {}

    def check(self, label, config: Path, entries, amplitude, out: Path, code, reference=None):
        """Checks one run; ``entries`` None checks the exit code only."""
        problems = [] if code == 0 else [f"exit code {code}"]
        if not problems and entries is not None:
            digest = checks.artifact_digest(out)
            first = self._digests.get(config)
            if first is None:
                problems = checks.check_invariants(entries, amplitude, out)
                if reference is not None:
                    problems += checks.check_reference(reference, out)
                if not problems:
                    self._digests[config] = digest
            elif digest != first:
                problems = ["artifacts differ from an earlier run of the same config"]
        return self.record(label, problems)

    def record(self, label, problems) -> bool:
        """Counts one run with the given failed checks; True if none."""
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))
        return not problems


# ---------------------------------------------------------------------------
# machine facts


def machine_facts():
    import numpy
    import scipy

    facts = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                facts[f"L{level}_cache"] = (index / "size").read_text().strip()
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    facts["blas_threads"] = _openblas_threads()
    return facts


def _openblas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


# ---------------------------------------------------------------------------
# measurement


def _summary(values):
    """Sample count, median, quartiles, the samples in the order taken and,
    from eleven samples on, the highest percentile with at least ten
    samples beyond it."""
    xs = sorted(values)
    if not xs:
        return {"n": 0}
    out = {"n": len(xs), "median": statistics.median(xs), "samples": list(values)}
    if len(xs) >= 4:
        q = statistics.quantiles(xs, n=4)
        out["q1"], out["q3"] = q[0], q[2]
    if len(xs) >= 11:
        i = len(xs) - 11
        out[f"p{100.0 * i / (len(xs) - 1):.0f}"] = xs[i]
    return out


class Bench:
    def __init__(self, args, workload):
        import fmgt.cli

        self.args = args
        self.workload = workload
        self.cli_main = fmgt.cli.main
        self.launched = time.perf_counter()
        self.tally = Tally()
        self.dir = WORK / workload.name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)

    def time_left(self):
        return BUDGET_S - (time.perf_counter() - self.launched)

    def write_config(self, name, **overrides):
        path = self.dir / f"{name}.cfg"
        path.write_text(config_text(self.workload, self.args.seed, **overrides), encoding="utf-8")
        return path, {**self.workload.entries, **overrides}

    def warm(self, label, config, entries, out, reference=None):
        """One in-process run, checked; returns its wall time, or None if
        it did not complete.  A completed run is timed even when a check
        fails: the result line then reports it as not correct."""
        try:
            wall, code = run_inprocess(self.cli_main, config, out)
        except Exception as exc:  # the program failed; count it and go on
            self.tally.record(label, [f"{type(exc).__name__}: {exc}"])
            return None
        self.tally.check(label, config, entries, self.workload.amplitude, out, code, reference)
        return wall if code == 0 else None

    def prepare(self):
        """Write the configs and pay the lazy imports with a tiny run."""
        self.config, self.entries = self.write_config("workload")
        self.reference = checks.load_reference(self.workload.name).get(str(self.args.seed))
        # too coarse for the invariants of the full size: exit code only
        warmup, _ = self.write_config("warmup", **{"time.N": str(WARMUP_STEPS)})
        self.warm("warm-up", warmup, None, self.dir / "out-warmup")

    def end_to_end(self):
        setup, cli, rss, warm = [], [], [], []
        probe = [sys.executable, "-c", SETUP_PROBE, str(self.config)]
        for i in range(SETUP_PROBES):
            if i and self.time_left() < 2 * max(setup, default=0.0):
                break
            rec = run_child(probe, self.dir, self.dir / "setup.log", ready_line=True)
            ok = rec["exit_code"] == 0 and rec["first_line"].startswith("ready")
            problems = [] if ok else [f"exit code {rec['exit_code']}, output {rec['first_line']!r}"]
            if self.tally.record("setup probe", problems):
                setup.append(rec["ready_s"])

        cli_argv = [sys.executable, "-m", "fmgt.cli", "--out", str(self.dir / "out-cli"),
                    "run", "--config", str(self.config)]

        def fresh_and_warm():
            _clear(self.dir / "out-cli")
            rec = run_child(cli_argv, self.dir, self.dir / "cli.log")
            self.tally.check("fresh cli run", self.config, self.entries, self.workload.amplitude,
                             self.dir / "out-cli", rec["exit_code"], self.reference)
            if rec["exit_code"] == 0:
                cli.append(rec["wall_s"])
                rss.append(rec["peak_rss_mib"])
            wall = self.warm("warm run", self.config, self.entries, self.dir / "out-warm",
                             self.reference)
            if wall is not None:
                warm.append(wall)
            return min(len(cli), len(warm))

        self.measure(fresh_and_warm)
        samples = {"run_s": warm, "setup_s": setup, "cli_wall_s": cli, "peak_rss_mb": rss}
        if not all(samples.values()):
            raise BenchmarkError(f"no completed run: {self.tally.failures[:3]}")
        metrics = {name: statistics.median(v) for name, v in samples.items()}
        attempted = self.tally.attempted
        metrics["check_pass_ratio"] = (attempted - len(self.tally.failures)) / attempted
        return metrics, {name: _summary(v) for name, v in samples.items()}

    def per_layer(self):
        tracer = Tracer()
        untraced, traced, runs, half_runs, picard_s = [], [], [], [], []
        spans = []  # of the last full-size traced run
        half, sizes = self._half_size() if self.workload.scaling else (None, None)

        def cycle():
            wall = self.warm("untraced run", self.config, self.entries, self.dir / "out-warm",
                             self.reference)
            if wall is not None:
                untraced.append(wall)
            wall = self._traced(tracer, "traced run", self.config, self.entries)
            if wall is not None:
                traced.append(wall)
                runs.append(tracer.run_metrics(wall))
                picard_s.append(tracer.inclusive_s("volterra.picard"))
                spans[:] = tracer.spans
            if half is not None:
                wall = self._traced(tracer, "half-size traced run", *half)
                if wall is not None:
                    half_runs.append(tracer.run_metrics(wall))
            return min(len(untraced), len(runs))

        self.measure(cycle)
        if not runs or not untraced:
            raise BenchmarkError(f"no completed run: {self.tally.failures[:3]}")
        (self.dir / "spans.json").write_text(json.dumps(
            [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in spans]))

        metrics = {name: statistics.median([r[name] for r in runs]) for name in runs[0]}
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        metrics["volterra.solve_mu.n_exponent"] = 0.0
        metrics["volterra.solve_mu.mode_exponent"] = 0.0
        info = {"untraced_run_s": _summary(untraced), "traced_run_s": _summary(traced),
                "picard_inclusive_s": _summary(picard_s)}
        if half_runs:
            full_s = metrics["volterra.solve_mu.self_s"]
            half_s = statistics.median(r["volterra.solve_mu.self_s"] for r in half_runs)
            info["half_size"] = {"sizes": sizes, "solve_mu_self_s": half_s,
                                 "solve_mu_calls": half_runs[0]["volterra.solve_mu.calls"]}
            if full_s > 0 and half_s > 0:
                name = self.workload.scaling[0]
                metrics[name] = math.log(full_s / half_s) / math.log(sizes[0] / sizes[1])
        return metrics, info

    def measure(self, cycle):
        """Repeat ``cycle`` (which returns its sample count so far) for
        --seconds seconds, or past them until it has MIN_SAMPLES."""
        start = time.perf_counter()
        last, count = 0.0, 0
        while True:
            expected_end = time.perf_counter() - start + last
            if expected_end > self.args.seconds and (
                count >= MIN_SAMPLES or expected_end > 1.5 * self.args.seconds
            ):
                return
            if self.time_left() < last:
                return
            cycle_start = time.perf_counter()
            count = cycle()
            last = time.perf_counter() - cycle_start

    def _traced(self, tracer, label, config, entries):
        tracer.reset()
        tracer.install()
        try:
            return self.warm(label, config, entries, self.dir / "out-traced")
        finally:
            tracer.uninstall()

    def _half_size(self):
        """Config at half the workload's scaling size, for the exponent fit;
        returns ((path, entries), (full size, half size))."""
        from fmgt.config import RunConfig

        _, key, size_kind = self.workload.scaling
        half = self.write_config("half", **{key: str(int(self.entries[key]) // 2)})
        sizes = []
        for path in (self.config, half[0]):
            cfg = RunConfig.from_file(path)
            sizes.append(cfg.grid().steps if size_kind == "steps" else cfg.basis().size)
        return half, sizes


# ---------------------------------------------------------------------------
# entry point


def _load_spec():
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise BenchmarkError(f"{spec_path} is missing")
    return json.loads(spec_path.read_text(encoding="utf-8"))


def import_fmgt():
    if not (SRC / "fmgt" / "cli.py").is_file():
        raise BenchmarkError(f"no fmgt sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import fmgt

    if not Path(fmgt.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchmarkError(f"imported fmgt from {fmgt.__file__}, not from {SRC}")


def main(argv=None) -> int:
    spec = _load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_fmgt()
    bench = Bench(args, WORKLOADS[args.workload])
    bench.prepare()
    if args.trace:
        metrics, samples = bench.per_layer()
        wanted = spec["per_layer"]
    else:
        metrics, samples = bench.end_to_end()
        wanted = spec["end_to_end"]
    if set(metrics) != {m["name"] for m in wanted}:
        raise BenchmarkError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")

    for m in wanted:
        print(f"{m['name']:<44} {metrics[m['name']]:>14.6g} {m['unit']}")
    info = {"workload": args.workload, "seed": args.seed, "why": bench.workload.why,
            "samples": samples, "failures": bench.tally.failures, "machine": machine_facts()}
    print(json.dumps({"info": info}))
    failed = len(bench.tally.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.tally.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
