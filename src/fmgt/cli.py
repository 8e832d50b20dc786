"""Configuration-driven command line: runs (with the limit studies,
convergence tables and checks a config names), model listing and kernel
reports, with bit-stable CSV/JSON artifacts.

Exit codes: 0 success, 2 configuration/validation error, 3 solver failure
(blow-up or a single node whose fixed point did not converge).
Data files carry no timestamps and floats are printed with 17 significant
digits, so identical configs give byte-identical artifacts.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .analysis import (
    convergence_table,
    energy_high,
    energy_low,
    kernel_report,
    limit_study,
    solve_all,
)
from .config import ConfigError, RunConfig
from .fractional import DomainError
from .models import ModelError, ModelSpec, SolverError, catalog, describe, reference_refusal

EXIT_CONFIG = 2
EXIT_BLOWUP = 3


def _printed(values) -> list:
    """Each value printed with 17 significant digits."""
    return ["%.17g" % v for v in np.asarray(values, dtype=float).tolist()]


def _write_csv(path: Path, header, columns, printed=None):
    """One row per index of the columns named in header, every value
    printed with 17 significant digits.  ``printed`` (name -> printed
    values) holds the columns that several files share, printed once."""
    printed = printed or {}
    texts = [printed[name] if name in printed else _printed(columns[name]) for name in header]
    with path.open("w", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        f.writelines(",".join(row) + "\n" for row in zip(*texts))


def _write_json(path: Path, obj):
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _solve(cfg: RunConfig):
    """The run's solves: its own alpha and, with study.alpha_sweep, the
    alpha = 1 reference and the sweep, in that order and in one
    ``solve_all`` call, so that a family-II study is one z-form solve.
    Returns the run's objects and the trajectories by alpha.  The source,
    a function of t, is sampled once on all nodes of the run's grid for
    everything that uses that grid; a convergence table samples the
    function on each of its own grids."""
    spec = cfg.spec()
    basis = cfg.basis()
    grid = cfg.grid()
    data = cfg.initial_data(basis)
    source = cfg.forcing(basis, grid)
    f = None if source is None else source(grid.nodes)
    alphas = [spec.alpha]
    if "study.alpha_sweep" in cfg.entries:
        alphas += [1.0, *cfg._floats("study.alpha_sweep")]
    alphas = list(dict.fromkeys(alphas))
    specs = [ModelSpec(spec.variant, spec.params, a) for a in alphas]
    solved = dict(zip(alphas, solve_all(specs, data, grid, f)))
    return spec, grid, data, source, f, solved


def cmd_run(args) -> int:
    cfg = RunConfig.from_file(args.config)
    out = Path(args.out or cfg.entries.get("output.directory", "out"))
    out.mkdir(parents=True, exist_ok=True)
    spec, grid, data, source, f, solved = _solve(cfg)
    traj = solved[spec.alpha]

    rep_low = energy_low(traj, spec, data, f)
    rep_high = energy_high(traj, spec, data, f, low=rep_low)
    columns = {"t": grid.nodes, **rep_low.columns}
    trajectory = ["t", "l2_psi", "h1_psi", "l2_psi_t", "h1_psi_t", "l2_psi_tt"]
    energy = ["t", "l2_psi_tt", "h1_psi_t", "h1_psi", "h2_psi_t", "h2_psi_tt", "h3_psi_t"]
    shared = {name: _printed(columns[name]) for name in trajectory if name in energy}
    _write_csv(out / "trajectory.csv", trajectory, columns, shared)
    _write_csv(out / "energy.csv", energy, columns, shared)

    summary = {
        "schema": 1,
        "config": cfg.entries,
        "model": describe(spec.variant),
        "beta": spec.beta,
        "z_order": spec.gamma_z,
        "energy_low": rep_low.as_dict(),
        "energy_high": rep_high.as_dict(),
    }
    summary.update(traj.diagnostics)  # the solver keys of this run kind

    if "study.crosscheck" in cfg.entries:  # validated: the ODE reference serves this run
        from .oracles import classical_mgt_reference

        ref = classical_mgt_reference(spec, data, grid, f)
        summary["ode_crosscheck_max_error"] = float(np.max(np.abs(traj.psi - ref.psi)))

    if "study.alpha_sweep" in cfg.entries:
        alphas = cfg._floats("study.alpha_sweep")
        study = limit_study(spec.variant, spec.params, data, grid, alphas, f, solved=solved)
        summary["limit_study"] = dataclasses.asdict(study)
        _write_csv(
            out / "limit_study.csv",
            ["alpha", *study.columns],
            {"alpha": study.alphas, **study.columns},
        )

    if "study.n_sweep" in cfg.entries:
        ns = cfg._ints("study.n_sweep")
        reference = "richardson" if reference_refusal("ode", spec.variant, spec.alpha) else "ode"
        table = convergence_table(spec, data, grid.horizon, ns, source, reference=reference)
        summary["convergence"] = dataclasses.asdict(table)

    _write_json(out / "summary.json", summary)
    return 0


def cmd_list_models(args) -> int:
    rows = catalog()
    print(f"{'family':<6} {'nonlinearity':<12} {'beta':<5} {'alpha range':<11} {'backend':<13} {'z order':<7} terms")
    for v in rows:
        d = describe(v)
        print(
            f"{d['family']:<6} {d['nonlinearity']:<12} {d['beta']:<5} "
            f"{d['alpha_range']:<11} {d['backend']:<13} {d['z_order']:<7} {d['terms']}"
        )
    print(f"\n{len(rows)} models: 8 nonlinear, 4 linear. z-form kernels:")
    seen = set()
    for v in rows:
        d = describe(v)
        if d["family"] not in seen:
            seen.add(d["family"])
            print(f"  {d['family']:<6} {d['z_form']}")
    return 0


def cmd_kernels(args) -> int:
    out = Path(args.out or "out")
    out.mkdir(parents=True, exist_ok=True)
    try:
        alphas = [float(a) for a in args.alphas.split(",")]
    except ValueError:
        raise ConfigError(
            f"--alphas takes comma-separated numbers, got {args.alphas!r}"
        ) from None
    if not np.isfinite(args.tau):
        raise ConfigError(f"--tau takes a finite number, got {args.tau!r}")
    rep = kernel_report(alphas, args.tau)
    columns = {key: [r[key] for r in rep.rows] for key in rep.rows[0]}
    columns["growth_to_origin"] = columns["blowup_or_finite"]
    columns.update(zip(["mass_T1", "mass_T10", "mass_T100"], zip(*columns["masses"])))
    _write_csv(
        out / "kernels.csv",
        ["alpha", "nonneg", "nonneg_margin", "monotone", "monotone_margin",
         "growth_to_origin", "mass_T1", "mass_T10", "mass_T100"],
        columns,
    )
    _write_json(out / "kernels.json", {"tau": args.tau, "rows": rep.rows, "all_pass": rep.all_pass()})
    print(f"kernel report ({len(alphas)} orders): all properties pass = {rep.all_pass()}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: each ``parse_args``
    call returns a fresh namespace, so successive calls share nothing."""
    p = argparse.ArgumentParser(
        prog="fmgt",
        description="Solvers and verification studies for time-fractional MGT acoustics",
    )
    p.add_argument("--out", default=None, help="output directory")
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser(
        "run", help="solve one configuration, run the studies it names and write artifacts"
    )
    pr.add_argument("--config", required=True)

    sub.add_parser("list-models", help="print the model catalog")

    pk = sub.add_parser("kernels", help="relaxation-kernel property report")
    pk.add_argument("--alphas", default="0.3,0.5,0.7,0.9,1.0")
    pk.add_argument("--tau", type=float, default=1.0)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call, so a wrapped command (a tracer's, a test's) runs
    command = {
        "run": cmd_run,
        "list-models": cmd_list_models,
        "kernels": cmd_kernels,
    }[args.command]
    try:
        return command(args)
    except (ConfigError, ModelError, DomainError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_BLOWUP


if __name__ == "__main__":
    sys.exit(main())
