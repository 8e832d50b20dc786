"""CLI and configuration: round-trips, exit codes, artifacts, determinism."""
import ast
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fmgt.analysis
import fmgt.cli
import fmgt.fractional
import fmgt.memory
import fmgt.oracles
from fmgt.cli import main
from fmgt.config import ConfigError, RunConfig
from fmgt.models import _forcing_array
from fmgt.volterra import MAX_SWEEPS, InnerSolveError

PRESETS = Path(__file__).resolve().parents[1] / "presets"
SRC = Path(__file__).resolve().parents[1] / "src"


PICARD_KEYS = [
    "contraction_ratio",
    "picard_distances",
    "picard_iterations",
    "relaxation_sweeps",
    "relaxation_windows",
]

# each once reached a solver and failed there with exit code 3
NON_FINITE_ENTRIES = [
    "model.c = inf",
    "model.tau = inf",
    "time.T = inf",
    "domain.lengths = inf",
    "data.amplitude = nan",
    "source.preset = pulse\nsource.amplitude = inf",
    "model.k = nan",
]


def run_cli(args):
    return main([str(a) for a in args])


def _modules_loaded_by(argvs):
    """The modules loaded by a fresh interpreter after the CLI ran on each
    argument list of argvs, all of which must exit 0."""
    script = (
        "import json, sys\nfrom fmgt.cli import main\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, sorted(sys.modules)]))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argvs)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    codes, modules = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0] * len(argvs)
    return set(modules)


def _modules_after_runs(tmp_path):
    """The modules loaded by a fresh interpreter after `fmgt run` of a
    Westervelt III config, a type II config and a type II alpha -> 1 study
    (the z-form solves and the psi recovery), all of which must pass."""
    configs = {
        "w3": "model.family = iii\nmodel.nonlinearity = westervelt\nmodel.k = 0.1\n",
        "ii": "model.family = ii\nmodel.nonlinearity = linear\n",
        "limit": "model.family = ii\nmodel.nonlinearity = linear\n"
        "study.alpha_sweep = 0.6,0.9,0.99\n",
    }
    argvs = []
    for name, body in configs.items():
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(
            f"schema = 1\n{body}model.alpha = 0.7\ndomain.cutoff = 4\n"
            "time.N = 32\ndata.preset = bump\ndata.amplitude = 1e-3\n"
        )
        argvs.append(["--out", str(tmp_path / f"o-{name}"), "run", "--config", str(cfg)])
    return _modules_loaded_by(argvs)


def _scipy_imports(path):
    """(enclosing function or None at module level, module, names) of every
    scipy import statement in the file at path."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                found.extend((func, a.name, None) for a in child.names if _is_scipy(a.name))
            elif isinstance(child, ast.ImportFrom) and _is_scipy(child.module or ""):
                found.append((func, child.module, tuple(a.name for a in child.names)))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else func)

    visit(ast.parse(path.read_text()), None)
    return found


def _is_scipy(module):
    return module == "scipy" or module.startswith("scipy.")


def _fmgt_imports(path):
    """The modules of fmgt, by their names in the package, that the file at
    path imports anywhere in it, in any import form."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["fmgt" if node.level else None, node.module]))
            names = [f"fmgt.{a.name}" for a in node.names] if module == "fmgt" else [module]
        else:
            continue
        found.update(name.split(".")[1] for name in names if name.startswith("fmgt."))
    return found


class TestConfig:
    def test_round_trip_lossless(self):
        text = (PRESETS / "mgt-classical.cfg").read_text()
        cfg = RunConfig.from_text(text)
        again = RunConfig.from_text(cfg.to_text())
        assert cfg.entries == again.entries

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            RunConfig.from_text("schema = 1\nmodel.bogus = 2\n")

    def test_output_formats_key_rejected(self, tmp_path, capsys):
        # the key was accepted and then ignored; it is an unknown key now
        with pytest.raises(ConfigError, match="unknown key 'output.formats'"):
            RunConfig.from_text("schema = 1\noutput.formats = csv,json\n")
        cfg = tmp_path / "formats.cfg"
        cfg.write_text("schema = 1\noutput.formats = csv\n")
        assert run_cli(["--out", tmp_path / "o", "run", "--config", cfg]) == 2
        assert "configuration error:" in capsys.readouterr().err

    def test_key_given_twice_rejected(self, tmp_path, capsys):
        # the last one used to win: this config ran at alpha = 0.9
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("schema = 1\nmodel.alpha = 0.5\n# again\nmodel.alpha = 0.9\n")
        assert run_cli(["--out", tmp_path / "o", "run", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "key model.alpha is set twice, on lines 2 and 4" in err
        assert not (tmp_path / "o").exists()

    def test_schema_version_required(self):
        with pytest.raises(ConfigError, match="schema"):
            RunConfig.from_text("schema = 99\n")

    def test_alpha_range_cited(self):
        with pytest.raises(ConfigError, match=r"\(0.5, 1\]"):
            RunConfig.from_text("schema = 1\nmodel.family = base\nmodel.alpha = 0.4\n")

    def test_family_ii_nonlinear_routed_to_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(
            "schema = 1\nmodel.family = ii\nmodel.nonlinearity = westervelt\n"
            "model.alpha = 0.7\nmodel.k = 0.1\n"
        )
        assert run_cli(["--out", tmp_path / "o", "run", "--config", cfg]) == 2

    @given(
        alpha=st.floats(min_value=0.51, max_value=1.0),
        n=st.integers(min_value=4, max_value=64),
        t_final=st.floats(min_value=0.1, max_value=4.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_round_trip_randomized(self, alpha, n, t_final):
        cfg = RunConfig.from_text(
            f"schema = 1\nmodel.alpha = {alpha!r}\ntime.N = {n}\ntime.T = {t_final!r}\n"
        )
        again = RunConfig.from_text(cfg.to_text())
        assert again.entries == cfg.entries


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("schema = 1\nmodel.alpha = 1.2\n")
        assert run_cli(["run", "--config", bad]) == 2

    def test_blowup_is_3(self, tmp_path):
        blow = tmp_path / "blow.cfg"
        blow.write_text(
            "schema = 1\nmodel.family = iii\nmodel.nonlinearity = westervelt\n"
            "model.alpha = 0.7\nmodel.k = 1.0\ndomain.cutoff = 4\ntime.N = 64\n"
            "data.preset = bump\ndata.amplitude = 1e150\n"
        )
        assert run_cli(["--out", tmp_path / "o", "run", "--config", blow]) == 3

    def test_inner_solve_failure_is_3(self, tmp_path, monkeypatch, capsys):
        def failing(*args, **kwargs):
            raise InnerSolveError(7, 60, 1.5e-3)

        monkeypatch.setattr(fmgt.analysis, "picard_nonlinear", failing)
        cfg = tmp_path / "w.cfg"
        cfg.write_text(
            "schema = 1\nmodel.family = iii\nmodel.nonlinearity = westervelt\n"
            "model.alpha = 0.7\nmodel.k = 0.1\ndomain.cutoff = 4\ntime.N = 32\n"
        )
        assert run_cli(["--out", tmp_path / "o", "run", "--config", cfg]) == 3
        assert "node 7" in capsys.readouterr().err

    def test_degenerate_coefficient_is_3(self, tmp_path, capsys):
        # picard-w3 with order-one data: 1 + 2k psi_t turns negative on the
        # first iterate, and the run names the coefficient instead of an
        # inner fixed point that failed to converge
        text = (PRESETS / "picard-w3.cfg").read_text()
        text = text.replace("model.k = 0.1", "model.k = 5").replace(
            "data.amplitude = 1e-3", "data.amplitude = 1"
        )
        assert "model.k = 5\n" in text and "data.amplitude = 1\n" in text
        cfg = tmp_path / "degenerate.cfg"
        cfg.write_text(text)
        assert run_cli(["--out", tmp_path / "o", "run", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert "1 + 2k psi_t reaches -" in err
        assert "bounded away from zero" in err

    @pytest.mark.parametrize("entries", NON_FINITE_ENTRIES)
    def test_non_finite_number_is_2(self, tmp_path, monkeypatch, capsys, entries):
        def no_solve(*args, **kwargs):
            raise AssertionError("a non-finite number reached the solver")

        monkeypatch.setattr(fmgt.cli, "solve", no_solve)
        cfg = tmp_path / "non-finite.cfg"
        base = (
            "schema = 1\nmodel.family = iii\nmodel.nonlinearity = westervelt\n"
            "model.alpha = 0.7\nmodel.k = 0.1\ndomain.cutoff = 4\ntime.N = 32\n"
        )
        # the entries replace the base's lines of their keys: a key is given once
        keys = {line.split(" = ")[0] for line in entries.splitlines()}
        kept = [line for line in base.splitlines() if line.split(" = ")[0] not in keys]
        cfg.write_text("\n".join(kept) + "\n" + entries + "\n")
        assert run_cli(["--out", tmp_path / "o", "run", "--config", cfg]) == 2
        err = capsys.readouterr().err
        key = entries.splitlines()[-1].split(" = ")[0]
        assert err.startswith(f"configuration error: key {key}: not a")
        assert "finite" in err and "Traceback" not in err

    def test_domain_error_is_2(self, tmp_path, capsys):
        # RelaxationKernel refuses the order with a DomainError
        assert run_cli(["--out", tmp_path / "o", "kernels", "--alphas", "1.5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert "1.5" in err and "Traceback" not in err

    def test_unparsable_alphas_is_2(self, tmp_path, capsys):
        assert run_cli(["--out", tmp_path / "o", "kernels", "--alphas", "abc"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert "'abc'" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "domain, mode, size",
        [
            ("domain.cutoff = 4", 0, 4),
            ("domain.cutoff = 4", 9, 4),
            ("domain.kind = rectangle\ndomain.lengths = 1.0,1.0\ndomain.cutoff = 3", 10, 9),
        ],
    )
    def test_data_mode_out_of_range_is_2(self, tmp_path, monkeypatch, capsys, domain, mode, size):
        monkeypatch.setattr(fmgt.cli, "solve", self._no_solve)
        cfg = tmp_path / "mode.cfg"
        cfg.write_text(
            f"schema = 1\n{domain}\ntime.N = 16\ndata.preset = mode\ndata.mode = {mode}\n"
        )
        assert run_cli(["--out", tmp_path / "o", "run", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err == f"configuration error: key data.mode: must be in 1..{size}, got {mode}\n"

    def test_data_mode_last_of_a_rectangle(self):
        # the 2-D basis size is the product of the cutoffs: mode 9 of 3 x 3
        cfg = RunConfig.from_text(
            "schema = 1\ndomain.kind = rectangle\ndomain.lengths = 1.0,1.0\n"
            "domain.cutoff = 3\ndata.preset = mode\ndata.mode = 9\ndata.amplitude = 2\n"
        )
        basis = cfg.basis()
        assert basis.size == 9
        assert np.array_equal(cfg.initial_data(basis).psi0.coeffs, 2.0 * np.eye(9)[8])

    @pytest.mark.parametrize("tau", ["inf", "-inf", "nan"])
    def test_non_finite_tau_is_2(self, tmp_path, capsys, tau):
        assert run_cli(["--out", tmp_path / "o", "kernels", f"--tau={tau}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: --tau takes a finite number")
        assert not (tmp_path / "o" / "kernels.json").exists()

    @pytest.mark.parametrize(
        "steps, reason",
        [
            ("16.7,32.2", "not an integer list: '16.7,32.2'"),
            ("32,64.0", "not an integer list"),
            ("48,64", "divide 4 x the largest"),
            ("0,64", "must be positive"),
            ("64", "at least two, distinct"),
            ("64,64", "at least two, distinct"),
        ],
    )
    def test_bad_n_sweep_is_2(self, tmp_path, monkeypatch, capsys, steps, reason):
        monkeypatch.setattr(fmgt.cli, "solve", self._no_solve)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            f"schema = 1\nmodel.alpha = 0.5\ndomain.cutoff = 4\nstudy.n_sweep = {steps}\n"
        )
        assert run_cli(["--out", tmp_path / "o", "convergence", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: key study.n_sweep: ")
        assert reason in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "entries, reason",
        [
            ("model.alpha = 1.0\nstudy.crosscheck = nonsense", "is ode, got 'nonsense'"),
            ("model.alpha = 0.8\nstudy.crosscheck = ode", "got model.alpha = 0.8"),
            (
                "model.nonlinearity = westervelt\nmodel.k = 5\nstudy.crosscheck = ode",
                "got model.nonlinearity = westervelt",
            ),
        ],
    )
    def test_bad_crosscheck_is_2(self, tmp_path, monkeypatch, capsys, entries, reason):
        monkeypatch.setattr(fmgt.cli, "solve", self._no_solve)
        cfg = tmp_path / "crosscheck.cfg"
        cfg.write_text(f"schema = 1\ndomain.cutoff = 4\n{entries}\n")
        assert run_cli(["--out", tmp_path / "o", "run", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: key study.crosscheck: ")
        assert reason in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "entries, key",
        [
            ("data.preset = coeffs\ndata.psi0 = 1,2,3", "data.psi0"),
            ("data.psi1 = 1,2,3", "data.psi1"),
            ("data.psi2 = 1,2,3", "data.psi2"),
            ("data.preset = coeffs", "data.psi0"),
            ("data.psi0 = 5,6", "data.psi0"),
            ("domain.lengths = ,", "domain.lengths"),
            ("domain.lengths = 1.0,2.0", "domain.lengths"),
            ("domain.kind = rectangle\ndomain.lengths = 1.0", "domain.lengths"),
            ("domain.kind = rectangle\ndomain.lengths = 1.0,1.0,1.0", "domain.lengths"),
            ("study.alpha_sweep = abc", "study.alpha_sweep"),
            ("study.alpha_sweep = ,", "study.alpha_sweep"),
            ("model.family = base\nstudy.alpha_sweep = 0.3,0.9", "study.alpha_sweep"),
            ("study.alpha_sweep = 0.9\ndata.psi1 = 1", "data.psi1"),
            ("model.family = ii\nstudy.alpha_sweep = 0.9\ndata.psi2 = 1", "data.psi2"),
            ("model.family = ii\nmodel.alpha = 0.7\ndata.psi2 = 0,5e-3", "data.psi2"),
            ("study.selfcheck_signals = x", "study.selfcheck_signals"),
            ("study.selfcheck_signals = -3", "study.selfcheck_signals"),
        ],
    )
    def test_bad_data_or_lengths_is_2(self, tmp_path, monkeypatch, capsys, entries, key):
        # each once failed with a traceback (or, for two interval lengths,
        # ran on the first, and data.psi0 without coeffs ran from the bump)
        # instead of naming its key; the study keys failed only after the
        # main solve, or not at all (a negative signal count)
        monkeypatch.setattr(fmgt.cli, "solve", self._no_solve)
        cfg = tmp_path / "data.cfg"
        cfg.write_text(f"schema = 1\ndomain.cutoff = 2\ntime.N = 16\n{entries}\n")
        assert run_cli(["--out", tmp_path / "o", "run", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: key {key}: ")
        assert "Traceback" not in err
        assert list(tmp_path.glob("o/*")) == []  # no artifact

    @staticmethod
    def _no_solve(*args, **kwargs):
        raise AssertionError("a refused config reached the solver")

    def test_success_is_0(self, tmp_path):
        assert (
            run_cli(["--out", tmp_path / "o", "run", "--config", PRESETS / "mgt-classical.cfg"])
            == 0
        )


class TestArtifacts:
    def test_run_writes_expected_files(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli(["--out", out, "run", "--config", PRESETS / "mgt-classical.cfg"]) == 0
        assert (out / "trajectory.csv").exists()
        assert (out / "energy.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["ode_crosscheck_max_error"] < 1e-8
        assert summary["model"]["backend"] == "volterra"

    def test_csv_values_printed_like_python_floats(self, tmp_path):
        # columns are printed from .tolist() floats, and a column printed
        # once serves every file that shares it
        values = [-0.0, 5e-324, 1e308, 0.1, 3.0]
        columns = {"a": np.array(values), "b": np.array(values[::-1])}
        want = ["%.17g" % float(v) for v in values]
        assert want == ["-0", "4.9406564584124654e-324", "1e+308", "0.10000000000000001", "3"]
        assert fmgt.cli._printed(columns["a"]) == want
        shared = {"b": fmgt.cli._printed(columns["b"])}
        fmgt.cli._write_csv(tmp_path / "one.csv", ["a", "b"], columns, shared)
        fmgt.cli._write_csv(tmp_path / "two.csv", ["b"], {}, shared)
        lines = (tmp_path / "one.csv").read_text().splitlines()
        assert lines == ["a,b"] + [f"{x},{y}" for x, y in zip(want, want[::-1])]
        assert (tmp_path / "two.csv").read_text().splitlines() == ["b"] + want[::-1]

    def test_trajectory_csv_floats_round_trip(self, tmp_path):
        # 17 significant digits: parsing the text recovers the exact double
        out = tmp_path / "o"
        run_cli(["--out", out, "run", "--config", PRESETS / "mgt-classical.cfg"])
        lines = (out / "trajectory.csv").read_text().splitlines()
        val = lines[2].split(",")[2]  # h1_psi at the second node
        assert float(val) == np.pi * float(lines[2].split(",")[1]) or len(val) >= 15

    def test_summary_is_strict_json(self, tmp_path):
        # one alpha below 1 fits no slope: null, where NaN is no JSON
        def refuse(name):
            raise ValueError(f"{name} in summary.json")

        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "schema = 1\nmodel.alpha = 0.8\ndomain.cutoff = 4\ntime.N = 32\n"
            "study.alpha_sweep = 0.9\n"
        )
        out = tmp_path / "o"
        assert run_cli(["--out", out, "run", "--config", cfg]) == 0
        s = json.loads((out / "summary.json").read_text(), parse_constant=refuse)
        assert set(s["limit_study"]["slopes"].values()) == {None}

    def test_limit_preset_strictly_decreasing(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli(["--out", out, "limit-study", "--config", PRESETS / "limit-iii.cfg"]) == 0
        s = json.loads((out / "summary.json").read_text())
        col = s["limit_study"]["columns"]["W1inf_H1"]
        assert all(a > b for a, b in zip(col, col[1:]))
        assert (out / "limit_study.csv").exists()

    def test_limit_study_reports_every_recovery_check(self, tmp_path):
        # every z-form solve of the study runs the recovery check, the
        # alpha = 1 reference too; the summary keeps the largest result
        out = tmp_path / "o"
        assert run_cli(["--out", out, "run", "--config", PRESETS / "limit-ii.cfg"]) == 0
        s = json.loads((out / "summary.json").read_text())
        worst = s["limit_study"]["max_recovery_discrepancy"]
        amplitude = float(RunConfig.from_file(PRESETS / "limit-ii.cfg").entries["data.amplitude"])
        assert np.isfinite(worst)
        assert s["recovery_discrepancy"] <= worst < 1e-2 * amplitude

    def test_limit_study_without_zform_reports_no_recovery_check(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli(["--out", out, "run", "--config", PRESETS / "limit-iii.cfg"]) == 0
        s = json.loads((out / "summary.json").read_text())
        assert s["limit_study"]["max_recovery_discrepancy"] is None

    def test_picard_summary_reports_inner_sweeps(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli(["--out", out, "run", "--config", PRESETS / "picard-w3.cfg"]) == 0
        s = json.loads((out / "summary.json").read_text())
        # one entry per Picard iterate; picard-w3 relaxes the whole time axis
        assert len(s["relaxation_sweeps"]) == s["picard_iterations"]
        assert all(1 <= n < MAX_SWEEPS for n in s["relaxation_sweeps"])
        assert s["relaxation_windows"] == [1] * s["picard_iterations"]

    def test_run_does_not_import_scipy_signal(self, tmp_path):
        # scipy.signal costs a large share of a CLI run's start-up
        assert "scipy.signal" not in _modules_after_runs(tmp_path)

    def test_run_does_not_import_scipy_integrate(self, tmp_path):
        # so does scipy.integrate, which serves only the ODE oracle
        assert "scipy.integrate" not in _modules_after_runs(tmp_path)

    def test_run_does_not_import_the_oracles(self, tmp_path):
        # the ODE reference loads only for a run that asks for its check
        assert "fmgt.oracles" not in _modules_after_runs(tmp_path)

    def test_run_does_not_import_scipy(self, tmp_path):
        # fmgt run needs numpy only: scipy serves the oracles and the tests
        loaded = _modules_after_runs(tmp_path)
        assert sorted(m for m in loaded if _is_scipy(m)) == []

    def test_kernels_does_not_import_scipy(self, tmp_path):
        # the kernel masses come from the Mittag-Leffler tables, whose
        # quadrature is numpy's; most default masses and all three at order
        # 0.02 take the integral branch
        loaded = _modules_loaded_by(
            [["--out", str(tmp_path / "k"), "kernels"],
             ["--out", str(tmp_path / "k2"), "kernels", "--alphas", "0.02"]]
        )
        assert sorted(m for m in loaded if _is_scipy(m)) == []

    def test_scipy_is_imported_only_by_the_oracles(self):
        found = {
            (path.name, *imp)
            for path in sorted((SRC / "fmgt").glob("*.py"))
            for imp in _scipy_imports(path)
        }
        assert found == {
            ("oracles.py", "classical_mgt_reference", "scipy.integrate", ("solve_ivp",)),
        }

    def test_oracles_stay_apart_from_the_solvers(self):
        # the oracles check the solvers, so neither side imports the other,
        # and the z-form solver takes its shared types from models, not from
        # the Volterra solver
        imports = {path.stem: _fmgt_imports(path) for path in (SRC / "fmgt").glob("*.py")}
        assert imports["oracles"] <= {"fractional", "models", "spectral"}
        solvers = ["volterra", "memory", "convolution", "mittag_leffler"]
        assert [name for name in solvers if "oracles" in imports[name]] == []
        assert "volterra" not in imports["memory"]
        assert imports["analysis"] >= {"memory", "volterra"}  # the helper sees them

    def test_kernels_subcommand(self, tmp_path):
        out = tmp_path / "k"
        assert run_cli(["--out", out, "kernels", "--alphas", "0.5,1.0", "--tau", "1.0"]) == 0
        payload = json.loads((out / "kernels.json").read_text())
        assert payload["all_pass"] is True

    def test_kernels_at_a_small_order(self, tmp_path):
        # every table point of order 0.02 near |x| = 1 takes the integral
        out = tmp_path / "k"
        assert run_cli(["--out", out, "kernels", "--alphas", "0.02"]) == 0
        assert json.loads((out / "kernels.json").read_text())["all_pass"] is True

    def test_convergence_subcommand(self, tmp_path):
        out = tmp_path / "c"
        assert (
            run_cli(["--out", out, "convergence", "--config", PRESETS / "convergence-iii.cfg"])
            == 0
        )
        s = json.loads((out / "summary.json").read_text())
        assert s["convergence"]["order"] >= 1.4

    def test_rectangle_domain_run(self, tmp_path):
        cfg = tmp_path / "rect.cfg"
        cfg.write_text(
            "schema = 1\nmodel.family = iii\nmodel.nonlinearity = linear\n"
            "model.alpha = 0.7\ndomain.kind = rectangle\ndomain.lengths = 1.0,1.5\n"
            "domain.cutoff = 3\ntime.T = 0.5\ntime.N = 64\ndata.preset = bump\n"
        )
        out = tmp_path / "o"
        assert run_cli(["--out", out, "run", "--config", cfg]) == 0
        s = json.loads((out / "summary.json").read_text())
        assert s["energy_low"]["fitted_constant"] > 0

    def test_source_presets_run(self, tmp_path):
        for preset in ("mode-cos", "pulse"):
            cfg = tmp_path / f"{preset}.cfg"
            cfg.write_text(
                "schema = 1\nmodel.family = iii\nmodel.alpha = 0.8\n"
                "domain.cutoff = 4\ntime.N = 64\ndata.preset = zero\n"
                f"source.preset = {preset}\nsource.amplitude = 0.5\n"
            )
            out = tmp_path / f"o-{preset}"
            assert run_cli(["--out", out, "run", "--config", cfg]) == 0
            rows = (out / "trajectory.csv").read_text().splitlines()
            last = float(rows[-1].split(",")[1])
            assert last != 0.0  # the source actually drove the field

    def test_memory_backend_route(self, tmp_path):
        cfg = tmp_path / "ii.cfg"
        cfg.write_text(
            "schema = 1\nmodel.family = ii\nmodel.nonlinearity = linear\n"
            "model.alpha = 0.7\ndomain.cutoff = 4\ntime.N = 128\ndata.preset = bump\n"
        )
        out = tmp_path / "o"
        assert run_cli(["--out", out, "run", "--config", cfg]) == 0
        s = json.loads((out / "summary.json").read_text())
        assert s["model"]["backend"] == "memory"
        assert s["recovery_discrepancy"] < 1e-2

    def test_jobs_flag_refused(self, tmp_path):
        # sweeps run serially; run-to-run identity of limit-ii is covered by
        # TestDeterminism
        with pytest.raises(SystemExit) as exc:
            run_cli(["--jobs", "3", "--out", tmp_path, "run", "--config", PRESETS / "limit-ii.cfg"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "family,nonlinearity,keys",
        [
            ("base", "linear", []),
            ("i", "linear", []),
            ("iii", "linear", []),
            ("ii", "linear", ["recovery_discrepancy"]),
            ("iii", "westervelt", PICARD_KEYS),
            ("i", "kuznetsov", PICARD_KEYS),
        ],
    )
    def test_summary_solver_keys(self, tmp_path, family, nonlinearity, keys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"schema = 1\nmodel.family = {family}\nmodel.nonlinearity = {nonlinearity}\n"
            "model.alpha = 0.7\nmodel.k = 0.1\nmodel.l = 0.1\ndomain.cutoff = 4\n"
            "time.N = 32\ndata.preset = bump\ndata.amplitude = 1e-3\n"
        )
        out = tmp_path / "o"
        assert run_cli(["--out", out, "run", "--config", cfg]) == 0
        s = json.loads((out / "summary.json").read_text())
        common = {"schema", "config", "model", "beta", "z_order", "energy_low", "energy_high"}
        assert sorted(set(s) - common) == keys

    @pytest.mark.parametrize(
        "text",
        [
            "schema = 1\nmodel.nonlinearity = westervelt\nmodel.alpha = 0.7\nmodel.k = 0.1\n"
            "domain.cutoff = 4\ntime.N = 32\ndata.amplitude = 1e-3\nstudy.alpha_sweep = 0.8,0.9\n",
            (PRESETS / "limit-ii.cfg").read_text(),
        ],
        ids=["picard", "limit-ii"],
    )
    def test_report_fields_are_the_summary_keys(self, tmp_path, text):
        # each report key is declared once, as a field of its dataclass
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        out = tmp_path / "o"
        assert run_cli(["--out", out, "run", "--config", cfg]) == 0
        s = json.loads((out / "summary.json").read_text())
        energy = {f.name for f in dataclasses.fields(fmgt.analysis.EnergyReport)} - {"columns"}
        assert set(s["energy_low"]) == set(s["energy_high"]) == energy
        study = {f.name for f in dataclasses.fields(fmgt.analysis.LimitStudy)}
        assert set(s["limit_study"]) == study


# the shape of the benchmark's zform-limit workload: a type II alpha -> 1
# study whose sweep holds model.alpha
ZFORM_LIMIT = (
    "schema = 1\nmodel.family = ii\nmodel.nonlinearity = linear\nmodel.alpha = 0.8\n"
    "model.tau = 0.25\nmodel.delta = 0.1\ndomain.cutoff = 8\ntime.T = 2.0\ntime.N = 256\n"
    "data.preset = bump\ndata.amplitude = 1e-2\nstudy.alpha_sweep = 0.6,0.8,0.9,0.95,0.99\n"
)


class TestWorkPerRun:
    """What one `fmgt run` computes, counted."""

    def test_each_alpha_solved_once(self, tmp_path, monkeypatch):
        # the run's own alpha = 0.8 trajectory serves its row of the study
        alphas = []
        tables = fmgt.memory.memory_tables

        def counting(spec, grid):
            alphas.append(spec.alpha)
            return tables(spec, grid)

        monkeypatch.setattr(fmgt.memory, "memory_tables", counting)
        cfg = tmp_path / "z.cfg"
        cfg.write_text(ZFORM_LIMIT)
        assert run_cli(["--out", tmp_path / "o", "run", "--config", cfg]) == 0
        assert sorted(alphas) == [0.6, 0.8, 0.9, 0.95, 0.99, 1.0]

    def test_energy_forms_built_once(self, tmp_path, monkeypatch):
        # both energy levels report one damping form and one Alikhanov
        # accumulation: one Abel integral of order alpha, one of 1 - alpha
        orders = []
        abel = fmgt.fractional.abel_integral

        def counting(w, order):
            orders.append(order)
            return abel(w, order)

        for module in (fmgt.fractional, fmgt.analysis):
            monkeypatch.setattr(module, "abel_integral", counting)
        cfg = tmp_path / "iii.cfg"
        cfg.write_text(
            "schema = 1\nmodel.family = iii\nmodel.alpha = 0.7\ndomain.cutoff = 4\n"
            "time.N = 64\ndata.preset = bump\n"
        )
        out = tmp_path / "o"
        assert run_cli(["--out", out, "run", "--config", cfg]) == 0
        assert orders == [0.7, pytest.approx(0.3)]
        s = json.loads((out / "summary.json").read_text())
        for key in ("damping_form", "alikhanov_accumulation"):
            assert s["energy_low"][key] == s["energy_high"][key] != 0.0

    @pytest.mark.parametrize(
        "entries,reference",
        [
            ("model.alpha = 1.0\nsource.preset = pulse\n", "ode"),
            ("model.alpha = 0.8\nsource.preset = mode-cos\nsource.amplitude = 0.5\n", "richardson"),
        ],
    )
    def test_n_sweep_with_a_source(self, tmp_path, entries, reference):
        # each solve of the table samples the source on its own grid
        cfg = tmp_path / "src.cfg"
        cfg.write_text(
            "schema = 1\nmodel.family = iii\ndomain.cutoff = 6\ntime.N = 128\n"
            f"{entries}study.n_sweep = 32,64,128\n"
        )
        out = tmp_path / "o"
        assert run_cli(["--out", out, "run", "--config", cfg]) == 0
        conv = json.loads((out / "summary.json").read_text())["convergence"]
        assert conv["steps"] == [32, 64, 128] and conv["reference"] == reference
        assert all(e1 > e2 > 0 for e1, e2 in zip(conv["errors"], conv["errors"][1:]))
        assert conv["order"] > 1.5

    @pytest.mark.parametrize("preset", ["mode-cos", "pulse"])
    def test_source_samples_equal_the_node_formula(self, preset):
        # the source, a function of t, gives on the run's grid exactly the
        # samples of the closed formula over all nodes at once, whether it
        # takes them all at once or one by one
        cfg = RunConfig.from_text(
            f"schema = 1\ndomain.cutoff = 4\ntime.T = 2.0\ntime.N = 64\n"
            f"source.preset = {preset}\nsource.amplitude = 0.5\nsource.omega = 2.5\n"
        )
        basis, grid = cfg.basis(), cfg.grid()
        source = cfg.forcing(basis, grid)
        t = grid.nodes
        want = 0.5 * (np.cos(2.5 * t) if preset == "mode-cos" else np.exp(-(((t - 0.6) / 0.2) ** 2)))
        for farr in (source(t), _forcing_array(source, basis, grid)):
            assert farr.shape == (65, 4)
            assert np.array_equal(farr[:, 0], want)
            assert not farr[:, 1:].any()


class TestDeterminism:
    @pytest.mark.parametrize(
        "preset",
        [
            "mgt-classical",
            "limit-iii",
            "limit-ii",
            "convergence-iii",
            "picard-w3",
            "selfcheck",
            "kuznetsov-2d",
        ],
    )
    def test_repeated_runs_byte_identical(self, tmp_path, preset):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(["--out", out1, "run", "--config", PRESETS / f"{preset}.cfg"]) == 0
        assert run_cli(["--out", out2, "run", "--config", PRESETS / f"{preset}.cfg"]) == 0
        for f1 in sorted(out1.iterdir()):
            f2 = out2 / f1.name
            assert f2.exists()
            assert f1.read_bytes() == f2.read_bytes(), f"{f1.name} differs"
