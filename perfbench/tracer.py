"""Spans around the calls into each fmgt layer, recorded from outside the program.

``Tracer.install`` replaces the public functions named in ``_targets`` in
every ``fmgt`` namespace that bound them (``cli``, ``analysis`` and
``memory`` import several by name), so calls made inside a module and calls
made across modules are both seen.  Spans stay in memory; ``run_metrics``
turns one traced run's spans into the per-layer metrics.

fmgt runs its solves on one thread, so the spans of one run nest: the
children of a span never overlap and their summed durations are the part of
the parent's interval that they cover.
"""
from __future__ import annotations

import functools
import sys
import time

_ML_LARGE_ARG = 5.0  # |x| above this takes the quadrature branch of ml()


def _targets():
    from fmgt import analysis, cli, config, memory, mittag_leffler, spectral, volterra

    functions = {
        cli.cmd_run: "cli.cmd_run",
        volterra.assemble_fmgt3: "volterra.assemble",
        volterra.assemble_fmgt1: "volterra.assemble",
        volterra.solve_mu: "volterra.solve_mu",
        volterra.reconstruct: "volterra.reconstruct",
        volterra.picard_nonlinear: "volterra.picard",
        mittag_leffler.ml: "mittag_leffler.ml",
        mittag_leffler.kernel_cell_moments: "mittag_leffler.kernel_cell_moments",
        memory.solve_zform: "memory.solve_zform",
        memory.recover_psi: "memory.recover_psi",
        analysis.energy_low: "analysis.energy",
        analysis.energy_high: "analysis.energy",
        analysis.limit_study: "analysis.limit_study",
    }
    methods = [
        (config.RunConfig, "from_text", "config.parse"),
        (spectral.EigenBasis, "__init__", "spectral.basis"),
        (spectral.EigenBasis, "project", "spectral.basis"),
    ]
    # cached on first use per basis: only the first call builds the matrix
    dense = [(spectral.EigenBasis, m) for m in ("eval_matrix", "proj_matrix", "grad_matrices")]
    return functions, methods, dense


def _nbytes(result) -> int:
    arrays = result if isinstance(result, (list, tuple)) else [result]
    return sum(a.nbytes for a in arrays)


class Tracer:
    def __init__(self):
        self._patches = []  # (owner, attribute, original value)
        self.reset()

    def reset(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self._stack = []
        self.ml_args = []
        self.solve_mu_nodes = 0
        self.picard_iterations = 0
        self.dense_bytes = 0
        self._dense_seen = set()
        self._dense_bases = []  # keeps ids in _dense_seen from being reused

    # -- installation -------------------------------------------------------

    def install(self):
        functions, methods, dense = _targets()
        wrappers = {id(fn): self._wrap(name, fn) for fn, name in functions.items()}
        for modname, module in list(sys.modules.items()):
            if modname != "fmgt" and not modname.startswith("fmgt."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patch(module, attr, wrappers[id(value)])
        for owner, attr, name in methods:
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                self._patch(owner, attr, classmethod(self._wrap(name, raw.__func__)))
            else:
                self._patch(owner, attr, self._wrap(name, raw))
        for owner, attr in dense:
            self._patch(owner, attr, self._wrap_dense(attr, vars(owner)[attr]))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    # -- spans --------------------------------------------------------------

    def _wrap(self, name, fn):
        clock = time.perf_counter
        on_call = {
            "mittag_leffler.ml": lambda args, kwargs: self.ml_args.append(args[:3]),
            "volterra.solve_mu": self._count_nodes,
        }.get(name)
        on_result = self._count_iterations if name == "volterra.picard" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _wrap_dense(self, method, fn):
        timed = self._wrap("spectral.dense_mats", fn)

        @functools.wraps(fn)
        def first_call_traced(basis, *args, **kwargs):
            key = (id(basis), method)
            if key in self._dense_seen:
                return fn(basis, *args, **kwargs)
            self._dense_seen.add(key)
            self._dense_bases.append(basis)
            result = timed(basis, *args, **kwargs)
            self.dense_bytes += _nbytes(result)
            return result

        return first_call_traced

    def _count_nodes(self, args, kwargs):
        problem = args[0] if args else kwargs["problem"]
        self.solve_mu_nodes += problem.grid.steps

    def _count_iterations(self, result):
        self.picard_iterations += result.iterations

    # -- metrics ------------------------------------------------------------

    def _totals(self):
        """Per span name: inclusive time, self time and call count."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        total, self_time, calls = {}, {}, {}
        for (name, start, end, _), covered in zip(self.spans, child_time):
            total[name] = total.get(name, 0.0) + (end - start)
            self_time[name] = self_time.get(name, 0.0) + (end - start - covered)
            calls[name] = calls.get(name, 0) + 1
        return total, self_time, calls

    def inclusive_s(self, name: str) -> float:
        return self._totals()[0].get(name, 0.0)

    def run_metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of the spans recorded since the last reset."""
        total, self_time, calls = self._totals()
        ml_calls = len(self.ml_args)
        large = sum(1 for _, _, x in self.ml_args if abs(x) > _ML_LARGE_ARG)
        return {
            "config.parse.s": total.get("config.parse", 0.0),
            "cli.cmd_run.self_s": self_time.get("cli.cmd_run", 0.0),
            "spectral.basis.s": total.get("spectral.basis", 0.0),
            "spectral.dense_mats.s": total.get("spectral.dense_mats", 0.0),
            "spectral.dense_mats.mb": self.dense_bytes / 2**20,
            "volterra.assemble.self_s": self_time.get("volterra.assemble", 0.0),
            "volterra.solve_mu.self_s": self_time.get("volterra.solve_mu", 0.0),
            "volterra.solve_mu.calls": calls.get("volterra.solve_mu", 0),
            "volterra.solve_mu.nodes": self.solve_mu_nodes,
            "volterra.reconstruct.self_s": self_time.get("volterra.reconstruct", 0.0),
            "volterra.picard.self_s": self_time.get("volterra.picard", 0.0),
            "volterra.picard.iterations": self.picard_iterations,
            "mittag_leffler.ml.calls": ml_calls,
            "mittag_leffler.ml.distinct_ratio": len(set(self.ml_args)) / ml_calls if ml_calls else 0.0,
            "mittag_leffler.ml.large_arg_share": large / ml_calls if ml_calls else 0.0,
            "mittag_leffler.ml.self_s": self_time.get("mittag_leffler.ml", 0.0),
            "mittag_leffler.kernel_cell_moments.self_s": self_time.get(
                "mittag_leffler.kernel_cell_moments", 0.0
            ),
            "memory.solve_zform.self_s": self_time.get("memory.solve_zform", 0.0),
            "memory.recover_psi.self_s": self_time.get("memory.recover_psi", 0.0),
            "analysis.energy.self_s": self_time.get("analysis.energy", 0.0),
            "analysis.limit_study.self_s": self_time.get("analysis.limit_study", 0.0),
            "trace.run_s": wall_s,
            "trace.accounted_share": sum(self_time.values()) / wall_s,
        }
