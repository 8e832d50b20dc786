"""Run configuration: a flat dotted-key text format with one schema version.

Files hold `key = value` lines; keys are dotted paths grouping the model,
domain, time, data, source, study, and output blocks.  Unknown keys and
keys given twice are rejected and round-trips are lossless, so identical
configs give identical runs.  Example:

    schema = 1
    model.family = iii
    model.nonlinearity = westervelt
    model.alpha = 0.8
    model.tau = 1.0
    model.c = 1.0
    model.delta = 0.1
    model.k = 0.1
    domain.kind = interval
    domain.lengths = 1.0
    domain.cutoff = 8
    time.T = 1.0
    time.N = 256
    data.preset = bump
    data.amplitude = 1e-3
    source.preset = zero
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analysis import step_counts
from .models import (
    Family,
    InitialData,
    MediumParams,
    ModelError,
    ModelSpec,
    ModelVariant,
    Nonlinearity,
    beta_of,
)
from .spectral import Domain, EigenBasis, SpectralField
from .fractional import TimeGrid

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


def _bump(lengths, x):
    """The bump prod_k x_k (L_k - x_k), multiplied from left to right."""
    out = 1.0
    for xk, L in zip(x, lengths):
        out = out * xk * (L - xk)
    return out


_DEFAULTS = {
    "schema": "1",
    "model.family": "iii",
    "model.nonlinearity": "linear",
    "model.alpha": "1.0",
    "model.tau": "1.0",
    "model.c": "1.0",
    "model.delta": "0.1",
    "model.k": "0.0",
    "model.l": "0.0",
    "domain.kind": "interval",
    "domain.lengths": "1.0",
    "domain.cutoff": "8",
    "time.T": "1.0",
    "time.N": "256",
    "data.preset": "bump",
    "data.amplitude": "1.0",
    "data.mode": "1",
    "source.preset": "zero",
    "source.amplitude": "1.0",
    "source.omega": "3.0",
}

_KNOWN_KEYS = set(_DEFAULTS) | {
    "data.psi0",
    "data.psi1",
    "data.psi2",
    "study.alpha_sweep",
    "study.n_sweep",
    "study.crosscheck",
    "study.selfcheck_signals",
    "output.directory",
}


@dataclass
class RunConfig:
    entries: dict = field(default_factory=dict)

    @classmethod
    def from_text(cls, text: str, path: str = "<config>") -> "RunConfig":
        entries = dict(_DEFAULTS)
        given = {}  # key -> the line that set it
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _KNOWN_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in given:
                raise ConfigError(
                    f"{path}:{lineno}: key {key} is set twice, on lines {given[key]} and {lineno}"
                )
            given[key] = lineno
            entries[key] = value
        if entries.get("schema") != str(SCHEMA_VERSION):
            raise ConfigError(
                f"{path}: unsupported schema {entries.get('schema')!r}; "
                f"this build reads schema {SCHEMA_VERSION}"
            )
        cfg = cls(entries)
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read(), str(path))

    def to_text(self) -> str:
        lines = [f"{k} = {self.entries[k]}" for k in sorted(self.entries)]
        return "\n".join(lines) + "\n"

    # typed accessors -------------------------------------------------------

    def _float(self, key):
        try:
            value = float(self.entries[key])
        except ValueError as exc:
            raise ConfigError(f"key {key}: not a number: {self.entries[key]!r}") from exc
        if not np.isfinite(value):
            raise ConfigError(f"key {key}: not a finite number: {self.entries[key]!r}")
        return value

    def _int(self, key):
        try:
            return int(self.entries[key])
        except ValueError as exc:
            raise ConfigError(f"key {key}: not an integer: {self.entries[key]!r}") from exc

    def _ints(self, key):
        try:
            return [int(v) for v in self.entries[key].split(",") if v.strip()]
        except ValueError as exc:
            raise ConfigError(f"key {key}: not an integer list: {self.entries[key]!r}") from exc

    def _floats(self, key):
        try:
            values = [float(v) for v in self.entries[key].split(",") if v.strip()]
        except ValueError as exc:
            raise ConfigError(f"key {key}: not a number list: {self.entries[key]!r}") from exc
        if not np.all(np.isfinite(values)):
            raise ConfigError(f"key {key}: not a list of finite numbers: {self.entries[key]!r}")
        return values

    def validate(self) -> "RunConfig":
        fam = self.entries["model.family"]
        if fam not in {f.value for f in Family}:
            raise ConfigError(f"model.family must be one of base/i/ii/iii, got {fam!r}")
        nl = self.entries["model.nonlinearity"]
        if nl not in {n.value for n in Nonlinearity}:
            raise ConfigError(
                f"model.nonlinearity must be linear/westervelt/kuznetsov, got {nl!r}"
            )
        variant = ModelVariant(Family(fam), Nonlinearity(nl))
        try:
            beta_of(variant, self._float("model.alpha"))
        except ModelError as exc:
            raise ConfigError(f"model.alpha: {exc}") from exc
        if self.entries["domain.kind"] not in ("interval", "rectangle"):
            raise ConfigError("domain.kind must be interval or rectangle")
        if self._int("time.N") < 4:
            raise ConfigError("time.N must be at least 4")
        if self._float("time.T") <= 0:
            raise ConfigError("time.T must be positive")
        preset = self.entries["data.preset"]
        if preset not in ("zero", "bump", "mode", "decay", "coeffs"):
            raise ConfigError(f"unknown data.preset {preset!r}")
        if preset == "coeffs" and "data.psi0" not in self.entries:
            raise ConfigError("key data.psi0: data.preset = coeffs reads psi0 from it")
        if preset != "coeffs" and "data.psi0" in self.entries:
            raise ConfigError(
                "key data.psi0: read only under data.preset = coeffs, "
                f"got data.preset = {preset}"
            )
        if (
            variant.family is Family.II
            and self._float("model.alpha") < 1.0
            and "data.psi2" in self.entries
            and any(self._floats("data.psi2"))
        ):
            raise ConfigError(
                "key data.psi2: the z-form of family ii has no psi2 term at "
                f"model.alpha < 1, so it needs psi2 = 0, got {self.entries['data.psi2']}"
            )
        if self.entries["source.preset"] not in ("zero", "mode-cos", "pulse"):
            raise ConfigError(f"unknown source.preset {self.entries['source.preset']!r}")
        if "study.n_sweep" in self.entries:
            try:
                step_counts(self._ints("study.n_sweep"))
            except ModelError as exc:
                raise ConfigError(f"key study.n_sweep: {exc}") from exc
        crosscheck = self.entries.get("study.crosscheck")
        if crosscheck not in (None, "ode"):
            raise ConfigError(
                f"key study.crosscheck: the one cross-check is ode, got {crosscheck!r}"
            )
        if crosscheck == "ode" and self._float("model.alpha") != 1.0:
            raise ConfigError(
                "key study.crosscheck: the ODE reference serves alpha = 1 runs, got "
                f"model.alpha = {self.entries['model.alpha']}"
            )
        if crosscheck == "ode" and variant.nonlinearity is not Nonlinearity.LINEAR:
            raise ConfigError(
                "key study.crosscheck: the ODE reference is the linear classical "
                f"equation, got model.nonlinearity = {nl}"
            )
        if "study.alpha_sweep" in self.entries:
            self._validate_sweep(variant)
        if "study.selfcheck_signals" in self.entries:
            count = self._int("study.selfcheck_signals")
            if count < 1:
                raise ConfigError(f"key study.selfcheck_signals: must be at least 1, got {count}")
        return self

    def _validate_sweep(self, variant: ModelVariant):
        """The alpha sweep is not empty and lies in the family's range, and the
        data keys the limit study needs zero are zero: psi1, and psi2 for
        family ii."""
        alphas = self._floats("study.alpha_sweep")
        if not alphas:
            raise ConfigError("key study.alpha_sweep: lists no alpha")
        for a in alphas:
            try:
                beta_of(variant, a)
            except ModelError as exc:
                raise ConfigError(f"key study.alpha_sweep: {exc}") from exc
        zero = ("data.psi1", "data.psi2") if variant.family is Family.II else ("data.psi1",)
        for key in zero:
            if key in self.entries and any(self._floats(key)):
                raise ConfigError(
                    f"key {key}: study.alpha_sweep needs {key[5:]} = 0, got {self.entries[key]}"
                )

    # object construction ---------------------------------------------------

    def spec(self) -> ModelSpec:
        variant = ModelVariant(
            Family(self.entries["model.family"]),
            Nonlinearity(self.entries["model.nonlinearity"]),
        )
        params = MediumParams(
            tau=self._float("model.tau"),
            c=self._float("model.c"),
            delta=self._float("model.delta"),
            k=self._float("model.k"),
            l_tilde=self._float("model.l"),
        )
        return ModelSpec(variant, params, self._float("model.alpha"))

    def basis(self) -> EigenBasis:
        lengths = self._floats("domain.lengths")
        kind = self.entries["domain.kind"]
        count = {"interval": 1, "rectangle": 2}[kind]
        if len(lengths) != count:
            raise ConfigError(
                f"key domain.lengths: domain.kind = {kind} takes {count}, got {len(lengths)}"
            )
        return EigenBasis(Domain(tuple(lengths)), self._int("domain.cutoff"))

    def grid(self) -> TimeGrid:
        return TimeGrid(self._float("time.T"), self._int("time.N"))

    def initial_data(self, basis: EigenBasis) -> InitialData:
        preset = self.entries["data.preset"]
        amp = self._float("data.amplitude")
        if preset == "zero":
            psi0 = basis.zero_field()
        elif preset == "bump":
            raw = basis.project(lambda *x: _bump(basis.domain.lengths, x))
            scale = amp / np.max(np.abs(raw.coeffs))
            psi0 = SpectralField(basis, raw.coeffs * scale)
        elif preset == "mode":
            mode = self._int("data.mode")
            if not 1 <= mode <= basis.size:
                raise ConfigError(f"key data.mode: must be in 1..{basis.size}, got {mode}")
            psi0 = basis.unit_mode(mode - 1, amp)
        elif preset == "decay":
            j = np.arange(1, basis.size + 1)
            psi0 = SpectralField(basis, amp * j ** (-1.2))
        else:  # explicit coefficient lists
            psi0 = self._field_from_key(basis, "data.psi0")
        psi1 = self._field_from_key(basis, "data.psi1") if "data.psi1" in self.entries else basis.zero_field()
        psi2 = self._field_from_key(basis, "data.psi2") if "data.psi2" in self.entries else basis.zero_field()
        return InitialData(psi0, psi1, psi2)

    def _field_from_key(self, basis, key):
        """The coefficients listed at key, zero-padded to the basis size."""
        vals = self._floats(key)
        if len(vals) > basis.size:
            raise ConfigError(f"key {key}: {len(vals)} coefficients for {basis.size} modes")
        coeffs = np.zeros(basis.size)
        coeffs[: len(vals)] = vals
        return SpectralField(basis, coeffs)

    def forcing(self, basis: EigenBasis, grid: TimeGrid):
        """The source as a function of t, or None for the zero source.

        A function serves every grid on the run's horizon: the solves of a
        convergence table sample it on their own nodes.  It takes one time
        or an array of times, and gives the mode coefficients at each."""
        preset = self.entries["source.preset"]
        if preset == "zero":
            return None
        amp = self._float("source.amplitude")
        om = self._float("source.omega")
        t0, s = 0.3 * grid.horizon, 0.1 * grid.horizon  # the pulse's centre and width

        def f(t):
            t = np.asarray(t, dtype=float)
            coeffs = np.zeros(t.shape + (basis.size,))
            if preset == "mode-cos":
                coeffs[..., 0] = amp * np.cos(om * t)
            else:  # pulse
                coeffs[..., 0] = amp * np.exp(-(((t - t0) / s) ** 2))
            return coeffs

        return f
