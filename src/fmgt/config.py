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

from .models import (
    Family,
    InitialData,
    MediumParams,
    ModelError,
    ModelSpec,
    ModelVariant,
    Nonlinearity,
    beta_of,
    data_refusal,
    reference_refusal,
    route_refusal,
    step_counts,
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
            raise ConfigError(f"key model.family: must be one of base/i/ii/iii, got {fam!r}")
        nl = self.entries["model.nonlinearity"]
        if nl not in {n.value for n in Nonlinearity}:
            raise ConfigError(
                f"key model.nonlinearity: must be one of linear/westervelt/kuznetsov, got {nl!r}"
            )
        variant = ModelVariant(Family(fam), Nonlinearity(nl))
        refusal = route_refusal(variant)
        if refusal:
            raise ConfigError(f"key model.nonlinearity: {refusal}")
        alpha = self._float("model.alpha")
        try:
            beta_of(variant, alpha)
        except ModelError as exc:
            raise ConfigError(f"key model.alpha: {exc}") from exc
        for key in ("model.tau", "model.c", "model.delta", "time.T"):
            if not self._float(key) > 0:
                raise ConfigError(f"key {key}: must be positive, got {self.entries[key]}")
        for key in ("model.k", "model.l", "data.amplitude", "source.amplitude", "source.omega"):
            self._float(key)  # a number even where the presets do not read it
        kind = self.entries["domain.kind"]
        if kind not in ("interval", "rectangle"):
            raise ConfigError(f"key domain.kind: must be interval or rectangle, got {kind!r}")
        lengths, ndim = self._floats("domain.lengths"), {"interval": 1, "rectangle": 2}[kind]
        if len(lengths) != ndim or not all(L > 0 for L in lengths):
            raise ConfigError(
                f"key domain.lengths: domain.kind = {kind} takes {ndim} positive "
                f"length{'s' * (ndim > 1)}, got {self.entries['domain.lengths']}"
            )
        cutoff = self._int("domain.cutoff")
        if cutoff < 1:
            raise ConfigError(f"key domain.cutoff: must be at least 1, got {cutoff}")
        size = cutoff**ndim  # the basis size, without building the basis
        if self._int("time.N") < 4:
            raise ConfigError(f"key time.N: must be at least 4, got {self.entries['time.N']}")
        preset = self.entries["data.preset"]
        if preset not in ("zero", "bump", "mode", "coeffs"):
            raise ConfigError(f"key data.preset: must be zero/bump/mode/coeffs, got {preset!r}")
        if preset == "coeffs" and "data.psi0" not in self.entries:
            raise ConfigError("key data.psi0: data.preset = coeffs reads psi0 from it")
        if preset != "coeffs" and "data.psi0" in self.entries:
            raise ConfigError(
                "key data.psi0: read only under data.preset = coeffs, "
                f"got data.preset = {preset}"
            )
        mode = self._int("data.mode")
        if preset == "mode" and not 1 <= mode <= size:
            raise ConfigError(f"key data.mode: must be in 1..{size}, got {mode}")
        for key in ("data.psi0", "data.psi1", "data.psi2"):
            count = len(self._floats(key)) if key in self.entries else 0
            if count > size:
                raise ConfigError(f"key {key}: {count} coefficients for {size} modes")
        study = "study.alpha_sweep" in self.entries
        for key in ("data.psi1", "data.psi2"):
            if key in self.entries and any(self._floats(key)):
                refusal = data_refusal(variant, alpha, {key[5:]}, study)
                if refusal:
                    raise ConfigError(f"key {key}: {refusal}, got {self.entries[key]}")
        source = self.entries["source.preset"]
        if source not in ("zero", "mode-cos", "pulse"):
            raise ConfigError(f"key source.preset: must be zero/mode-cos/pulse, got {source!r}")
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
        refusal = crosscheck and reference_refusal(crosscheck, variant, alpha)
        if refusal:
            raise ConfigError(f"key study.crosscheck: {refusal}")
        if study:
            alphas = self._floats("study.alpha_sweep")
            if not alphas:
                raise ConfigError("key study.alpha_sweep: lists no alpha")
            for a in alphas:
                try:
                    beta_of(variant, a)
                except ModelError as exc:
                    raise ConfigError(f"key study.alpha_sweep: {exc}") from exc
        return self

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
        return EigenBasis(Domain(tuple(self._floats("domain.lengths"))), self._int("domain.cutoff"))

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
            psi0 = basis.unit_mode(self._int("data.mode") - 1, amp)
        else:  # explicit coefficient lists
            psi0 = self._field_from_key(basis, "data.psi0")
        psi1 = self._field_from_key(basis, "data.psi1") if "data.psi1" in self.entries else basis.zero_field()
        psi2 = self._field_from_key(basis, "data.psi2") if "data.psi2" in self.entries else basis.zero_field()
        return InitialData(psi0, psi1, psi2)

    def _field_from_key(self, basis, key):
        """The coefficients listed at key, zero-padded to the basis size."""
        vals = self._floats(key)
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
