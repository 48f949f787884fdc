"""Run configuration (INI-style key = value sections) and field snapshots.

The config text round-trips: parse(serialize(cfg)) == cfg.  Regime
classification runs eagerly at parse time so out-of-range exponent choices
fail before any compute starts.

Snapshot files are little-endian binary: magic "SNLS", version u16, d u16,
n u32, L f64, t f64, then n^d complex values as (re, im) float64 pairs in
row-major order (payload is exactly 16 * n^d bytes).
"""

from __future__ import annotations

import configparser
import io
import math
import struct
from dataclasses import dataclass

import numpy as np

from .dynamics import (BlowupThresholds, ProblemSpec, Regime, SolveOptions,
                       StepFlags, classify)
from .noise import (ConstantProfile, CosineProfile, GaussianProfile,
                    NoiseMode, NoiseModel, build_model)
from .spectral import Field, Grid


class ConfigError(ValueError):
    pass


_PROBLEM_KEYS = {"d", "n", "l", "alpha", "lambda", "t", "dt", "scheme",
                 "initial", "amplitude", "width", "center", "kmode", "path"}
_NOISE_KEYS = {"mu_re", "mu_im", "profile", "height", "width", "center", "kmode"}
_RUN_KEYS = {"m", "seed", "stride", "out", "h1_blowup_factor",
             "spacetime_blowup_factor", "flags", "threads"}
_VERIFY_KEYS = {"levels", "paths"}

_SCHEMES = ("direct", "rescaled", "both")
_INITIAL_KINDS = ("gaussian", "soliton", "plane-wave", "file")
_PROFILES = ("gaussian", "constant", "cosine")
_FLAG_TOKENS = ("no-linear", "no-nonlinear", "no-noise", "omit-mu-tilde")


@dataclass(frozen=True)
class InitialSpec:
    kind: str
    amplitude: float = 1.0
    width: float = 1.0
    center: tuple = (0.0, 0.0, 0.0)
    kmode: tuple = (1, 0, 0)
    path: str = ""


@dataclass(frozen=True)
class ModeConfig:
    mu_re: float
    mu_im: float
    profile: str
    height: float = 1.0
    width: float = 1.0
    center: tuple = (0.0, 0.0, 0.0)
    kmode: tuple = (1, 0, 0)


@dataclass(frozen=True)
class RunSection:
    n_paths: int = 1
    seed: int = 0
    stride: int = 1
    out: str = "out"
    h1_blowup_factor: float = 1e6
    spacetime_blowup_factor: float = 1e6
    flags: StepFlags = StepFlags()
    threads: int = 0          # 0 = automatic width


@dataclass(frozen=True)
class VerifySection:
    levels: int = 3
    paths: int = 32


@dataclass(frozen=True)
class RunConfig:
    d: int
    n: int
    length: float
    alpha: float
    lam: int
    T: float
    dt: float
    scheme: str
    initial: InitialSpec
    modes: tuple = ()
    run: RunSection = RunSection()
    verify: VerifySection = VerifySection()

    @property
    def n_steps(self) -> int:
        steps = round(self.T / self.dt)
        return max(1, int(steps))

    @property
    def regime(self) -> Regime:
        return classify(self.d, self.alpha, self.lam)


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _floats(text: str) -> tuple:
    return tuple(_finite(tok) for tok in text.split())

def _ints(text: str) -> tuple:
    return tuple(int(tok) for tok in text.split())


def _pad3(vals, fill=0.0) -> tuple:
    out = list(vals)[:3]
    while len(out) < 3:
        out.append(fill)
    return tuple(out)


def _flags_from_tokens(tokens) -> StepFlags:
    for tok in tokens:
        if tok not in _FLAG_TOKENS:
            raise ConfigError(f"unknown flag token {tok!r} (allowed: {_FLAG_TOKENS})")
    return StepFlags(
        linear="no-linear" not in tokens,
        nonlinear="no-nonlinear" not in tokens,
        noise="no-noise" not in tokens,
        omit_mu_tilde="omit-mu-tilde" in tokens,
    )


def _flags_to_tokens(flags: StepFlags) -> str:
    toks = []
    if not flags.linear:
        toks.append("no-linear")
    if not flags.nonlinear:
        toks.append("no-nonlinear")
    if not flags.noise:
        toks.append("no-noise")
    if flags.omit_mu_tilde:
        toks.append("omit-mu-tilde")
    return " ".join(toks)


def _section(parser, name):
    return parser[name] if parser.has_section(name) else {}


def _reject_unknown(section_name: str, section, allowed: set):
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in [{section_name}]")


def _require(section_name: str, section, key: str) -> str:
    if key not in section:
        raise ConfigError(f"missing required key {key!r} in [{section_name}]")
    return section[key]


def _value(section_name: str, section, key: str, convert, default: str | None = None):
    """convert(section[key]), falling back to `default` (required when None);
    a value convert rejects is a ConfigError naming the key."""
    text = _require(section_name, section, key) if default is None else section.get(key, default)
    try:
        return convert(text)
    except ValueError as exc:
        raise ConfigError(f"bad value {text!r} for {key!r} in [{section_name}]: {exc}") from exc


def parse_config(text: str) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    if not parser.has_section("problem"):
        raise ConfigError("missing required section [problem]")

    prob = parser["problem"]
    _reject_unknown("problem", prob, _PROBLEM_KEYS)
    d = _value("problem", prob, "d", int)
    n = _value("problem", prob, "n", int)
    length = _value("problem", prob, "l", _finite)
    alpha = _value("problem", prob, "alpha", _finite)
    lam = _value("problem", prob, "lambda", int)
    T = _value("problem", prob, "t", _finite)
    dt = _value("problem", prob, "dt", _finite)
    scheme = prob.get("scheme", "direct")
    if scheme not in _SCHEMES:
        raise ConfigError(f"scheme must be one of {_SCHEMES}, got {scheme!r}")
    kind = prob.get("initial", "gaussian")
    if kind not in _INITIAL_KINDS:
        raise ConfigError(f"initial must be one of {_INITIAL_KINDS}, got {kind!r}")
    default_amp = math.sqrt(2.0) if kind == "soliton" else 1.0
    initial = InitialSpec(
        kind=kind,
        amplitude=_value("problem", prob, "amplitude", _finite, repr(default_amp)),
        width=_value("problem", prob, "width", _finite, "1.0"),
        center=_pad3(_value("problem", prob, "center", _floats, "0 0 0")),
        kmode=_pad3(_value("problem", prob, "kmode", _ints, "1 0 0"), fill=0),
        path=prob.get("path", ""),
    )
    if kind == "file" and not initial.path:
        raise ConfigError("initial = file needs a 'path' key in [problem]")

    modes = []
    idx = 1
    for name in parser.sections():
        if not name.startswith("noise."):
            continue
        if name != f"noise.{idx}":
            raise ConfigError(f"noise sections must be consecutive; expected [noise.{idx}], found [{name}]")
        sec = parser[name]
        _reject_unknown(name, sec, _NOISE_KEYS)
        profile = _require(name, sec, "profile")
        if profile not in _PROFILES:
            raise ConfigError(f"profile must be one of {_PROFILES}, got {profile!r} in [{name}]")
        modes.append(ModeConfig(
            mu_re=_value(name, sec, "mu_re", _finite),
            mu_im=_value(name, sec, "mu_im", _finite),
            profile=profile,
            height=_value(name, sec, "height", _finite, "1.0"),
            width=_value(name, sec, "width", _finite, "1.0"),
            center=_pad3(_value(name, sec, "center", _floats, "0 0 0")),
            kmode=_pad3(_value(name, sec, "kmode", _ints, "1 0 0"), fill=0),
        ))
        idx += 1

    runsec = _section(parser, "run")
    _reject_unknown("run", runsec, _RUN_KEYS)
    run = RunSection(
        n_paths=_value("run", runsec, "m", int, "1"),
        seed=_value("run", runsec, "seed", int, "0"),
        stride=_value("run", runsec, "stride", int, "1"),
        out=runsec.get("out", "out"),
        h1_blowup_factor=_value("run", runsec, "h1_blowup_factor", _finite, "1e6"),
        spacetime_blowup_factor=_value("run", runsec, "spacetime_blowup_factor", _finite, "1e6"),
        flags=_flags_from_tokens(runsec.get("flags", "").split()),
        threads=_value("run", runsec, "threads", int, "0"),
    )

    versec = _section(parser, "verify")
    _reject_unknown("verify", versec, _VERIFY_KEYS)
    verify = VerifySection(
        levels=_value("verify", versec, "levels", int, "3"),
        paths=_value("verify", versec, "paths", int, "32"),
    )

    cfg = RunConfig(d, n, length, alpha, lam, T, dt, scheme, initial,
                    tuple(modes), run, verify)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig):
    if cfg.d not in (1, 2, 3):
        raise ConfigError(f"d must be 1, 2 or 3, got {cfg.d}")
    if cfg.lam not in (1, -1):
        raise ConfigError(f"lambda must be +1 or -1, got {cfg.lam}")
    if not (0 < cfg.T < math.inf and cfg.dt > 0):
        raise ConfigError("T and dt must be positive and finite")
    if cfg.dt > cfg.T:
        raise ConfigError(f"dt = {cfg.dt} exceeds the horizon T = {cfg.T}")
    if cfg.run.stride < 1 or cfg.run.n_paths < 1:
        raise ConfigError("stride and M must be >= 1")
    if cfg.run.threads < 0:
        raise ConfigError(f"threads must be >= 0 (0 = automatic), got {cfg.run.threads}")
    regime = classify(cfg.d, cfg.alpha, cfg.lam)
    if regime.tag == "out-of-range":
        raise ConfigError(
            f"out-of-range regime: d={cfg.d}, alpha={cfg.alpha}, lambda={cfg.lam}")


def serialize_config(cfg: RunConfig) -> str:
    buf = io.StringIO()
    w = buf.write
    w("[problem]\n")
    w(f"d = {cfg.d}\n")
    w(f"n = {cfg.n}\n")
    w(f"l = {cfg.length!r}\n")
    w(f"alpha = {cfg.alpha!r}\n")
    w(f"lambda = {cfg.lam}\n")
    w(f"t = {cfg.T!r}\n")
    w(f"dt = {cfg.dt!r}\n")
    w(f"scheme = {cfg.scheme}\n")
    w(f"initial = {cfg.initial.kind}\n")
    w(f"amplitude = {cfg.initial.amplitude!r}\n")
    w(f"width = {cfg.initial.width!r}\n")
    w(f"center = {' '.join(repr(c) for c in cfg.initial.center)}\n")
    w(f"kmode = {' '.join(str(k) for k in cfg.initial.kmode)}\n")
    w(f"path = {cfg.initial.path}\n")
    for i, mode in enumerate(cfg.modes, start=1):
        w(f"\n[noise.{i}]\n")
        w(f"mu_re = {mode.mu_re!r}\n")
        w(f"mu_im = {mode.mu_im!r}\n")
        w(f"profile = {mode.profile}\n")
        w(f"height = {mode.height!r}\n")
        w(f"width = {mode.width!r}\n")
        w(f"center = {' '.join(repr(c) for c in mode.center)}\n")
        w(f"kmode = {' '.join(str(k) for k in mode.kmode)}\n")
    w("\n[run]\n")
    w(f"m = {cfg.run.n_paths}\n")
    w(f"seed = {cfg.run.seed}\n")
    w(f"stride = {cfg.run.stride}\n")
    w(f"out = {cfg.run.out}\n")
    w(f"h1_blowup_factor = {cfg.run.h1_blowup_factor!r}\n")
    w(f"spacetime_blowup_factor = {cfg.run.spacetime_blowup_factor!r}\n")
    w(f"flags = {_flags_to_tokens(cfg.run.flags)}\n")
    w(f"threads = {cfg.run.threads}\n")
    w("\n[verify]\n")
    w(f"levels = {cfg.verify.levels}\n")
    w(f"paths = {cfg.verify.paths}\n")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# builders

def build_grid(cfg: RunConfig) -> Grid:
    return Grid(cfg.d, cfg.n, cfg.length)


def _profile_for(mode: ModeConfig):
    if mode.profile == "gaussian":
        return GaussianProfile(mode.height, mode.width, mode.center)
    if mode.profile == "constant":
        return ConstantProfile(mode.height)
    return CosineProfile(mode.height, mode.kmode)


def build_noise_model(cfg: RunConfig, grid: Grid) -> NoiseModel:
    modes = [NoiseMode(complex(m.mu_re, m.mu_im), _profile_for(m)) for m in cfg.modes]
    return build_model(modes, grid)


def build_problem(cfg: RunConfig) -> ProblemSpec:
    try:
        grid = build_grid(cfg)
        model = build_noise_model(cfg, grid)
    except ValueError as exc:
        raise ConfigError(f"cannot build the problem: {exc}") from exc
    return ProblemSpec(grid, model, cfg.alpha, cfg.lam, cfg.T)


def build_initial(cfg: RunConfig, grid: Grid) -> Field:
    ini = cfg.initial
    if ini.kind == "gaussian":
        r2 = np.zeros(grid.shape)
        for ax, mesh in enumerate(grid.meshes):
            r2 = r2 + (mesh - ini.center[ax]) ** 2
        return Field(grid, ini.amplitude * np.exp(-r2 / (2.0 * ini.width ** 2)))
    if ini.kind == "soliton":
        if grid.d != 1:
            raise ConfigError("the sech soliton datum is one-dimensional")
        xi = grid.meshes[0] - ini.center[0]
        return Field(grid, ini.amplitude / np.cosh(xi))
    if ini.kind == "plane-wave":
        phase = np.zeros(grid.shape)
        scale = 2.0 * np.pi / grid.length
        for ax, mesh in enumerate(grid.meshes):
            phase = phase + scale * ini.kmode[ax] * mesh
        return Field(grid, ini.amplitude * np.exp(1j * phase))
    fld, _t = read_snapshot(ini.path)
    if fld.grid != grid:
        raise ConfigError(
            f"snapshot grid {fld.grid} does not match the config grid {grid}")
    return fld


def solve_options(cfg: RunConfig, stride: int | None = None,
                  record_snapshots: bool = True) -> SolveOptions:
    return SolveOptions(
        stride=cfg.run.stride if stride is None else stride,
        record_snapshots=record_snapshots,
        flags=cfg.run.flags,
        thresholds=BlowupThresholds(cfg.run.h1_blowup_factor,
                                    cfg.run.spacetime_blowup_factor),
    )


# ---------------------------------------------------------------------------
# snapshot files

SNAPSHOT_MAGIC = b"SNLS"
SNAPSHOT_VERSION = 1
_HEADER = struct.Struct("<4sHHIdd")   # magic, version, d, n, L, t


class SnapshotError(ValueError):
    pass


def write_snapshot(path, field: Field, t: float):
    grid = field.grid
    payload = np.ascontiguousarray(field.values, dtype="<c16").reshape(-1)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, grid.d, grid.n,
                              grid.length, float(t)))
        fh.write(payload.tobytes())


def read_snapshot(path):
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise SnapshotError(f"{path}: truncated header")
        magic, version, d, n, length, t = _HEADER.unpack(header)
        if magic != SNAPSHOT_MAGIC:
            raise SnapshotError(f"{path}: bad magic {magic!r}")
        if version != SNAPSHOT_VERSION:
            raise SnapshotError(f"{path}: unsupported version {version}")
        payload = fh.read()
    expected = 16 * n ** d
    if len(payload) != expected:
        raise SnapshotError(
            f"{path}: payload is {len(payload)} bytes, expected {expected}")
    grid = Grid(d, n, length)
    values = np.frombuffer(payload, dtype="<c16").reshape(grid.shape)
    return Field(grid, values.astype(np.complex128)), t
