"""Run configuration (INI-style key = value sections), field snapshots and CSV tables.

The format is one table of rows per section, read by parse_config and
serialize_config alike: parse(serialize(cfg)) == cfg.  Out-of-range exponent
choices fail at parse time (regimes are classified eagerly), before any compute.

Snapshot files are little-endian binary: magic "SNLS", version u16, d u16,
n u32, L f64, t f64, then n^d complex values as (re, im) float64 pairs in
row-major order (payload is exactly 16 * n^d bytes).
"""

from __future__ import annotations

import configparser
import math
import struct
from dataclasses import dataclass

import numpy as np

from .dynamics import (BlowupThresholds, ProblemSpec, Regime, SolveOptions,
                       StepFlags, classify)
from .noise import (ConstantProfile, CosineProfile, GaussianProfile,
                    NoiseMode, NoiseModel, build_model, plane_wave_phase)
from .spectral import Field, Grid


class ConfigError(ValueError):
    pass


_SCHEMES = ("direct", "rescaled", "both")
_INITIAL_KINDS = ("gaussian", "soliton", "plane-wave", "file")
# [noise.k] profile -> its noise profile, built from the section's ModeConfig
_PROFILES = {"gaussian": lambda m: GaussianProfile(m.height, m.width, m.center),
             "constant": lambda m: ConstantProfile(m.height),
             "cosine": lambda m: CosineProfile(m.height, m.kmode)}
# flag token -> the StepFlags field it sets: a "no-" token turns its substep off
_FLAG_TOKENS = {"no-linear": "linear", "no-nonlinear": "nonlinear", "no-noise": "noise",
                "omit-mu-tilde": "omit_mu_tilde"}


@dataclass(frozen=True)
class InitialSpec:
    kind: str
    amplitude: float | None = None    # None: sqrt(2) for the soliton, 1 otherwise
    width: float = 1.0
    center: tuple = (0.0, 0.0, 0.0)
    kmode: tuple = (1, 0, 0)
    path: str = ""

    def __post_init__(self):
        if self.amplitude is None:      # sqrt(2) sech(x) solves the focusing cubic NLS
            object.__setattr__(self, "amplitude", math.sqrt(2.0) if self.kind == "soliton" else 1.0)


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

    def __post_init__(self):   # noise streams are keyed on 64 bits: a wider seed would alias
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError(f"seed {self.seed} is outside [0, 2**64)")


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
        return max(1, int(round(self.T / self.dt)))

    @property
    def regime(self) -> Regime:
        return classify(self.d, self.alpha, self.lam)


# ---------------------------------------------------------------------------
# the format: one table of (key, attribute, kind, default) rows per section.
# A kind is a (convert text, format value) pair; a ValueError from convert is
# a bad value.  The default is _REQUIRED, None (the dataclass default) or the
# value itself, given only where the dataclass field has no default.

def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _flags(text: str) -> StepFlags:
    tokens = text.split()
    for tok in tokens:
        if tok not in _FLAG_TOKENS:
            raise ValueError(f"unknown flag token {tok!r} (allowed: {tuple(_FLAG_TOKENS)})")
    return StepFlags(**{attr: (tok in tokens) != tok.startswith("no-")
                        for tok, attr in _FLAG_TOKENS.items()})


def _triple(convert, fmt, fill):
    """Up to three space-separated values, padded with `fill` to three."""
    def parse(text: str) -> tuple:
        values = tuple(convert(tok) for tok in text.split())
        if len(values) > 3:
            raise ValueError(f"at most three values, got {len(values)}")
        return values + (fill,) * (3 - len(values))
    return parse, lambda vals: " ".join(fmt(v) for v in vals)


def _checked(kind, ok, rule: str):
    """`kind`, but a value with not ok(value) is a bad value: it must be `rule`."""
    convert, fmt = kind

    def check(text: str):
        value = convert(text)
        if not ok(value):
            raise ValueError(f"must be {rule}")
        return value
    return check, fmt


def _one_of(choices: tuple):
    return _checked(_STR, choices.__contains__, f"one of {choices}")


_INT = (int, str)
_FLOAT = (_finite, repr)
_STR = (str, str)
_AT_LEAST_1 = _checked(_INT, lambda v: v >= 1, ">= 1")
_POSITIVE = _checked(_FLOAT, lambda v: v > 0, "positive")
_FLOATS3 = _triple(_finite, repr, 0.0)
_INTS3 = _triple(int, str, 0)
_FLAGS = (_flags, lambda flags: " ".join(tok for tok, attr in _FLAG_TOKENS.items()
                                         if getattr(flags, attr) != tok.startswith("no-")))
_REQUIRED = object()

_SHAPE = (("width", "width", _FLOAT, None),
          ("center", "center", _FLOATS3, None),
          ("kmode", "kmode", _INTS3, None))
_PROBLEM = (("d", "d", _checked(_INT, (1, 2, 3).__contains__, "1, 2 or 3"), _REQUIRED),
            ("n", "n", _INT, _REQUIRED),
            ("l", "length", _FLOAT, _REQUIRED),
            ("alpha", "alpha", _FLOAT, _REQUIRED),
            ("lambda", "lam", _checked(_INT, (1, -1).__contains__, "+1 or -1"), _REQUIRED),
            ("t", "T", _POSITIVE, _REQUIRED),
            ("dt", "dt", _POSITIVE, _REQUIRED),
            ("scheme", "scheme", _one_of(_SCHEMES), "direct"))
_INITIAL = ((("initial", "kind", _one_of(_INITIAL_KINDS), "gaussian"),
             ("amplitude", "amplitude", _FLOAT, None))
            + _SHAPE + (("path", "path", _STR, None),))
_NOISE = ((("mu_re", "mu_re", _FLOAT, _REQUIRED),
           ("mu_im", "mu_im", _FLOAT, _REQUIRED),
           ("profile", "profile", _one_of(tuple(_PROFILES)), _REQUIRED),
           ("height", "height", _FLOAT, None))
          + _SHAPE)
_RUN = (("m", "n_paths", _AT_LEAST_1, None),
        ("seed", "seed", _INT, None),
        ("stride", "stride", _AT_LEAST_1, None),
        ("out", "out", _STR, None),
        ("h1_blowup_factor", "h1_blowup_factor", _FLOAT, None),
        ("spacetime_blowup_factor", "spacetime_blowup_factor", _FLOAT, None),
        ("flags", "flags", _FLAGS, None),
        ("threads", "threads", _checked(_INT, lambda v: v >= 0, ">= 0 (0 = automatic)"), None))
_VERIFY = (("levels", "levels", _AT_LEAST_1, None),
           ("paths", "paths", _AT_LEAST_1, None))
# [problem] sets RunConfig's fields (_PROBLEM) and InitialSpec's (_INITIAL)
_SCHEMA = {"problem": _PROBLEM + _INITIAL, "noise.k": _NOISE, "run": _RUN, "verify": _VERIFY}
_PROBLEM_KEYS, _NOISE_KEYS, _RUN_KEYS, _VERIFY_KEYS = (
    {row[0] for row in rows} for rows in _SCHEMA.values())


def _read(name: str, section, rows) -> dict:
    """{attribute: value} of each row whose key `section` sets or whose row
    gives a default; other rows keep their dataclass default.  An unknown or
    missing required key, or a value its kind rejects, is a ConfigError
    naming the key and the section."""
    for key in section:
        if not any(key == row[0] for row in rows):
            raise ConfigError(f"unknown key {key!r} in [{name}]")
    values = {}
    for key, attr, (convert, _), default in rows:
        if key in section:
            text = section[key]
            try:
                values[attr] = convert(text)
            except ValueError as exc:
                raise ConfigError(f"bad value {text!r} for {key!r} in [{name}]: {exc}") from exc
        elif default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r} in [{name}]")
        elif default is not None:
            values[attr] = default
    return values


def _write(obj, rows) -> str:
    return "".join(f"{key} = {fmt(getattr(obj, attr))}\n" for key, attr, (_, fmt), _ in rows)


def parse_config(text: str) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    if not parser.has_section("problem"):
        raise ConfigError("missing required section [problem]")
    optional = {n: parser[n] if parser.has_section(n) else {} for n in ("run", "verify")}
    problem = _read("problem", parser["problem"], _SCHEMA["problem"])
    initial = InitialSpec(**{attr: problem.pop(attr) for _, attr, _, _ in _INITIAL
                             if attr in problem})
    noise = [name for name in parser.sections() if name.startswith("noise.")]
    for idx, name in enumerate(noise, start=1):
        if name != f"noise.{idx}":
            raise ConfigError(f"noise sections must be consecutive; expected [noise.{idx}], found [{name}]")
    cfg = RunConfig(**problem, initial=initial,
                    modes=tuple(ModeConfig(**_read(name, parser[name], _NOISE)) for name in noise),
                    run=RunSection(**_read("run", optional["run"], _RUN)),
                    verify=VerifySection(**_read("verify", optional["verify"], _VERIFY)))
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig):
    """The rules that span keys; each key's own rule is its row's kind."""
    if cfg.dt > cfg.T:
        raise ConfigError(f"dt = {cfg.dt} exceeds the horizon T = {cfg.T}")
    if not cfg.T / cfg.dt <= np.iinfo(np.intp).max:
        raise ConfigError(f"dt = {cfg.dt} gives T/dt = {cfg.T / cfg.dt:.6g} steps: "
                          f"more than numpy can index")
    if cfg.initial.kind == "file" and not cfg.initial.path:
        raise ConfigError("initial = file needs a 'path' key in [problem]")
    if cfg.regime.tag == "out-of-range":
        raise ConfigError(f"out-of-range regime: d={cfg.d}, alpha={cfg.alpha}, lambda={cfg.lam}")


def check_levels(cfg: RunConfig, levels: int):
    """ConfigError if the finest of `levels` dt levels has more steps than numpy can index."""
    if cfg.n_steps > np.iinfo(np.intp).max >> (levels - 1):
        raise ConfigError(f"dt = {cfg.dt} with [verify] levels = {cfg.verify.levels}: the finest "
                          f"of {levels} levels has 2**{levels - 1} * {cfg.n_steps} steps, "
                          f"more than numpy can index")


def serialize_config(cfg: RunConfig) -> str:
    text = "[problem]\n" + _write(cfg, _PROBLEM) + _write(cfg.initial, _INITIAL)
    for i, mode in enumerate(cfg.modes, start=1):
        text += f"\n[noise.{i}]\n" + _write(mode, _NOISE)
    return text + "\n[run]\n" + _write(cfg.run, _RUN) + "\n[verify]\n" + _write(cfg.verify, _VERIFY)


# ---------------------------------------------------------------------------
# builders

def build_grid(cfg: RunConfig) -> Grid:
    return Grid(cfg.d, cfg.n, cfg.length)


def build_noise_model(cfg: RunConfig, grid: Grid) -> NoiseModel:
    modes = [NoiseMode(complex(m.mu_re, m.mu_im), _PROFILES[m.profile](m)) for m in cfg.modes]
    return build_model(modes, grid)


def build_problem(cfg: RunConfig) -> ProblemSpec:
    try:
        grid = build_grid(cfg)
        model = build_noise_model(cfg, grid)
    except ValueError as exc:
        raise ConfigError(f"cannot build the problem: {exc}") from exc
    return ProblemSpec(grid, model, cfg.alpha, cfg.lam, cfg.T)


@np.errstate(all="ignore")   # a datum that overflows or divides by zero is rejected below
def build_initial(cfg: RunConfig, grid: Grid) -> Field:
    ini = cfg.initial
    if ini.kind == "gaussian":
        values = GaussianProfile(ini.amplitude, ini.width, ini.center).evaluate(grid)
    elif ini.kind == "soliton":
        if grid.d != 1:
            raise ConfigError("the sech soliton datum is one-dimensional")
        values = ini.amplitude / np.cosh(grid.meshes[0] - ini.center[0])
    elif ini.kind == "plane-wave":
        values = ini.amplitude * np.exp(1j * plane_wave_phase(grid, ini.kmode))
    else:
        fld, _t = read_snapshot(ini.path)
        if fld.grid != grid:
            raise ConfigError(f"snapshot grid {fld.grid} does not match the config grid {grid}")
        values = fld.values
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"initial datum {ini.kind!r} is non-finite on the grid")
    return Field(grid, values)


def solve_options(cfg: RunConfig, stride: int | None = None,
                  record_snapshots: bool = True) -> SolveOptions:
    return SolveOptions(stride=cfg.run.stride if stride is None else stride,
                        record_snapshots=record_snapshots, flags=cfg.run.flags,
                        thresholds=BlowupThresholds(cfg.run.h1_blowup_factor,
                                                    cfg.run.spacetime_blowup_factor))


# ---------------------------------------------------------------------------
# output files: field snapshots and CSV tables

SNAPSHOT_MAGIC = b"SNLS"
SNAPSHOT_VERSION = 1
_HEADER = struct.Struct("<4sHHIdd")   # magic, version, d, n, L, t
TABLE_BLOCK_ROWS = 64   # rows made Python numbers at a time: a long table makes no list of them


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


def write_table(path, columns: dict, comment: str = ""):
    """A CSV of `columns` (name -> values): a `# comment` line if given, the names, then one row
    per index, each value the repr of np.asarray(values).tolist()'s entry (ints stay ints)."""
    cols = [np.asarray(values) for values in columns.values()]
    with open(path, "w") as fh:
        fh.write((f"# {comment}\n" if comment else "") + ",".join(columns) + "\n")
        for a in range(0, min(map(len, cols)), TABLE_BLOCK_ROWS):
            rows = zip(*(col[a:a + TABLE_BLOCK_ROWS].tolist() for col in cols))
            fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)
