import hashlib
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import snls.config
from snls.config import (_NOISE_KEYS, _PROBLEM_KEYS, _REQUIRED, _RUN_KEYS, _SCHEMA,
                         _VERIFY_KEYS, ConfigError, InitialSpec, ModeConfig, RunConfig,
                         RunSection, SnapshotError, VerifySection,
                         build_initial, build_noise_model, build_problem,
                         build_grid, parse_config, read_snapshot,
                         serialize_config, write_snapshot, write_table)
from snls.dynamics import StepFlags
from snls.spectral import Field, Grid

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "configs").glob("*.cfg"))

MINIMAL = """
[problem]
d = 1
n = 64
L = 16.0
alpha = 3.0
lambda = -1
T = 0.5
dt = 1e-3
"""


class TestParse:
    def test_minimal_config_fills_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.run.stride == 1
        assert cfg.run.n_paths == 1
        assert cfg.scheme == "direct"
        assert cfg.initial.kind == "gaussian"
        assert cfg.modes == ()
        assert cfg.n_steps == 500

    def test_out_of_range_regime_rejected_eagerly(self):
        text = MINIMAL.replace("d = 1", "d = 3").replace("alpha = 3.0", "alpha = 7.0") \
                      .replace("lambda = -1", "lambda = 1")
        with pytest.raises(ConfigError, match="out-of-range"):
            parse_config(text)

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="frobnicate"):
            parse_config(MINIMAL + "frobnicate = 3\n")

    def test_missing_required_key_named(self):
        with pytest.raises(ConfigError, match="'alpha'"):
            parse_config(MINIMAL.replace("alpha = 3.0", ""))

    def test_noise_sections(self):
        text = MINIMAL + """
[noise.1]
mu_re = 1.0
mu_im = 0.0
profile = gaussian
height = 0.5
width = 4.0

[noise.2]
mu_re = 0.0
mu_im = 0.7
profile = constant
"""
        cfg = parse_config(text)
        assert len(cfg.modes) == 2
        assert cfg.modes[1].mu_im == 0.7
        model = build_noise_model(cfg, build_grid(cfg))
        assert model.n_modes == 2
        assert not model.conservative

    def test_nonconsecutive_noise_sections_rejected(self):
        text = MINIMAL + "\n[noise.2]\nmu_re = 1.0\nmu_im = 0.0\nprofile = constant\n"
        with pytest.raises(ConfigError, match="noise.1"):
            parse_config(text)

    def test_bad_flag_token(self):
        with pytest.raises(ConfigError, match="flag token"):
            parse_config(MINIMAL + "\n[run]\nflags = no-such-thing\n")

    def test_flags_parse(self):
        cfg = parse_config(MINIMAL + "\n[run]\nflags = no-noise omit-mu-tilde\n")
        assert cfg.run.flags == StepFlags(noise=False, omit_mu_tilde=True)

    def test_soliton_default_amplitude(self):
        cfg = parse_config(MINIMAL.replace("lambda = -1", "lambda = 1")
                           + "initial = soliton\n")
        assert cfg.initial.amplitude == pytest.approx(math.sqrt(2.0))

    def test_dt_bigger_than_horizon_rejected(self):
        with pytest.raises(ConfigError, match="dt"):
            parse_config(MINIMAL.replace("dt = 1e-3", "dt = 2.0"))

    @pytest.mark.parametrize("extra", ["amplitude = nan\n", "center = 0 -inf 0\n",
                                       "\n[run]\nh1_blowup_factor = 1e400\n"],
                             ids=["amplitude", "center", "h1_blowup_factor"])
    def test_non_finite_value_rejected(self, extra):
        with pytest.raises(ConfigError, match="not a finite number"):
            parse_config(MINIMAL + extra)

    def test_negative_threads_rejected(self):
        with pytest.raises(ConfigError, match="threads"):
            parse_config(MINIMAL + "\n[run]\nthreads = -1\n")

    @pytest.mark.parametrize("verify", ["levels = 0\n", "paths = -4\n",
                                        "levels = 0\npaths = -4\n"],
                             ids=["levels", "paths", "both"])
    def test_verify_values_below_one_rejected(self, verify):
        with pytest.raises(ConfigError, match=r"'(levels|paths)' in \[verify\]: must be >= 1"):
            parse_config(MINIMAL + "\n[verify]\n" + verify)

    @pytest.mark.parametrize("text,key,section", [
        (MINIMAL + "width = wide\n", "width", "problem"),
        (MINIMAL + "scheme = implicit\n", "scheme", "problem"),
        (MINIMAL.replace("dt = 1e-3\n", ""), "dt", "problem"),
        (MINIMAL + "\n[noise.1]\nmu_re = 1.0\nmu_im = 0.0\nprofile = plaid\n", "profile", "noise.1"),
        (MINIMAL + "\n[noise.1]\nmu_re = 1.0\nprofile = constant\n", "mu_im", "noise.1"),
        (MINIMAL + "\n[run]\nthreads = two\n", "threads", "run"),
        (MINIMAL + "\n[verify]\nrungs = 3\n", "rungs", "verify"),
        (MINIMAL + "center = 1 2 3 4\n", "center", "problem"),
        (MINIMAL + "\n[noise.1]\nmu_re = 1.0\nmu_im = 0.0\nprofile = cosine\nkmode = 1 0 0 7\n",
         "kmode", "noise.1"),
    ], ids=["bad-float", "bad-choice", "missing", "bad-profile", "missing-noise", "bad-int",
            "unknown", "four-floats", "four-ints"])
    def test_error_names_key_and_section(self, text, key, section):
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert f"{key!r}" in str(info.value) and f"[{section}]" in str(info.value)


def config_strategy():
    floats = st.floats(min_value=0.1, max_value=8.0, allow_nan=False)
    mode = st.builds(
        ModeConfig,
        mu_re=st.floats(min_value=-2, max_value=2, allow_nan=False),
        mu_im=st.floats(min_value=-2, max_value=2, allow_nan=False),
        profile=st.sampled_from(["gaussian", "constant", "cosine"]),
        height=floats,
        width=floats,
        center=st.tuples(*[st.floats(min_value=-3, max_value=3, allow_nan=False)] * 3),
        kmode=st.tuples(*[st.integers(min_value=-4, max_value=4)] * 3),
    )
    return st.builds(
        RunConfig,
        d=st.sampled_from([1, 2]),
        n=st.sampled_from([8, 16, 64]),
        length=floats,
        alpha=st.floats(min_value=1.1, max_value=2.9, allow_nan=False),
        lam=st.sampled_from([1, -1]),
        T=st.floats(min_value=0.1, max_value=2.0, allow_nan=False),
        dt=st.floats(min_value=1e-4, max_value=0.05, allow_nan=False),
        scheme=st.sampled_from(["direct", "rescaled", "both"]),
        initial=st.builds(
            InitialSpec,
            kind=st.sampled_from(["gaussian", "plane-wave"]),
            amplitude=floats,
            width=floats,
            center=st.tuples(*[st.floats(min_value=-2, max_value=2, allow_nan=False)] * 3),
            kmode=st.tuples(*[st.integers(min_value=0, max_value=3)] * 3),
            path=st.just(""),
        ),
        modes=st.lists(mode, max_size=3).map(tuple),
        run=st.builds(
            RunSection,
            n_paths=st.integers(min_value=1, max_value=64),
            seed=st.integers(min_value=0, max_value=2 ** 63 - 1),
            stride=st.integers(min_value=1, max_value=10),
            out=st.sampled_from(["out", "results/a", "tmp_dir"]),
            h1_blowup_factor=st.floats(min_value=2, max_value=1e7, allow_nan=False),
            spacetime_blowup_factor=st.floats(min_value=2, max_value=1e7, allow_nan=False),
            flags=st.builds(StepFlags, linear=st.booleans(), nonlinear=st.booleans(),
                            noise=st.booleans(), omit_mu_tilde=st.booleans()),
            threads=st.integers(min_value=0, max_value=8),
        ),
        verify=st.builds(VerifySection,
                         levels=st.integers(min_value=1, max_value=5),
                         paths=st.integers(min_value=1, max_value=64)),
    )


class TestRoundTrip:
    @given(config_strategy())
    @settings(max_examples=100, deadline=None)
    def test_serialize_parse_roundtrip(self, cfg):
        assert parse_config(serialize_config(cfg)) == cfg


KNOWN_KEYS = {"problem": sorted(_PROBLEM_KEYS), "noise.1": sorted(_NOISE_KEYS),
              "noise.2": sorted(_NOISE_KEYS), "run": sorted(_RUN_KEYS),
              "verify": sorted(_VERIFY_KEYS)}
VALUE_TEXT = st.one_of(
    st.sampled_from(["0", "1", "-1", "2", "3", "64", "60", "0.5", "1e-3", "16.0", "-0.0",
                     "nan", "inf", "-inf", "1e400", "", "direct", "both", "soliton",
                     "plane-wave", "file", "constant", "cosine", "no-noise omit-mu-tilde",
                     "1 0 0", "2 0", "0.5 nan 1"]),
    st.integers(min_value=-3, max_value=2 ** 70).map(str),
    st.floats().map(repr),
    st.text(alphabet="abcdefxyz0123456789 .-+e_/", max_size=10))


GOOD_VALUE = {"d": "1", "n": "16", "l": "16.0", "alpha": "3.0", "lambda": "-1", "t": "0.5",
              "dt": "1e-3", "scheme": "both", "initial": "plane-wave", "amplitude": "0.5",
              "width": "2.0", "center": "1 0", "kmode": "2 0 0", "path": "x.bin",
              "mu_re": "1.0", "mu_im": "0.5", "profile": "cosine", "height": "0.5",
              "m": "4", "seed": "7", "stride": "2", "out": "res", "h1_blowup_factor": "10",
              "spacetime_blowup_factor": "10", "flags": "no-noise", "threads": "2",
              "levels": "2", "paths": "4"}
REQUIRED = {"problem": ("d", "n", "l", "alpha", "lambda", "t", "dt"),
            "noise.1": ("mu_re", "mu_im", "profile"), "noise.2": ("mu_re", "mu_im", "profile"),
            "run": (), "verify": ()}


@st.composite
def config_texts(draw):
    """Key/value text over the known sections: the required keys with good
    values, then random keys set to good or random values, at times a key
    dropped, sections in random order."""
    names = (["problem"] + draw(st.sampled_from([[], ["noise.1"], ["noise.1", "noise.2"]]))
             + draw(st.lists(st.sampled_from(["run", "verify"]), unique=True)))
    sections = {name: {key: GOOD_VALUE[key] for key in REQUIRED[name]} for name in names}
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        name = draw(st.sampled_from(names))
        key = draw(st.sampled_from(KNOWN_KEYS[name]))
        sections[name][key] = draw(st.one_of(st.just(GOOD_VALUE[key]), VALUE_TEXT))
    name = draw(st.sampled_from(names))
    if sections[name] and draw(st.integers(min_value=0, max_value=7)) == 0:
        sections[name].pop(draw(st.sampled_from(sorted(sections[name]))))
    order = draw(st.permutations(names))
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in sections[name].items())
                   for name in order)


# sha256 of serialize_config(parse_config(text)) per shipped config: a change
# to the written format (key names, order, number formatting) shows here
FORMAT_SHA256 = {
    "bench/configs/ensemble-1d.cfg": "7b0aa21c9a2691d78a1dd3a61b8a21c0a44218eaf3edb10ede383272d65b61ad",
    "bench/configs/exact-1d.cfg": "b6d7814fa0fc9febaeddf65ecaab05b2055a0b70e68ec1cac50393d839213f0b",
    "bench/configs/identities-1d.cfg": "f27f08092d4753e0b2f0dc61dfff61449d53ff23b9c769e5ba9bc50e9beaa8bb",
    "bench/configs/schemes-2d.cfg": "72c3e88feb1929bba4b0ed3b4fcd413c7108a8ce32ef1ed286987fedb66481c5",
    "configs/blowup.cfg": "c3be72e4bb0fbfaaf427eb29db43456777179f5998f03484f00d70d424fc7df4",
    "configs/conservative.cfg": "b92dd88d5f55bb2f61f49e0fab65bbb0f8c549904a7fde5292f98a8c42ee999e",
    "configs/conservative_exact.cfg": "8422d01782036750f277b5ff6394b99c0c83415add82ddf40a152383ac21751f",
    "configs/identities.cfg": "28be6aa818390aa488ef4017b2bd9e089c418258f27beff6c1a2f9062ebf81cb",
    "configs/martingale.cfg": "57d30c7d62f62dadd1155a494e80d877beead3b654205165b126c742c8d4ca33",
    "configs/soliton.cfg": "7d75bcf616b61aa3f6859af2648acd62fd3c15d068260d85e66605419919f479",
}


class TestFormat:
    def test_every_shipped_config_is_pinned(self):
        shipped = CONFIGS + sorted((ROOT / "bench" / "configs").glob("*.cfg"))
        assert sorted(str(p.relative_to(ROOT)) for p in shipped) == sorted(FORMAT_SHA256)

    @pytest.mark.parametrize("name", sorted(FORMAT_SHA256))
    def test_serialized_text_is_pinned(self, name):
        text = serialize_config(parse_config((ROOT / name).read_text()))
        assert hashlib.sha256(text.encode()).hexdigest() == FORMAT_SHA256[name]

    def test_readme_config_keys_table_is_the_schema(self):
        """The README table lists every schema row in order, with the default
        a config without the key gets ("required" where it has none)."""
        cfg = parse_config(MINIMAL + "\n[noise.1]\nmu_re = 1.0\nmu_im = 0.0\nprofile = constant\n")
        owners = {"problem": (cfg, cfg.initial), "noise.k": cfg.modes, "run": (cfg.run,),
                  "verify": (cfg.verify,)}
        expected = []
        for section, rows in _SCHEMA.items():
            for key, attr, (_, fmt), default in rows:
                if default is _REQUIRED:
                    expected.append((section, key, "required"))
                    continue
                (owner,) = [o for o in owners[section] if hasattr(o, attr)]
                expected.append((section, key, fmt(getattr(owner, attr))))
        readme = (ROOT / "README.md").read_text()
        table = re.findall(r"^\| `\[(.+?)\]` \| `(\w+)` \| .* \| (.+) \|$", readme, re.M)
        cell = {"required": "required", "empty": ""}
        listed = [(section, key, cell[default] if default in cell
                   else re.match(r"`([^`]*)`", default).group(1))
                  for section, key, default in table]
        assert listed == expected


class TestFailClosed:
    @given(config_texts())
    @settings(max_examples=300, deadline=None)
    def test_text_parses_and_round_trips_or_is_a_config_error(self, text):
        try:
            cfg = parse_config(text)
        except ConfigError:
            return
        assert parse_config(serialize_config(cfg)) == cfg


class TestInitialData:
    def test_gaussian(self):
        cfg = parse_config(MINIMAL + "amplitude = 2.0\nwidth = 1.5\n")
        grid = build_grid(cfg)
        x = build_initial(cfg, grid)
        xi = grid.meshes[0]
        assert np.max(np.abs(x.values - 2.0 * np.exp(-xi ** 2 / (2 * 1.5 ** 2)))) <= 1e-14

    def test_soliton(self):
        cfg = parse_config(MINIMAL.replace("lambda = -1", "lambda = 1")
                           + "initial = soliton\n")
        grid = build_grid(cfg)
        x = build_initial(cfg, grid)
        xi = grid.meshes[0]
        assert np.max(np.abs(x.values - np.sqrt(2.0) / np.cosh(xi))) <= 1e-14

    def test_plane_wave_is_on_grid(self):
        cfg = parse_config(MINIMAL + "initial = plane-wave\nkmode = 2 0 0\n")
        grid = build_grid(cfg)
        x = build_initial(cfg, grid)
        xhat = np.fft.fft(x.values)
        live = np.zeros_like(xhat)
        live[2] = xhat[2]
        assert np.max(np.abs(xhat - live)) <= 1e-10 * np.max(np.abs(xhat))

    def test_file_initial_roundtrip(self, tmp_path):
        grid = Grid(1, 64, 16.0)
        xi = grid.meshes[0]
        orig = Field(grid, np.exp(-xi ** 2) * np.exp(1j * xi))
        snap = tmp_path / "x.bin"
        write_snapshot(snap, orig, 0.0)
        cfg = parse_config(MINIMAL + f"initial = file\npath = {snap}\n")
        x = build_initial(cfg, build_grid(cfg))
        assert np.array_equal(x.values, orig.values)

    @pytest.mark.parametrize("kind", ["zero-width", "nan-snapshot"])
    def test_non_finite_datum_is_an_error(self, tmp_path, kind):
        # a width-0 gaussian is 0/0 = nan at the centre, a grid point
        noise = "\n[noise.1]\nmu_re = 1.0\nmu_im = 0.0\nprofile = gaussian\n"
        if kind == "zero-width":
            cfg = parse_config(MINIMAL + "width = 0.0\n" + noise)
        else:
            grid = Grid(1, 64, 16.0)
            values = np.exp(-grid.meshes[0] ** 2).astype(np.complex128)
            values[7] = np.nan
            write_snapshot(tmp_path / "x.bin", Field(grid, values), 0.0)
            cfg = parse_config(MINIMAL + f"initial = file\npath = {tmp_path / 'x.bin'}\n" + noise)
        with pytest.raises(ConfigError, match="non-finite"):
            build_initial(cfg, build_problem(cfg).grid)

    def test_file_grid_mismatch(self, tmp_path):
        grid = Grid(1, 128, 16.0)
        snap = tmp_path / "x.bin"
        write_snapshot(snap, Field(grid, np.zeros(grid.shape)), 0.0)
        cfg = parse_config(MINIMAL + f"initial = file\npath = {snap}\n")
        with pytest.raises(ConfigError, match="grid"):
            build_initial(cfg, build_grid(cfg))


class TestSnapshots:
    @pytest.mark.parametrize("grid", [Grid(1, 64, 16.0), Grid(2, 16, 4.0),
                                      Grid(3, 8, 2.0)])
    def test_roundtrip_exact(self, tmp_path, grid):
        gen = np.random.Generator(np.random.Philox(key=[5, 6]))
        u = Field(grid, gen.standard_normal(grid.shape)
                  + 1j * gen.standard_normal(grid.shape))
        p = tmp_path / "snap.bin"
        write_snapshot(p, u, 1.25)
        v, t = read_snapshot(p)
        assert t == 1.25
        assert v.grid == grid
        assert np.array_equal(v.values, u.values)

    def test_payload_length(self, tmp_path):
        grid = Grid(1, 64, 16.0)
        p = tmp_path / "snap.bin"
        write_snapshot(p, Field(grid, np.zeros(grid.shape)), 0.0)
        raw = p.read_bytes()
        assert raw[:4] == b"SNLS"
        assert len(raw) == 28 + 16 * 64

    def test_truncated_payload_rejected(self, tmp_path):
        grid = Grid(1, 64, 16.0)
        p = tmp_path / "snap.bin"
        write_snapshot(p, Field(grid, np.zeros(grid.shape)), 0.0)
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(SnapshotError, match="payload"):
            read_snapshot(p)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "snap.bin"
        p.write_bytes(b"XXXX" + bytes(100))
        with pytest.raises(SnapshotError, match="magic"):
            read_snapshot(p)


class TestTables:
    @pytest.mark.parametrize("block", [3, 64])
    def test_values_are_the_reprs_of_python_numbers(self, tmp_path, monkeypatch, block):
        # written a block of rows at a time, each value as the hand loop wrote it: ints as ints
        monkeypatch.setattr(snls.config, "TABLE_BLOCK_ROWS", block)
        x = np.array([0.1, -0.0, np.nan, np.inf, 1e16, 1e-7, -2.5, 1e15, 3.0, 1 / 3])
        write_table(tmp_path / "t.csv", {"level": list(range(10)), "x": x}, comment="note")
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert lines[:2] == ["# note", "level,x"]
        assert lines[2:] == [f"{i},{float(v)!r}" for i, v in enumerate(x)]


class TestBuildProblem:
    def test_spec_assembled(self):
        cfg = parse_config(MINIMAL + """
[noise.1]
mu_re = 0.0
mu_im = 1.0
profile = gaussian
""")
        spec = build_problem(cfg)
        assert spec.grid.n == 64
        assert spec.model.conservative
        assert spec.regime.tag == "defocusing-subcritical"


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_shipped_config_builds(path):
    cfg = parse_config(path.read_text())
    spec = build_problem(cfg)
    x = build_initial(cfg, spec.grid)
    assert x.grid == spec.grid
