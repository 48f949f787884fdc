"""In-memory spans around calls into the snls layers, and numpy FFT counts.

A traced pass installs wrappers over public snls functions (module
attributes, so calls from inside the library resolve to them too) and over
the numpy FFT entry points.  Every wrapped call records one span (name,
start, end, parent); every FFT call is charged to the innermost open span.
A batched call counts once, as a batched "howmany" plan would.  Wrappers
only call through, so traced outputs are bit-identical to untraced ones.
"""

from __future__ import annotations

import functools
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

import snls.config
import snls.dynamics
import snls.functionals
import snls.identities
import snls.montecarlo
import snls.noise
import snls.spectral

# (module, attribute, span name): the calls the workloads make into each
# layer, plus the solver names montecarlo resolves for in-process paths.
TRACED = (
    (snls.config, "parse_config", "config.parse_config"),
    (snls.config, "build_problem", "config.build_problem"),
    (snls.config, "build_initial", "config.build_initial"),
    (snls.config, "write_snapshot", "config.write_snapshot"),
    (snls.config, "read_snapshot", "config.read_snapshot"),
    (snls.noise, "sample_path", "noise.sample_path"),
    (snls.noise, "refine_path", "noise.refine_path"),
    (snls.dynamics, "solve_direct", "dynamics.solve_direct"),
    (snls.dynamics, "solve_rescaled", "dynamics.solve_rescaled"),
    (snls.dynamics, "rescaled_to_X", "dynamics.rescaled_to_X"),
    (snls.montecarlo, "solve_direct", "dynamics.solve_direct"),
    (snls.montecarlo, "solve_rescaled", "dynamics.solve_rescaled"),
    (snls.montecarlo, "run_ensemble", "montecarlo.run_ensemble"),
    (snls.montecarlo, "martingale_test", "montecarlo.martingale_test"),
    (snls.montecarlo, "moment_monitor", "montecarlo.moment_monitor"),
    (snls.montecarlo.EnsembleReport, "to_csv", "montecarlo.to_csv"),
    (snls.identities, "mass_identity", "identities.mass"),
    (snls.identities, "hamiltonian_identity", "identities.hamiltonian"),
    (snls.identities, "lp_identity", "identities.lp"),
    (snls.identities, "h1_identity", "identities.h1"),
    (snls.identities.IdentityReport, "to_csv", "identities.to_csv"),
)

FFT_FUNCS = ("fft", "ifft", "fftn", "ifftn", "fft2", "ifft2",
             "rfft", "irfft", "rfftn", "irfftn")

SOLVER_SPANS = ("dynamics.solve_direct", "dynamics.solve_rescaled")
IDENTITY_SPANS = ("identities.mass", "identities.hamiltonian", "identities.lp",
                  "identities.h1")


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    ffts: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans kept in memory; `install` patches the layers, `remove` undoes it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, sid: int):
        self.spans[sid].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if name in SOLVER_SPANS:
                self.spans[sid].attrs["steps"] = len(out.times) - 1
            elif name in IDENTITY_SPANS:
                self.spans[sid].attrs["snapshots"] = len(out.times)
            elif name == "config.write_snapshot":
                self.spans[sid].attrs["bytes"] = os.path.getsize(args[0])
            return out
        return wrapper

    def _count_fft(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._stack:
                self.spans[self._stack[-1]].ffts += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        for owner, attr, name in TRACED:
            orig = owner.__dict__[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name))
        for attr in FFT_FUNCS:
            orig = getattr(np.fft, attr)
            self._saved.append((np.fft, attr, orig))
            setattr(np.fft, attr, self._count_fft(orig))

    def remove(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    # -- reductions -------------------------------------------------------

    def self_times(self) -> dict:
        """Span name -> summed self time (duration minus traced children)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        out: dict = {}
        for s, c in zip(self.spans, child):
            out[s.name] = out.get(s.name, 0.0) + s.duration - c
        return out

    def named(self, *names) -> list:
        return [s for s in self.spans if s.name in names]

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump([{"name": s.name, "start": s.start, "end": s.end,
                        "parent": s.parent, "ffts": s.ffts, **s.attrs}
                       for s in self.spans], fh)

