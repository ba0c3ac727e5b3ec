"""Spans around operations and around calls into the package's public
functions, recorded from outside the package.

`Tracer.instrument()` swaps each listed public function or method for a
timing wrapper in every `ostrovsky` module that holds it, so calls made
inside the package are seen too; `restore()` puts the originals back.
Spans are kept in memory as (id, parent, name, layer, start, end, note)
and written out once, at the end of a run; a note is a small number taken
from a call's arguments or result (a grid size, a step count).
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
import time

# layer (module) -> public functions and methods that get a span
PUBLIC = {
    "spectral": ("Field.from_samples", "Field.from_coeffs", "Field.samples",
                 "PhaseSymbol.table", "PhaseSymbol.derivative_table", "apply_multiplier",
                 "multiplier_table", "project_zero_mean", "dealias"),
    "norms": ("h_s_norm", "x_s_norm", "mixed_norm", "xsb_norm", "xtilde_sb_norm",
              "SpaceTimeField.spectral_table", "ModulationWeight.build", "window_bump"),
    "solver": ("evolve", "step", "hamiltonian", "nonlinear_term", "picard_iterate",
               "soliton_initial_data", "gaussian_bump", "scaled_to_h1"),
    "limits": ("rotation_limit_sweep", "gronwall_consistency_check", "xs_growth_monitor"),
    "kernel": ("kernel_eval", "region_decay_check", "stationary_ray_exponent",
               "kernel_mixed_norm"),
    "estimates": ("run_tag", "default_ensemble", "strichartz_ratio", "linfty_bounds_ratio",
                  "bilinear_ratio", "multilinear_ratio", "propagator_orbit",
                  "bilinear_weighted_product", "ratio_pair_for_tag", "Ensemble.draw"),
    "io": ("write_snapshot", "read_snapshot", "write_csv", "write_json", "svg_loglog"),
    "config": ("load_config", "parse_config_text", "RunManifest.write"),
    "cli": ("main",),
}
LAYERS = tuple(PUBLIC)
HARNESS = "bench"


class Tracer:
    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._swapped = []

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def begin(self, name: str, layer: str) -> list:
        stack = self._stack()
        span = [len(self.spans), stack[-1][0] if stack else None, name, layer,
                time.perf_counter(), None, None]
        self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: list):
        span[5] = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str, layer: str = HARNESS):
        span = self.begin(name, layer)
        try:
            yield span
        finally:
            self.end(span)

    def _wrap(self, fn, name: str, layer: str, note):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(span)
            if note is not None:
                span[6] = note(args, out)
            return out
        return traced

    def instrument(self, notes=None):
        """Wrap every function in PUBLIC.  notes maps a span name to
        f(args, result) whose value is stored on the span."""
        notes = notes or {}
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "ostrovsky" or n.startswith("ostrovsky."))]
        for layer, names in PUBLIC.items():
            home = sys.modules[f"ostrovsky.{layer}"]
            for dotted in names:
                name = f"{layer}.{dotted}"
                if "." in dotted:
                    cls_name, attr = dotted.split(".")
                    cls = getattr(home, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(raw.__func__, name, layer, notes.get(name)))
                    else:
                        new = self._wrap(raw, name, layer, notes.get(name))
                    self._swapped.append((cls, attr, raw))
                    setattr(cls, attr, new)
                    continue
                orig = getattr(home, dotted)
                new = self._wrap(orig, name, layer, notes.get(name))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._swapped.append((mod, key, orig))
                            setattr(mod, key, new)

    def restore(self):
        for owner, attr, orig in reversed(self._swapped):
            setattr(owner, attr, orig)
        self._swapped = []

    def write(self, path: str):
        with open(path, "w") as fh:
            fh.write("id,parent,name,layer,start_s,end_s,note\n")
            for sid, parent, name, layer, start, end, note in self.spans:
                fh.write(f"{sid},{'' if parent is None else parent},{name},{layer},"
                         f"{start!r},{end!r},{'' if note is None else note}\n")


def layer_times(spans: list, t0: float, t1: float) -> dict:
    """Busy and self seconds per layer for the spans inside [t0, t1].

    Self time is a span's duration minus its children's; busy time counts
    only the outermost span of a layer, so recursion into the same layer
    is not counted twice.
    """
    inside = [s for s in spans if s[4] >= t0 and s[5] is not None and s[5] <= t1]
    by_id = {s[0]: s for s in inside}
    child_time = {}
    for s in inside:
        if s[1] in by_id:
            child_time[s[1]] = child_time.get(s[1], 0.0) + (s[5] - s[4])
    busy = {layer: 0.0 for layer in LAYERS + (HARNESS,)}
    own = dict(busy)
    for s in inside:
        dur = s[5] - s[4]
        own[s[3]] += dur - child_time.get(s[0], 0.0)
        parent = by_id.get(s[1])
        nested = False
        while parent is not None:
            if parent[3] == s[3]:
                nested = True
                break
            parent = by_id.get(parent[1])
        if not nested:
            busy[s[3]] += dur
    # pass time outside every span is harness time too
    top = sum(s[5] - s[4] for s in inside if s[1] not in by_id)
    own[HARNESS] += (t1 - t0) - top
    return {"busy": busy, "self": own}


def named(spans: list, name: str, t0: float, t1: float) -> list:
    """Finished spans called name inside [t0, t1]."""
    return [s for s in spans
            if s[2] == name and s[4] >= t0 and s[5] is not None and s[5] <= t1]
