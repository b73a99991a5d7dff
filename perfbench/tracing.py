"""Per-module tracing of ergospectra from outside the package.

Tracer.install() wraps public functions of each module in spans and a
few private chokepoints in counters.  A wrapper replaces the function
in every ergospectra module namespace that holds it, so calls made
through `from .x import f` are seen too; uninstall() puts the
originals back.  Spans are aggregated as they close (inclusive time,
self time and calls per span name) instead of being kept one by one:
a gap-labelling round opens over 10^5 of them.
"""

from __future__ import annotations

from collections import Counter, defaultdict
import functools
import importlib
import inspect
import sys
import time

import numpy as np

MODULES = ("model", "cocycle", "matkernel", "rotation", "hyperbolicity",
           "gaps", "scanengine", "cli")

# (module, attribute, span name, note).  A note maps the call's bound
# arguments and its result to counter increments.
SPANS = (
    ("model", "restriction_eigenvalues", "model.eigensolve",
     lambda a, out: {"model.eigensolve_rows": a["model"].m * a["N"]}),
    ("model", "OperatorModel.blocks", "model.blocks", None),
    ("cocycle", "transfer_step", "cocycle.transfer_step", None),
    ("matkernel", "GlPath.pair_many", "matkernel.gl_pair",
     lambda a, out: {"matkernel.gl_pair_points": int(np.size(a["ts"]))}),
    ("rotation", "track_frames", "rotation.track", None),
    ("rotation", "accumulated_phase", "rotation.accumulated_phase", None),
    ("rotation", "frame_after", "rotation.frame_after", None),
    ("rotation", "phase_curves", "rotation.phase_curves", None),
    ("hyperbolicity", "uh_test", "hyperbolicity.uh",
     lambda a, out: {"hyperbolicity.uh_certified": int(bool(out[0]))}),
    ("gaps", "detect_gaps", "gaps.detect",
     lambda a, out: {"gaps.interior_gaps": sum(r.interior for r in out)}),
    ("gaps", "label_gap", "gaps.label", None),
    ("gaps", "verify_ids_rot", "gaps.verify", None),
    ("scanengine", "scan", "scanengine.scan",
     lambda a, out: {"scanengine.jobs": len(a["payloads"])}),
    ("cli", "load_config", "cli.config_build", None),
    ("cli", "build_model", "cli.config_build", None),
)

# Private chokepoints, counted but not timed.
COUNTERS = (
    ("rotation", "_step_mats",
     lambda a, out: {"rotation.samples_evaluated": int(np.size(a["ts"]))}),
    ("hyperbolicity", "_forward_sweep",
     lambda a, out: {"hyperbolicity.sweep_steps": a["steps"]}),
    ("hyperbolicity", "_backward_sweep",
     lambda a, out: {"hyperbolicity.sweep_steps": a["steps"]}),
    ("gaps", "_refine_edge",
     lambda a, out: {"gaps.edge_uh_calls": a["steps"]}),
)

# The certified sampler is a generator: one call is one unit step, one
# yielded sample is one accepted sample.
SAMPLER = ("rotation", "_certified_samples")

# name -> (unit, better) of every per-layer metric, in report order.
PER_LAYER = {
    "model.eigensolve_calls": ("count", "lower"),
    "model.eigensolve_rows": ("count", "lower"),
    "model.eigensolve_s": ("s", "lower"),
    "model.blocks_calls": ("count", "lower"),
    "model.blocks_s": ("s", "lower"),
    "cocycle.transfer_step_calls": ("count", "lower"),
    "cocycle.transfer_step_s": ("s", "lower"),
    "matkernel.gl_pair_calls": ("count", "lower"),
    "matkernel.gl_pair_points": ("count", "lower"),
    "matkernel.gl_pair_s": ("s", "lower"),
    "rotation.track_calls": ("count", "lower"),
    "rotation.track_s": ("s", "lower"),
    "rotation.unit_steps": ("count", "lower"),
    "rotation.samples_evaluated": ("count", "lower"),
    "rotation.samples_accepted": ("count", "lower"),
    "rotation.samples_per_unit_step": ("samples/step", "lower"),
    "rotation.sample_yield": ("fraction", "higher"),
    "rotation.phase_curves_s": ("s", "lower"),
    "rotation.energies_tracked": ("count", "lower"),
    "rotation.frame_after_calls": ("count", "lower"),
    "rotation.frame_after_s": ("s", "lower"),
    "hyperbolicity.uh_calls": ("count", "lower"),
    "hyperbolicity.uh_certified": ("count", "higher"),
    "hyperbolicity.uh_s": ("s", "lower"),
    "hyperbolicity.sweep_steps": ("count", "lower"),
    "gaps.detect_s": ("s", "lower"),
    "gaps.edge_uh_calls": ("count", "lower"),
    "gaps.verify_s": ("s", "lower"),
    "gaps.interior_gaps": ("count", "higher"),
    "scanengine.scan_s": ("s", "lower"),
    "scanengine.jobs": ("count", "lower"),
    "cli.config_build_s": ("s", "lower"),
    **{f"{mod}.self_share": ("fraction", "lower") for mod in MODULES},
    "trace.wall_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}


def _resolve(module: str, attribute: str):
    """(owner, name, original) for 'func' or 'Class.method' in a module."""
    owner = importlib.import_module(f"ergospectra.{module}")
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


class Tracer:
    """Spans and counters for calls into ergospectra, reset per round."""

    def __init__(self):
        self._stack = []      # open spans: [name, seconds spent in children]
        self._undo = []
        self.reset()

    def reset(self):
        self.inclusive = defaultdict(float)
        self.own = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()

    def _span(self, name, fn, note):
        signature = inspect.signature(fn)
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self.inclusive[name] += elapsed
                self.own[name] += elapsed - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += elapsed
            if note is not None:
                self._note(signature, note, args, kwargs, out)
            return out
        return wrapper

    def _counter(self, fn, note):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            self._note(signature, note, args, kwargs, out)
            return out
        return wrapper

    def _sampler(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts["rotation.unit_steps"] += 1
            for sample in fn(*args, **kwargs):
                self.counts["rotation.samples_accepted"] += 1
                yield sample
        return wrapper

    def _note(self, signature, note, args, kwargs, out):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        self.counts.update(note(bound.arguments, out))

    def _replace(self, module, attribute, make):
        owner, name, original = _resolve(module, attribute)
        wrapper = make(original)
        if isinstance(owner, type):
            places = [(owner, name)]
        else:
            places = [(mod, key) for mod_name, mod in list(sys.modules.items())
                      if mod_name.split(".")[0] == "ergospectra"
                      for key, value in list(vars(mod).items())
                      if value is original]
        for place, key in places:
            setattr(place, key, wrapper)
            self._undo.append((place, key, original))

    def install(self) -> "Tracer":
        for module, attribute, name, note in SPANS:
            self._replace(module, attribute,
                          lambda fn, name=name, note=note:
                          self._span(name, fn, note))
        for module, attribute, note in COUNTERS:
            self._replace(module, attribute,
                          lambda fn, note=note: self._counter(fn, note))
        self._replace(*SAMPLER, self._sampler)
        return self

    def uninstall(self):
        while self._undo:
            place, key, original = self._undo.pop()
            setattr(place, key, original)

    def metrics(self, wall: float) -> dict:
        """Per-layer metrics of the round since the last reset()."""
        c, t, n = self.counts, self.inclusive, self.calls
        out = {
            "model.eigensolve_calls": n["model.eigensolve"],
            "model.eigensolve_rows": c["model.eigensolve_rows"],
            "model.eigensolve_s": t["model.eigensolve"],
            "model.blocks_calls": n["model.blocks"],
            "model.blocks_s": t["model.blocks"],
            "cocycle.transfer_step_calls": n["cocycle.transfer_step"],
            "cocycle.transfer_step_s": t["cocycle.transfer_step"],
            "matkernel.gl_pair_calls": n["matkernel.gl_pair"],
            "matkernel.gl_pair_points": c["matkernel.gl_pair_points"],
            "matkernel.gl_pair_s": t["matkernel.gl_pair"],
            "rotation.track_calls": n["rotation.track"],
            "rotation.track_s": t["rotation.track"],
            "rotation.unit_steps": c["rotation.unit_steps"],
            "rotation.samples_evaluated": c["rotation.samples_evaluated"],
            "rotation.samples_accepted": c["rotation.samples_accepted"],
            "rotation.samples_per_unit_step": (
                c["rotation.samples_accepted"] / c["rotation.unit_steps"]
                if c["rotation.unit_steps"] else 0.0),
            "rotation.sample_yield": (
                c["rotation.samples_accepted"] / c["rotation.samples_evaluated"]
                if c["rotation.samples_evaluated"] else 0.0),
            "rotation.phase_curves_s": t["rotation.phase_curves"],
            "rotation.energies_tracked": n["rotation.accumulated_phase"],
            "rotation.frame_after_calls": n["rotation.frame_after"],
            "rotation.frame_after_s": t["rotation.frame_after"],
            "hyperbolicity.uh_calls": n["hyperbolicity.uh"],
            "hyperbolicity.uh_certified": c["hyperbolicity.uh_certified"],
            "hyperbolicity.uh_s": t["hyperbolicity.uh"],
            "hyperbolicity.sweep_steps": c["hyperbolicity.sweep_steps"],
            "gaps.detect_s": t["gaps.detect"],
            "gaps.edge_uh_calls": c["gaps.edge_uh_calls"],
            "gaps.verify_s": t["gaps.verify"],
            "gaps.interior_gaps": c["gaps.interior_gaps"],
            "scanengine.scan_s": t["scanengine.scan"],
            "scanengine.jobs": c["scanengine.jobs"],
            "cli.config_build_s": t["cli.config_build"],
        }
        for mod in MODULES:
            own = sum(s for name, s in self.own.items()
                      if name.startswith(mod + "."))
            out[f"{mod}.self_share"] = own / wall
        out["trace.wall_s"] = wall
        out["trace.spans"] = sum(n.values())
        return out
