"""Outside-in span tracer for the soesn layers.

The tracer wraps the public functions of each layer module, plus
`Reservoir.run` and `StateTrajectory.to_csv`, from outside the package:
nothing under `src/` is modified. `cli` and `experiments` import names
directly (`from .topology import build_weights`), so every soesn module
that holds a reference to an original function gets the wrapper, and
`uninstall` puts every original back.

Spans live in memory as (name, start, end, parent, invocation) plus a few
counters taken at the same boundary (`n`, `unit_steps`, `bytes`,
`oscillatory`). A span's self time is its duration minus the part of it
that its child spans cover; the time no span covers is the CLI's own.
"""

import functools
import inspect
import os
import sys
import time

LAYERS = ("numerics", "reservoir", "topology", "oscillation", "readout",
          "experiments", "svgplot")

# (class, method) pairs traced in addition to the module-level functions;
# the span name is "<layer>.<method>".
METHODS = (("reservoir", "Reservoir", "run"), ("reservoir", "StateTrajectory", "to_csv"))


def _annotate_run(args, kwargs, result):
    reservoir = args[0]
    tau = args[1] if len(args) > 1 else kwargs["tau"]
    return {"n": reservoir.n, "unit_steps": reservoir.n * tau}


def _annotate_radius(args, kwargs, result):
    return {"n": len(args[0] if args else kwargs["W"])}


def _annotate_classify(args, kwargs, result):
    return {"oscillatory": bool(result.reservoir_is_self_oscillatory)}


def _annotate_csv(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


ANNOTATIONS = {
    "reservoir.run": _annotate_run,
    "numerics.spectral_radius": _annotate_radius,
    "oscillation.classify_trajectory": _annotate_classify,
    "reservoir.to_csv": _annotate_csv,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "invocation", "attrs")

    def __init__(self, name, start, parent, invocation):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.invocation = invocation
        self.attrs = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "invocation": self.invocation, "attrs": self.attrs,
        }


class Tracer:
    """Records nested spans of one thread; `clock` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.invocation = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), parent, self.invocation))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = self.clock()
        self._stack.pop()

    def _wrap(self, name, fn):
        annotate = ANNOTATIONS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if annotate is not None:
                self.spans[index].attrs = annotate(args, kwargs, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public functions in every soesn module that
        holds them, and the traced methods on their classes."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        holders = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "soesn" or name.startswith("soesn."))]
        for layer in LAYERS:
            module = sys.modules[f"soesn.{layer}"]
            for attr, fn in sorted(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for holder in holders:
                    for held_name, value in list(vars(holder).items()):
                        if value is fn:
                            self._patches.append((holder, held_name, fn))
                            setattr(holder, held_name, wrapper)
        for layer, class_name, method in METHODS:
            cls = getattr(sys.modules[f"soesn.{layer}"], class_name)
            original = cls.__dict__[method]
            self._patches.append((cls, method, original))
            setattr(cls, method, self._wrap(f"{layer}.{method}", original))

    def uninstall(self) -> bool:
        """Put every original back; True when each holder again holds
        exactly the original object."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        restored = all(
            (owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr))
            is original
            for owner, attr, original in self._patches
        )
        self._patches = []
        return restored


def self_times(spans: list[Span]) -> list[float]:
    """Self time of each span: its duration minus the union of its direct
    children's intervals, clipped to the span (`parent` indexes `spans`)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for index, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append(s.duration - covered)
    return out
