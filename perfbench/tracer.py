"""Outside-in call-boundary tracer for grassflow.

The tracer wraps named functions of the ``grassflow`` layers from outside the
program.  Modules import many of them by name (``from .bundle import
frame_defect``), so a wrapper installed only in the defining module would miss
those calls: each wrapper is therefore bound in every ``grassflow.*`` namespace
that binds the original.  A ``Class.method`` target is patched on the class.

Every call records one span ``[name, start, end, parent]`` in memory, where
``parent`` is the index of the enclosing span or -1.  ``restore`` puts every
original back.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# (metric name, defining module, attribute).  The metric name is
# "<layer>.<function>"; the layer is the module the function is defined in.
TARGETS = (
    ("linalg.mat_exp", "linalg", "mat_exp"),
    ("linalg.polar_retract", "linalg", "polar_retract"),
    ("linalg.isometrize", "linalg", "isometrize"),
    ("linalg.nearest_projector", "linalg", "nearest_projector"),
    ("grassmann.proj_from_chart", "grassmann", "proj_from_chart"),
    ("grassmann.linear_hamiltonian", "grassmann", "linear_hamiltonian"),
    ("bundle.frame_defect", "bundle", "frame_defect"),
    ("bundle.curvature_generators", "bundle", "curvature_generators"),
    ("dynamics.schedule_eval", "dynamics", "HamiltonianSchedule.__call__"),
    ("dynamics.integrate_projector", "dynamics", "integrate_projector"),
    ("dynamics.integrate_frame", "dynamics", "integrate_frame"),
    ("dynamics.horizontal_transport", "dynamics", "horizontal_transport"),
    ("dynamics.berry_maps", "dynamics", "berry_maps"),
    ("dynamics.projector_defect", "dynamics", "projector_defect"),
    ("dynamics.horizontality_defect", "dynamics", "horizontality_defect"),
    ("dynamics.pancharatnam_oracle", "dynamics", "pancharatnam_oracle"),
    ("dynamics.loop_holonomy", "dynamics", "loop_holonomy"),
    ("dynamics.synthesize_holonomy_step", "dynamics", "synthesize_holonomy_step"),
    ("cli.main", "cli", "main"),
    ("cli.build_setup", "cli", "build_setup"),
    ("cli.write_report", "cli", "write_report"),
)

LAYERS = ("linalg", "grassmann", "bundle", "dynamics", "cli")


class Tracer:
    """Records spans around wrapped calls; install, run, then restore."""

    def __init__(self, clock=time.perf_counter, path_types=()):
        self.clock = clock
        self.spans = []
        self.path_bytes = 0
        self.missing = []
        self._path_types = tuple(path_types)
        self._stack = []
        self._saved = []

    def wrap(self, name, fn):
        """Return ``fn`` wrapped so that each call records a span ``name``.

        When the call returns one of ``path_types``, the size of its
        ``samples`` array is added to ``path_bytes``.
        """
        spans, stack, clock = self.spans, self._stack, self.clock
        path_types = self._path_types
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if type(result) in path_types:
                tracer.path_bytes += result.samples.nbytes
            return result

        return traced

    def install(self, targets=TARGETS, package="grassflow"):
        """Wrap every target in every loaded ``package.*`` namespace.

        Targets whose attribute no longer exists are listed in ``missing``
        and report no calls.
        """
        namespaces = [mod for name, mod in list(sys.modules.items())
                      if mod is not None
                      and (name == package or name.startswith(package + "."))]
        for metric, module, attr in targets:
            home = sys.modules[f"{package}.{module}"]
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(home, owner_name, None)
                original = vars(owner).get(method) if owner is not None else None
                if original is None:
                    self.missing.append(metric)
                    continue
                self._patch(owner, method, self.wrap(metric, original))
                continue
            original = getattr(home, attr, None)
            if original is None:
                self.missing.append(metric)
                continue
            wrapper = self.wrap(metric, original)
            for mod in namespaces:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        return self

    def _patch(self, owner, key, wrapper):
        self._saved.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def restore(self):
        """Put back every original the tracer replaced."""
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()

    def write_spans(self, path):
        """Write the spans as JSON lines ``[name, start, end, parent]``."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def summarize(spans):
    """Per-name call counts and inclusive seconds, and per-layer self seconds.

    A span's self time is its duration minus the durations of its direct
    child spans; calls are synchronous, so children never overlap.  A layer's
    self time is the sum over its spans, so the layers' self times add up to
    the root spans' durations.
    """
    calls = Counter()
    inclusive = defaultdict(float)
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        calls[name] += 1
        inclusive[name] += end - start
        if parent >= 0:
            covered[parent] += end - start
    layer_self = defaultdict(float)
    for (name, start, end, _), child_time in zip(spans, covered):
        layer_self[name.split(".", 1)[0]] += (end - start) - child_time
    return dict(calls), dict(inclusive), dict(layer_self)
