"""The benchmark's call-boundary tracer must find every function it targets.

``perfbench/tracer.py`` wraps functions by module and attribute name and
reports a target it cannot find as zero calls, so a rename in ``grassflow``
would silently empty a traced counter.  This test reads the tracer's target
list (without changing it) and resolves each entry.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    unresolved = []
    for metric, module, attr in tracer.TARGETS:
        home = importlib.import_module(f"grassflow.{module}")
        owner_name, _, name = attr.rpartition(".")
        owner = getattr(home, owner_name, None) if owner_name else home
        if owner is None or not callable(vars(owner).get(name)):
            unresolved.append(metric)
    assert tracer.TARGETS
    assert unresolved == []
