"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
import time

import pytest

import run
from probe import REFERENCE_S, SpeedProbe
from tracer import Tracer, summarize
from workloads import WORKLOADS, RunFiles, check_outputs, import_cli


def test_self_time_of_nested_calls():
    # cli.root [0, 10] calls dynamics.mid [1, 7], which calls bundle.leaf
    # [3, 4]; cli.root then calls bundle.leaf [8, 9] directly.
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 8.0, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("bundle.leaf", lambda: None)
    mid = tracer.wrap("dynamics.mid", lambda: leaf())
    root = tracer.wrap("cli.root", lambda: (mid(), leaf()))
    root()

    assert [span[3] for span in tracer.spans] == [-1, 0, 1, 0]
    calls, inclusive, layer_self = summarize(tracer.spans)
    assert calls == {"cli.root": 1, "dynamics.mid": 1, "bundle.leaf": 2}
    assert inclusive == {"cli.root": 10.0, "dynamics.mid": 6.0, "bundle.leaf": 2.0}
    assert layer_self == {"cli": 3.0, "dynamics": 5.0, "bundle": 2.0}
    assert sum(layer_self.values()) == inclusive["cli.root"]


def test_speed_scale_is_reference_over_mean_unit_time():
    speed = SpeedProbe(env={})
    speed.starts = [float(t) for t in range(10)]
    speed.seconds = [0.1] * 5 + [0.4] * 5
    # units starting at 0..4 lie inside [0, 5]; the one at 5 ends after it
    assert speed.scale(0.0, 5.0) == pytest.approx(REFERENCE_S / 0.1)
    assert speed.scale(0.0, 10.0) == pytest.approx(REFERENCE_S / 0.25)
    # too few units inside: the five nearest the middle stand in
    assert speed.scale(7.0, 7.2) == pytest.approx(REFERENCE_S / 0.4)


def test_speed_probe_records_units_and_ends():
    with SpeedProbe(run.child_env()) as speed:
        time.sleep(0.5)
    assert speed.proc.returncode == 0
    assert len(speed.starts) == len(speed.seconds) >= 5
    assert all(d > 0 for d in speed.seconds)


def _bindings():
    import grassflow.dynamics

    modules = {name: mod for name, mod in sys.modules.items()
               if name == "grassflow" or name.startswith("grassflow.")}
    snapshot = {(name, key): value for name, mod in modules.items()
                for key, value in vars(mod).items()}
    snapshot["HamiltonianSchedule.__call__"] = vars(
        grassflow.dynamics.HamiltonianSchedule)["__call__"]
    return snapshot


def test_tracer_wraps_every_binding_and_restores_every_original():
    cli = import_cli(run.ROOT)
    import grassflow.bundle
    import grassflow.dynamics

    before = _bindings()
    original = grassflow.bundle.frame_defect
    with Tracer() as tracer:
        assert tracer.missing == []
        # frame_defect is imported by name into dynamics and cli
        for mod in (grassflow.bundle, grassflow.dynamics, cli):
            assert mod.frame_defect is not original
            assert mod.frame_defect.__wrapped__ is original
        assert hasattr(vars(grassflow.dynamics.HamiltonianSchedule)["__call__"],
                       "__wrapped__")
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


@pytest.mark.parametrize("workload, metric, count", [
    ("berry-geometric", "dynamics.schedule_eval", 10401),
    ("berry-rotating", "bundle.frame_defect", 24006),
    ("synthesize-n6m2", "dynamics.horizontal_transport", 2),
])
def test_traced_run_counts_every_call(workload, metric, count):
    session = run.Session(WORKLOADS[workload], seed=0)
    result = session.child("run", trace=True)
    assert session.failed == 0
    assert result["calls"][metric] == count
    assert result["missing"] == []


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_metrics()
    assert spec["run_seconds"] == run.DEFAULT_SECONDS


def test_gate_rejects_wrong_outputs(tmp_path):
    workload = WORKLOADS["synthesize-n6m2"]
    files = RunFiles(root=tmp_path, config=tmp_path / "config.json", prefix="out")
    report = {"config": {"grid": {"steps": workload.steps}},
              "synthesis_deviation": 1e-4}
    files.json.write_text(json.dumps(report))
    rows = "0,0,0,0,0\n" * (workload.steps + 1)
    files.csv.write_text("t,projector_defect,isometry_defect,horizontality_defect,energy\n"
                         + rows)
    assert check_outputs(workload, files)[1] == []

    files.csv.write_text("t,energy\n" + rows[10:])
    report["synthesis_deviation"] = 1e-2
    files.json.write_text(json.dumps(report))
    problems = check_outputs(workload, files)[1]
    assert len(problems) == 3  # header, row count, deviation


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "berry-rotating", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
