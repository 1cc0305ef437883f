"""grassflow benchmark: whole CLI runs, one fresh child process at a time.

    python3 perfbench/run.py                       # every workload, untraced
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Untraced (``--trace 0``), a run alternates two kinds of child until
``--seconds`` have passed: a set-up probe (import ``grassflow.cli`` and build
the inputs) and a full CLI run.  It reports the medians of ``wall_s``,
``setup_s`` and ``peak_rss_mb``.  Traced (``--trace 1``), it alternates an
untraced and a traced CLI run and reports per-layer call counts, inclusive
and self times, computed path and report bytes, and the tracing overhead.
Every CLI run is checked for correctness; a failed check makes the run exit 1.

All children and a speed probe (``probe.py``) share one CPU.  Every time a
child measures is scaled by how fast the probe found that CPU while the child
ran, so times read as seconds on an uncontended CPU; the unscaled medians are
printed too.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Single-threaded BLAS in every child (and in this process, for the flow
# reference): the matrices are small, only one child runs at a time, and a
# shared machine makes multi-threaded BLAS timings spread.
BLAS_THREADS = 1
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

DEFAULT_SECONDS = 25
MIN_SAMPLES = 3
CHILD_TIMEOUT_S = 60
RUN_LIMIT_S = 150  # stop starting children after this, whatever --seconds says
KILL_AFTER_S = 170  # no child of a session outlives this, so a run ends by 180 s

sys.path.insert(0, str(HERE))
from probe import SpeedProbe  # noqa: E402
from tracer import LAYERS, TARGETS  # noqa: E402
from workloads import WORKLOADS, RunFiles, check_outputs, report_bytes  # noqa: E402

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))


def per_layer_metrics():
    """(name, unit) of every metric a traced run reports."""
    metrics = []
    for name, _, _ in TARGETS:
        metrics += [(f"{name}.calls", "count"), (f"{name}.s", "s")]
    metrics += [(f"{layer}.self_s", "s") for layer in LAYERS]
    metrics += [("dynamics.path_bytes", "B"), ("cli.report_bytes", "B"),
                ("cli.import_s", "s"), ("trace.wall_s", "s"),
                ("trace.untraced_wall_s", "s"), ("trace.overhead_s", "s")]
    return metrics


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    env.update({key: str(BLAS_THREADS) for key in BLAS_ENV})
    return env


class Session:
    """One workload at one seed: its files, its children and their tally."""

    def __init__(self, workload, seed: int, root: Path = ROOT):
        self.workload = workload
        work = root / ".bench_build" / "perfbench" / workload.name
        work.mkdir(parents=True, exist_ok=True)
        config = work / "config.json"
        config.write_text(json.dumps(workload.config(seed), indent=2) + "\n")
        # a relative prefix keeps the echoed config, and so the report size,
        # independent of where the checkout lives
        self.files = RunFiles(root=root, config=config,
                              prefix=str((work / "out").relative_to(root)))
        self.root = root
        self.kill_at = time.monotonic() + KILL_AFTER_S
        self.attempted = 0
        self.failed = 0
        self.info = {key: [] for key in workload.info}

    def child(self, mode: str, trace: bool = False):
        """Run one child; return its measurements, or None if anything failed."""
        self.attempted += 1
        w, files = self.workload, self.files
        for stale in (files.csv, files.json):
            stale.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "child.py"), mode, w.command,
               "--root", str(self.root), "--config", str(files.config),
               "--out", files.prefix]
        if trace:
            cmd.append("--trace")
        if not w.builds_schedule:
            cmd.append("--no-schedule")
        timeout = max(1.0, min(CHILD_TIMEOUT_S, self.kill_at - time.monotonic()))
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=child_env(),
                                  capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return self.fail(f"{mode} child timed out after {timeout:.0f} s")
        if proc.returncode != 0:
            return self.fail(f"{mode} child exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-800:]}")
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            return self.fail(f"{mode} child printed no result: {proc.stdout[-800:]!r}")
        if result["rc"] != 0:
            return self.fail(f"grassflow {w.command} exited {result['rc']}: "
                             f"{proc.stderr.strip()[-800:]}")
        if mode == "run":
            report, problems = check_outputs(w, files)
            if problems:
                return self.fail("; ".join(problems))
            for key in self.info:
                self.info[key].append(report.get(key))
            result["report_bytes"] = report_bytes(files)
        return result

    def fail(self, why: str):
        self.failed += 1
        print(f"FAILED {self.workload.name}: {why}", file=sys.stderr)
        return None


def _loop(seconds: float, step) -> None:
    """Call ``step(i)`` for i = 0, 1, ... until the next call would end
    after ``seconds``."""
    start = time.monotonic()
    deadline = start + seconds
    i = 0
    while True:
        began = time.monotonic()
        step(i)
        i += 1
        now = time.monotonic()
        if now - start > RUN_LIMIT_S:
            return
        if i >= MIN_SAMPLES and now + (now - began) > deadline:
            return


def measure_end_to_end(session: Session, seconds: float):
    """Set-up probe and CLI run results, unscaled."""
    setups, runs = [], []

    def step(i):
        # a set-up probe on every other iteration leaves more time for runs
        if i % 2 == 0:
            probe = session.child("setup")
            if probe is not None:
                setups.append(probe)
        result = session.child("run")
        if result is not None:
            runs.append(result)

    session.child("setup")  # warm-up: byte-code and file caches, not timed
    _loop(seconds, step)
    return setups, runs


def end_to_end_samples(setups, runs, speed: SpeedProbe):
    factor = [speed.scale(*r["main_at"]) for r in runs]
    samples = {
        "wall_s": [r["wall_s"] * f for r, f in zip(runs, factor)],
        "setup_s": [p["setup_s"] * speed.scale(*p["setup_at"]) for p in setups],
        "peak_rss_mb": [r["rss_kb"] / 1024.0 for r in runs]}
    notes = {"unscaled wall_s": [r["wall_s"] for r in runs],
             "unscaled setup_s": [p["setup_s"] for p in setups],
             "speed factor": factor}
    return samples, notes, []


def measure_layers(session: Session, seconds: float):
    """Untraced and traced CLI run results, unscaled."""
    untraced, traced = [], []

    def step(i):
        plain = session.child("run")
        if plain is not None:
            untraced.append(plain)
        result = session.child("run", trace=True)
        if result is not None:
            traced.append(result)

    session.child("setup")  # warm-up, as for the untraced runs
    _loop(seconds, step)
    return untraced, traced


def layer_samples(untraced, traced, speed: SpeedProbe):
    if not traced or not untraced:
        return {}, {}, []

    problems = []
    exact = {}
    for key, values in (
            ("calls", [r["calls"] for r in traced]),
            ("dynamics.path_bytes", [r["path_bytes"] for r in traced]),
            ("cli.report_bytes", [r["report_bytes"] for r in traced + untraced])):
        if any(v != values[0] for v in values):
            problems.append(f"{key} differs between identical runs: {values}")
        exact[key] = values[0]
    missing = traced[0]["missing"]
    if missing:
        print(f"note: not found in the program, reported as 0: {missing}")

    # every time of a traced run is scaled by the speed over its cli.main
    factor = [speed.scale(*r["main_at"]) for r in traced]
    samples = {}
    for name, _, _ in TARGETS:
        samples[f"{name}.calls"] = [exact["calls"].get(name, 0)]
        samples[f"{name}.s"] = [r["inclusive_s"].get(name, 0.0) * f
                                for r, f in zip(traced, factor)]
    for layer in LAYERS:
        samples[f"{layer}.self_s"] = [r["self_s"].get(layer, 0.0) * f
                                      for r, f in zip(traced, factor)]
    samples["dynamics.path_bytes"] = [exact["dynamics.path_bytes"]]
    samples["cli.report_bytes"] = [exact["cli.report_bytes"]]
    samples["cli.import_s"] = [r["import_s"] * speed.scale(*r["import_at"])
                               for r in traced + untraced]
    samples["trace.wall_s"] = [r["wall_s"] * f for r, f in zip(traced, factor)]
    samples["trace.untraced_wall_s"] = [r["wall_s"] * speed.scale(*r["main_at"])
                                        for r in untraced]
    samples["trace.overhead_s"] = [statistics.median(samples["trace.wall_s"])
                                   - statistics.median(samples["trace.untraced_wall_s"])]
    notes = {"unscaled trace.wall_s": [r["wall_s"] for r in traced],
             "unscaled trace.untraced_wall_s": [r["wall_s"] for r in untraced],
             "speed factor": factor}
    return samples, notes, problems


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    session = Session(WORKLOADS[name], seed)
    measure, samples_of, names = (
        (measure_layers, layer_samples, per_layer_metrics()) if trace
        else (measure_end_to_end, end_to_end_samples, END_TO_END))
    with SpeedProbe(child_env()) as speed:
        raw = measure(session, seconds)
    samples, notes, problems = samples_of(*raw, speed)
    for why in problems:
        session.fail(why)

    metrics = {}
    print(f"workload {name}, seed {seed}, trace {int(trace)}: "
          f"{session.failed} failed of {session.attempted} attempted")
    for metric, unit in names:
        values = samples.get(metric)
        if not values:
            continue
        value = statistics.median(values)
        metrics[metric] = {"value": value, "unit": unit}
        how = "exact" if isinstance(value, int) else f"median of {len(values)}"
        print(f"  {metric:40s} {value:16.6f} {unit:6s} {how}")
    for key, values in notes.items():
        if values:
            print(f"  info: {key} = {statistics.median(values):.6f} "
                  f"(median of {len(values)}, not a metric)")
    for key, values in session.info.items():
        print(f"  info: {key} = {values[-1] if values else None!r} (not gated)")
    correct = session.failed == 0 and len(metrics) == len(names)
    return {"correct": correct, "attempted": session.attempted,
            "failed": session.failed, "metrics": metrics}


def git_commit(root: Path):
    """HEAD of the checkout's git repository, or None when it has none."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest(root: Path) -> str:
    """sha256 over the program's source files, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_note(root: Path) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, "blas": blas,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_commit": git_commit(root),
            "source_sha256": source_digest(root)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "grassflow" / "cli.py").is_file():
        print(f"error: no grassflow source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for key in BLAS_ENV:
        os.environ[key] = str(BLAS_THREADS)
    note = machine_note(ROOT)
    # children and the speed probe inherit this: all share the one CPU whose
    # speed the probe measures
    note["pinned_cpu"] = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {note["pinned_cpu"]})
    print("machine: " + json.dumps(note))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
