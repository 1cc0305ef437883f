"""The four benchmark workloads: a seeded config each, and its correctness gate.

Each workload is one whole ``grassflow`` CLI run chosen for the layer that
dominates it (see README.md):

- berry-rotating: per-step interpreter overhead (defect audits, retraction,
  CSV rows) on 2x2 algebra;
- berry-geometric: schedule evaluation through a user curve and ``mat_exp``;
- flow-n128: O(n^3) commutators and the stored (steps+1, n, n) projector path;
- synthesize-n6m2: sampled-path transport, chart maps and curvature generators.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

CSV_HEADER = "t,projector_defect,isometry_defect,horizontality_defect,energy"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    steps: int
    config: Callable[[int], dict]
    check: Callable[[dict, "RunFiles"], list]
    builds_schedule: bool = True
    info: tuple = ()  # report keys printed but not gated


@dataclass(frozen=True)
class RunFiles:
    """Where one workload's config and outputs live inside the checkout."""

    root: Path
    config: Path
    prefix: str  # the --out PREFIX, relative to root

    @property
    def csv(self) -> Path:
        return self.root / (self.prefix + ".csv")

    @property
    def json(self) -> Path:
        return self.root / (self.prefix + ".json")


def _base(n: int, m: int, seed: int, steps: int) -> dict:
    return {"version": 1, "n": n, "m": m, "seed": seed,
            "grid": {"t0": 0.0, "t1": 1.0, "steps": steps}}


def _at_most(report: dict, key: str, bound: float) -> list:
    value = report.get(key)
    if not isinstance(value, (int, float)) or not value <= bound:
        return [f"{key} = {value!r}, want <= {bound:g}"]
    return []


def _check_rotating(report: dict, files: RunFiles) -> list:
    return (_at_most(report, "analytic_deviation", 1e-4)
            + _at_most(report, "oracle_deviation", 2e-3))


def _check_geometric(report: dict, files: RunFiles) -> list:
    # oracle_deviation (about 2.0e-3 at 800 steps) is informational: the CLI
    # does not gate it for geometric schedules.
    return _at_most(report, "fiber_gap_deviation", 1e-8)


def _check_flow(report: dict, files: RunFiles) -> list:
    """holonomy_dynamical against sigma* expm(T H) sigma on the same seeded inputs."""
    import numpy as np

    reference = flow_reference(files)
    try:
        got = np.array([[complex(z["re"], z["im"]) for z in row]
                        for row in report["holonomy_dynamical"]])
    except (KeyError, TypeError):
        return ["holonomy_dynamical is missing or malformed"]
    if got.shape != reference.shape:
        return [f"holonomy_dynamical has shape {got.shape}, want {reference.shape}"]
    error = float(np.linalg.norm(got - reference))
    if not error <= 1e-8:
        return [f"holonomy_dynamical differs from sigma* expm(TH) sigma by {error:.3e}"]
    return []


def flow_reference(files: RunFiles):
    """sigma* expm(T H) sigma for the constant schedule the config seeds.

    The inputs come from the program's own ``build_setup``, so H and sigma
    are exactly those of the run; the reference then takes an independent
    route (scipy's ``expm``) instead of the RK4 integrator.
    """
    return _flow_reference(files.root, str(files.config), files.config.read_text())


@functools.cache
def _flow_reference(root: Path, config: str, config_text: str):
    import scipy.linalg

    cli = import_cli(root)
    cfg = cli.load_config(cli.build_parser().parse_args(["flow", "--config", config]))
    tol = cli.build_tolerances(cfg)
    schedule, _, sigma, grid = cli.build_setup(cfg, tol)
    hamiltonian = schedule(grid.t0)
    return (sigma.conj().T @ scipy.linalg.expm((grid.t1 - grid.t0) * hamiltonian)
            @ sigma)


def import_cli(root: Path):
    """Import ``grassflow.cli`` from the checkout's ``src`` tree, nowhere else."""
    import sys

    src = (root / "src").resolve()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import grassflow.cli as cli

    if src not in Path(cli.__file__).resolve().parents:
        raise RuntimeError(f"grassflow was imported from {cli.__file__}, not {src}")
    return cli


def _check_synthesis(report: dict, files: RunFiles) -> list:
    return _at_most(report, "synthesis_deviation", 5e-3)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="berry-rotating", command="berry", steps=4000,
        config=lambda seed: {**_base(2, 1, seed, 4000),
                             "schedule": {"kind": "rotating", "theta": math.pi / 2,
                                          "omega": 2 * math.pi}},
        check=_check_rotating),
    Workload(
        name="berry-geometric", command="berry", steps=800,
        config=lambda seed: {**_base(4, 2, seed, 800),
                             "schedule": {"kind": "geometric_from_curve"}},
        check=_check_geometric, info=("oracle_deviation",)),
    Workload(
        name="flow-n128", command="flow", steps=200,
        config=lambda seed: {**_base(128, 2, seed, 200),
                             "schedule": {"kind": "constant", "norm": 2.0}},
        check=_check_flow),
    Workload(
        name="synthesize-n6m2", command="synthesize", steps=8000,
        config=lambda seed: {**_base(6, 2, seed, 8000),
                             "synthesize": {"scale": 0.1}},
        check=_check_synthesis,
        # synthesize builds its loop from the seed itself, not from build_setup
        builds_schedule=False),
)}


def check_outputs(workload: Workload, files: RunFiles):
    """The run's JSON report and its problems; no problems when correct."""
    try:
        lines = files.csv.read_text().splitlines()
        report = json.loads(files.json.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return None, [f"cannot read outputs: {exc}"]
    problems = []
    if not lines or lines[0] != CSV_HEADER:
        problems.append(f"CSV header is {lines[:1]!r}, want {CSV_HEADER!r}")
    rows = len(lines) - 1
    if rows != workload.steps + 1:
        problems.append(f"CSV has {rows} rows, want {workload.steps + 1}")
    echoed = (report.get("config") or {}).get("grid", {}).get("steps")
    if echoed != workload.steps:
        problems.append(f"report echoes grid.steps = {echoed!r}, want {workload.steps}")
    return report, problems + workload.check(report, files)


def report_bytes(files: RunFiles) -> int:
    """Size of PREFIX.csv plus PREFIX.json, less the digits of ``wall_time_s``.

    ``wall_time_s`` is the one field of the report that differs between
    identical runs; without its digits the size repeats exactly.
    """
    wall = json.loads(files.json.read_text())["wall_time_s"]
    return (files.csv.stat().st_size + files.json.stat().st_size
            - len(json.dumps(wall)))
