import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grassflow import cli, dynamics
from grassflow.cli import (CSV_HEADER, build_parser, build_setup,
                           build_tolerances, load_config, main, write_report)
from grassflow.dynamics import (TimeGrid, _orbit_schedule, berry_maps, bloch_projector,
                                constant_schedule, loop_holonomy, pancharatnam_oracle,
                                rotating_schedule, sampled_schedule, synthesize_holonomy_step)
from grassflow.grassmann import BasePoint, Projector
from grassflow.linalg import (Tolerances, _SeededStream, dag, random_antihermitian,
                              random_frame)

from cointegrated import cointegrated_transport, pancharatnam_reference

REQUIRED_KEYS = ["config", "holonomy_dynamical", "holonomy_geometric",
                 "fiber_gap", "berry_phase_arg", "closure_residual",
                 "defect_max", "wall_time_s"]


def run(tmp_path, command, config=None, **flags):
    argv = [command]
    if config is not None:
        cfg_file = tmp_path / "config.json"
        cfg_file.write_text(json.dumps(config))
        argv += ["--config", str(cfg_file)]
    for key, value in flags.items():
        argv += [f"--{key}", str(value)]
    return main(argv)


def load(prefix):
    report = json.loads((prefix.parent / (prefix.name + ".json")).read_text())
    csv_lines = (prefix.parent / (prefix.name + ".csv")).read_text().splitlines()
    return report, csv_lines


class TestChart:
    def test_small_case(self, tmp_path):
        out = tmp_path / "run"
        assert run(tmp_path, "chart", seed=1, steps=199, out=out) == 0
        report, csv_lines = load(out)
        assert report["max_roundtrip_error"] <= 1e-10
        assert report["max_equivariance_error"] <= 1e-9
        assert csv_lines[0] == CSV_HEADER
        assert len(csv_lines) - 1 == 200  # steps + 1 rows

    def test_symmetric_case(self, tmp_path):
        out = tmp_path / "run"
        code = run(tmp_path, "chart", config={"version": 1, "n": 4, "m": 2},
                   seed=1, steps=99, out=out)
        assert code == 0
        report, _ = load(out)
        assert report["max_roundtrip_error"] <= 1e-10

    def test_invalid_dimensions(self, tmp_path):
        assert run(tmp_path, "chart", config={"version": 1, "n": 2, "m": 3}) == 1

    def test_qr_calls_do_not_grow_with_the_trials(self, tmp_path, monkeypatch):
        # the trials run as stacks: a QR call factors a stack, not one trial's matrix
        calls = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda a, *args: calls.append(a.shape) or qr(a, *args))
        counts = []
        for steps in (10, 400):
            calls.clear()
            assert run(tmp_path, "chart", config={"version": 1, "n": 5, "m": 2},
                       steps=steps, out=tmp_path / "run") == 0
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_bad_version(self, tmp_path):
        assert run(tmp_path, "chart", config={"version": 2}) == 1


class TestBerry:
    def test_rotating_benchmark(self, tmp_path):
        out = tmp_path / "run"
        assert run(tmp_path, "berry", steps=4000, out=out) == 0
        report, csv_lines = load(out)
        assert report["analytic_reference"] == pytest.approx(np.pi)
        assert report["analytic_deviation"] <= 1e-4
        assert report["closure_residual"] <= 1e-8
        assert len(csv_lines) - 1 == 4001
        # complex serialization contract: {re, im} entries, row-major nesting
        entry = report["holonomy_geometric"][0][0]
        assert set(entry) == {"re", "im"}
        assert abs(complex(entry["re"], entry["im"]) - (-1.0)) <= 1e-4

    @pytest.mark.parametrize("schedule, grid, turns", [
        ({"omega": 4 * np.pi}, {}, 2),
        ({"omega": 4 * np.pi, "theta": 1.0}, {}, 2),
        ({}, {"t1": 2.0}, 2),
        ({"omega": 0.0}, {}, 0),
    ], ids=["omega_4pi", "omega_4pi_theta_1", "t1_2", "omega_0"])
    def test_analytic_reference_counts_the_windings(self, tmp_path, schedule, grid, turns):
        cfg = {"version": 1, "schedule": {"kind": "rotating", **schedule},
               "grid": {"t0": 0.0, "t1": 1.0, "steps": 4000, **grid}}
        out = tmp_path / "run"
        assert run(tmp_path, "berry", config=cfg, out=out) == 0
        report, _ = load(out)
        theta = schedule.get("theta", np.pi / 2)
        assert report["analytic_reference"] == pytest.approx(turns * np.pi * (1 - np.cos(theta)))
        assert report["analytic_deviation"] <= 1e-4

    @pytest.mark.parametrize("steps", [333, 1000, 4000])
    def test_default_loop_phase_is_pi(self, tmp_path, steps):
        # the holonomy is -1 up to a roundoff imaginary part of either sign, which
        # would put np.angle on either side of its branch cut
        out = tmp_path / "run"
        assert run(tmp_path, "berry", steps=steps, out=out) == 0
        report, _ = load(out)
        assert report["berry_phase_arg"] == report["oracle_phase_arg"] == np.pi

    def test_degenerate_loop(self, tmp_path):
        cfg = {"version": 1,
               "schedule": {"kind": "rotating", "theta": 0.01,
                            "omega": 2 * np.pi}}
        out = tmp_path / "run"
        assert run(tmp_path, "berry", config=cfg, steps=2000, out=out) == 0
        report, _ = load(out)
        assert abs(report["berry_phase_arg"]) <= 1e-3

    def test_geometric_curve_fiber_gap(self, tmp_path):
        cfg = {"version": 1,
               "schedule": {"kind": "geometric_from_curve", "theta": 1.2}}
        out = tmp_path / "run"
        assert run(tmp_path, "berry", config=cfg, steps=2000, out=out) == 0
        report, _ = load(out)
        assert report["fiber_gap_deviation"] <= 1e-8

    @pytest.mark.parametrize("shape, steps", [
        ({"n": 4, "m": 2, "schedule": {"kind": "geometric_from_curve"}}, 800),
        ({"schedule": {"kind": "geometric_from_curve", "theta": 1.2}}, 2000),
    ], ids=["random_loop", "latitude"])
    def test_geometric_curve_holonomy_is_scale_free(self, tmp_path, shape, steps):
        # the same loop over grids of very different time spans: no step of the
        # schedule is absolute, so each run closes with the same holonomy.  Below a
        # span of about 3e-6 the generators exceed 1e5, and their node energies,
        # near 0, carry roundoff of eps || H ||: their realness rule scales with || H ||
        holonomies = {}
        for span in (1e-12, 1e-8, 1e-3, 1.0, 1e4):
            cfg = {"version": 1, **shape, "grid": {"t0": 0.0, "t1": span, "steps": steps}}
            out = tmp_path / f"span{span:g}"
            assert run(tmp_path, "berry", config=cfg, out=out) == 0
            report, _ = load(out)
            assert report["fiber_gap_deviation"] <= 1e-8
            holonomies[span] = cli._deser_matrix(report["holonomy_geometric"])
        for holonomy in holonomies.values():
            assert np.linalg.norm(holonomy - holonomies[1.0]) <= 1e-9

    def test_open_path_exits_3(self, tmp_path):
        cfg = {"version": 1, "n": 3, "m": 1,
               "schedule": {"kind": "constant", "norm": 2.0}}
        assert run(tmp_path, "berry", config=cfg, steps=500) == 3

    def test_geometric_curve_default_omega_spans_the_grid(self, tmp_path):
        # omega defaults to 2 pi / (t1 - t0): one turn of the latitude, not two
        cfg = {"version": 1, "grid": {"t0": 0.0, "t1": 2.0, "steps": 2000},
               "schedule": {"kind": "geometric_from_curve", "theta": 1.2}}
        out = tmp_path / "run"
        assert run(tmp_path, "berry", config=cfg, out=out) == 0
        report, _ = load(out)
        reference = np.pi * (1.0 - np.cos(1.2))
        phase = report["berry_phase_arg"]
        deviation = min(abs(np.angle(np.exp(1j * (phase - sign * reference))))
                        for sign in (1, -1))
        assert deviation <= 1e-6


@pytest.mark.parametrize("cfg, steps", [
    ({"version": 1, "n": 2, "m": 1, "seed": 0,
      "schedule": {"kind": "rotating", "theta": np.pi / 2, "omega": 2 * np.pi}}, 400),
    ({"version": 1, "n": 4, "m": 2, "seed": 0,
      "schedule": {"kind": "geometric_from_curve"}}, 200),
], ids=["berry-rotating", "berry-geometric"])
def test_frame_oracle_is_the_projector_oracle(tmp_path, cfg, steps):
    # the oracle of berry and holonomy reports, from frame overlaps, and the public
    # oracle on the projectors phi_k phi_k* of the same run, against the per-sample loop
    cfg_file = tmp_path / "config.json"
    cfg_file.write_text(json.dumps(cfg))
    loaded = load_config(build_parser().parse_args(
        ["berry", "--config", str(cfg_file), "--steps", str(steps)]))
    tol = build_tolerances(loaded)
    schedule, p0, sigma, grid = build_setup(loaded, tol)
    res = berry_maps(schedule, p0, sigma, grid, tol)
    frames = res.frame_path.samples
    samples = frames @ dag(frames)
    reference = pancharatnam_reference(samples, sigma, tol)
    assert np.linalg.norm(cli._closed_oracle(res, tol) - reference) <= 1e-12
    assert np.linalg.norm(pancharatnam_oracle(samples, sigma, tol) - reference) <= 1e-12


class TestFlow:
    def test_report_contract(self, tmp_path):
        cfg = {"version": 1, "n": 4, "m": 2,
               "schedule": {"kind": "constant", "norm": 2.0}}
        out = tmp_path / "run"
        assert run(tmp_path, "flow", config=cfg, seed=3, steps=400, out=out) == 0
        report, csv_lines = load(out)
        for key in REQUIRED_KEYS:
            assert key in report
        assert report["berry_phase_arg"] is None  # open path, m = 2
        assert csv_lines[0] == CSV_HEADER
        assert len(csv_lines) - 1 == 401
        for line in csv_lines[1:]:
            assert all(np.isfinite(float(v)) for v in line.split(","))

    def test_config_echo_holds_only_the_schedule_keys_given(self, tmp_path):
        cfg = {"version": 1, "n": 3, "m": 1,
               "schedule": {"kind": "constant", "norm": 2.0}}
        out = tmp_path / "run"
        assert run(tmp_path, "flow", config=cfg, steps=20, out=out) == 0
        report, _ = load(out)
        assert report["config"]["schedule"] == {"kind": "constant", "norm": 2.0}

    def test_overflowing_state_exits_3_without_a_traceback(self, tmp_path):
        # a generator of norm 1e200 overflows the RK4 stages to inf and NaN
        cfg = {"n": 3, "m": 1, "grid": {"steps": 10},
               "schedule": {"kind": "constant", "norm": 1e200}}
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        result = subprocess.run([sys.executable, "-m", "grassflow.cli", "flow", "--config",
                                 str(tmp_path / "config.json"), "--out", str(tmp_path / "run")],
                                capture_output=True, text=True, env=env)
        assert result.returncode == 3, result.stderr
        assert "Traceback" not in result.stderr
        assert "non-finite" in result.stderr
        assert not (tmp_path / "run.csv").exists()

    def test_generator_accepted_at_entry_is_integrated(self, tmp_path):
        # A + 4e-9 S passes the config's anti-Hermitian check; the energy column is
        # Re(-i tr(phi_k* H phi_k)), held to no second realness rule after the run
        a = random_antihermitian(3, np.random.default_rng(92))
        h_mat = 2.0 * a / np.linalg.norm(a) + 4e-9 * np.diag([1.0, -1.0, 0.0]) / np.sqrt(2.0)
        cfg = {"version": 1, "n": 3, "m": 1, "grid": {"steps": 50},
               "schedule": {"kind": "constant", "matrix": cli._ser_matrix(h_mat)}}
        out = tmp_path / "run"
        assert run(tmp_path, "flow", config=cfg, out=out) == 0
        energies = [float(line.split(",")[-1]) for line in load(out)[1][1:]]
        loaded = load_config(build_parser().parse_args(
            ["flow", "--config", str(tmp_path / "config.json")]))
        schedule, p0, sigma, grid = build_setup(loaded, build_tolerances(loaded))
        phis = berry_maps(schedule, p0, sigma, grid).frame_path.samples
        want = (-1j * np.trace(dag(phis) @ h_mat @ phis, axis1=1, axis2=2)).real
        np.testing.assert_allclose(energies, want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("command, cfg", [
        ("flow", {"version": 1, "n": 3, "m": 1, "seed": 9,
                  "schedule": {"kind": "constant", "norm": 1.5}}),
        ("holonomy", {"version": 1}),
        ("synthesize", {"version": 1, "n": 3, "m": 2, "seed": 9,
                        "synthesize": {"scale": 0.1}}),
    ], ids=["flow", "holonomy", "synthesize"])
    def test_determinism(self, tmp_path, command, cfg):
        out = tmp_path / "run"
        for _ in range(2):
            assert run(tmp_path, command, config=cfg, steps=300, out=out) == 0
            csv_a = (tmp_path / "run.csv").read_bytes()
            rep = json.loads((tmp_path / "run.json").read_text())
            rep.pop("wall_time_s")  # measured time is the one nondeterministic field
            if _ == 0:
                first_csv, first_json = csv_a, json.dumps(rep)
        assert csv_a == first_csv
        assert json.dumps(rep) == first_json


class TestHolonomy:
    def test_rotating_loop(self, tmp_path):
        out = tmp_path / "run"
        assert run(tmp_path, "holonomy", steps=2000, out=out) == 0
        report, csv_lines = load(out)
        assert report["oracle_deviation"] <= 2e-3
        assert abs(abs(report["berry_phase_arg"]) - np.pi) <= 1e-3
        assert len(csv_lines) - 1 == 2001

    def test_open_loop_exits_3(self, tmp_path):
        cfg = {"version": 1, "n": 4, "m": 2,
               "schedule": {"kind": "constant", "norm": 2.0}}
        assert run(tmp_path, "holonomy", config=cfg, steps=300) == 3

    def test_matches_the_transported_projector_loop(self, tmp_path):
        # the frame-first run against transport co-integrated with the
        # projector flow, on the same seeded inputs; the reference steps a 4x finer
        # grid, since at the run's 800 steps its own error reaches about 2e-10
        cfg = {"version": 1, "n": 4, "m": 2,
               "schedule": {"kind": "geometric_from_curve"}}
        out = tmp_path / "run"
        assert run(tmp_path, "holonomy", config=cfg, steps=800, out=out) == 0
        report, _ = load(out)
        loaded = load_config(build_parser().parse_args(
            ["holonomy", "--config", str(tmp_path / "config.json"), "--steps", "800"]))
        tol = build_tolerances(loaded)
        schedule, p0, sigma, grid = build_setup(loaded, tol)
        fine = TimeGrid(grid.t0, grid.t1, 4 * grid.steps)
        frames = cointegrated_transport(schedule, p0, sigma, fine, tol).samples
        reference = dag(frames[0]) @ frames[-1]
        got = np.array([[complex(z["re"], z["im"]) for z in row]
                        for row in report["holonomy_geometric"]])
        assert np.linalg.norm(got - reference) <= 1e-10


class TestSynthesize:
    def test_scalar_generator(self, tmp_path):
        cfg = {"version": 1, "n": 2, "m": 1,
               "synthesize": {"scale": 0.1,
                              "w": [[{"re": 0.0, "im": 1.0}]]}}
        out = tmp_path / "run"
        assert run(tmp_path, "synthesize", config=cfg, steps=1024, out=out) == 0
        report, csv_lines = load(out)
        assert report["synthesis_deviation"] <= 1e-3
        # the echoed grid matches the rows actually written
        assert len(csv_lines) - 1 == report["config"]["grid"]["steps"] + 1

    def test_matrix_generator(self, tmp_path):
        cfg = {"version": 1, "n": 5, "m": 2, "synthesize": {"scale": 0.1}}
        out = tmp_path / "run"
        assert run(tmp_path, "synthesize", config=cfg, seed=5, steps=1024,
                   out=out) == 0
        report, _ = load(out)
        assert report["synthesis_deviation"] <= 5e-3


    def test_benchmark_loop_is_the_library_loop(self, tmp_path, monkeypatch):
        # n = 6, m = 2, seed 0, scale 0.1, 8000 steps: the CLI transports the loop's
        # graph-frame section and never forms its projector stack, and its holonomy is
        # loop_holonomy of the projector samples of the same loop
        def refuse(*args):
            raise AssertionError("chart_projectors called")

        monkeypatch.setattr("grassflow.grassmann.chart_projectors", refuse)
        monkeypatch.setattr("grassflow.dynamics.chart_projectors", refuse)
        cfg = {"version": 1, "n": 6, "m": 2, "seed": 0, "synthesize": {"scale": 0.1}}
        out = tmp_path / "run"
        assert run(tmp_path, "synthesize", config=cfg, steps=8000, out=out) == 0
        report, csv_lines = load(out)
        assert len(csv_lines) - 1 == 8001
        assert report["closure_residual"] == 0.0
        assert report["synthesis_deviation"] <= 5e-3
        monkeypatch.undo()
        path = synthesize_holonomy_step(cli._deser_matrix(report["generator"]), 0.1,
                                        BasePoint.standard(6, 2), 2000)
        holonomy = cli._deser_matrix(report["holonomy_geometric"])
        assert np.abs(holonomy - loop_holonomy(path, np.eye(6)[:, :2])).max() <= 1e-14

    def test_loop_too_coarse_for_its_fibers_is_an_invariant_failure(self, tmp_path):
        # |w| = 1e10 at scale 0.5: consecutive samples of the 65-node loop are nearly
        # orthogonal fibers, a DegenerateStep (exit 2), not a holonomy
        w = [[{"re": 0.0, "im": 1e10}, {"re": 0.0, "im": 0.0}],
             [{"re": 0.0, "im": 0.0}, {"re": 0.0, "im": -1e10}]]
        cfg = {"version": 1, "n": 6, "m": 2, "synthesize": {"scale": 0.5, "w": w}}
        assert run(tmp_path, "synthesize", config=cfg, steps=64, out=tmp_path / "run") == 2

    @pytest.mark.parametrize("im", [1e200, 1e300])
    def test_huge_generator_exits_3_without_a_warning(self, tmp_path, capsys, im):
        # the graph frames' norms overflow: NonFinite (exit 3); a numpy warning, an error
        # in this suite, neither from the zero test of w nor from the section
        cfg = {"n": 3, "m": 1, "synthesize": {"scale": 0.5, "w": [[{"re": 0, "im": im}]]}}
        assert run(tmp_path, "synthesize", config=cfg, steps=64, out=tmp_path / "run") == 3
        assert "loop frame norm contains non-finite entries" in capsys.readouterr().err
        assert not (tmp_path / "run.csv").exists()

    def test_one_curvature_generators_call_per_run(self, tmp_path, monkeypatch):
        calls = []
        original = cli.curvature_generators

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        # bound by name in both modules that could call it
        monkeypatch.setattr(cli, "curvature_generators", counting)
        monkeypatch.setattr("grassflow.dynamics.curvature_generators", counting)
        cfg = {"version": 1, "n": 5, "m": 2, "synthesize": {"scale": 0.1}}
        assert run(tmp_path, "synthesize", config=cfg, steps=256,
                   out=tmp_path / "run") == 0
        assert len(calls) == 1


class TestCsvFormat:
    def test_rows_are_byte_identical_to_17g(self, tmp_path):
        specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e300,
                    1e-300, -1e300, -1e-300, 1.0, 0.1, 1 / 3, 2.0 ** 53 + 1]
        rng = np.random.default_rng(0)
        floats = np.concatenate([
            specials,
            rng.standard_normal(2000) * 10.0 ** rng.integers(-320, 308, 2000),
            rng.integers(0, 2 ** 63, 2000, dtype=np.uint64).view(np.float64)])
        floats = np.concatenate([floats, np.zeros(-len(floats) % 5)])
        table = floats.reshape(-1, 5)
        prefix = tmp_path / "fmt"
        write_report({"output": str(prefix)}, table, {})
        expected = CSV_HEADER + "\n" + "".join(
            ",".join(f"{x:.17g}" for x in row) + "\n" for row in table.tolist())
        assert (tmp_path / "fmt.csv").read_text() == expected

    @staticmethod
    def check_rendering(tmp_path, floats):
        """The written CSV of ``floats`` (zero-padded to whole rows) is byte for byte the
        old one-operation rendering ``_CSV_ROW * rows % values``."""
        floats = np.asarray(floats, dtype=float)
        table = np.concatenate([floats, np.zeros(-len(floats) % 5)]).reshape(-1, 5)
        write_report({"output": str(tmp_path / "fmt")}, table, {})
        expected = CSV_HEADER + "\n" + cli._CSV_ROW * len(table) % tuple(table.ravel().tolist())
        assert (tmp_path / "fmt.csv").read_bytes() == expected.encode()

    @staticmethod
    def count_fallbacks(monkeypatch):
        """The sizes of the calls to Python's formatter, the kernel's one other path."""
        calls, fallback = [], cli._python_17g
        monkeypatch.setattr(cli, "_python_17g", lambda v: calls.append(len(v)) or fallback(v))
        return calls

    @staticmethod
    def with_neighbours(values):
        values = np.asarray(values, dtype=float)
        near = np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])
        return np.concatenate([near, -near])

    def test_powers_of_ten_and_their_neighbours(self, tmp_path):
        # every power of ten of the exact range [1e-200, 1e16] and ten beyond each end
        self.check_rendering(tmp_path, self.with_neighbours([float(f"1e{k}")
                                                             for k in range(-210, 27)]))

    def test_ties_round_half_to_even(self, tmp_path, monkeypatch):
        ties = [123456789012345.625, 1000000000000000.25, 1000000000000000.75]
        calls = self.count_fallbacks(monkeypatch)
        self.check_rendering(tmp_path, ties + [-x for x in ties])
        assert calls == [6]  # exact ties are Python's to round
        rows = (tmp_path / "fmt.csv").read_text().splitlines()
        assert rows[1].split(",")[:3] == ["123456789012345.62", "1000000000000000.2",
                                          "1000000000000000.8"]

    def test_rounding_up_into_the_next_decade(self, tmp_path):
        self.check_rendering(tmp_path, self.with_neighbours(
            [np.nextafter(1e16, 0.0), 99999999999999.995, np.nextafter(1e-4, 0.0),
             9.9999999999999999e-5, 0.99999999999999994, 999999999999999.94]))

    def test_fixed_and_scientific_notation_switch(self, tmp_path):
        self.check_rendering(tmp_path, self.with_neighbours([1e-5, 1e-4, 1e16, 1e17]))
        rows = (tmp_path / "fmt.csv").read_text().splitlines()
        assert rows[1].split(",")[:4] == ["1.0000000000000001e-05", "0.0001",
                                          "10000000000000000", "1e+17"]

    def test_zeros_and_non_finite_and_subnormal_values(self, tmp_path):
        self.check_rendering(tmp_path, [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324,
                                        -5e-324, 2.2250738585072009e-308, 1e-310, 1.7e308])
        assert (tmp_path / "fmt.csv").read_text().splitlines()[1] == "0,-0,nan,nan,inf"

    @pytest.mark.parametrize("rows", [1, 511, 512, 513, 1025])
    def test_tables_across_block_edges(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        floats = rng.standard_normal(5 * rows) * 10.0 ** rng.integers(-30, 17, 5 * rows)
        floats[::7] = 0.0
        self.check_rendering(tmp_path, floats)
        assert len((tmp_path / "fmt.csv").read_text().splitlines()) == rows + 1

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_any_floats_render_as_17g(self, floats):
        with tempfile.TemporaryDirectory() as folder:
            self.check_rendering(Path(folder), floats)

    def test_workload_tables_take_the_exact_path(self, tmp_path, monkeypatch):
        """Seeded berry-rotating and synthesize-n6m2 runs render no value through Python's
        formatter, so a kernel that sent every value there would fail here."""
        calls = self.count_fallbacks(monkeypatch)
        self.check_rendering(tmp_path, [np.nan])
        assert calls == [1]  # the counter sees the one fallback
        calls.clear()
        grid = {"t0": 0.0, "t1": 1.0}
        for seed in (0, 1):
            rotating = {"n": 2, "m": 1, "seed": seed, "grid": {**grid, "steps": 4000},
                        "schedule": {"kind": "rotating", "theta": np.pi / 2,
                                     "omega": 2 * np.pi}}
            assert run(tmp_path, "berry", config=rotating, out=tmp_path / "rot") == 0
            synthesis = {"n": 6, "m": 2, "seed": seed, "grid": {**grid, "steps": 8000},
                         "synthesize": {"scale": 0.1}}
            assert run(tmp_path, "synthesize", config=synthesis, out=tmp_path / "syn") == 0
        assert calls == []

    def test_chart_table_does_not_depend_on_the_blocks(self, tmp_path, monkeypatch):
        # 10 trials in blocks of 3 (n = 2): the last block is partial, and the table is the
        # one-block run's, its t column the trial numbers
        assert run(tmp_path, "chart", steps=9, out=tmp_path / "whole") == 0
        monkeypatch.setattr(dynamics, "_TABLE_BYTES", 3 * 4 * (4 * 16 * 2 * 2))
        assert cli._transport_block(2) // 4 == 3
        assert run(tmp_path, "chart", steps=9, out=tmp_path / "blocks") == 0
        whole, blocks = (load(tmp_path / name)[1] for name in ("whole", "blocks"))
        assert blocks == whole and len(blocks) == 11
        table = np.array([[float(x) for x in line.split(",")] for line in blocks[1:]])
        assert table[:, 0].tolist() == list(range(10))
        assert blocks[1:] == [",".join(f"{x:.17g}" for x in row) for row in table.tolist()]


def test_scipy_is_not_imported(tmp_path):
    """No scipy on the import path or in chart, flow, berry and synthesize runs, and no
    numpy.ma either: its cold import (a first ``np.unique`` loads it) costs a few ms.  Nor
    numpy.random: the seeded runs draw from the stdlib stream of ``_SeededStream``, and the
    default berry run and the latitude loop draw nothing."""
    script = """
import json, sys
import grassflow.cli as cli
loaded = lambda: [name in sys.modules for name in ('scipy', 'numpy.ma', 'numpy.random')]
seen = [loaded()]
for command, steps, config in json.loads(sys.argv[1]):
    path = sys.argv[2] + '/' + command + '.json'
    with open(path, 'w') as fh:
        json.dump(config, fh)
    assert cli.main([command, '--config', path, '--steps', str(steps),
                     '--out', sys.argv[2] + '/' + command]) == 0
    seen.append(loaded())
print(json.dumps(seen))
"""
    runs = [["chart", 64, {"n": 4, "m": 2}],
            ["berry", 300, {}],
            ["flow", 64, {"n": 6, "m": 2, "schedule": {"kind": "constant"}}],
            ["berry", 300, {"n": 4, "m": 2, "schedule": {"kind": "geometric_from_curve"}}],
            ["berry", 300, {"schedule": {"kind": "geometric_from_curve", "theta": 1.2}}],
            ["synthesize", 256, {"n": 5, "m": 2, "synthesize": {"scale": 0.1}}]]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", script, json.dumps(runs), str(tmp_path)],
                            capture_output=True, text=True, env=env, check=True)
    assert json.loads(result.stdout.splitlines()[-1]) == [[False] * 3] * (len(runs) + 1)


def test_importing_the_cli_leaves_selftest_unloaded():
    """Only the selftest subcommand imports grassflow.selftest, so no other run compiles it."""
    script = """
import sys
import grassflow.cli as cli
loaded = 'grassflow.selftest' in sys.modules
assert cli.main(['flow', '--steps', '4']) == 0
print(loaded, 'grassflow.selftest' in sys.modules)
"""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True, env=env, check=True)
    assert result.stdout.splitlines()[-1] == "False False"


_SAMPLE_VALUE = [[{"re": 0.0, "im": 1.0}, {"re": 0.0, "im": 0.0}],
                 [{"re": 0.0, "im": 0.0}, {"re": 0.0, "im": -1.0}]]


@pytest.mark.parametrize("schedule, n, m", [
    ({"kind": "rotating"}, 2, 1),
    ({"kind": "constant"}, 4, 2),
    ({"kind": "constant", "norm": 3.0}, 3, 1),
    ({"kind": "constant", "matrix": _SAMPLE_VALUE}, 2, 1),
    ({"kind": "sampled", "values": [_SAMPLE_VALUE] * 5}, 2, 1),
    ({"kind": "geometric_from_curve"}, 4, 2),
    ({"kind": "geometric_from_curve", "theta": 1.2}, 2, 1),
], ids=["rotating", "constant", "constant-norm", "constant-matrix", "sampled",
        "random-loop", "latitude"])
def test_seeded_setup_draws_one_stream_in_order(schedule, n, m):
    # build_setup against the draws of one _SeededStream(seed), taken in this order:
    # a constant generator, then the start frame; or the random loop's a, then b
    tol = Tolerances()
    grid = TimeGrid(0.0, 1.0, 4)
    times = grid.t0 + (grid.h / 2.0) * np.arange(2 * grid.steps + 1)
    for seed in range(10):
        cfg = {"n": n, "m": m, "seed": seed, "schedule": schedule,
               "grid": {"t0": grid.t0, "t1": grid.t1, "steps": grid.steps}}
        table, p0, sigma = _seeded_reference(schedule, n, m, grid, _SeededStream(seed))
        got_schedule, got_p0, got_sigma, _ = build_setup(cfg, tol)
        np.testing.assert_array_equal(got_schedule.table(times, n), table(times))
        np.testing.assert_array_equal(got_p0.matrix, p0.matrix)
        np.testing.assert_array_equal(got_sigma, sigma)
        assert got_p0.rank == p0.rank


def _seeded_reference(schedule, n, m, grid, rng):
    """The schedule table, p0 and sigma of a config, drawn from ``rng`` in the CLI's order."""
    kind = schedule["kind"]
    if kind == "rotating":
        table, p0 = rotating_schedule(2 * np.pi).table, bloch_projector(np.pi / 2)
    elif kind == "sampled":
        table = sampled_schedule(grid, [cli._deser_matrix(_SAMPLE_VALUE)] * 5).table
        p0 = Projector.from_frame(random_frame(n, m, rng))
    elif kind == "constant":
        if "matrix" in schedule:
            h_mat = cli._deser_matrix(_SAMPLE_VALUE)
        else:
            h_mat = random_antihermitian(n, rng)
            h_mat *= schedule.get("norm", 2.0) / np.linalg.norm(h_mat)
        table = constant_schedule(h_mat).table
        p0 = Projector.from_frame(random_frame(n, m, rng))
    elif "theta" in schedule:
        p0 = bloch_projector(schedule["theta"])
        omega, turn = 2 * np.pi / (grid.t1 - grid.t0), np.diag([0.0, 1j])
        table = _orbit_schedule(p0.matrix, lambda t: (
            np.multiply.outer(omega * (t - grid.t0), turn),
            np.broadcast_to(omega * turn, t.shape + turn.shape))).table
    else:
        a, b = random_antihermitian(n, rng), random_antihermitian(n, rng)
        a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
        p0, span = Projector.standard(n, m), grid.t1 - grid.t0

        def exponent(t):
            s = 2 * np.pi * (t[:, np.newaxis, np.newaxis] - grid.t0) / span
            return (np.sin(s) * a + (1.0 - np.cos(s)) * b,
                    (2 * np.pi / span) * (np.cos(s) * a + np.sin(s) * b))

        table = _orbit_schedule(p0.matrix, exponent).table
    return table, p0, BasePoint.from_projector(p0).frame


class TestSelftest:
    def test_green_and_deterministic(self, capsys, tmp_path):
        assert main(["selftest"]) == 0
        first = capsys.readouterr().out
        assert main(["selftest", "--out", str(tmp_path / "self")]) == 0
        assert capsys.readouterr().out == first == (tmp_path / "self.txt").read_text()
        assert "all" in first and "passed" in first

    @pytest.mark.parametrize("values, passed", [
        ([1e-15, np.nan, 2e-15], False), ([np.nan], False), ([2e-15, 1e-15], True),
    ])
    def test_guard_keeps_a_nan_from_any_trial(self, values, passed):
        from grassflow import selftest

        trials, results = iter(values), []
        selftest._guard(results, "check", 1e-12, lambda: next(trials), trials=len(values))
        (row,) = results
        assert row.passed is passed and row.note == ""
        np.testing.assert_array_equal(row.value, max(values) if passed else np.nan)

    def test_tolerance_override_forces_failures(self, tmp_path, capsys):
        cfg = {"version": 1, "tolerances": {"structural": 1e-30, "comparison": 1e-30}}
        assert run(tmp_path, "selftest", config=cfg) == 2
        assert "FAIL" in capsys.readouterr().out


class TestUsage:
    def test_no_subcommand(self):
        assert main([]) == 1

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize("argv", [["--help"], ["flow", "--help"]])
    def test_help_is_one_page_of_every_command(self, argv, capsys):
        assert main(argv) == 0
        out = capsys.readouterr().out
        for name, command in cli._COMMANDS.items():
            assert f"  {name:<12}{command.__doc__}\n" in out

    @pytest.mark.parametrize("argv", [["nosuch"], ["berry", "--bogus"], ["berry", "flow"]])
    def test_bad_command_line_exits_1(self, argv):
        assert main(argv) == 1

    def test_options_may_precede_the_command(self, tmp_path):
        assert main(["--steps", "9", "--out", str(tmp_path / "before"), "chart"]) == 0
        assert main(["chart", "--steps", "9", "--out", str(tmp_path / "after")]) == 0
        assert load(tmp_path / "before")[1] == load(tmp_path / "after")[1]

    def test_unknown_tolerance_key(self, tmp_path):
        assert run(tmp_path, "chart",
                   config={"version": 1, "tolerances": {"bogus": 1.0}}) == 1

    def test_hermitian_constant_matrix_rejected_before_integrating(self, tmp_path):
        hermitian = [[{"re": 1.0, "im": 0.0}, {"re": 0.0, "im": 0.5}],
                     [{"re": 0.0, "im": -0.5}, {"re": -1.0, "im": 0.0}]]
        cfg = {"version": 1, "schedule": {"kind": "constant", "matrix": hermitian}}
        out = tmp_path / "run"
        assert run(tmp_path, "flow", config=cfg, steps=10, out=out) == 1
        assert not (tmp_path / "run.csv").exists()

    def test_hermitian_sampled_value_rejected_before_integrating(self, tmp_path):
        zero = [[{"re": 0.0, "im": 0.0}] * 2] * 2
        hermitian = [[{"re": 1.0, "im": 0.0}, {"re": 0.0, "im": 0.0}],
                     [{"re": 0.0, "im": 0.0}, {"re": -1.0, "im": 0.0}]]
        cfg = {"version": 1,
               "schedule": {"kind": "sampled", "values": [zero] * 10 + [hermitian]}}
        out = tmp_path / "run"
        assert run(tmp_path, "flow", config=cfg, steps=10, out=out) == 1
        assert not (tmp_path / "run.csv").exists()

    @pytest.mark.parametrize("command, config_text", [
        pytest.param("flow", '{"schedule": {"kind": "rotating", "theta": "abc"}}',
                     id="theta_text"),
        pytest.param("flow", '{"schedule": {"kind": "rotating", "theta": 1e400}}',
                     id="theta_overflow"),
        pytest.param("flow", '{"schedule": {"kind": "constant", "matrix": [[{"re": 0, '
                     '"im": 1}, {"re": 0, "im": 0}], [{"re": 0, "im": 0}]]}}',
                     id="ragged_matrix"),
        pytest.param("flow", '{"n": 3, "schedule": {"kind": "constant", "norm": "x"}}',
                     id="norm_text"),
        pytest.param("flow", '{"seed": "abc"}', id="seed_text"),
        pytest.param("flow", '{"seed": -1}', id="seed_negative"),
        pytest.param("flow", '{"grid": {"steps": "abc"}}', id="steps_text"),
        pytest.param("flow", '{"grid": {"steps": 2.5}}', id="steps_fraction"),
        pytest.param("flow", '{"grid": {"t0": "x"}}', id="t0_text"),
        pytest.param("flow", '{"grid": "x"}', id="grid_not_object"),
        pytest.param("flow", '{"schedule": "x"}', id="schedule_not_object"),
        pytest.param("flow", '{"tolerances": {"ode": "x"}}', id="tolerance_text"),
        pytest.param("flow", '{"output": 5}', id="output_not_string"),
        pytest.param("synthesize", '{"synthesize": {"scale": 0.7}}', id="scale_above_half"),
        pytest.param("synthesize", '{"synthesize": {"scale": "x"}}', id="scale_text"),
        pytest.param("synthesize", '{"synthesize": "x"}', id="synthesize_not_object"),
        pytest.param("synthesize", '{"synthesize": {"scal": 0.3}}',
                     id="synthesize_unknown_key"),
        pytest.param("flow", '{"schedule": {"kind": "rotating", "thet": 1.0}}',
                     id="schedule_unknown_key"),
        pytest.param("flow", '{"n": 3, "schedule": {"kind": "constant", "matrx": []}}',
                     id="constant_schedule_unknown_key"),
        pytest.param("chart", '{"schedule": {"kind": "warp", "bogus": 1}}',
                     id="chart_unknown_schedule_kind"),
        pytest.param("chart", '{"schedule": {"kind": "rotating", "bogus": 1}}',
                     id="chart_unknown_schedule_key"),
        pytest.param("synthesize", '{"schedule": {"kind": "warp"}}',
                     id="synthesize_unknown_schedule_kind"),
        pytest.param("berry", '{"n": 4, "m": 2, "schedule": {"kind": '
                     '"geometric_from_curve", "omega": 3.0}}',
                     id="geometric_omega_without_theta"),
        pytest.param("berry", '{"n": 4, "m": 2, "schedule": {"kind": '
                     '"geometric_from_curve", "theta": 1.0, "omega": 3.0}}',
                     id="geometric_theta_off_the_bloch_sphere"),
    ])
    def test_bad_config_value_exits_1(self, tmp_path, command, config_text):
        cfg_file = tmp_path / "config.json"
        cfg_file.write_text(config_text)
        out = tmp_path / "run"
        assert main([command, "--config", str(cfg_file), "--out", str(out)]) == 1
        assert not (tmp_path / "run.csv").exists()

    @pytest.mark.parametrize("config_text, message", [
        pytest.param(None, "cannot read config", id="missing_file"),
        pytest.param('{"n": 2,', "cannot read config", id="invalid_json"),
        pytest.param("[1, 2]", "config must be a JSON object", id="json_array"),
        pytest.param('{"tolerances": {"structural": 1e-6, "comparison": 1e-8}}',
                     "bad tolerances", id="structural_above_comparison"),
        pytest.param('{"n": 3, "schedule": {"kind": "rotating"}}', "requires n=2, m=1",
                     id="rotating_at_n3"),
        pytest.param('{"grid": {"steps": 4}, "schedule": {"kind": "sampled", "values": '
                     + json.dumps([[[{"re": 0, "im": 0}] * 2] * 2] * 4) + '}}',
                     "grid.steps + 1 values", id="sampled_wrong_count"),
    ])
    def test_config_error_exits_1_with_its_cause(self, tmp_path, capsys, config_text, message):
        # a config file that is missing, not JSON or not an object, tolerances out of order, a
        # rotating schedule off n = 2 and sampled values not one per node each end the run
        # before any output
        cfg_file = tmp_path / "config.json"
        if config_text is not None:
            cfg_file.write_text(config_text)
        out = tmp_path / "run"
        assert main(["flow", "--config", str(cfg_file), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not list(tmp_path.glob("run.*"))

    @pytest.mark.parametrize("w", [
        [[{"re": 1.0, "im": 0.0}]],            # Hermitian, not anti-Hermitian
        [[{"re": 0.0, "im": float("inf")}]],   # non-finite
        [[{"re": 0.0, "im": 1.0}] * 2] * 2,    # 2 x 2 for m = 1
    ], ids=["hermitian", "non_finite", "wrong_shape"])
    def test_bad_synthesize_generator_exits_1(self, tmp_path, w):
        cfg = {"version": 1, "synthesize": {"scale": 0.1, "w": w}}
        out = tmp_path / "run"
        assert run(tmp_path, "synthesize", config=cfg, steps=64, out=out) == 1
        assert not (tmp_path / "run.csv").exists()

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    @pytest.mark.parametrize("config", [
        {"synthesize": {"bogus": 1}},
        {"synthesize": {"scale": 0.9}},
        {"schedule": {"kind": "rotating", "theta": "x"}},
        {"schedule": {"kind": "constant", "norm": "big"}},
    ], ids=["synthesize_unknown_key", "scale_above_half", "theta_text", "norm_text"])
    def test_every_subcommand_rejects_the_same_config(self, tmp_path, capsys, command, config):
        out = tmp_path / "run"
        assert run(tmp_path, command, config=config, steps=20, out=out) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not list(tmp_path.glob("run.*"))

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_out_into_a_missing_directory_exits_1_before_the_run(self, tmp_path, capsys,
                                                                 monkeypatch, command):
        def never(*args):
            pytest.fail("the run started")
        monkeypatch.setattr(cli, "berry_maps", never)
        monkeypatch.setitem(cli._COMMANDS, command, never)
        assert main([command, "--steps", "20", "--out", str(tmp_path / "missing" / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: output directory") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, suffix", [("chart", ".csv"), ("selftest", ".txt")])
    def test_unwritable_report_exits_1_with_one_error_line(self, tmp_path, capsys,
                                                          command, suffix):
        (tmp_path / ("run" + suffix)).mkdir()  # the report file cannot be opened
        assert main([command, "--steps", "9", "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write report") and err.count("\n") == 1

    def test_report_is_rejected_as_config(self, tmp_path):
        assert run(tmp_path, "chart", steps=9, out=tmp_path / "first") == 0
        out = tmp_path / "run"
        assert main(["flow", "--config", str(tmp_path / "first.json"),
                     "--out", str(out)]) == 1
        assert not (tmp_path / "run.csv").exists()

    def test_unknown_grid_key(self, tmp_path):
        out = tmp_path / "run"
        assert run(tmp_path, "flow", config={"version": 1, "grid": {"step": 100}},
                   out=out) == 1
        assert not (tmp_path / "run.csv").exists()

    def test_invalid_grid_span_exits_1(self, tmp_path, capsys):
        # TimeGrid raises InvalidArgument, which main reports as a usage error
        cfg = {"version": 1, "grid": {"t0": 1.0, "t1": 0.5, "steps": 10}}
        assert run(tmp_path, "flow", config=cfg, out=tmp_path / "run") == 1
        assert "error: t1 must exceed t0" in capsys.readouterr().err
        assert not (tmp_path / "run.csv").exists()

    def test_grid_step_below_the_smallest_float_exits_1(self, tmp_path, capsys):
        cfg = {"version": 1, "grid": {"t0": 0.0, "t1": 5e-324, "steps": 16}}
        assert run(tmp_path, "flow", config=cfg, out=tmp_path / "run") == 1
        assert "nonzero step" in capsys.readouterr().err

    def test_overflowing_grid_span_exits_1(self, tmp_path, capsys):
        # t1 - t0 overflows to inf: rejected with the grid, before integrating
        cfg = {"version": 1, "grid": {"t0": -1e308, "t1": 1e308, "steps": 10}}
        assert run(tmp_path, "flow", config=cfg, out=tmp_path / "run") == 1
        assert "finite nonzero step" in capsys.readouterr().err
        assert not (tmp_path / "run.csv").exists()

    def test_tiny_grid_step_exits_3_on_an_infinite_horizontality_defect(self, tmp_path):
        # roundoff over h = 1e-301 overflows the defect's norm; no numpy warning
        # (an error in this suite) escapes the run, and strict JSON has no Infinity:
        # the run exits 3 and writes no file
        cfg = {"version": 1, "grid": {"t0": 0.0, "t1": 1e-300, "steps": 11}}
        out = tmp_path / "run"
        assert run(tmp_path, "holonomy", config=cfg, out=out) == 3
        assert not (tmp_path / "run.csv").exists() and not (tmp_path / "run.json").exists()

    @pytest.mark.parametrize("command", ["flow", "berry", "holonomy"])
    def test_subnormal_grid_step_exits_3_without_a_warning(self, tmp_path, capsys, command):
        # the horizontality defect over h = 2.5e-321 is NaN, not a numpy warning (an error
        # in this suite), and strict JSON has no NaN: the run exits 3 and writes no file
        cfg = {"n": 2, "m": 1, "grid": {"t0": 0, "t1": 1e-320, "steps": 4}}
        assert run(tmp_path, command, config=cfg, out=tmp_path / "run") == 3
        assert "nan" in capsys.readouterr().err
        assert not (tmp_path / "run.csv").exists() and not (tmp_path / "run.json").exists()

    @pytest.mark.parametrize("command", ["berry", "flow", "holonomy", "chart", "synthesize"])
    def test_grid_too_large_to_allocate_exits_1(self, tmp_path, capsys, command):
        # 10^15 steps: the first stack of the grid (PiB) exceeds any 64-bit address space, so
        # numpy's MemoryError comes at once, and main reports it as a usage error
        assert main([command, "--steps", str(10 ** 15), "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and "Traceback" not in err
        assert not list(tmp_path.glob("run*"))

    def test_unknown_schedule_kind(self, tmp_path):
        assert run(tmp_path, "flow",
                   config={"version": 1, "schedule": {"kind": "warp"}},
                   steps=10) == 1


_COMMON_KEYS = REQUIRED_KEYS + ["closed", "horizontality_defect"]


@pytest.mark.parametrize("command, cfg, keys", [
    ("chart", {"version": 1},
     REQUIRED_KEYS + ["max_roundtrip_error", "max_equivariance_error", "trials"]),
    ("flow", {"version": 1, "n": 3, "m": 1,
              "schedule": {"kind": "constant", "norm": 2.0}}, _COMMON_KEYS),
    ("berry", {"version": 1},
     _COMMON_KEYS + ["fiber_gap_deviation", "oracle_phase_arg", "oracle_deviation",
                     "analytic_reference", "analytic_deviation"]),
    ("holonomy", {"version": 1}, _COMMON_KEYS + ["oracle_deviation"]),
    ("synthesize", {"version": 1, "synthesize": {"scale": 0.1}},
     REQUIRED_KEYS + ["scale", "generator", "predicted_holonomy",
                      "synthesis_deviation"]),
], ids=["chart", "flow", "berry", "holonomy", "synthesize"])
def test_report_keys_in_order(tmp_path, command, cfg, keys):
    out = tmp_path / "run"
    assert run(tmp_path, command, config=cfg, steps=300, out=out) == 0
    report, _ = load(out)
    assert list(report) == keys


@pytest.mark.parametrize("command", ["chart", "flow", "berry", "holonomy", "synthesize"])
def test_wall_time_is_within_the_run(tmp_path, command):
    out = tmp_path / "run"
    start = time.perf_counter()
    assert run(tmp_path, command, steps=300, out=out) == 0
    elapsed = time.perf_counter() - start
    assert 0.0 <= load(out)[0]["wall_time_s"] <= elapsed


@pytest.mark.parametrize("command, message", [
    ("flow", "flow defects exceed the ode tolerance"),
    ("berry", "berry run defects exceed the ode tolerance"),
    ("synthesize", "synthesis defects exceed the ode tolerance"),
])
def test_defects_above_the_ode_tolerance_exit_2_after_the_report(tmp_path, capsys, command,
                                                                 message):
    # no run at the default steps keeps its defects within ode = 1e-300: the report is
    # written in full, then the run exits 2 with its message on stderr
    out = tmp_path / "run"
    assert run(tmp_path, command, config={"tolerances": {"ode": 1e-300}}, out=out) == 2
    assert message in capsys.readouterr().err
    report, csv_lines = load(out)
    assert report["defect_max"] > 1e-300
    assert csv_lines[0] == CSV_HEADER and len(csv_lines) == 2002


_WRONG_TYPE = st.one_of(st.none(), st.booleans(), st.text(max_size=2),
                        st.lists(st.integers(-1, 2), max_size=2))


def _wrong_or(values):
    """``values``, one draw in eight a JSON value of the wrong type instead."""
    return st.integers(0, 7).flatmap(lambda i: _WRONG_TYPE if i == 0 else values)


_REAL = st.one_of(st.floats(-10.0, 10.0), st.sampled_from(
    [0, -1, 2, 1e-300, -1e200, 1e200, 1e308, float("inf"), float("nan")]))
_MATRIX = _wrong_or(st.lists(st.lists(st.fixed_dictionaries({"re": _REAL, "im": _REAL}),
                                      min_size=1, max_size=4), min_size=1, max_size=4))
# the known config keys, each with values of the right and the wrong type, sign and shape
CONFIGS = st.fixed_dictionaries({
    "grid": _wrong_or(st.fixed_dictionaries(
        {"steps": _wrong_or(st.integers(-1, 16))},
        optional={"t0": _wrong_or(_REAL), "t1": _wrong_or(_REAL)})),
}, optional={
    "version": _wrong_or(st.sampled_from([1, 1, 1, 0, 2])),
    "n": _wrong_or(st.integers(-1, 4)),
    "m": _wrong_or(st.integers(-1, 4)),
    "seed": _wrong_or(st.integers(-1, 3)),
    "schedule": _wrong_or(st.fixed_dictionaries(
        {"kind": _wrong_or(st.sampled_from(
            ["rotating", "constant", "sampled", "geometric_from_curve", "warp"]))},
        optional={"theta": _wrong_or(_REAL), "omega": _wrong_or(_REAL),
                  "norm": _wrong_or(_REAL), "matrix": _MATRIX,
                  "values": _wrong_or(st.lists(_MATRIX, max_size=5))})),
    "tolerances": _wrong_or(st.dictionaries(
        st.sampled_from(["structural", "ode", "comparison", "bogus"]), _wrong_or(_REAL))),
    "synthesize": _wrong_or(st.fixed_dictionaries(
        {}, optional={"scale": _wrong_or(_REAL), "w": _MATRIX})),
})


@settings(derandomize=True, database=None, deadline=None)
@given(command=st.sampled_from(["chart", "flow", "berry", "holonomy", "synthesize"]),
       cfg=CONFIGS)
def test_any_config_ends_in_an_exit_code(command, cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps({**cfg, "output": None}))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([command, "--config", str(path)])
    assert code in (0, 1, 2, 3)
