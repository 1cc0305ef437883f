import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grassflow import (BaseMismatch, DegenerateStep, GrassflowError, InvalidArgument,
                       NonFinite, NotAntiHermitian, NotClosed, OutsideChart, PathTooRough)
from grassflow import dynamics
from grassflow.bundle import curvature_generators, frame_defect, project_frame
from grassflow.dynamics import (SYNTHESIS_CURVATURE_CONSTANT, HamiltonianSchedule,
                                TimeGrid, _frame_oracle,
                                berry_maps, bloch_matrices, bloch_projector,
                                constant_schedule,
                                geometric_hamiltonian, geometric_schedule,
                                horizontal_transport, integrate_frame,
                                integrate_projector, loop_holonomy,
                                pancharatnam_oracle, rotating_schedule,
                                sampled_schedule, synthesize_holonomy_step,
                                tracking_defect, horizontality_defect,
                                FramePath, ProjectorPath)
from grassflow.grassmann import (BasePoint, Projector, chart_frames, chart_from_proj,
                                 hamiltonian_value, linear_hamiltonian, projector_defect,
                                 sampled_derivative)
from grassflow.linalg import (dag, frob, isometrize, mat_exp, nearest_projector, polar_retract,
                              random_antihermitian, random_frame, random_unitary)

from cointegrated import (block_geometric_generator, cointegrated_transport,
                          pancharatnam_reference, projection_transport)


def trig_schedule(a, b, freq=1.0):
    """H(t) = cos(freq t) a + sin(t) b, as a table over a 1-D array of times."""
    return HamiltonianSchedule(
        lambda t: np.multiply.outer(np.cos(freq * t), a) + np.multiply.outer(np.sin(t), b))


def smooth_schedule(n, rng):
    a = random_antihermitian(n, rng)
    b = random_antihermitian(n, rng)
    a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
    return trig_schedule(a, b)


def counting_schedule(inner):
    """``inner`` as a schedule that records each times array its table is given."""
    calls = []

    def table(times):
        calls.append(times)
        return inner.table(times)

    return HamiltonianSchedule(table), calls


def _berry_maps_loop(schedule, sigma, grid):
    # berry_maps on the per-step loop it takes above the crossover _SCAN_MAX_N (a constant
    # schedule takes its eigenbasis route at any n)
    with mock.patch.object(dynamics, "_SCAN_MAX_N", 0):
        return berry_maps(schedule, Projector.from_frame(sigma), sigma, grid)


# every RK4 route that reads a schedule, as route(schedule, sigma, grid); the
# berry_maps tests here are at n <= _SCAN_MAX_N, so "berry_maps" is its scan
RK4_ROUTES = {
    "berry_maps": lambda sched, sigma, grid: berry_maps(
        sched, Projector.from_frame(sigma), sigma, grid),
    "berry_maps_loop": _berry_maps_loop,
    "integrate_frame": integrate_frame,
    "integrate_projector": lambda sched, sigma, grid: integrate_projector(
        sched, Projector.from_frame(sigma), grid),
}


def _forbid_steps(monkeypatch):
    """Fail any RK4 step, recording it: a ``_rk4_step`` call, or the scan's ``prefix_products``."""
    steps = []
    for name in ("_rk4_step", "prefix_products"):
        monkeypatch.setattr(dynamics, name, lambda *args: steps.append(args) or 1 / 0)
    return steps


class TestIntegrateFrame:
    def test_zero_hamiltonian(self):
        phi0 = random_frame(4, 2, 50)
        path = integrate_frame(constant_schedule(np.zeros((4, 4))), phi0,
                               TimeGrid(0.0, 1.0, 10))
        for phi in path.samples:
            assert frob(phi - phi0) <= 1e-14

    def test_constant_hamiltonian_matches_exponential(self):
        rng = np.random.default_rng(51)
        h_mat = random_antihermitian(4, rng)
        h_mat *= 5.0 / np.linalg.norm(h_mat)
        phi0 = random_frame(4, 2, rng)
        path = integrate_frame(constant_schedule(h_mat), phi0,
                               TimeGrid(0.0, 1.0, 2000))
        assert frob(path.samples[-1] - mat_exp(h_mat) @ phi0) <= 1e-8

    def test_observed_order_against_the_exponential(self):
        rng = np.random.default_rng(51)
        h_mat = random_antihermitian(4, rng)
        h_mat *= 5.0 / np.linalg.norm(h_mat)
        phi0 = random_frame(4, 2, rng)
        errors = [frob(integrate_frame(constant_schedule(h_mat), phi0,
                                       TimeGrid(0.0, 1.0, steps)).samples[-1]
                       - mat_exp(h_mat) @ phi0)
                  for steps in (25, 50, 100)]
        orders = [np.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]
        assert all(3.7 <= order <= 4.3 for order in orders), orders

    def test_gauge_covariance(self):
        rng = np.random.default_rng(52)
        sched = smooth_schedule(4, rng)
        phi0 = random_frame(4, 2, rng)
        g = random_unitary(2, rng)
        grid = TimeGrid(0.0, 1.0, 200)
        a = integrate_frame(sched, phi0, grid)
        b = integrate_frame(sched, phi0 @ g, grid)
        for pa, pb in zip(a.samples, b.samples):
            assert frob(pb - pa @ g) <= 1e-12

    @pytest.mark.parametrize("table_bytes", [None, 3 * 32 * 4 * 4], ids=["one-table", "tables"])
    @pytest.mark.parametrize("crossover", [dynamics._SCAN_MAX_N, 0], ids=["scan", "loop"])
    @pytest.mark.parametrize("n, steps, seed", [(4, 300, 200), (5, 12, 202), (16, 60, 206)],
                             ids=["n4", "n5-coarse", "n16"])
    def test_frames_are_those_of_berry_maps(self, n, steps, seed, crossover, table_bytes,
                                            monkeypatch):
        # one frame integrator: berry_maps' frames bit for bit, retractions included
        # (the coarse grid isometrizes), in one table or many, with no per-step
        # _rk4_step on the scan
        schedule, sigma, grid = TestGaugeRoute.problem(n, steps, seed)
        monkeypatch.setattr(dynamics, "_SCAN_MAX_N", crossover)
        if table_bytes is not None:
            monkeypatch.setattr(dynamics, "_TABLE_BYTES", table_bytes)
        res = berry_maps(schedule, Projector.from_frame(sigma), sigma, grid)
        calls = []
        monkeypatch.setattr(dynamics, "_rk4_step",
                            lambda *args, step=dynamics._rk4_step: calls.append(1) or step(*args))
        frames = integrate_frame(schedule, sigma, grid).samples
        assert np.array_equal(frames, res.frame_path.samples)
        assert len(calls) == (0 if crossover else steps)

    def test_one_step_grid(self):
        # one table of three stage times, which ends at its own last node
        h_mat = random_antihermitian(3, 57)
        phi0 = random_frame(3, 1, 58)
        path = integrate_frame(constant_schedule(h_mat), phi0, TimeGrid(0.0, 0.01, 1))
        assert path.samples.shape == (2, 3, 1)
        assert frob(path.samples[-1] - mat_exp(0.01 * h_mat) @ phi0) <= 1e-11


class TestIntegrateProjector:
    def test_zero_hamiltonian(self):
        p0 = Projector.standard(4, 2)
        path = integrate_projector(constant_schedule(np.zeros((4, 4))), p0,
                                   TimeGrid(0.0, 1.0, 10))
        assert path.closure_residual() <= 1e-14

    def test_constant_hamiltonian_matches_conjugation(self):
        rng = np.random.default_rng(53)
        h_mat = random_antihermitian(4, rng)
        h_mat *= 2.0 / np.linalg.norm(h_mat)
        p0 = Projector.from_frame(random_frame(4, 2, rng))
        path = integrate_projector(constant_schedule(h_mat), p0,
                                   TimeGrid(0.0, 1.0, 2000))
        u = mat_exp(h_mat)
        assert frob(path.samples[-1] - u @ p0.matrix @ dag(u)) <= 1e-8

    def test_commuting_hamiltonian_is_fixed_point(self):
        p0 = Projector.standard(3, 1)
        h_mat = np.diag([2j, -1j, 0.5j])
        path = integrate_projector(constant_schedule(h_mat), p0,
                                   TimeGrid(0.0, 2.0, 100))
        for p in path.samples:
            assert frob(p - p0.matrix) <= 1e-12

    def test_tracks_frame_flow(self):
        rng = np.random.default_rng(54)
        for _ in range(5):
            sched = smooth_schedule(4, rng)
            phi0 = random_frame(4, 2, rng)
            grid = TimeGrid(0.0, 1.0, 500)
            fpath = integrate_frame(sched, phi0, grid)
            ppath = integrate_projector(sched, Projector.from_frame(phi0), grid)
            assert tracking_defect(ppath, fpath) <= 1e-7


class TestHorizontalTransport:
    def test_constant_path(self):
        p0 = Projector.standard(3, 1)
        path = integrate_projector(constant_schedule(np.zeros((3, 3))), p0,
                                   TimeGrid(0.0, 1.0, 10))
        sigma = np.eye(3, dtype=complex)[:, :1]
        transported = horizontal_transport(path, sigma)
        for phi in transported.samples:
            assert frob(phi - sigma) <= 1e-14

    def test_gauge_equivariance(self):
        rng = np.random.default_rng(55)
        sched = smooth_schedule(4, rng)
        phi0 = random_frame(4, 2, rng)
        path = integrate_projector(sched, Projector.from_frame(phi0),
                                   TimeGrid(0.0, 1.0, 300))
        g = random_unitary(2, rng)
        a = horizontal_transport(path, phi0)
        b = horizontal_transport(path, phi0 @ g)
        for pa, pb in zip(a.samples, b.samples):
            assert frob(pb - pa @ g) <= 1e-12

    def test_great_circle_geodesic(self):
        # the off-diagonal generator drives a great circle; its transport is
        # the one-parameter subgroup applied to the start frame
        rate = 0.8
        h_mat = np.array([[0.0, -rate], [rate, 0.0]], dtype=complex)
        p0 = Projector.standard(2, 1)
        sigma = np.eye(2, dtype=complex)[:, :1]
        path = integrate_projector(constant_schedule(h_mat), p0,
                                   TimeGrid(0.0, 1.0, 1000))
        transported = horizontal_transport(path, sigma)
        assert frob(transported.samples[-1] - mat_exp(h_mat) @ sigma) <= 1e-6

    def test_horizontality(self):
        rng = np.random.default_rng(56)
        sched = smooth_schedule(4, rng)
        phi0 = random_frame(4, 2, rng)
        path = integrate_projector(sched, Projector.from_frame(phi0),
                                   TimeGrid(0.0, 1.0, 800))
        transported = horizontal_transport(path, phi0)
        assert horizontality_defect(transported) <= 1e-6

    def test_each_step_stores_the_retraction_of_its_frame(self, monkeypatch):
        # every pre-retraction matrix passes through polar_retract: record it there.
        # Transport retracts gauges, not frames: its step maps in one stack (the fiber
        # overlaps O_k = phi_{k+1}* phi_k of the pivoted section after one Newton-Schulz
        # step), then their running products, and node k stores its section frame times
        # the latter; node 0 is sigma itself
        rng = np.random.default_rng(57)
        phi0 = random_frame(4, 2, rng)
        path = integrate_projector(smooth_schedule(4, rng), Projector.from_frame(phi0),
                                   TimeGrid(0.0, 1.0, 200))
        raw = []
        retract = dynamics.polar_retract

        def recording_retract(f, tol):
            raw.append(f.copy())
            return retract(f, tol)

        monkeypatch.setattr(dynamics, "polar_retract", recording_retract)
        transported = horizontal_transport(path, phi0)
        sections = dynamics._pivoted_section(path.samples, phi0, dynamics.DEFAULT_TOLS)
        overlaps = dag(sections[1:]) @ sections[:-1]
        newton_schulz = overlaps @ (3 * np.eye(2) - dag(overlaps) @ overlaps) / 2
        assert [f.shape for f in raw] == [(path.grid.steps, 2, 2)] * 2
        np.testing.assert_allclose(raw[0], newton_schulz, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(transported.samples[0], phi0)
        np.testing.assert_allclose(transported.samples[1:], sections[1:] @ retract(raw[1]),
                                   rtol=0, atol=1e-15)

    def test_a_flow_path_is_transported_along_its_samples(self):
        # samples that do not follow the flow integrate_projector ran are what is
        # transported: a constant path keeps sigma at every node
        rng = np.random.default_rng(74)
        sigma = random_frame(4, 2, rng)
        p0 = Projector.from_frame(sigma)
        grid = TimeGrid(0.0, 1.0, 100)
        path = dataclasses.replace(integrate_projector(smooth_schedule(4, rng), p0, grid),
                                   samples=np.repeat(p0.matrix[np.newaxis], grid.steps + 1, 0))
        np.testing.assert_allclose(horizontal_transport(path, sigma).samples,
                                   np.repeat(sigma[np.newaxis], grid.steps + 1, 0),
                                   rtol=0, atol=1e-14)

    def test_a_flow_path_is_transported_as_its_bare_samples(self):
        rng = np.random.default_rng(75)
        sigma = random_frame(4, 2, rng)
        path = integrate_projector(smooth_schedule(4, rng), Projector.from_frame(sigma),
                                   TimeGrid(0.0, 1.0, 100))
        bare = ProjectorPath(grid=path.grid, samples=path.samples.copy(), rank=path.rank)
        np.testing.assert_array_equal(horizontal_transport(path, sigma).samples,
                                      horizontal_transport(bare, sigma).samples)


def _reference_projector_defect(p, rank):
    """The one-matrix projector defect, written out term by term."""
    return max(frob(p @ p - p), frob(p - dag(p)), abs(complex(np.trace(p)) - rank))


def _reference_frame_defect(phi):
    """The one-matrix frame defect, written out."""
    return frob(dag(phi) @ phi - np.eye(phi.shape[1]))


def _violating_projectors(part, rng):
    """30 rank-2 projectors of C^9, each broken in one invariant by a per-node amount.

    In C^9 the anti-Hermitian shift i s I moves the trace by 9 s, more than the Hermitian
    defect 6 s, so only the complex modulus of tr p - rank gives that defect.
    """
    base = np.repeat(Projector.standard(9, 2).matrix[np.newaxis], 30, axis=0)
    noise = np.array([random_antihermitian(9, rng) for _ in range(30)])
    scale = rng.uniform(0.0, 0.5, 30)[:, np.newaxis, np.newaxis]
    return {"hermitian": base + 1j * scale * noise,
            "antihermitian": base + scale * noise,
            "trace": (1.0 + scale) * base,
            "imaginary-trace": base + 1j * scale * np.eye(9)}[part]


class TestProjectorPathDefects:
    def check(self, path):
        scalar = np.array([projector_defect(p, path.rank) for p in path.samples])
        assert np.abs(path.projector_defects() - scalar).max() <= 1e-15

    def test_integrated_path(self):
        rng = np.random.default_rng(58)
        phi0 = random_frame(5, 2, rng)
        self.check(integrate_projector(smooth_schedule(5, rng), Projector.from_frame(phi0),
                                       TimeGrid(0.0, 1.0, 300)))

    def test_synthesized_path(self):
        rng = np.random.default_rng(59)
        w = random_antihermitian(2, rng)
        self.check(synthesize_holonomy_step(w / np.linalg.norm(w), 0.1,
                                            BasePoint.standard(6, 2), samples_per_side=100))

    @pytest.mark.parametrize("part", ["hermitian", "antihermitian", "trace"])
    def test_each_invariant_violation(self, part):
        # a per-node perturbation that breaks idempotency (Hermitian noise), the
        # Hermitian symmetry (anti-Hermitian noise) or the trace (a scaling)
        rng = np.random.default_rng(60)
        base = np.repeat(Projector.standard(4, 2).matrix[np.newaxis], 30, axis=0)
        noise = np.array([random_antihermitian(4, rng) for _ in range(30)])
        scale = rng.uniform(0.0, 0.5, 30)[:, np.newaxis, np.newaxis]
        samples = {"hermitian": base + 1j * scale * noise,
                   "antihermitian": base + scale * noise,
                   "trace": (1.0 + scale) * base}[part]
        path = ProjectorPath(grid=TimeGrid(0.0, 1.0, 29), samples=samples, rank=2)
        scalar = np.array([projector_defect(p, 2) for p in samples])
        np.testing.assert_allclose(path.projector_defects(), scalar, rtol=1e-13)

    @pytest.mark.parametrize("part", ["hermitian", "antihermitian", "trace", "imaginary-trace"])
    def test_projector_defects_match_the_written_out_formula(self, part):
        samples = _violating_projectors(part, np.random.default_rng(64))
        reference = np.array([_reference_projector_defect(p, 2) for p in samples])
        path = ProjectorPath(grid=TimeGrid(0.0, 1.0, 29), samples=samples, rank=2)
        for got in (path.projector_defects(), projector_defect(samples, 2),
                    np.array([projector_defect(p, 2) for p in samples])):
            np.testing.assert_allclose(got, reference, rtol=1e-13)

    def test_frame_defects_match_the_written_out_formula(self):
        # generic complex 5 x 2 matrices: Gram matrices off the identity in every entry
        rng = np.random.default_rng(65)
        frames = 0.5 * (rng.normal(size=(30, 5, 2)) + 1j * rng.normal(size=(30, 5, 2)))
        reference = np.array([_reference_frame_defect(f) for f in frames])
        path = FramePath(grid=TimeGrid(0.0, 1.0, 29), samples=frames)
        for got in (path.frame_defects(), frame_defect(frames),
                    np.array([frame_defect(f) for f in frames])):
            np.testing.assert_allclose(got, reference, rtol=1e-13)

    def test_frame_defects_are_per_frame_frame_defect(self):
        rng = np.random.default_rng(61)
        frames = np.array([random_frame(5, 2, rng) for _ in range(30)])
        frames *= rng.uniform(0.5, 1.5, 30)[:, np.newaxis, np.newaxis]
        path = FramePath(grid=TimeGrid(0.0, 1.0, 29), samples=frames)
        scalar = np.array([frame_defect(f) for f in frames])
        assert np.abs(path.frame_defects() - scalar).max() <= 1e-15

    def test_one_matrix_gives_a_float(self):
        phi = random_frame(4, 2, np.random.default_rng(62))
        for value in (projector_defect(phi @ dag(phi), 2), frame_defect(phi)):
            assert type(value) is float

    def test_tracking_defect_is_the_worst_node(self):
        # against the per-node loop, on frames over other nodes' projectors
        rng = np.random.default_rng(63)
        frames = np.array([random_frame(5, 2, rng) for _ in range(30)])
        samples = frames[::-1] @ dag(frames[::-1])
        grid = TimeGrid(0.0, 1.0, 29)
        worst = max(frob(f @ dag(f) - p) for f, p in zip(frames, samples))
        got = tracking_defect(ProjectorPath(grid=grid, samples=samples, rank=2),
                              FramePath(grid=grid, samples=frames))
        assert type(got) is float and abs(got - worst) <= 1e-14

    @pytest.mark.parametrize("frame_nodes", [1, 29])
    def test_tracking_defect_needs_one_node_per_projector(self, frame_nodes):
        phi = random_frame(5, 2, np.random.default_rng(66))
        path = ProjectorPath(grid=TimeGrid(0.0, 1.0, 30),
                             samples=np.repeat((phi @ dag(phi))[np.newaxis], 31, axis=0), rank=2)
        frames = FramePath(grid=TimeGrid(0.0, 1.0, max(frame_nodes - 1, 1)),
                           samples=np.repeat(phi[np.newaxis], frame_nodes, axis=0))
        with pytest.raises(ValueError, match="differ in length"):
            tracking_defect(path, frames)


class TestBerryMaps:
    def test_zero_hamiltonian(self):
        p0 = Projector.standard(3, 1)
        sigma = np.eye(3, dtype=complex)[:, :1]
        res = berry_maps(constant_schedule(np.zeros((3, 3))), p0, sigma,
                         TimeGrid(0.0, 1.0, 10))
        assert res.closed
        for g in (res.dynamical, res.geometric, res.fiber_gap):
            assert frob(g - np.eye(1)) <= 1e-12

    def test_latitude_loop_phase(self):
        theta = np.pi / 2
        res = berry_maps(rotating_schedule(2 * np.pi), bloch_projector(theta),
                         BasePoint.from_projector(bloch_projector(theta)).frame,
                         TimeGrid(0.0, 1.0, 2000))
        assert res.closed
        phase = abs(np.angle(res.geometric[0, 0]))
        assert abs(phase - np.pi * (1.0 - np.cos(theta))) <= 1e-4

    def test_gauge_elements_unitary_on_closed_loop(self):
        theta = np.pi / 3
        res = berry_maps(rotating_schedule(2 * np.pi), bloch_projector(theta),
                         BasePoint.from_projector(bloch_projector(theta)).frame,
                         TimeGrid(0.0, 1.0, 1000))
        assert res.closed
        for g in (res.dynamical, res.geometric, res.fiber_gap):
            assert frob(dag(g) @ g - np.eye(1)) <= 1e-8

    def test_fiber_gap_unitary_on_open_path(self):
        # the end frames share a fiber even when the loop does not close,
        # so the gap is always a gauge element
        rng = np.random.default_rng(57)
        sched = smooth_schedule(4, rng)
        phi0 = random_frame(4, 2, rng)
        res = berry_maps(sched, Projector.from_frame(phi0), phi0,
                         TimeGrid(0.0, 1.0, 500))
        assert not res.closed
        assert frob(dag(res.fiber_gap) @ res.fiber_gap - np.eye(2)) <= 1e-8

    def test_matches_independent_routes(self):
        # berry_maps against the per-step loop over [phi; g] and against transport
        # co-integrated with the projector flow
        rng = np.random.default_rng(62)
        grid = TimeGrid(0.0, 1.0, 500)
        for _ in range(3):
            a = random_antihermitian(5, rng)
            b = random_antihermitian(5, rng)
            a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
            sched = trig_schedule(a, b, freq=2.0)
            sigma = random_frame(5, 2, rng)
            p0 = Projector.from_frame(sigma)
            res = berry_maps(sched, p0, sigma, grid)
            phi_end = _reference_berry_loop(sched, sigma, grid)[0][-1]
            psi_end = cointegrated_transport(sched, p0, sigma, grid).samples[-1]
            assert frob(res.dynamical - dag(sigma) @ phi_end) <= 1e-10
            assert frob(res.geometric - dag(sigma) @ psi_end) <= 1e-10
            assert frob(res.fiber_gap - dag(psi_end) @ phi_end) <= 1e-10

    @pytest.mark.parametrize("route", RK4_ROUTES)
    def test_one_schedule_evaluation_per_stage_time(self, route):
        rng = np.random.default_rng(63)
        sched, calls = counting_schedule(smooth_schedule(4, rng))
        grid = TimeGrid(0.0, 1.0, 50)
        RK4_ROUTES[route](sched, random_frame(4, 2, rng), grid)
        assert len(np.concatenate(calls)) == 2 * grid.steps + 1

    @pytest.mark.parametrize("route", RK4_ROUTES)
    @pytest.mark.parametrize("bad, error, match", [
        (lambda a: 1j * a, NotAntiHermitian, "generator"),  # Hermitian
        (lambda a: np.full_like(a, np.nan), ValueError, "generator"),
    ], ids=["non_antihermitian", "nan"])
    def test_midpoint_generators_are_checked_before_integrating(
            self, bad, error, match, route, monkeypatch):
        # H breaks only at the midpoints t_k + h/2, which the k1 stage never sees
        rng = np.random.default_rng(66)
        inner = smooth_schedule(4, rng)
        grid = TimeGrid(0.0, 1.0, 40)

        def table(times):
            midpoint = np.rint((times - grid.t0) / (grid.h / 2.0)) % 2 == 1
            hs = inner.table(times)
            return np.where(midpoint[:, np.newaxis, np.newaxis], bad(hs), hs)

        # the loops step through _rk4_step, the berry_maps scan through prefix_products
        steps = _forbid_steps(monkeypatch)
        with pytest.raises(error, match=match):
            RK4_ROUTES[route](HamiltonianSchedule(table), random_frame(4, 2, rng), grid)
        assert steps == []

    @pytest.mark.parametrize("route", RK4_ROUTES)
    def test_unbroadcast_table_is_rejected(self, route, monkeypatch):
        # a table that ignores its time axis would hand out matrix rows as generators
        a = random_antihermitian(4, 72)
        steps = _forbid_steps(monkeypatch)
        with pytest.raises(ValueError, match="schedule table"):
            RK4_ROUTES[route](HamiltonianSchedule(lambda t: a), random_frame(4, 2, 73),
                              TimeGrid(0.0, 1.0, 10))
        assert steps == []

    def test_rk4_nodes_check_the_first_table_before_the_start_node(self):
        # a caller that reads only the start node still meets a bad table
        a = random_antihermitian(4, 75)
        schedule = HamiltonianSchedule(lambda t: np.broadcast_to(1j * a, t.shape + a.shape))
        nodes = dynamics._rk4_nodes(schedule, np.matmul, random_frame(4, 2, 76),
                                    TimeGrid(0.0, 1.0, 10), lambda y: y, dynamics.DEFAULT_TOLS)
        with pytest.raises(NotAntiHermitian, match="generator"):
            next(nodes)

    @pytest.mark.parametrize("route", RK4_ROUTES)
    def test_chunked_tables_read_each_stage_time_once(self, route, monkeypatch):
        # three 4 x 4 matrices per table: many chunk boundaries
        monkeypatch.setattr(dynamics, "_TABLE_BYTES", 3 * 16 * 4 * 4)
        rng = np.random.default_rng(68)
        sched, calls = counting_schedule(smooth_schedule(4, rng))
        grid = TimeGrid(0.0, 1.0, 20)
        RK4_ROUTES[route](sched, random_frame(4, 2, rng), grid)
        assert all(len(times) <= 3 for times in calls)
        np.testing.assert_array_equal(np.concatenate(calls),
                                      (grid.h / 2.0) * np.arange(2 * grid.steps + 1))

    @pytest.mark.parametrize("steps", [20, 21], ids=["ends_in_a_table", "ends_on_one_node"])
    @pytest.mark.parametrize("table_bytes", [None, 3 * 32 * 4 * 4],
                             ids=["one_table", "three_steps_a_table"])
    def test_stage_tables_are_nodes_and_midpoints(self, table_bytes, steps, monkeypatch):
        # each table is the B + 1 nodes of its B steps, the last the first node of the next
        # table, and their B midpoints; over all tables, every node and midpoint in order
        if table_bytes is not None:
            monkeypatch.setattr(dynamics, "_TABLE_BYTES", table_bytes)
        a = random_antihermitian(4, 77)
        schedule = HamiltonianSchedule(lambda t: np.multiply.outer(t, a))
        grid = TimeGrid(0.0, 1.0, steps)
        tables = list(dynamics._stage_generators(schedule, grid, 4, dynamics.DEFAULT_TOLS))
        assert all(len(nodes) == len(mids) + 1 for nodes, mids in tables)
        for (nodes, _), (following, _) in zip(tables, tables[1:]):
            assert np.array_equal(nodes[-1], following[0])
        times = [np.concatenate([nodes[:-1] for nodes, _ in tables] + [tables[-1][0][-1:]]),
                 np.concatenate([mids for _, mids in tables])]
        for got, want in zip(times, (grid.times, grid.times[:-1] + grid.h / 2.0)):
            np.testing.assert_allclose(got, np.multiply.outer(want, a), rtol=0, atol=1e-15)

    def test_constant_schedule_over_many_tables_is_checked_once(self, monkeypatch):
        # the projector route reads 3 steps a table; the frame routes read no table
        monkeypatch.setattr(dynamics, "_TABLE_BYTES", 3 * 32 * 4 * 4)
        check = dynamics.require_antihermitian
        for route in RK4_ROUTES.values():
            checks = []
            monkeypatch.setattr(dynamics, "require_antihermitian",
                                lambda a, *args: checks.append(a.shape) or check(a, *args))
            route(constant_schedule(random_antihermitian(4, 78)), random_frame(4, 2, 77),
                  TimeGrid(0.0, 1.0, 30))
            assert len(checks) == 1

    @pytest.mark.parametrize("route", ["berry_maps", "berry_maps_loop"])
    @pytest.mark.parametrize("in_place", [False, True], ids=["new_matrix", "same_buffer"])
    def test_a_zero_stride_table_that_changes_matrix_is_checked(self, route, in_place,
                                                                monkeypatch):
        # tables of 3 steps, each a zero-stride view; the one from t = 0.5 on is
        # Hermitian, and berry_maps reads a table before it steps the one before
        monkeypatch.setattr(dynamics, "_TABLE_BYTES", 3 * 32 * 4 * 4)
        a = random_antihermitian(4, 79)
        buffer = np.empty_like(a)

        def table(times):
            h_mat = a if times[0] < 0.5 else 1j * a
            if in_place:  # one buffer, rewritten for every table
                buffer[...] = h_mat
                h_mat = buffer
            return np.broadcast_to(h_mat, times.shape + a.shape)

        steps = _forbid_steps(monkeypatch)
        with pytest.raises(NotAntiHermitian, match="generator"):
            RK4_ROUTES[route](HamiltonianSchedule(table), random_frame(4, 2, 80),
                              TimeGrid(0.0, 1.0, 6))
        assert steps == []

    def test_geometric_table_memory_is_bounded(self, monkeypatch):
        # one whole table at n=32 and 400 steps is 12.5 MiB, and a geometric
        # table holds about seven such stacks at once (88 MiB traced unbounded)
        import tracemalloc

        n, m, steps = 32, 2, 400
        rng = np.random.default_rng(67)
        a = random_antihermitian(n, rng)
        lam, v = np.linalg.eigh(1j * a / np.linalg.norm(a))
        b = dag(v) @ Projector.standard(n, m).matrix @ v

        def qfun(t):  # e^{2 pi t A} P e^{-2 pi t A} from the eigenvectors of iA
            phase = np.exp(-2j * np.pi * np.asarray(t)[..., np.newaxis] * lam)
            return v @ (phase[..., :, np.newaxis] * b * phase[..., np.newaxis, :].conj()) @ dag(v)

        p0 = Projector.from_matrix(qfun(0.0), m)
        sigma = BasePoint.from_projector(p0).frame
        grid = TimeGrid(0.0, 1.0, steps)
        monkeypatch.setattr(dynamics, "_TABLE_BYTES", 1 << 20)
        tracemalloc.start()
        try:
            res = berry_maps(geometric_schedule(qfun), p0, sigma, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * (1 << 20)
        # tables of four matrices give the same run
        monkeypatch.setattr(dynamics, "_TABLE_BYTES", 4 * 16 * n * n)
        small = berry_maps(geometric_schedule(qfun), p0, sigma, grid)
        np.testing.assert_allclose(small.geometric, res.geometric, rtol=0, atol=1e-13)
        np.testing.assert_allclose(small.energies, res.energies, rtol=0, atol=1e-13)

    def test_geometric_holonomy_is_fourth_order(self):
        rng = np.random.default_rng(64)
        a = random_antihermitian(4, rng)
        b = random_antihermitian(4, rng)
        a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
        p_std = Projector.standard(4, 2).matrix

        def qfun(t):
            s = 2 * np.pi * np.asarray(t)[..., np.newaxis, np.newaxis]
            u = mat_exp(np.sin(s) * a + (1.0 - np.cos(s)) * b)
            return u @ p_std @ dag(u)

        sched = geometric_schedule(qfun)
        p0 = Projector.from_matrix(qfun(0.0), 2)
        sigma = BasePoint.from_projector(p0).frame

        def holonomy(steps):
            return berry_maps(sched, p0, sigma, TimeGrid(0.0, 1.0, steps)).geometric

        reference = holonomy(3200)
        errors = [frob(holonomy(steps) - reference) for steps in (100, 200, 400)]
        orders = [np.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]
        assert all(3.5 <= order <= 4.5 for order in orders), orders

    def test_energies_are_the_node_linear_hamiltonians(self):
        rng = np.random.default_rng(65)
        sched = smooth_schedule(4, rng)
        sigma = random_frame(4, 2, rng)
        grid = TimeGrid(0.0, 1.0, 100)
        res = berry_maps(sched, Projector.from_frame(sigma), sigma, grid)
        assert res.energies.shape == (grid.steps + 1,)
        for k, phi in enumerate(res.frame_path.samples):
            t = grid.t0 + k * grid.h
            expected = linear_hamiltonian(sched(t), Projector.from_frame(phi))
            assert abs(res.energies[k] - expected) <= 1e-12


def _reference_berry_loop(schedule, sigma, grid, tol=dynamics.DEFAULT_TOLS):
    """The per-step loop over [phi; g] that berry_maps replaced: g retracted after every step.

    Returns the frames, the gauge factors, the node generators phi_k* H(t_k) phi_k
    and the number of frames it isometrized.
    """
    n, m = sigma.shape
    h = grid.h
    eye = np.eye(m)
    phis, gauges, gens, retractions = [], [], [], 0
    phi, g = sigma, eye.astype(complex)
    hs = schedule.table(grid.t0 + (h / 2.0) * np.arange(2 * grid.steps + 1))

    def lifted(h_mat, phi, g):
        h_phi = h_mat @ phi
        return h_phi, -(dag(phi) @ h_phi) @ g

    for k in range(grid.steps + 1):
        phis.append(phi)
        gauges.append(g)
        h_phi = hs[2 * k] @ phi
        gens.append(dag(phi) @ h_phi)
        if k == grid.steps:
            break
        h_mid, h_node = hs[2 * k + 1], hs[2 * k + 2]
        a1, b1 = h_phi, -gens[-1] @ g
        a2, b2 = lifted(h_mid, phi + (h / 2.0) * a1, g + (h / 2.0) * b1)
        a3, b3 = lifted(h_mid, phi + (h / 2.0) * a2, g + (h / 2.0) * b2)
        a4, b4 = lifted(h_node, phi + h * a3, g + h * b3)
        phi = phi + (h / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        e = dag(phi) @ phi - eye
        if np.vdot(e, e).real ** 0.5 > tol.ode:
            phi, retractions = isometrize(phi, tol), retractions + 1
        g = polar_retract(g + (h / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4), tol)
    return np.array(phis), np.array(gauges), np.array(gens), retractions


def _counted_berry_maps(schedule, sigma, grid):
    """berry_maps and the number of frames it isometrized."""
    isometrized = []
    with mock.patch.object(dynamics, "isometrize",
                           lambda f, tol: isometrized.append(f) or isometrize(f, tol)):
        res = berry_maps(schedule, Projector.from_frame(sigma), sigma, grid)
    return res, len(isometrized)


def _assert_matches_the_reference(res, reference):
    """Frames within 1e-12, horizontal frames, fiber gap and energies within 1e-13."""
    phis, gauges, gens, _ = reference
    np.testing.assert_allclose(res.frame_path.samples, phis, rtol=0, atol=1e-12)
    np.testing.assert_allclose(res.energies, hamiltonian_value(gens), rtol=0, atol=1e-13)
    np.testing.assert_allclose(res.horizontal_path.samples, phis @ gauges, rtol=0, atol=1e-13)
    psi_end = phis[-1] @ gauges[-1]
    np.testing.assert_allclose(res.fiber_gap, dag(psi_end) @ phis[-1], rtol=0, atol=1e-13)


class TestGaugeRoute:
    """berry_maps' stacked frames and gauge factor against the per-step loop they replaced."""

    @staticmethod
    def problem(n, steps, seed):
        # H = cos 2t A + sin t B with ||A|| = ||B|| = 3 moves phi off the horizontal
        rng = np.random.default_rng(seed)
        a, b = random_antihermitian(n, rng), random_antihermitian(n, rng)
        schedule = trig_schedule(3.0 * a / np.linalg.norm(a), 3.0 * b / np.linalg.norm(b), 2.0)
        sigma = random_frame(n, 2, rng)
        grid = TimeGrid(0.0, 1.0, steps)
        return schedule, sigma, grid

    @pytest.mark.parametrize("n, steps, seed", [(4, 300, 200), (5, 200, 201), (5, 12, 202)],
                             ids=["n4", "n5", "n5-coarse"])
    def test_matches_the_per_step_loop(self, n, steps, seed):
        schedule, sigma, grid = self.problem(n, steps, seed)
        reference = _reference_berry_loop(schedule, sigma, grid)
        res, retractions = _counted_berry_maps(schedule, sigma, grid)
        assert retractions == reference[3]
        assert bool(retractions) == (steps == 12)  # the coarse grid leaves the frames
        _assert_matches_the_reference(res, reference)
        assert frob(reference[1][-1] - np.eye(2)) > 0.1  # a gauge factor far from I

    @pytest.mark.parametrize("n, steps, seed", [(4, 300, 200), (5, 12, 202), (16, 60, 206)],
                             ids=["n4", "n5-coarse", "n16"])
    def test_scan_and_loop_routes_agree(self, n, steps, seed, monkeypatch):
        schedule, sigma, grid = self.problem(n, steps, seed)
        assert n <= dynamics._SCAN_MAX_N
        scan, scan_retractions = _counted_berry_maps(schedule, sigma, grid)
        monkeypatch.setattr(dynamics, "_SCAN_MAX_N", 0)
        loop, loop_retractions = _counted_berry_maps(schedule, sigma, grid)
        assert scan_retractions == loop_retractions
        np.testing.assert_allclose(scan.frame_path.samples, loop.frame_path.samples,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(scan.horizontal_path.samples, loop.horizontal_path.samples,
                                   rtol=0, atol=1e-13)
        np.testing.assert_allclose(scan.energies, loop.energies, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n, route", [(dynamics._SCAN_MAX_N, "scan"),
                                          (dynamics._SCAN_MAX_N + 1, "loop")])
    def test_the_crossover_picks_the_route(self, n, route, monkeypatch):
        schedule, sigma, grid = self.problem(n, 5, 207)
        steps = []
        monkeypatch.setattr(dynamics, "_rk4_step",
                            lambda *args, step=dynamics._rk4_step: steps.append(1) or step(*args))
        berry_maps(schedule, Projector.from_frame(sigma), sigma, grid)
        # the scan takes its stage slopes in one stacked _rk4_step per block
        assert len(steps) == {"scan": 1, "loop": grid.steps}[route]

    def test_grid_that_retracts_at_every_step_scans_in_linear_work(self, monkeypatch):
        # h ||H|| = 1/4: every RK4 step leaves the frames by more than tol.ode
        schedule, sigma, _ = self.problem(5, 12, 202)
        grid = TimeGrid(0.0, 10.0, 120)
        reference = _reference_berry_loop(schedule, sigma, grid)
        assert reference[3] == grid.steps
        scans = []
        scan = dynamics.prefix_products
        monkeypatch.setattr(dynamics, "prefix_products",
                            lambda a: scans.append(len(a)) or scan(a))
        res, retractions = _counted_berry_maps(schedule, sigma, grid)
        assert retractions == grid.steps
        # one run of all the steps, one of at most two maps after each retraction, and the
        # gauge chain's; rescanning the rest of the steps each time would take 7,260 maps
        assert len(scans) <= grid.steps + 2
        assert sum(scans) <= 4 * grid.steps
        _assert_matches_the_reference(res, reference)

    def test_blocks_of_three_steps_match_one_block(self, monkeypatch):
        schedule, sigma, grid = self.problem(4, 50, 203)
        reference = _reference_berry_loop(schedule, sigma, grid)
        # a table holds the generators of 3 steps, 6 stage times (16 * 4 * 4 bytes each)
        monkeypatch.setattr(dynamics, "_TABLE_BYTES", 3 * 32 * 4 * 4)
        step_maps = dynamics._slope_stages
        for crossover in (dynamics._SCAN_MAX_N, 0):  # the scan, then the loop
            monkeypatch.setattr(dynamics, "_SCAN_MAX_N", crossover)
            maps = []
            monkeypatch.setattr(
                dynamics, "_slope_stages",
                lambda phis, *args: maps.append(len(phis)) or step_maps(phis, *args))
            blocks = berry_maps(schedule, Projector.from_frame(sigma), sigma, grid)
            assert maps == [3] * 16 + [2]
            _assert_matches_the_reference(blocks, reference)

    @pytest.mark.parametrize("steps", [2, 7, 400])
    def test_two_stacked_retractions_per_run(self, steps, monkeypatch):
        schedule, sigma, grid = self.problem(4, steps, 204)
        calls = []
        monkeypatch.setattr(dynamics, "polar_retract",
                            lambda f, tol: calls.append(f.shape) or polar_retract(f, tol))
        berry_maps(schedule, Projector.from_frame(sigma), sigma, grid)
        assert calls == [(steps, 2, 2)] * 2


def _materialized(schedule):
    """The same generators as a schedule whose tables are stored stacks, not zero-stride views."""
    return HamiltonianSchedule(lambda t: np.ascontiguousarray(schedule.table(t)))


def _retracted_nodes(route, schedule, sigma, grid):
    """route(schedule, sigma, grid) and the nodes whose frame ``isometrize`` gave."""
    isometrized = []

    def counted(f, tol):
        isometrized.append(isometrize(f, tol))
        return isometrized[-1]

    with mock.patch.object(dynamics, "isometrize", counted):
        res = route(schedule, sigma, grid)
    frames = getattr(res, "frame_path", res).samples
    nodes = [k for k, phi in enumerate(frames) if any(np.array_equal(phi, q) for q in isometrized)]
    assert len(nodes) == len(isometrized)
    return res, nodes


class TestConstantRoute:
    """A constant schedule runs in its generator's eigenbasis: one eigh, no per-step loop."""

    @staticmethod
    def problem(n, seed, norm=2.0):
        rng = np.random.default_rng(seed)
        h_mat = random_antihermitian(n, rng)
        return (constant_schedule(norm * h_mat / np.linalg.norm(h_mat)),
                random_frame(n, min(n, 2), rng))

    @pytest.mark.parametrize("n", [1, 2, 5, 16, 17, 32])
    def test_matches_the_general_route(self, n):
        schedule, sigma = self.problem(n, 300 + n)
        grid = TimeGrid(0.0, 1.0, 200)
        p0 = Projector.from_frame(sigma)
        const, general = (berry_maps(s, p0, sigma, grid) for s in (schedule,
                                                                     _materialized(schedule)))
        np.testing.assert_allclose(const.frame_path.samples, general.frame_path.samples,
                                   rtol=0, atol=1e-13)
        for key in ("dynamical", "geometric", "fiber_gap", "energies"):
            np.testing.assert_allclose(getattr(const, key), getattr(general, key),
                                       rtol=0, atol=1e-13)
        # one frame integrator on the constant route too
        assert np.array_equal(integrate_frame(schedule, sigma, grid).samples,
                              const.frame_path.samples)

    @pytest.mark.parametrize("route", ["berry_maps", "integrate_frame"])
    def test_retracts_at_the_nodes_of_the_general_route(self, route):
        # h ||H||_2 near 0.04 at n = 5 and 0.055 at n = 17: the frames leave tol.ode every
        # 20 and 15 steps or so
        grid = TimeGrid(0.0, 12.0, 400)
        for n, norm in ((5, 2.2), (17, 4.0)):
            schedule, sigma = self.problem(n, 310, norm=norm)
            const, const_nodes = _retracted_nodes(RK4_ROUTES[route], schedule, sigma, grid)
            general, general_nodes = _retracted_nodes(RK4_ROUTES[route],
                                                      _materialized(schedule), sigma, grid)
            assert 10 < len(const_nodes) < grid.steps // 10
            assert const_nodes == general_nodes
            frames = [getattr(res, "frame_path", res).samples for res in (const, general)]
            np.testing.assert_allclose(*frames, rtol=0, atol=1e-12)

    def test_observed_order_against_expm(self):
        import scipy.linalg

        schedule, sigma = self.problem(17, 315, norm=6.0)
        exact = scipy.linalg.expm(schedule.tabulate.matrix) @ sigma
        errors = [frob(integrate_frame(schedule, sigma, TimeGrid(0.0, 1.0, steps)).samples[-1]
                       - exact) for steps in (20, 40, 80)]
        ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
        assert all(12.0 <= ratio <= 20.0 for ratio in ratios), ratios

    def test_one_eigh_and_no_step_loop(self, monkeypatch):
        schedule, sigma = self.problem(17, 317)
        eighs, calls = [], []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.append(a.shape) or eigh(a))
        for name in ("_rk4_step", "_rk4_nodes", "_stage_generators", "_slope_stages"):
            monkeypatch.setattr(dynamics, name, lambda *args: calls.append(args) or 1 / 0)
        res = berry_maps(schedule, Projector.from_frame(sigma), sigma, TimeGrid(0.0, 1.0, 200))
        assert eighs == [(17, 17)] and calls == []
        assert res.closed is False and res.energies.shape == (201,)

    def test_blocks_hold_a_bounded_frame_state(self, monkeypatch):
        # five steps' (m, m, n) stage products a run: a long grid takes many runs, with
        # the frames of one run bit for bit
        n, m, steps = 17, 2, 23
        schedule, sigma = self.problem(n, 320)
        grid = TimeGrid(0.0, 1.0, steps)
        one_run = berry_maps(schedule, Projector.from_frame(sigma), sigma, grid)
        monkeypatch.setattr(dynamics, "_TABLE_BYTES", 5 * 16 * n * m * m)
        runs, scan = [], dynamics._scan_frames

        def recorded_scan(run, *args):
            return scan(lambda *run_args: runs.append(run(*run_args)) or runs[-1], *args)

        monkeypatch.setattr(dynamics, "_scan_frames", recorded_scan)
        res = berry_maps(schedule, Projector.from_frame(sigma), sigma, grid)
        assert [frames.shape for frames in runs] == [(5, n, m)] * 4 + [(3, n, m)]
        np.testing.assert_array_equal(res.frame_path.samples, one_run.frame_path.samples)
        np.testing.assert_allclose(res.geometric, one_run.geometric, rtol=0, atol=1e-14)

    def test_the_matrix_is_checked_once(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_TABLE_BYTES", 3 * 16 * 17 * 2 * 2)  # 3 steps a run
        checks = []
        check = dynamics.require_antihermitian
        monkeypatch.setattr(dynamics, "require_antihermitian",
                            lambda a, *args: checks.append(a.shape) or check(a, *args))
        schedule, sigma = self.problem(17, 330)
        berry_maps(schedule, Projector.from_frame(sigma), sigma, TimeGrid(0.0, 1.0, 30))
        assert checks == [(17, 17)]

    @pytest.mark.parametrize("route", ["berry_maps", "integrate_frame"])
    @pytest.mark.parametrize("bad, error", [(1j, NotAntiHermitian), (np.nan, NonFinite)],
                             ids=["hermitian", "non_finite"])
    def test_a_bad_matrix_raises_before_any_step(self, route, bad, error, monkeypatch):
        a = random_antihermitian(17, 340)
        steps = _forbid_steps(monkeypatch)
        monkeypatch.setattr(np.linalg, "eigh", lambda *args: steps.append(args) or 1 / 0)
        # NaN is rejected by constant_schedule itself; its table is checked all the same
        schedule = HamiltonianSchedule(dynamics._ConstantTable(bad * a))
        with pytest.raises(error, match="generator"):
            RK4_ROUTES[route](schedule, random_frame(17, 2, 341), TimeGrid(0.0, 1.0, 10))
        assert steps == []

    @pytest.mark.parametrize("route", ["berry_maps", "integrate_frame"])
    def test_an_overflowing_generator_raises_non_finite_without_warnings(self, route):
        # no filterwarnings mark: a generator of norm 1e300 passes the check, its anti-Hermitian
        # part is formed without overflow, and the overflowing steps end in NonFinite alone
        schedule, sigma = self.problem(17, 345, norm=1e300)
        with pytest.raises(NonFinite, match="non-finite"):
            RK4_ROUTES[route](schedule, sigma, TimeGrid(0.0, 1.0, 10))

    def test_a_non_finite_matrix_is_rejected_on_construction(self):
        with pytest.raises(NonFinite, match="generator"):
            constant_schedule(np.full((17, 17), np.nan))


def _overflowing_schedule():
    h_mat = random_antihermitian(3, 205)
    return constant_schedule(1e200 * h_mat / np.linalg.norm(h_mat))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's overflow warnings
@pytest.mark.parametrize("route", ["berry_maps", "berry_maps_loop", "integrate_frame",
                                   "integrate_projector"])
def test_overflowing_state_raises_non_finite(route, monkeypatch):
    # the RK4 stages of a generator of norm 1e200 overflow to inf and NaN in the
    # first step; a NaN defect is not within tol.ode, so the retraction of node 1
    # meets the non-finite state and raises: isometrize for frames, nearest_projector
    # for projectors, on the projector loop after one _rk4_step; the frame routes, which
    # run a constant schedule in its eigenbasis, take none
    retracted, steps = [], []
    for name in ("isometrize", "nearest_projector"):
        monkeypatch.setattr(dynamics, name, lambda f, *args, retract=getattr(dynamics, name):
                            retracted.append(f) or retract(f, *args))
    monkeypatch.setattr(dynamics, "_rk4_step",
                        lambda *args, step=dynamics._rk4_step: steps.append(1) or step(*args))
    with pytest.raises(NonFinite, match="non-finite"):
        RK4_ROUTES[route](_overflowing_schedule(), random_frame(3, 1, 206),
                          TimeGrid(0.0, 1.0, 10))
    assert len(retracted) == 1 and not np.isfinite(retracted[0]).all()
    assert len(steps) == (route == "integrate_projector")


@pytest.mark.parametrize("route", ["berry_maps", "berry_maps_loop", "integrate_frame"])
def test_overflowing_scan_raises_without_warnings(route):
    # no filterwarnings mark: the frame routes run under np.errstate, so the 1e200
    # generator ends in NonFinite alone, with no numpy RuntimeWarning (an error in this suite)
    with pytest.raises(NonFinite, match="non-finite"):
        RK4_ROUTES[route](_overflowing_schedule(), random_frame(3, 1, 206),
                          TimeGrid(0.0, 1.0, 10))


@pytest.mark.parametrize("theta, azimuths", [(np.nan, 0.0), (np.inf, 0.0), (1.1, np.nan),
                                             (1.1, [0.0, -np.inf])],
                         ids=["nan_theta", "inf_theta", "nan_azimuth", "inf_azimuth_in_a_stack"])
def test_non_finite_bloch_angles_raise_non_finite(theta, azimuths):
    with pytest.raises(NonFinite, match="Bloch angles"):
        dynamics.bloch_matrices(theta, azimuths)
    if np.ndim(azimuths) == 0:
        with pytest.raises(NonFinite, match="Bloch angles"):
            bloch_projector(theta, azimuths)


def _latitude_qfun(t):
    return dynamics.bloch_matrices(1.1, 2 * np.pi * np.asarray(t))


def _random_loop_exponent(t, n=4, seed=67):
    """X = sin(s) a + (1 - cos s) b, s = 2 pi t, and X'."""
    rng = np.random.default_rng(seed)
    a, b = random_antihermitian(n, rng), random_antihermitian(n, rng)
    s = 2 * np.pi * np.asarray(t)[..., np.newaxis, np.newaxis]
    return np.sin(s) * a + (1.0 - np.cos(s)) * b, 2 * np.pi * (np.cos(s) * a + np.sin(s) * b)


def _random_loop_qfun(t, n=4, m=2, seed=67):
    u = mat_exp(_random_loop_exponent(t, n, seed)[0])
    return u @ Projector.standard(n, m).matrix @ dag(u)


def _latitude_exponent(t):
    """X = 2 pi t diag(0, i), which turns bloch_projector(1.1) along _latitude_qfun, and X'."""
    turn = np.diag([0.0, 1j])
    return np.multiply.outer(2 * np.pi * t, turn), np.broadcast_to(2 * np.pi * turn, t.shape + (2, 2))


def _central(qfun, t, step):
    """The central difference (Q(t + step) - Q(t - step)) / (2 step)."""
    return (qfun(t + step) - qfun(t - step)) / (2.0 * step)


# each curve Q(t) = e^X P e^-X above as its P and exponent, for dynamics._orbit_schedule
_ORBITS = {_latitude_qfun: (bloch_projector(1.1).matrix, _latitude_exponent),
           _random_loop_qfun: (Projector.standard(4, 2).matrix, _random_loop_exponent)}


def _sampled_values(seed=68, steps=16):
    rng = np.random.default_rng(seed)
    return np.array([random_antihermitian(3, rng) for _ in range(steps + 1)])


def _sampled(steps=16):
    return sampled_schedule(TimeGrid(0.0, 1.0, steps), _sampled_values(steps=steps))


class TestScheduleTable:
    # stage times of a berry_maps run, and times off the grid and outside it
    TIMES = np.concatenate([(1.0 / 32) * np.arange(33), [-0.3, 0.0137, 0.61, 1.4]])

    @pytest.mark.parametrize("schedule", [
        constant_schedule(random_antihermitian(5, 69)),
        rotating_schedule(2 * np.pi),
        _sampled(),
        trig_schedule(random_antihermitian(3, 70), np.zeros((3, 3))),
    ], ids=["constant", "rotating", "sampled", "user"])
    def test_table_is_the_evaluator_bitwise(self, schedule):
        table = schedule.table(self.TIMES)
        assert table.shape[0] == len(self.TIMES)
        for t, h_mat in zip(self.TIMES, table):
            np.testing.assert_array_equal(h_mat, schedule(t))

    def test_single_time_call_checks_the_table_shape(self):
        # a table that ignores its time axis: schedule(t) would be the row a[0]
        a = random_antihermitian(3, 75)
        schedule = HamiltonianSchedule(lambda times: a)
        with pytest.raises(ValueError, match=r"schedule table has shape \(3, 3\), want \(1, 3, 3\)"):
            schedule(0.3)
        with pytest.raises(ValueError, match="schedule table"):
            schedule.table(np.array([0.1, 0.2, 0.3]))
        with pytest.raises(ValueError, match="schedule table"):
            HamiltonianSchedule(lambda times: 1.0)(0.3)

    def test_sampled_table_is_the_interpolation_formula_bitwise(self):
        values, steps = _sampled_values(), 16
        table = _sampled(steps).table(self.TIMES)
        for t, h_mat in zip(self.TIMES, table):
            s = t * steps  # (t - t0) / h on [0, 1]
            k = int(np.clip(np.floor(s), 0, steps - 1))
            w = np.clip(s - k, 0.0, 1.0)
            np.testing.assert_array_equal(h_mat, (1.0 - w) * values[k] + w * values[k + 1])

    @pytest.mark.parametrize("qfun, exact", [
        (_latitude_qfun, False), (_random_loop_qfun, False),
        (_latitude_qfun, True), (_random_loop_qfun, True),
    ], ids=["latitude", "random_loop", "latitude_orbit", "random_loop_orbit"])
    def test_geometric_table_matches_the_evaluator(self, qfun, exact):
        schedule = dynamics._orbit_schedule(*_ORBITS[qfun]) if exact else geometric_schedule(qfun)
        table = schedule.table(self.TIMES)
        for t, h_mat in zip(self.TIMES, table):
            assert frob(h_mat - schedule(t)) <= 1e-14
            # the definition, from per-time curve evaluations: the central difference of
            # geometric_schedule, and for the exact orbit table its Richardson
            # extrapolation (the h^2 error of the 1e-6 step is 3.5e-9 on the random loop)
            if exact:
                v = (4.0 * _central(qfun, t, 1e-4) - _central(qfun, t, 2e-4)) / 3.0
            else:
                v = _central(qfun, t, dynamics._FD_STEP)
            error = frob(h_mat - dynamics._geometric_generator(qfun(t), v))
            assert error <= (1e-9 if exact else 1e-14)

    @pytest.mark.parametrize("qfun", [_latitude_qfun, _random_loop_qfun],
                             ids=["latitude", "random_loop"])
    def test_central_differences_converge_to_the_orbit_table(self, qfun):
        exact = dynamics._orbit_schedule(*_ORBITS[qfun]).table(self.TIMES)
        q, errors = qfun(self.TIMES), []
        for step in (1e-2, 5e-3, 2.5e-3, 1.25e-3):
            error = dynamics._geometric_generator(q, _central(qfun, self.TIMES, step)) - exact
            errors.append(np.linalg.norm(error, axis=(1, 2)).max())
        orders = [np.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]
        assert all(1.9 <= order <= 2.1 for order in orders), orders

    def test_orbit_exponent_must_be_antihermitian(self):
        p, exponent = _ORBITS[_random_loop_qfun]

        def hermitian(t):  # i X: Hermitian, and 0 at t = 0
            x, dx = exponent(t)
            return 1j * x, dx

        schedule = dynamics._orbit_schedule(p, hermitian)
        with pytest.raises(NotAntiHermitian, match="exponent"):
            schedule.table(self.TIMES)
        with pytest.raises(NotAntiHermitian, match="exponent"):
            schedule(0.3)

    @pytest.mark.parametrize("seed", [61, 62, 63])
    def test_sampled_schedule_observed_order(self, seed):
        # linear interpolation between the nodes caps the 4th-order loop at order 2
        rng = np.random.default_rng(seed)
        a, b = random_antihermitian(4, rng), random_antihermitian(4, rng)
        smooth = trig_schedule(3.0 * a / np.linalg.norm(a), 3.0 * b / np.linalg.norm(b))
        sigma = random_frame(4, 2, rng)
        p0 = Projector.from_frame(sigma)
        reference = berry_maps(smooth, p0, sigma, TimeGrid(0.0, 1.0, 4000))
        errors = []
        for steps in (25, 50, 100, 200):
            grid = TimeGrid(0.0, 1.0, steps)
            res = berry_maps(sampled_schedule(grid, smooth.table(grid.times)), p0, sigma, grid)
            errors.append(frob(res.dynamical - reference.dynamical))
        orders = [np.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]
        assert all(1.8 <= order <= 2.2 for order in orders), orders

    def test_bloch_matrices_are_the_bloch_projectors_bitwise(self):
        stack = dynamics.bloch_matrices(1.1, self.TIMES)
        for azimuth, q in zip(self.TIMES, stack):
            np.testing.assert_array_equal(q, bloch_projector(1.1, azimuth).matrix)

    @pytest.mark.parametrize("schedule", [
        constant_schedule(random_antihermitian(5, 69)), rotating_schedule(1.0)],
        ids=["constant", "rotating"])
    def test_constant_tables_are_zero_stride_views(self, schedule):
        table = schedule.table(self.TIMES)
        assert table.strides[0] == 0
        assert np.shares_memory(table, schedule(0.0))

    def test_scalar_qfun_is_rejected(self):
        a = random_antihermitian(3, 71)

        def scalar_qfun(t):  # returns one matrix whatever the shape of t
            u = mat_exp(np.sin(float(np.ravel(t)[0])) * a)
            return u @ Projector.standard(3, 1).matrix @ dag(u)

        with pytest.raises(ValueError, match="qfun"):
            geometric_schedule(scalar_qfun).table(self.TIMES)
        with pytest.raises(ValueError, match="qfun"):
            geometric_schedule(scalar_qfun)(0.5)


@pytest.mark.parametrize("stack", [(), (5,)], ids=["one", "stack"])
@pytest.mark.parametrize("n, m", [(2, 1), (4, 2), (7, 3), (16, 5)])
def test_geometric_generator_is_kato_commutator(n, m, stack):
    # for random rank-m projectors Q and a random non-Hermitian v, with V its Hermitian part:
    # H = [V, Q] is exactly anti-Hermitian, equals the block formula skew(V_off (2Q - 1)) and
    # moves Q by the off-diagonal part of V, [H, Q] = Q V (1 - Q) + (1 - Q) V Q
    rng = np.random.default_rng(n * 100 + m + len(stack))
    frames = np.array([random_frame(n, m, rng) for _ in range(int(np.prod(stack)))])
    q = (frames @ dag(frames)).reshape(stack + (n, n))
    v = rng.standard_normal(q.shape) + 1j * rng.standard_normal(q.shape)
    h_mat = dynamics._geometric_generator(q, v)
    assert h_mat.shape == q.shape
    assert np.array_equal(h_mat + dag(h_mat), np.zeros_like(h_mat))
    reference = block_geometric_generator(q, v)
    assert np.linalg.norm(h_mat - reference) <= 1e-14 * np.linalg.norm(reference)
    herm, comp = (v + dag(v)) / 2.0, np.eye(n) - q
    moved = q @ herm @ comp + comp @ herm @ q
    assert np.abs(h_mat @ q - q @ h_mat - moved).max() <= 1e-13


class TestGeometricHamiltonian:
    def _loop_path(self, n, m, seed, steps=2000):
        rng = np.random.default_rng(seed)
        a = random_antihermitian(n, rng)
        a /= np.linalg.norm(a)
        p_std = Projector.standard(n, m).matrix
        grid = TimeGrid(0.0, 1.0, steps)
        samples = []
        for t in grid.times:
            u = mat_exp(np.sin(2 * np.pi * t) * a)
            samples.append(u @ p_std @ dag(u))
        return ProjectorPath(grid=grid, samples=np.array(samples), rank=m)

    def test_constant_path_gives_zero(self):
        grid = TimeGrid(0.0, 1.0, 10)
        samples = np.repeat(Projector.standard(3, 1).matrix[np.newaxis], 11, axis=0)
        sched = geometric_hamiltonian(ProjectorPath(grid=grid, samples=samples, rank=1))
        for t in grid.times:
            assert frob(sched(t)) <= 1e-12

    def test_schedule_drives_the_path(self):
        # gentle (unit-speed) synthetic path so the O(h^2) derivative
        # estimate dominates the residual
        rng = np.random.default_rng(58)
        a = random_antihermitian(4, rng)
        a /= np.linalg.norm(a)
        p_std = Projector.standard(4, 2).matrix
        grid = TimeGrid(0.0, 1.0, 2000)
        samples = np.array([mat_exp(np.sin(t) * a) @ p_std @ dag(mat_exp(np.sin(t) * a))
                            for t in grid.times])
        path = ProjectorPath(grid=grid, samples=samples, rank=2)
        sched = geometric_hamiltonian(path)
        h = path.grid.h
        qdot = (path.samples[2:] - path.samples[:-2]) / (2.0 * h)
        worst = max(
            frob(qd - (sched(t) @ q - q @ sched(t)))
            for qd, q, t in zip(qdot, path.samples[1:-1], path.grid.times[1:-1]))
        assert worst <= 1e-6

    def test_fiber_gap_closes_for_geometric_schedules(self):
        path = self._loop_path(4, 2, seed=59)
        sched = geometric_hamiltonian(path)
        p0 = Projector.from_matrix(path.samples[0], 2)
        sigma = BasePoint.from_projector(p0).frame
        res = berry_maps(sched, p0, sigma, path.grid)
        assert frob(res.fiber_gap - np.eye(2)) <= 1e-8

    def test_structural_enters_no_test_of_the_energies(self):
        # the exactly anti-Hermitian geometric generator passed its table check; the
        # energies, zero up to roundoff, meet no second rule, however small structural is
        p0 = Projector.standard(4, 2)
        schedule = dynamics._orbit_schedule(*_ORBITS[_random_loop_qfun])
        res = berry_maps(schedule, p0, BasePoint.standard(4, 2).frame, TimeGrid(0.0, 1.0, 800),
                         dynamics.Tolerances(structural=1e-30))
        assert frob(res.fiber_gap - np.eye(2)) <= 1e-8
        assert np.abs(res.energies).max() <= 1e-7  # zero along the exact loop

    def test_rough_path_rejected(self):
        grid = TimeGrid(0.0, 1.0, 2)
        samples = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0]),
                            np.diag([1.0, 0.0])]).astype(complex)
        with pytest.raises(PathTooRough):
            geometric_hamiltonian(ProjectorPath(grid=grid, samples=samples, rank=1))


class TestLoopHolonomy:
    def test_constant_loop(self):
        grid = TimeGrid(0.0, 1.0, 4)
        samples = np.repeat(Projector.standard(3, 1).matrix[np.newaxis], 5, axis=0)
        path = ProjectorPath(grid=grid, samples=samples, rank=1)
        hol = loop_holonomy(path, np.eye(3, dtype=complex)[:, :1])
        assert frob(hol - np.eye(1)) <= 1e-12

    def test_equatorial_loop_is_minus_one(self):
        theta = np.pi / 2
        p0 = bloch_projector(theta)
        sigma = BasePoint.from_projector(p0).frame
        path = integrate_projector(rotating_schedule(2 * np.pi), p0,
                                   TimeGrid(0.0, 1.0, 4000))
        hol = loop_holonomy(path, sigma)
        assert abs(hol[0, 0] - (-1.0)) <= 1e-4

    def test_reversal_gives_adjoint(self):
        theta = np.pi / 3
        omega = 2 * np.pi
        p0 = bloch_projector(theta)
        sigma = BasePoint.from_projector(p0).frame
        grid = TimeGrid(0.0, 1.0, 2000)
        fwd = integrate_projector(rotating_schedule(omega), p0, grid)
        rev = integrate_projector(rotating_schedule(-omega), p0, grid)
        g_fwd = loop_holonomy(fwd, sigma)
        g_rev = loop_holonomy(rev, sigma)
        assert frob(g_rev - dag(g_fwd)) <= 1e-6

    def test_grid_refinement_stable(self):
        theta = np.pi / 3
        p0 = bloch_projector(theta)
        sigma = BasePoint.from_projector(p0).frame
        hols = []
        for steps in (1000, 2000):
            path = integrate_projector(rotating_schedule(2 * np.pi), p0,
                                       TimeGrid(0.0, 1.0, steps))
            hols.append(loop_holonomy(path, sigma))
        assert frob(hols[1] - hols[0]) <= 1e-5

    def test_open_path_rejected(self):
        rng = np.random.default_rng(60)
        h_mat = random_antihermitian(3, rng)
        p0 = Projector.from_frame(random_frame(3, 1, rng))
        sigma = BasePoint.from_projector(p0).frame
        path = integrate_projector(constant_schedule(h_mat), p0,
                                   TimeGrid(0.0, 1.0, 100))
        with pytest.raises(NotClosed):
            loop_holonomy(path, sigma)


def _synthesized_loop(seed, n, m, scale, per_side):
    """A closed sampled loop (synthesize_holonomy_step of a random unit w) and its base."""
    rng = np.random.default_rng(seed)
    w = random_antihermitian(m, rng)
    base = BasePoint.standard(n, m)
    return synthesize_holonomy_step(w / np.linalg.norm(w), scale, base, per_side), base, rng


def _svd_polar(f):
    u, _, vh = np.linalg.svd(f, full_matrices=False)
    return u @ vh


LOOPS = dict(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 6),
             m_frac=st.floats(0.0, 1.0), scale=st.floats(0.05, 0.3),
             per_side=st.integers(8, 32))


_E1 = np.eye(2, dtype=complex)[:, :1]
_W2 = np.diag([1j, -1j])
_TWO_NODES = TimeGrid(0.0, 1.0, 1)
_STANDARD_PATH = ProjectorPath(TimeGrid(0.0, 1.0, 2),
                               np.array([Projector.standard(4, 1).matrix] * 3), rank=1)


@pytest.mark.parametrize("call", [
    lambda: berry_maps(constant_schedule(np.zeros((2, 2))), Projector.from_frame(_E1), _E1,
                       _TWO_NODES),
    lambda: horizontality_defect(FramePath(grid=_TWO_NODES, samples=np.array([_E1] * 2))),
], ids=["berry_maps", "horizontality_defect"])
def test_one_step_is_too_short_for_the_stencils(call):
    # two samples: the finite differences need three, so ValueError, not IndexError
    with pytest.raises(ValueError, match="at least 3 samples"):
        call()


def test_berry_maps_rejects_one_step_before_reading_the_schedule():
    schedule, calls = counting_schedule(constant_schedule(np.zeros((2, 2))))
    with pytest.raises(InvalidArgument, match="at least 3 samples"):
        berry_maps(schedule, Projector.from_frame(_E1), _E1, _TWO_NODES)
    assert calls == []


@pytest.mark.parametrize("call", [
    lambda: TimeGrid(1.0, 1.0, 4),
    lambda: TimeGrid(0.0, 1.0, 0),
    lambda: sampled_schedule(TimeGrid(0.0, 1.0, 4), np.zeros((3, 2, 2))),
    lambda: sampled_derivative(np.zeros((5, 2, 2)), 0.1, 3),
    lambda: dynamics._parallelogram_loop([], 0.7, BasePoint.standard(3, 1), 4),
    lambda: nearest_projector(np.eye(3), 3),
    lambda: nearest_projector(np.triu(np.ones((3, 3))), 1),
    lambda: isometrize(np.ones((2, 3))),
    lambda: polar_retract(np.ones(3)),
    lambda: polar_retract(np.ones((2, 3))),
    lambda: polar_retract(np.ones((4, 2, 3))),
    lambda: mat_exp(np.ones((2, 3))),
    lambda: mat_exp(np.ones(3)),
    lambda: integrate_frame(constant_schedule(np.zeros((4, 4))), np.ones(4), _TWO_NODES),
    lambda: integrate_frame(constant_schedule(np.zeros((2, 2))), np.ones((2, 3)), _TWO_NODES),
    lambda: synthesize_holonomy_step(np.zeros((3, 3)), 0.1, BasePoint.standard(4, 2)),
    lambda: synthesize_holonomy_step(np.array([[1j]]), 0.1, BasePoint.standard(4, 2)),
    lambda: synthesize_holonomy_step(_W2, 0.1, BasePoint.standard(4, 2), -3),
    lambda: synthesize_holonomy_step(_W2, 0.1, BasePoint.standard(4, 2), 2.5),
    lambda: nearest_projector(np.ones(3), 1),
    lambda: nearest_projector(np.ones((2, 3)), 1),
    lambda: Projector.from_matrix(np.ones(3), 1),
    lambda: pancharatnam_oracle(np.ones(3), _E1),
    lambda: pancharatnam_oracle(np.ones((3, 2, 3)), _E1),
    lambda: pancharatnam_oracle(np.ones((0, 2, 2)), _E1),
    lambda: random_unitary(0, 1),
    lambda: random_frame(3, 0, 1),
    lambda: isometrize(np.ones((3, 0))),
    lambda: polar_retract(np.ones((3, 0))),
    lambda: horizontal_transport(_STANDARD_PATH, np.ones((3, 1))),
    lambda: loop_holonomy(ProjectorPath(_TWO_NODES, np.ones((2, 2)), rank=1), _E1),
    lambda: horizontal_transport(ProjectorPath(_TWO_NODES, np.ones((0, 2, 2)), rank=1), _E1),
    lambda: Projector.standard(2, 3),
    lambda: BasePoint.standard(3, 0),
    lambda: project_frame(np.ones(3)),
    lambda: loop_holonomy(ProjectorPath(_TWO_NODES, np.ones((0, 2, 2)), rank=1), _E1),
], ids=["grid_span", "grid_steps", "schedule_samples", "derivative_order", "loop_scale",
        "projector_rank", "projector_not_hermitian", "frame_shape", "polar_vector",
        "polar_wide", "polar_wide_stack", "exp_not_square", "exp_vector",
        "initial_frame_vector", "initial_frame_wide", "w_larger_than_rank",
        "w_smaller_than_rank", "negative_sides", "fractional_sides", "projector_vector",
        "projector_wide", "from_matrix_vector", "oracle_vector", "oracle_wide_samples",
        "oracle_no_samples", "unitary_empty", "frame_no_columns", "frame_seed_no_columns",
        "polar_no_columns", "transport_frame_too_short", "path_of_vectors",
        "path_no_samples", "standard_rank_above_n", "standard_rank_zero",
        "bundle_frame_vector", "loop_no_samples"])
def test_bad_arguments_raise_invalid_argument(call):
    # a GrassflowError, which the CLI maps to exit 1, that is still a ValueError
    with pytest.raises(InvalidArgument) as info:
        call()
    assert isinstance(info.value, ValueError)


class TestSampledTransport:
    def test_observed_order_of_the_step_maps(self):
        # three halvings of h on the sampled latitude loop, against the
        # 4th-order berry_maps holonomy of the same loop
        theta = np.pi / 3
        p0 = bloch_projector(theta)
        sigma = BasePoint.from_projector(p0).frame
        reference = berry_maps(rotating_schedule(2 * np.pi), p0, sigma,
                               TimeGrid(0.0, 1.0, 4000)).geometric
        errors = []
        for steps in (100, 200, 400, 800):
            samples = bloch_matrices(theta, np.linspace(0.0, 2 * np.pi, steps + 1))
            path = ProjectorPath(grid=TimeGrid(0.0, 1.0, steps), samples=samples, rank=1)
            errors.append(frob(loop_holonomy(path, sigma) - reference))
        orders = [np.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]
        assert all(1.8 <= order <= 2.2 for order in orders), orders

    def test_observed_order_at_rank_two(self):
        # at m = 1 the transport is the Pancharatnam phase; a random loop in Gr_2(C^4)
        # checks the order of the non-abelian holonomy, against 4th-order berry_maps
        p0 = Projector(matrix=_random_loop_qfun(np.zeros(1))[0], rank=2)
        sigma = BasePoint.from_projector(p0).frame
        reference = berry_maps(geometric_schedule(_random_loop_qfun), p0, sigma,
                               TimeGrid(0.0, 1.0, 8000)).geometric
        errors = []
        for steps in (100, 200, 400, 800):
            samples = _random_loop_qfun(np.linspace(0.0, 1.0, steps + 1))
            path = ProjectorPath(grid=TimeGrid(0.0, 1.0, steps), samples=samples, rank=2)
            errors.append(frob(loop_holonomy(path, sigma) - reference))
        orders = [np.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]
        assert all(1.8 <= order <= 2.2 for order in orders), orders

    def test_step_maps_are_the_projection_step(self):
        # against psi_{k+1} = polar(P_{k+1} psi_k), the SVD polar factor taken step by step
        path, base, _ = _synthesized_loop(79, 5, 2, 0.3, 16)
        got = horizontal_transport(path, base.frame).samples
        assert np.abs(got - projection_transport(path.samples, base.frame)).max() <= 1e-14

    def test_two_samples_are_transported(self):
        # one step needs no stencil: psi_1 is the polar factor of P_1 sigma
        samples = bloch_matrices(np.pi / 3, [0.0, 0.4])
        path = ProjectorPath(grid=_TWO_NODES, samples=samples, rank=1)
        sigma = BasePoint.from_projector(bloch_projector(np.pi / 3)).frame
        got = horizontal_transport(path, sigma).samples
        assert np.abs(got - projection_transport(path.samples, sigma)).max() <= 1e-15

    def test_graph_section_gives_the_sampled_transport(self):
        # the synthesize-n6m2 loop (seed 0): transport from its graph-frame section, as
        # the CLI runs it, is horizontal_transport of its projector samples
        rng = np.random.default_rng(0)
        w = random_antihermitian(2, rng)
        w /= np.linalg.norm(w)
        base = BasePoint.standard(6, 2)
        blocks = dynamics._parallelogram_loop(curvature_generators(w, 6), 0.1, base, 2000)
        path = synthesize_holonomy_step(w, 0.1, base, 2000)
        section = dynamics._graph_section(base, blocks)
        assert np.abs(section @ dag(section) - path.samples).max() <= 1e-15
        got = dynamics._section_transport(section, dynamics.DEFAULT_TOLS)
        assert np.abs(got - horizontal_transport(path, base.frame).samples).max() <= 1e-14

    @pytest.mark.parametrize("n, m", [(3, 1), (6, 2), (12, 5)])
    def test_graph_section_is_the_oriented_qr_of_the_graph_frames(self, n, m):
        # one Gram-Schmidt pass gives isometrize's factor, LAPACK's QR with R's diagonal
        # turned positive, of the graph frames of blocks of norm 0 to 10
        rng = np.random.default_rng(n)
        blocks = rng.standard_normal((64, n - m, m)) + 1j * rng.standard_normal((64, n - m, m))
        norms = rng.uniform(0.0, 10.0, (64, 1, 1))
        blocks *= norms / np.linalg.norm(blocks, axis=(1, 2), keepdims=True)
        base = BasePoint.standard(n, m)
        want = isometrize(chart_frames(base, blocks))
        assert np.abs(dynamics._graph_section(base, blocks) - want).max() <= 1e-14

    def test_bloch_section_gives_the_sampled_transport(self):
        # the equator loop from its Bloch frames (cos(theta/2), e^(i a) sin(theta/2)), a
        # section unlike the pivoted one, transports as its projector samples
        theta, azimuths = np.pi / 2, np.linspace(0.0, 2 * np.pi, 801)
        section = np.zeros((801, 2, 1), dtype=complex)
        section[:, 0, 0] = np.cos(theta / 2.0)
        section[:, 1, 0] = np.exp(1j * azimuths) * np.sin(theta / 2.0)
        path = ProjectorPath(grid=TimeGrid(0.0, 1.0, 800),
                             samples=bloch_matrices(theta, azimuths), rank=1)
        want = horizontal_transport(path, section[0]).samples
        got = dynamics._section_transport(section, dynamics.DEFAULT_TOLS)
        assert np.abs(got - want).max() <= 1e-14

    def test_step_maps_in_blocks_match_one_block(self, monkeypatch):
        path, base, _ = _synthesized_loop(76, 5, 2, 0.2, 40)
        whole = horizontal_transport(path, base.frame).samples
        monkeypatch.setattr(dynamics, "_TABLE_BYTES", 3 * 4 * 16 * 5 * 5)  # 3 maps a block
        np.testing.assert_array_equal(horizontal_transport(path, base.frame).samples, whole)

    def test_loops_retract_without_the_svd(self, monkeypatch):
        # every polar_retract of berry_maps and of the sampled transport (two stacks
        # per run each) takes the Newton-Schulz step on these runs: the SVD route
        # (the only full_matrices=False caller) never runs
        polar_svds = []
        svd = np.linalg.svd

        def counted(a, *args, **kwargs):
            polar_svds.extend([a.shape] if kwargs.get("full_matrices") is False else [])
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        retract = dynamics.polar_retract
        calls = []
        monkeypatch.setattr(dynamics, "polar_retract",
                            lambda f, tol: calls.append(f.shape) or retract(f, tol))
        p0 = bloch_projector(np.pi / 2)
        berry_maps(rotating_schedule(2 * np.pi), p0, BasePoint.from_projector(p0).frame,
                   TimeGrid(0.0, 1.0, 4000))
        p0 = Projector(matrix=_random_loop_qfun(np.zeros(1))[0], rank=2)
        berry_maps(geometric_schedule(_random_loop_qfun), p0, BasePoint.from_projector(p0).frame, TimeGrid(0.0, 1.0, 800))
        path, base, _ = _synthesized_loop(78, 6, 2, 0.1, 1000)
        horizontal_transport(path, base.frame)
        assert calls[:4] == [(4000, 1, 1)] * 2 + [(800, 2, 2)] * 2
        assert calls[4:] == [(path.grid.steps, 2, 2)] * 2
        assert polar_svds == []

    def test_equator_loop_holonomy_is_minus_one(self):
        # on the equator sigma* P_k sigma is 0 at azimuth pi, where a section anchored at
        # sigma has no frame; the pivoted section needs no anchor, and the holonomy is -1
        # within the order-2 error estimated by halving h
        theta = np.pi / 2
        sigma = BasePoint.from_projector(bloch_projector(theta)).frame
        holonomies = []
        for steps in (400, 800):
            samples = bloch_matrices(theta, np.linspace(0.0, 2 * np.pi, steps + 1))
            path = ProjectorPath(grid=TimeGrid(0.0, 1.0, steps), samples=samples, rank=1)
            holonomies.append(loop_holonomy(path, sigma))
        error = frob(holonomies[1] - holonomies[0]) / 3.0
        assert abs(holonomies[1][0, 0] + 1.0) <= error + 1e-12

    def test_loop_leaving_the_start_chart_is_the_projection_loop(self):
        # a random loop in Gr_2(C^4) that leaves the start frame's chart: the transport
        # is still the per-step projection loop
        samples = _random_loop_qfun(np.linspace(0.0, 1.0, 401))
        path = ProjectorPath(grid=TimeGrid(0.0, 1.0, 400), samples=samples, rank=2)
        sigma = BasePoint.from_projector(Projector(matrix=samples[0], rank=2)).frame
        drift = np.linalg.norm(dag(sigma) @ samples @ sigma - np.eye(2), axis=(1, 2))
        assert drift.max() > 0.5
        got = horizontal_transport(path, sigma).samples
        assert np.abs(got - projection_transport(path.samples, sigma)).max() <= 1e-14

    @pytest.mark.parametrize("nodes", [1, 3, 100])
    def test_frames_do_not_depend_on_the_blocks(self, nodes, monkeypatch):
        # on the equator loop, _section_transport blocks of 1, 3 or 100 nodes change
        # no frame
        theta = np.pi / 2
        sigma = BasePoint.from_projector(bloch_projector(theta)).frame
        samples = bloch_matrices(theta, np.linspace(0.0, 2 * np.pi, 401))
        path = ProjectorPath(grid=TimeGrid(0.0, 1.0, 400), samples=samples, rank=1)
        whole = horizontal_transport(path, sigma).samples
        monkeypatch.setattr(dynamics, "_TABLE_BYTES", nodes * 4 * 16 * 2 * 2)
        np.testing.assert_array_equal(horizontal_transport(path, sigma).samples, whole)

    def test_frames_track_the_projectors(self):
        # each psi_k is a section frame of P_k times a unitary, so it tracks P_k to
        # roundoff
        path, base, _ = _synthesized_loop(80, 6, 2, 0.1, 2000)
        assert tracking_defect(path, horizontal_transport(path, base.frame)) <= 1e-13

    def test_equals_the_projection_loop_on_a_long_path(self):
        # 8000 steps: the stacked chain's roundoff stays at the per-step loop's
        path, base, _ = _synthesized_loop(0, 6, 2, 0.1, 2000)
        got = horizontal_transport(path, base.frame).samples
        assert np.abs(got - projection_transport(path.samples, base.frame)).max() <= 1e-13

    @pytest.mark.parametrize("jump", [[2, 3], [0, 2]], ids=["whole_fiber", "one_direction"])
    def test_orthogonal_jump_raises_a_grassflow_error(self, jump):
        # P_{k+1} orthogonal to P_k (in every direction, or in one): the section has no
        # frame there, and numpy's LinAlgError must not escape
        eye = np.eye(4, dtype=complex)
        before, after = eye[:, :2] @ eye[:, :2].T, eye[:, jump] @ eye[:, jump].T
        samples = np.array([before] * 5 + [after] * 5)
        path = ProjectorPath(grid=TimeGrid(0.0, 1.0, 9), samples=samples, rank=2)
        with pytest.raises(GrassflowError):
            horizontal_transport(path, eye[:, :2])

    @pytest.mark.parametrize("jump", [[2, 3], [0, 2]], ids=["whole_fiber", "one_direction"])
    def test_orthogonal_jump_in_a_given_section_raises_degenerate_step(self, jump):
        # the same jumps as frames of a section: an overlap of determinant 0
        eye = np.eye(4, dtype=complex)
        section = np.array([eye[:, :2]] * 5 + [eye[:, jump]] * 5)
        with pytest.raises(DegenerateStep):
            dynamics._section_transport(section, dynamics.DEFAULT_TOLS)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_non_finite_overlap_raises_a_grassflow_error(self, m):
        # NaN fails the rank rule at m = 1; above it the overlaps are checked finite
        # first, so numpy's LinAlgError (an SVD of NaN) does not escape
        section = np.array([np.eye(5, dtype=complex)[:, :m]] * 6)
        section[3, 0, 0] = np.nan
        with pytest.raises(GrassflowError):
            dynamics._section_transport(section, dynamics.DEFAULT_TOLS)

    def test_non_finite_sample_raises_non_finite(self):
        path, base, _ = _synthesized_loop(81, 4, 2, 0.2, 8)
        samples = path.samples.copy()
        samples[9] = np.nan
        with pytest.raises(NonFinite):
            horizontal_transport(ProjectorPath(path.grid, samples, rank=2), base.frame)

    def test_section_is_the_lapack_pivoted_cholesky(self):
        # node k > 0 is the first m columns of LAPACK's pivoted Cholesky P_k = L L*
        # (zpstrf), rows put back in place; node 0 is sigma itself
        import scipy.linalg.lapack

        rng = np.random.default_rng(83)
        frames = np.array([random_frame(6, 3, rng) for _ in range(8)])
        samples = frames @ dag(frames)
        samples = (samples + dag(samples)) / 2.0
        section = dynamics._pivoted_section(samples, frames[0], dynamics.DEFAULT_TOLS)
        np.testing.assert_array_equal(section[0], frames[0])
        for p, got in zip(samples[1:], section[1:]):
            chol, pivots, rank, _ = scipy.linalg.lapack.zpstrf(p, lower=1)
            want = np.empty((6, 3), dtype=complex)
            want[pivots - 1] = np.tril(chol)[:, :3]
            assert rank == 3
            assert np.abs(got - want).max() <= 1e-15

    def test_gauge_chain_is_the_retracted_step_by_step_chain(self):
        rng = np.random.default_rng(82)
        maps = np.array([random_unitary(2, rng) + 1e-9 * random_antihermitian(2, rng)
                         for _ in range(300)])
        gauges = dynamics._gauge_chain(maps, dynamics.DEFAULT_TOLS)
        expected = [np.eye(2)]
        for step_map in maps:
            expected.append(_svd_polar(step_map @ expected[-1]))
        np.testing.assert_array_equal(gauges[0], np.eye(2))
        np.testing.assert_allclose(gauges, expected, rtol=0, atol=1e-13)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(**LOOPS)
    def test_gauge_covariance(self, seed, n, m_frac, scale, per_side):
        # sigma -> sigma u gives hol -> u* hol u (Wilczek & Zee, PRL 52, 2111 (1984))
        m = min(n - 1, 1 + int(m_frac * (n - 1)))
        path, base, rng = _synthesized_loop(seed, n, m, scale, per_side)
        u = random_unitary(m, rng)
        hol = loop_holonomy(path, base.frame)
        assert frob(loop_holonomy(path, base.frame @ u) - dag(u) @ hol @ u) <= 1e-10

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(**LOOPS)
    def test_reversed_loop_gives_the_adjoint(self, seed, n, m_frac, scale, per_side):
        # exact for the continuous transport; the discrete one keeps it to
        # within its own discretization error, estimated by halving h
        m = min(n - 1, 1 + int(m_frac * (n - 1)))
        path, base, _ = _synthesized_loop(seed, n, m, scale, per_side)
        fine, _, _ = _synthesized_loop(seed, n, m, scale, 2 * per_side)
        reverse = ProjectorPath(grid=path.grid, samples=path.samples[::-1], rank=m)
        hol = loop_holonomy(path, base.frame)
        error = frob(hol - loop_holonomy(fine, base.frame))
        assert frob(loop_holonomy(reverse, base.frame) - dag(hol)) <= error + 1e-12


_E12 = np.eye(3, dtype=complex)[:, :2]


@pytest.mark.parametrize("route", [
    lambda samples: pancharatnam_oracle(samples, _E12),
    lambda samples: horizontal_transport(ProjectorPath(TimeGrid(0.0, 1.0, 2), samples, 2), _E12),
], ids=["pancharatnam_oracle", "horizontal_transport"])
@pytest.mark.parametrize("middle, error", [
    (np.diag([1.0, 0.5, 0.0]), InvalidArgument),                       # not idempotent
    (np.diag([1.0, 1.0, 0.0]) + np.outer(np.eye(3)[2], np.eye(3)[0]), InvalidArgument),
    (np.diag([1.0, 0.0, 0.0]), InvalidArgument),                       # rank 1, not 2
    (np.eye(3), InvalidArgument),                                       # rank 3, not 2
    (np.diag([1.0, 1.0, 0.5]), InvalidArgument),                       # off the pivots
    (np.diag([1.0, 1.0, -0.5]), InvalidArgument),                      # indefinite there
    (np.diag([1.0, np.nan, 0.0]), NonFinite),
], ids=["hermitian_not_idempotent", "not_hermitian", "rank_deficient", "rank_in_excess",
        "not_idempotent_off_the_pivots", "indefinite_off_the_pivots", "nan"])
def test_middle_sample_that_is_not_a_projector_is_rejected(route, middle, error):
    # the loop diag(1, 1, 0) -> middle -> diag(1, 1, 0) of rank 2 in C^3; the middle
    # samples are diag(1, 0.5, 0), the idempotent diag(1, 1, 0) + e_3 e_1*, projectors of
    # rank 1 and 3, diag(1, 1, +-0.5), whose third entry neither the previous fiber nor a
    # pivot column reads, and one with a NaN entry
    ends = np.diag([1.0, 1.0, 0.0])
    with pytest.raises(error):
        route(np.array([ends, middle, ends]))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 5), m_frac=st.floats(0.0, 1.0))
def test_berry_maps_gauge_covariance(seed, n, m_frac):
    # sigma -> sigma u conjugates both fiber maps by u
    rng = np.random.default_rng(seed)
    m = min(n - 1, 1 + int(m_frac * (n - 1)))
    sigma = random_frame(n, m, rng)
    u = random_unitary(m, rng)
    schedule, p0, grid = smooth_schedule(n, rng), Projector.from_frame(sigma), TimeGrid(0.0, 1.0, 30)
    res = berry_maps(schedule, p0, sigma, grid)
    moved = berry_maps(schedule, p0, sigma @ u, grid)
    assert frob(moved.geometric - dag(u) @ res.geometric @ u) <= 1e-10
    assert frob(moved.dynamical - dag(u) @ res.dynamical @ u) <= 1e-10


@pytest.mark.parametrize("route", [
    lambda path, sigma: berry_maps(constant_schedule(np.zeros((3, 3), dtype=complex)),
                                   Projector(matrix=path.samples[0], rank=1),
                                   sigma, path.grid),
    lambda path, sigma: horizontal_transport(path, sigma),
    lambda path, sigma: loop_holonomy(path, sigma),
    lambda path, sigma: pancharatnam_oracle(path.samples, sigma),
], ids=["berry_maps", "horizontal_transport", "loop_holonomy", "pancharatnam_oracle"])
def test_start_frame_off_the_base_is_rejected(route):
    samples = np.repeat(Projector.standard(3, 1).matrix[np.newaxis], 5, axis=0)
    path = ProjectorPath(grid=TimeGrid(0.0, 1.0, 4), samples=samples, rank=1)
    off_base = np.eye(3, dtype=complex)[:, 1:2]  # spans e_2, not im(P0) = span(e_1)
    with pytest.raises(BaseMismatch):
        route(path, off_base)


def _axis_frames(n, columns):
    return np.array([np.eye(n, dtype=complex)[:, c] for c in columns])


def _turning_frames(steps):
    """[e1, cos(k pi/3) e2 + sin(k pi/3) e3] for k = 0..steps, a closed loop for steps % 6 == 0.

    Every overlap has singular values (1, 0.5), so the rank collapses only over many overlaps.
    """
    angles = np.arange(steps + 1) * np.pi / 3
    frames = np.zeros((steps + 1, 3, 2), dtype=complex)
    frames[:, 0, 0] = 1.0
    frames[:, 1, 1], frames[:, 2, 1] = np.cos(angles), np.sin(angles)
    return frames


def _contracting_frames(steps=32):
    """Frames [cos a_k e1 + sin a_k e3, cos b_k e2 + sin b_k e4] of a closed loop in C^4.

    Overlaps are diag(cos(a_k - a_{k-1}), cos(b_k - b_{k-1})).  ``steps`` steps of b by pi/3
    leave the chain diag(1, 2^-steps); the next overlap, diag(0.4, 0.4), gives the projected
    frame the smallest singular value 0.4 * 2^-steps, although the chain's own ratio stays
    2^-steps.
    """
    turn = np.arccos(0.4)
    a = np.concatenate([np.zeros(steps + 1), np.linspace(turn, 0.0, 13)])
    b_turned = steps * np.pi / 3 + turn
    b = np.concatenate([np.arange(steps + 1) * np.pi / 3,
                        np.linspace(b_turned, np.pi * round(b_turned / np.pi), 13)])
    frames = np.zeros((len(a), 4, 2), dtype=complex)
    frames[:, 0, 0], frames[:, 2, 0] = np.cos(a), np.sin(a)
    frames[:, 1, 1], frames[:, 3, 1] = np.cos(b), np.sin(b)
    return frames


def _equal_angle_loop(n, m, cos, rng):
    """Frames phi_0, phi_1, phi_0 whose m principal angles all have cosine ``cos``."""
    u = random_unitary(n, rng)
    turned = (cos * u[:, :m] + np.sqrt(1.0 - cos ** 2) * u[:, m:2 * m]) @ random_unitary(m, rng)
    return np.array([u[:, :m], turned, u[:, :m]])


def _rank_routes(frames):
    """Each fiber-projection route on the loop of ``frames``: True, or the error it raised."""
    m = frames.shape[-1]
    samples = frames @ dag(frames)
    samples = (samples + dag(samples)) / 2.0
    base = BasePoint.from_projector(Projector(samples[0], m))
    routes = {
        "section": lambda: dynamics._section_transport(frames.copy(), dynamics.DEFAULT_TOLS),
        "horizontal": lambda: horizontal_transport(
            ProjectorPath(TimeGrid(0.0, 1.0, 2), samples, m), frames[0]),
        "frame_oracle": lambda: _frame_oracle(frames),
        "pancharatnam": lambda: pancharatnam_oracle(samples, frames[0]),
        "reference": lambda: pancharatnam_reference(samples, frames[0]),
        "chart": lambda: chart_from_proj(base, Projector(samples[1], m)),
    }
    outcomes = {}
    for name, route in routes.items():
        try:
            route()
            outcomes[name] = True
        except (DegenerateStep, OutsideChart) as exc:
            outcomes[name] = type(exc)
    return outcomes


class TestOneRankRule:
    """Every fiber-projection route keeps rank m by one rule: cos^2 > structural here."""

    FAILED = {"section": DegenerateStep, "horizontal": DegenerateStep,
              "frame_oracle": DegenerateStep, "pancharatnam": DegenerateStep,
              "reference": DegenerateStep, "chart": OutsideChart}

    @pytest.mark.parametrize("m", [1, 2, 3, 8, 40])
    @settings(max_examples=16, deadline=None, derandomize=True, database=None)
    @given(extra=st.integers(0, 2), exponent=st.floats(0.05, 1.0), above=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_all_routes_raise_or_all_pass(self, m, extra, exponent, above, seed):
        # cos = sqrt(structural) * 10^(+-exponent): the squared singular values of each
        # overlap are cos^2, clear of the threshold structural by a factor 10^(2 exponent)
        cos = np.sqrt(dynamics.DEFAULT_TOLS.structural) * 10.0 ** (exponent if above else -exponent)
        frames = _equal_angle_loop(2 * m + extra, m, cos, np.random.default_rng(seed))
        want = {name: True for name in self.FAILED} if above else self.FAILED
        assert _rank_routes(frames) == want

    def test_projected_frame_alone_fails_the_rule(self):
        # 16 steps leave projected frames of s_min 2^-16, whose square clears structural;
        # the next overlap, diag(0.4, 0.4), takes it to 0.4 * 2^-16, whose square does not
        frames = _contracting_frames(16)
        _frame_oracle(frames[:17])
        with pytest.raises(DegenerateStep):
            pancharatnam_oracle(frames @ dag(frames), frames[0])
        with pytest.raises(DegenerateStep):
            pancharatnam_reference(frames @ dag(frames), frames[0])
        with pytest.raises(DegenerateStep):
            _frame_oracle(frames)

    @pytest.mark.parametrize("degrees", [40.0, 45.0, 60.0])
    def test_forty_angles_of_forty_five_degrees_pass_on_every_route(self, degrees):
        # s_min of each overlap is cos(45 deg) = 0.707; a determinant rule read
        # |det O|^2 = 2^-40 < structural and rejected the loop on the section routes
        frames = _equal_angle_loop(80, 40, np.cos(np.radians(degrees)), np.random.default_rng(4))
        assert _rank_routes(frames) == {name: True for name in self.FAILED}


def _turned_loop(m, extra, steps, turn, collapse, seed):
    """Samples and start frame of a closed loop U(t) phi U(t)* in C^(2m + extra), k = 0..steps.

    U(t) = exp(sin(2 pi t) A + (1 - cos(2 pi t)) B) with ||A||_2 = ||B||_2 = ``turn``; every
    frame takes a random gauge.  With ``collapse`` the first column of node steps // 2 is
    turned orthogonal to the node before and to its own other columns: one direction of the
    projected frame is lost there.
    """
    rng = np.random.default_rng(seed)
    n = 2 * m + extra
    a, b = (turn * x / np.linalg.norm(x, 2)
            for x in (random_antihermitian(n, rng), random_antihermitian(n, rng)))
    s = 2 * np.pi * np.linspace(0.0, 1.0, steps + 1)[:, np.newaxis, np.newaxis]
    frames = mat_exp(np.sin(s) * a + (1.0 - np.cos(s)) * b) @ random_frame(n, m, rng)
    if collapse:
        k = steps // 2
        spans = [frames[k - 1], frames[k, :, 1:], random_frame(n, 1, rng)]
        frames[k, :, 0] = np.linalg.qr(np.concatenate(spans, axis=1))[0][:, -1]
    frames = frames @ np.array([random_unitary(m, rng) for _ in frames])
    samples = frames @ dag(frames)
    return (samples + dag(samples)) / 2.0, frames[0]


def _raised_or_value(call):
    try:
        return call()
    except DegenerateStep:
        return DegenerateStep


class TestPancharatnamOracle:
    @pytest.mark.parametrize("m", [1, 2, 3, 8])
    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(extra=st.integers(1, 3), steps=st.integers(2, 40), turn=st.floats(0.1, 3.0),
           collapse=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_oracle_is_the_projection_loop(self, m, extra, steps, turn, collapse, seed):
        # the section's oracle against the per-sample product of the n x n samples: equal
        # within 1e-12, or DegenerateStep from both
        samples, sigma = _turned_loop(m, extra, steps, turn, collapse, seed)
        got = _raised_or_value(lambda: pancharatnam_oracle(samples, sigma))
        want = _raised_or_value(lambda: pancharatnam_reference(samples, sigma))
        if want is DegenerateStep or got is DegenerateStep:
            assert got is want
        else:
            assert np.abs(got - want).max() <= 1e-12

    @staticmethod
    def latitude_samples(theta, n_samples):
        return bloch_matrices(theta, np.linspace(0.0, 2 * np.pi, n_samples + 1))

    def test_constant_loop(self):
        samples = np.repeat(Projector.standard(2, 1).matrix[np.newaxis], 2, axis=0)
        sigma = np.eye(2, dtype=complex)[:, :1]
        np.testing.assert_allclose(pancharatnam_oracle(samples, sigma),
                                   np.eye(1), atol=1e-12)

    def test_one_sample_is_a_loop_of_no_step(self):
        # no overlap to chain: the oracle is sigma* sigma, isometrized
        sigma = random_frame(4, 2, np.random.default_rng(84))
        np.testing.assert_allclose(pancharatnam_oracle((sigma @ dag(sigma))[np.newaxis], sigma),
                                   np.eye(2), rtol=0, atol=1e-15)

    def test_agreement_with_transport(self):
        theta = np.pi / 2
        p0 = bloch_projector(theta)
        sigma = BasePoint.from_projector(p0).frame
        path = integrate_projector(rotating_schedule(2 * np.pi), p0,
                                   TimeGrid(0.0, 1.0, 4000))
        hol = loop_holonomy(path, sigma)
        oracle = pancharatnam_oracle(self.latitude_samples(theta, 10000), sigma)
        assert frob(hol - oracle) <= 2e-3

    def test_convergence_rate(self):
        theta = np.pi / 3
        p0 = bloch_projector(theta)
        sigma = BasePoint.from_projector(p0).frame
        path = integrate_projector(rotating_schedule(2 * np.pi), p0,
                                   TimeGrid(0.0, 1.0, 4000))
        reference = loop_holonomy(path, sigma)
        gap_coarse = frob(pancharatnam_oracle(
            self.latitude_samples(theta, 1000), sigma) - reference)
        gap_fine = frob(pancharatnam_oracle(
            self.latitude_samples(theta, 10000), sigma) - reference)
        assert gap_fine <= gap_coarse / 5.0

    @pytest.mark.parametrize("frames", [
        _axis_frames(2, [[0], [1], [0]]),              # a frame orthogonal to its neighbour
        _axis_frames(4, [[0, 1], [2, 3], [0, 1]]),
        _axis_frames(4, [[0, 1], [0, 2], [0, 1]]),     # the overlap loses one rank
        _turning_frames(60),
        _contracting_frames(),                         # fails by the projected frame only
    ], ids=["m1", "m2-orthogonal", "m2-rank-one", "m2-gradual", "m2-contracting"])
    def test_collapsing_projection_is_degenerate_on_both_routes(self, frames):
        with pytest.raises(DegenerateStep):
            pancharatnam_oracle(frames @ dag(frames), frames[0])
        with pytest.raises(DegenerateStep):
            pancharatnam_reference(frames @ dag(frames), frames[0])

    @pytest.mark.parametrize("periods", [20, 300, 1000])
    def test_uniformly_shrinking_chain_is_not_degenerate(self, periods):
        # [e1, e2] -> [e1, c e2 + s e3] -> [c e1 + s e4, c e2 + s e3] -> [c e1 + s e4, e2]
        # -> [e1, e2]: each period scales the chain by c^2 I and keeps its rank.  Each
        # overlap scaled by |det|^(1/m), not |det|, keeps 1000 periods from overflowing
        c, s = 0.5, np.sqrt(0.75)
        e = np.eye(4, dtype=complex)
        period = [np.stack(columns, axis=1) for columns in
                  ((e[0], e[1]), (e[0], c * e[1] + s * e[2]),
                   (c * e[0] + s * e[3], c * e[1] + s * e[2]), (c * e[0] + s * e[3], e[1]))]
        frames = np.array(period * periods + period[:1])
        reference = pancharatnam_reference(frames @ dag(frames), frames[0])
        assert frob(reference - np.eye(2)) <= 1e-12
        np.testing.assert_allclose(pancharatnam_oracle(frames @ dag(frames), frames[0]),
                                   reference, rtol=0, atol=1e-12)

    def test_frame_oracle_is_the_projector_oracle(self):
        # frames of a closed loop in a random gauge at every node, as the CLI's oracle
        # takes them, and the public oracle of their projectors, against the loop
        path, _, rng = _synthesized_loop(77, 5, 2, 0.3, 20)
        frames = np.linalg.eigh(path.samples)[1][..., -2:]
        frames = frames @ np.array([random_unitary(2, rng) for _ in frames])
        reference = pancharatnam_reference(frames @ dag(frames), frames[0])
        np.testing.assert_allclose(_frame_oracle(frames), reference, rtol=0, atol=1e-12)
        np.testing.assert_allclose(pancharatnam_oracle(frames @ dag(frames), frames[0]),
                                   reference, rtol=0, atol=1e-12)

    def test_observed_order(self):
        theta = np.pi / 3
        p0 = bloch_projector(theta)
        sigma = BasePoint.from_projector(p0).frame
        reference = berry_maps(rotating_schedule(2 * np.pi), p0, sigma,
                               TimeGrid(0.0, 1.0, 4000)).geometric
        errors = [frob(pancharatnam_oracle(self.latitude_samples(theta, samples), sigma)
                       - reference)
                  for samples in (250, 500, 1000)]
        orders = [np.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]
        assert all(1.8 <= order <= 2.2 for order in orders), orders


class TestSynthesizeHolonomy:
    def test_zero_generator(self):
        base = BasePoint.standard(3, 1)
        path = synthesize_holonomy_step(np.zeros((1, 1)), 0.1, base)
        hol = loop_holonomy(path, base.frame)
        assert frob(hol - np.eye(1)) <= 1e-12

    def test_scalar_scaling_law(self):
        base = BasePoint.standard(2, 1)
        w = np.array([[1j]])
        c = SYNTHESIS_CURVATURE_CONSTANT
        residuals = []
        for t in (0.2, 0.1, 0.05):
            path = synthesize_holonomy_step(w, t, base, samples_per_side=256)
            hol = loop_holonomy(path, base.frame)
            log_hol = 1j * np.angle(hol[0, 0])
            residuals.append(abs(log_hol - c * t * t * w[0, 0]))
        # remainder is O(t^4) for the symmetric parallelogram: halving t
        # shrinks it by far more than the 8x an O(t^3) term would give
        assert residuals[1] <= residuals[0] / 8.0
        assert residuals[2] <= residuals[1] / 8.0
        # the constant itself is pinned down by the smallest loop
        path = synthesize_holonomy_step(w, 0.05, base, samples_per_side=256)
        hol = loop_holonomy(path, base.frame)
        assert abs(np.angle(hol[0, 0]) / 0.05 ** 2 - c * w[0, 0].imag) <= 0.01

    def test_quadratic_area_scaling(self):
        base = BasePoint.standard(2, 1)
        w = np.array([[1j]])
        phases = {}
        for t in (0.05, 0.1):
            path = synthesize_holonomy_step(w, t, base, samples_per_side=256)
            hol = loop_holonomy(path, base.frame)
            phases[t] = np.angle(hol[0, 0])
        ratio = phases[0.1] / phases[0.05]
        assert abs(ratio - 4.0) <= 0.4  # within 10%

    def test_matrix_generator(self):
        base = BasePoint.standard(5, 2)
        rng = np.random.default_rng(61)
        w = random_antihermitian(2, rng)
        w /= np.linalg.norm(w)
        t = 0.1
        path = synthesize_holonomy_step(w, t, base, samples_per_side=256)
        hol = loop_holonomy(path, base.frame)
        predicted = mat_exp(SYNTHESIS_CURVATURE_CONSTANT * t * t * w)
        assert frob(hol - predicted) <= 5e-3
