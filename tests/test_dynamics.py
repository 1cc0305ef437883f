import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grassflow import (BaseMismatch, DegenerateStep, NonFinite, NotAntiHermitian, NotClosed,
                       PathTooRough)
from grassflow import dynamics
from grassflow.bundle import frame_defect
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
                                ProjectorPath)
from grassflow.grassmann import (BasePoint, Projector, hamiltonian_value, linear_hamiltonian,
                                 projector_defect, sampled_derivative)
from grassflow.linalg import (dag, frob, isometrize, mat_exp, polar_retract,
                              random_antihermitian, random_frame, random_unitary)


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


def _scheduled_transport(schedule, sigma, grid):
    # scheduled transport co-integrates P from the schedule; the path gives its start
    p0 = Projector.from_frame(sigma)
    samples = np.repeat(p0.matrix[np.newaxis], grid.steps + 1, axis=0)
    path = ProjectorPath(grid=grid, samples=samples, rank=p0.rank, schedule=schedule)
    return horizontal_transport(path, sigma)


# every RK4 route that reads a schedule, as route(schedule, sigma, grid)
RK4_ROUTES = {
    "berry_maps": lambda sched, sigma, grid: berry_maps(
        sched, Projector.from_frame(sigma), sigma, grid),
    "integrate_frame": integrate_frame,
    "integrate_projector": lambda sched, sigma, grid: integrate_projector(
        sched, Projector.from_frame(sigma), grid),
    "horizontal_transport": _scheduled_transport,
}


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

    @pytest.mark.parametrize("sampled", [False, True], ids=["schedule", "sampled"])
    def test_each_step_stores_the_retraction_of_its_frame(self, sampled, monkeypatch):
        # every pre-retraction frame passes through polar_retract: record it there
        rng = np.random.default_rng(57)
        phi0 = random_frame(4, 2, rng)
        path = integrate_projector(smooth_schedule(4, rng), Projector.from_frame(phi0),
                                   TimeGrid(0.0, 1.0, 200))
        if sampled:
            path = ProjectorPath(grid=path.grid, samples=path.samples, rank=path.rank)
        raw = []
        retract = dynamics.polar_retract

        def recording_retract(f, tol):
            raw.append(f.copy())
            return retract(f, tol)

        monkeypatch.setattr(dynamics, "polar_retract", recording_retract)
        transported = horizontal_transport(path, phi0)
        assert len(raw) == path.grid.steps
        assert max(frame_defect(f) for f in raw) > 0.0
        np.testing.assert_array_equal(transported.samples[0], phi0)
        np.testing.assert_allclose(transported.samples[1:], [retract(f) for f in raw],
                                   rtol=0, atol=1e-15)

    def test_scheduled_transport_stores_only_the_frames(self, monkeypatch):
        # the frames are (steps+1, n, m); the co-integrated n x (n+m) state [P | psi]
        # stacked over the run would be larger than the projector path itself
        import tracemalloc

        n, m = 32, 2
        rng = np.random.default_rng(74)
        sigma = random_frame(n, m, rng)
        grid = TimeGrid(0.0, 1.0, 200)
        p0 = Projector.from_frame(sigma)
        samples = np.repeat(p0.matrix[np.newaxis], grid.steps + 1, axis=0)
        path = ProjectorPath(grid=grid, samples=samples, rank=m,
                             schedule=smooth_schedule(n, rng))
        monkeypatch.setattr(dynamics, "_TABLE_BYTES", 4 * 16 * n * n)
        tracemalloc.start()
        try:
            transported = horizontal_transport(path, sigma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert transported.samples.shape == (grid.steps + 1, n, m)
        assert peak < path.samples.nbytes / 2


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
        # the frame-first loop against the frame flow and against transport
        # co-integrated with the separately integrated projector flow
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
            phi_end = integrate_frame(sched, sigma, grid).samples[-1]
            psi_end = horizontal_transport(integrate_projector(sched, p0, grid),
                                           sigma).samples[-1]
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

        # every route, berry_maps included, takes each step through _rk4_step
        stages = []
        monkeypatch.setattr(dynamics, "_rk4_step", lambda *args: stages.append(args) or 1 / 0)
        with pytest.raises(error, match=match):
            RK4_ROUTES[route](HamiltonianSchedule(table), random_frame(4, 2, rng), grid)
        assert stages == []

    @pytest.mark.parametrize("route", RK4_ROUTES)
    def test_unbroadcast_table_is_rejected(self, route, monkeypatch):
        # a table that ignores its time axis would hand out matrix rows as generators
        a = random_antihermitian(4, 72)
        stages = []
        monkeypatch.setattr(dynamics, "_rk4_step", lambda *args: stages.append(args) or 1 / 0)
        with pytest.raises(ValueError, match="schedule table"):
            RK4_ROUTES[route](HamiltonianSchedule(lambda t: a), random_frame(4, 2, 73),
                              TimeGrid(0.0, 1.0, 10))
        assert stages == []

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

    Returns the frames, the gauge factors and the node generators phi_k* H(t_k) phi_k.
    """
    n, m = sigma.shape
    h = grid.h
    eye = np.eye(m)
    phis, gauges, gens = [], [], []
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
            phi = isometrize(phi, tol)
        g = polar_retract(g + (h / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4), tol)
    return np.array(phis), np.array(gauges), np.array(gens)


class TestGaugeRoute:
    """berry_maps' stacked gauge factor against the per-step loop it replaced."""

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
    def test_matches_the_per_step_loop(self, n, steps, seed, monkeypatch):
        schedule, sigma, grid = self.problem(n, steps, seed)
        phis, gauges, gens = _reference_berry_loop(schedule, sigma, grid)
        isometrized = []
        monkeypatch.setattr(dynamics, "isometrize",
                            lambda f, tol: isometrized.append(f) or isometrize(f, tol))
        res = berry_maps(schedule, Projector.from_frame(sigma), sigma, grid)
        assert bool(isometrized) == (steps == 12)  # the coarse grid leaves the frames
        np.testing.assert_array_equal(res.frame_path.samples, phis)
        np.testing.assert_array_equal(res.energies, hamiltonian_value(gens))
        np.testing.assert_allclose(res.horizontal_path.samples, phis @ gauges,
                                   rtol=0, atol=1e-13)
        psi_end = phis[-1] @ gauges[-1]
        np.testing.assert_allclose(res.fiber_gap, dag(psi_end) @ phis[-1], rtol=0, atol=1e-13)
        assert frob(gauges[-1] - np.eye(2)) > 0.1  # a gauge factor far from I

    def test_blocks_of_three_steps_match_one_block(self, monkeypatch):
        schedule, sigma, grid = self.problem(4, 50, 203)
        p0 = Projector.from_frame(sigma)
        whole = berry_maps(schedule, p0, sigma, grid)
        # a block holds the 4 slopes (4 x 2 complex) of 3 steps: _TABLE_BYTES // 16 bytes
        monkeypatch.setattr(dynamics, "_TABLE_BYTES", 16 * 3 * 4 * 16 * 4 * 2)
        maps = []
        step_maps = dynamics._gauge_step_maps
        monkeypatch.setattr(dynamics, "_gauge_step_maps",
                            lambda phis, *args: maps.append(len(phis)) or step_maps(phis, *args))
        blocks = berry_maps(schedule, p0, sigma, grid)
        assert maps == [3] * 16 + [2]
        for name in ("frame_path", "horizontal_path"):
            np.testing.assert_array_equal(getattr(blocks, name).samples,
                                          getattr(whole, name).samples)
        np.testing.assert_array_equal(blocks.energies, whole.energies)

    @pytest.mark.parametrize("steps", [2, 7, 400])
    def test_two_stacked_retractions_per_run(self, steps, monkeypatch):
        schedule, sigma, grid = self.problem(4, steps, 204)
        calls = []
        monkeypatch.setattr(dynamics, "polar_retract",
                            lambda f, tol: calls.append(f.shape) or polar_retract(f, tol))
        berry_maps(schedule, Projector.from_frame(sigma), sigma, grid)
        assert calls == [(steps, 2, 2)] * 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's overflow warnings
@pytest.mark.parametrize("route", ["berry_maps", "integrate_frame", "integrate_projector"])
def test_overflowing_state_raises_non_finite(route, monkeypatch):
    # the RK4 stages of a generator of norm 1e200 overflow to inf and NaN in the
    # first step; a NaN defect is not within tol.ode, so the retraction after
    # that step meets the non-finite state and raises
    h_mat = random_antihermitian(3, 205)
    schedule = constant_schedule(1e200 * h_mat / np.linalg.norm(h_mat))
    steps, rk4_step = [], dynamics._rk4_step
    monkeypatch.setattr(dynamics, "_rk4_step",
                        lambda *args: steps.append(1) or rk4_step(*args))
    with pytest.raises(NonFinite, match="non-finite"):
        RK4_ROUTES[route](schedule, random_frame(3, 1, 206), TimeGrid(0.0, 1.0, 10))
    assert len(steps) == 1


def _latitude_qfun(t):
    return dynamics.bloch_matrices(1.1, 2 * np.pi * np.asarray(t))


def _random_loop_qfun(t, n=4, m=2, seed=67):
    rng = np.random.default_rng(seed)
    a, b = random_antihermitian(n, rng), random_antihermitian(n, rng)
    s = 2 * np.pi * np.asarray(t)[..., np.newaxis, np.newaxis]
    u = mat_exp(np.sin(s) * a + (1.0 - np.cos(s)) * b)
    return u @ Projector.standard(n, m).matrix @ dag(u)


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

    @pytest.mark.parametrize("qfun", [_latitude_qfun, _random_loop_qfun],
                             ids=["latitude", "random_loop"])
    def test_geometric_table_matches_the_evaluator(self, qfun):
        fd_step = dynamics._FD_STEP
        schedule = geometric_schedule(qfun)
        table = schedule.table(self.TIMES)
        for t, h_mat in zip(self.TIMES, table):
            assert frob(h_mat - schedule(t)) <= 1e-14
            # the definition, from three per-time curve evaluations
            v = (qfun(t + fd_step) - qfun(t - fd_step)) / (2.0 * fd_step)
            assert frob(h_mat - dynamics._geometric_generator(qfun(t), v)) <= 1e-14

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


LOOPS = dict(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 6),
             m_frac=st.floats(0.0, 1.0), scale=st.floats(0.05, 0.3),
             per_side=st.integers(8, 32))


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

    def test_step_maps_are_the_trapezoid_step(self):
        # against psi + (h/2)(D_k psi + D_{k+1}(psi + h D_k psi)) and the SVD polar factor
        path, base, _ = _synthesized_loop(79, 5, 2, 0.3, 16)
        h, derivs = path.grid.h, sampled_derivative(path.samples, path.grid.h, 2)
        expected = [base.frame]
        for d0, d1 in zip(derivs, derivs[1:]):
            psi = expected[-1]
            k1 = d0 @ psi
            u, _, vh = np.linalg.svd(psi + (h / 2.0) * (k1 + d1 @ (psi + h * k1)),
                                     full_matrices=False)
            expected.append(u @ vh)
        got = horizontal_transport(path, base.frame).samples
        assert np.abs(got - np.array(expected)).max() <= 1e-14

    def test_step_maps_in_blocks_match_one_block(self, monkeypatch):
        path, base, _ = _synthesized_loop(76, 5, 2, 0.2, 40)
        whole = horizontal_transport(path, base.frame).samples
        monkeypatch.setattr(dynamics, "_TABLE_BYTES", 3 * 4 * 16 * 5 * 5)  # 3 maps a block
        np.testing.assert_array_equal(horizontal_transport(path, base.frame).samples, whole)

    def test_loops_retract_without_the_svd(self, monkeypatch):
        # every polar_retract of berry_maps (two stacks per run) and of the sampled
        # transport (one frame per step) takes the Newton-Schulz step on these
        # runs: the SVD route (the only full_matrices=False caller) never runs
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
        assert calls[4:] == [(6, 2)] * path.grid.steps
        assert polar_svds == []

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


class TestPancharatnamOracle:
    @staticmethod
    def latitude_samples(theta, n_samples):
        return np.array([bloch_projector(theta, az).matrix
                         for az in np.linspace(0.0, 2 * np.pi, n_samples + 1)])

    def test_constant_loop(self):
        samples = np.repeat(Projector.standard(2, 1).matrix[np.newaxis], 2, axis=0)
        sigma = np.eye(2, dtype=complex)[:, :1]
        np.testing.assert_allclose(pancharatnam_oracle(samples, sigma),
                                   np.eye(1), atol=1e-12)

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

    @pytest.mark.parametrize("n, columns", [
        (2, [[0], [1], [0]]),               # a frame orthogonal to its neighbour
        (4, [[0, 1], [2, 3], [0, 1]]),
        (4, [[0, 1], [0, 2], [0, 1]]),      # the overlap loses one rank
    ], ids=["m1", "m2-orthogonal", "m2-rank-one"])
    def test_collapsing_projection_is_degenerate_on_both_routes(self, n, columns):
        frames = np.array([np.eye(n, dtype=complex)[:, c] for c in columns])
        with pytest.raises(DegenerateStep):
            pancharatnam_oracle(frames @ dag(frames), frames[0])
        with pytest.raises(DegenerateStep):
            _frame_oracle(frames)

    def test_frame_oracle_is_the_projector_oracle(self):
        # frames of a closed loop in a random gauge at every node
        path, _, rng = _synthesized_loop(77, 5, 2, 0.3, 20)
        frames = np.linalg.eigh(path.samples)[1][..., -2:]
        frames = frames @ np.array([random_unitary(2, rng) for _ in frames])
        np.testing.assert_allclose(_frame_oracle(frames),
                                   pancharatnam_oracle(frames @ dag(frames), frames[0]),
                                   rtol=0, atol=1e-12)

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
