import numpy as np
import pytest

from grassflow import BaseMismatch, NotAntiHermitian, NotClosed, PathTooRough
from grassflow import dynamics
from grassflow.bundle import frame_defect
from grassflow.dynamics import (SYNTHESIS_CURVATURE_CONSTANT, HamiltonianSchedule,
                                TimeGrid,
                                berry_maps, bloch_projector, constant_schedule,
                                geometric_hamiltonian, geometric_schedule,
                                horizontal_transport, integrate_frame,
                                integrate_projector, loop_holonomy,
                                pancharatnam_oracle, rotating_schedule,
                                sampled_schedule, synthesize_holonomy_step,
                                tracking_defect, horizontality_defect,
                                ProjectorPath)
from grassflow.grassmann import BasePoint, Projector, linear_hamiltonian, projector_defect
from grassflow.linalg import (dag, frob, mat_exp, random_antihermitian,
                              random_frame, random_unitary)


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
    def test_max_raw_defect_is_the_worst_pre_retraction_frame(self, sampled, monkeypatch):
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
            raw.append(frame_defect(f))
            return retract(f, tol)

        monkeypatch.setattr(dynamics, "polar_retract", recording_retract)
        transported = horizontal_transport(path, phi0)
        assert len(raw) == path.grid.steps
        expected = max([frame_defect(phi0)] + raw)
        assert expected > 0.0
        assert transported.max_raw_defect == pytest.approx(expected, rel=1e-12, abs=1e-30)


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

        stages = []
        for stage in ("_lifted_rhs", "_rk4_step"):
            monkeypatch.setattr(dynamics, stage, lambda *args: stages.append(args) or 1 / 0)
        with pytest.raises(error, match=match):
            RK4_ROUTES[route](HamiltonianSchedule(table), random_frame(4, 2, rng), grid)
        assert stages == []

    @pytest.mark.parametrize("route", RK4_ROUTES)
    def test_unbroadcast_table_is_rejected(self, route, monkeypatch):
        # a table that ignores its time axis would hand out matrix rows as generators
        a = random_antihermitian(4, 72)
        stages = []
        for stage in ("_lifted_rhs", "_rk4_step"):
            monkeypatch.setattr(dynamics, stage, lambda *args: stages.append(args) or 1 / 0)
        with pytest.raises(ValueError, match="schedule table"):
            RK4_ROUTES[route](HamiltonianSchedule(lambda t: a), random_frame(4, 2, 73),
                              TimeGrid(0.0, 1.0, 10))
        assert stages == []

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
        fd_step = 1e-6
        schedule = geometric_schedule(qfun, fd_step)
        table = schedule.table(self.TIMES)
        for t, h_mat in zip(self.TIMES, table):
            assert frob(h_mat - schedule(t)) <= 1e-14
            # the definition, from three per-time curve evaluations
            v = (qfun(t + fd_step) - qfun(t - fd_step)) / (2.0 * fd_step)
            assert frob(h_mat - dynamics._geometric_generator(qfun(t), v)) <= 1e-14

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
