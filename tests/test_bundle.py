import numpy as np
import pytest

from grassflow import (BaseMismatch, DimensionTooSmall, InvalidArgument, NotAFrame,
                       NotAntiHermitian, NotHorizontal)
from grassflow.bundle import (connection_A, curvature_Omega,
                              curvature_generators, frame_defect,
                              horizontal_lift, local_trivialization,
                              project_frame, split_vertical_horizontal)
from grassflow.grassmann import (BasePoint, ChartTangent, Projector,
                                 proj_from_chart)
from grassflow.linalg import (dag, frob, isometrize, random_antihermitian,
                              random_complex, random_frame, random_unitary)

E1 = np.eye(2, dtype=complex)[:, :1]


def random_base(n, m, rng):
    u = random_unitary(n, rng)
    p = u @ Projector.standard(n, m).matrix @ dag(u)
    return BasePoint.from_projector(Projector(matrix=(p + dag(p)) / 2, rank=m))


class TestProjectFrame:
    def test_standard_columns(self):
        phi = np.eye(4, dtype=complex)[:, :2]
        np.testing.assert_allclose(project_frame(phi).matrix,
                                   np.diag([1.0, 1.0, 0.0, 0.0]), atol=1e-14)

    def test_outer_product(self):
        phi = np.array([[1.0], [1.0]], dtype=complex) / np.sqrt(2)
        np.testing.assert_allclose(project_frame(phi).matrix,
                                   0.5 * np.ones((2, 2)), atol=1e-14)

    def test_gauge_invariance(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            phi = random_frame(6, 2, rng)
            g = random_unitary(2, rng)
            assert frob(project_frame(phi @ g).matrix
                        - project_frame(phi).matrix) <= 1e-12

    def test_rejects_nonframe(self):
        with pytest.raises(NotAFrame):
            project_frame(2.0 * E1)


class TestConnectionA:
    def test_horizontal_gives_zero(self):
        phi = E1
        xi = np.array([[0.0], [1.0 + 2.0j]])
        np.testing.assert_allclose(connection_A(phi, xi), np.zeros((1, 1)),
                                   atol=1e-14)

    def test_fundamental_vertical(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            phi = random_frame(5, 2, rng)
            u = random_antihermitian(2, rng)
            np.testing.assert_allclose(connection_A(phi, phi @ u), u, atol=1e-12)

    def test_equivariance(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            phi = random_frame(5, 2, rng)
            u = random_antihermitian(5, rng)
            xi = u @ phi  # ambient tangent
            g = random_unitary(2, rng)
            lhs = connection_A(phi @ g, xi @ g)
            rhs = dag(g) @ connection_A(phi, xi) @ g
            assert frob(lhs - rhs) <= 1e-12


class TestSplitVerticalHorizontal:
    def test_fundamental_vertical(self):
        rng = np.random.default_rng(33)
        phi = random_frame(4, 2, rng)
        u = random_antihermitian(2, rng)
        vert, hor = split_vertical_horizontal(phi, phi @ u)
        assert frob(vert - phi @ u) <= 1e-12
        assert frob(hor) <= 1e-12

    def test_already_horizontal(self):
        phi = E1
        xi = np.array([[0.0], [3.0j]])
        vert, hor = split_vertical_horizontal(phi, xi)
        assert frob(vert) <= 1e-14
        assert frob(hor - xi) <= 1e-14

    def test_ambient_generator_split(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            phi = random_frame(5, 2, rng)
            u = random_antihermitian(5, rng)
            xi = u @ phi
            vert, hor = split_vertical_horizontal(phi, xi)
            p = phi @ dag(phi)
            assert frob(vert - p @ u @ phi) <= 1e-12
            assert frob(hor - (np.eye(5) - p) @ u @ phi) <= 1e-12
            assert frob(vert + hor - xi) <= 1e-14
            assert frob(connection_A(phi, hor)) <= 1e-12


class TestHorizontalLift:
    def test_zero(self):
        base = BasePoint.standard(2, 1)
        mu = ChartTangent(base=base, block=np.zeros((1, 1)))
        np.testing.assert_allclose(horizontal_lift(E1, mu), np.zeros((2, 1)))

    def test_standard_lift(self):
        base = BasePoint.standard(2, 1)
        mu = ChartTangent(base=base, block=np.array([[1.0]], dtype=complex))
        np.testing.assert_allclose(horizontal_lift(E1, mu),
                                   np.array([[0.0], [1.0]]), atol=1e-14)

    def test_pushforward_roundtrip(self):
        # xi phi* + phi xi* pushed back into the chart recovers mu
        rng = np.random.default_rng(35)
        for _ in range(20):
            base = random_base(5, 2, rng)
            phi = base.frame @ random_unitary(2, rng)
            blk = random_complex(3, 2, rng)
            mu = ChartTangent(base=base, block=blk)
            xi = horizontal_lift(phi, mu)
            push = xi @ dag(phi) + phi @ dag(xi)
            recovered = dag(base.coframe) @ push @ base.frame
            assert frob(recovered - blk) <= 1e-12

    def test_base_mismatch(self):
        base = BasePoint.standard(3, 1)
        mu = ChartTangent(base=base, block=np.zeros((2, 1)))
        wrong = np.eye(3, dtype=complex)[:, 1:2]
        with pytest.raises(BaseMismatch):
            horizontal_lift(wrong, mu)


class TestCurvatureOmega:
    def test_degenerate_pair(self):
        u = np.array([[0.0], [1.0]], dtype=complex)
        assert frob(curvature_Omega(E1, u, u)) <= 1e-14

    def test_scalar_value(self):
        u = np.array([[0.0], [1.0]], dtype=complex)
        v = 1j * u
        np.testing.assert_allclose(curvature_Omega(E1, u, v),
                                   np.array([[1j]]), atol=1e-14)

    def test_antisymmetry(self):
        rng = np.random.default_rng(36)
        phi = np.eye(5, dtype=complex)[:, :2]
        comp = np.eye(5, dtype=complex)[:, 2:]
        u = comp @ random_complex(3, 2, rng)
        v = comp @ random_complex(3, 2, rng)
        assert frob(curvature_Omega(phi, u, v) + curvature_Omega(phi, v, u)) <= 1e-12

    def test_rejects_vertical(self):
        with pytest.raises(NotHorizontal):
            curvature_Omega(E1, E1, np.array([[0.0], [1.0]], dtype=complex))


class TestCurvatureGenerators:
    def test_zero_gives_empty(self):
        assert curvature_generators(np.zeros((2, 2)), 5) == []

    def test_scalar_case(self):
        pairs = curvature_generators(np.array([[1j]]), 2)
        assert len(pairs) == 1
        u, v = pairs[0]
        np.testing.assert_allclose(curvature_Omega(E1, u, v), np.array([[1j]]),
                                   atol=1e-14)

    def test_tight_regime(self):
        # n = m + 1: per-eigenvalue construction on a single complement direction
        rng = np.random.default_rng(37)
        phi = np.eye(3, dtype=complex)[:, :2]
        for _ in range(20):
            w = random_antihermitian(2, rng)
            total = sum(curvature_Omega(phi, u, v)
                        for u, v in curvature_generators(w, 3))
            assert frob(total - w) <= 1e-12

    def test_roomy_regime(self):
        rng = np.random.default_rng(38)
        phi = np.eye(6, dtype=complex)[:, :2]
        for _ in range(20):
            w = random_antihermitian(2, rng)
            pairs = curvature_generators(w, 6)
            assert len(pairs) == 1
            u, v = pairs[0]
            assert frob(curvature_Omega(phi, u, v) - w) <= 1e-12

    def test_dimension_too_small(self):
        with pytest.raises(DimensionTooSmall):
            curvature_generators(np.array([[1j]]), 1)

    def test_rejects_hermitian(self):
        with pytest.raises(NotAntiHermitian):
            curvature_generators(np.eye(2, dtype=complex), 5)

    @pytest.mark.parametrize("w", [np.zeros(2), np.zeros((2, 3)), np.zeros((2, 2, 2))],
                             ids=["vector", "not_square", "zero_stack"])
    def test_rejects_anything_but_one_square_matrix(self, w):
        # a vector and a 2 x 3 matrix once ended in numpy errors, a zero stack in []
        with pytest.raises(InvalidArgument):
            curvature_generators(w, 4)


class TestLocalTrivialization:
    def test_zero_block_fixes_frame(self):
        base = BasePoint.standard(2, 1)
        f = ChartTangent(base=base, block=np.zeros((1, 1)))
        np.testing.assert_allclose(local_trivialization(E1, f), E1, atol=1e-14)

    def test_unit_block(self):
        base = BasePoint.standard(2, 1)
        f = ChartTangent(base=base, block=np.array([[1.0]], dtype=complex))
        expected = isometrize(np.array([[1.0], [1.0]], dtype=complex))
        np.testing.assert_allclose(local_trivialization(E1, f), expected,
                                   atol=1e-14)

    def test_projects_to_chart_point(self):
        rng = np.random.default_rng(39)
        for _ in range(20):
            base = random_base(5, 2, rng)
            phi = base.frame @ random_unitary(2, rng)
            f = ChartTangent(base=base, block=random_complex(3, 2, rng))
            triv = local_trivialization(phi, f)
            assert frame_defect(triv) <= 1e-12
            assert frob(triv @ dag(triv)
                        - proj_from_chart(base, f).matrix) <= 1e-10


class TestBundleStructure:
    def test_structure_group_action(self):
        rng = np.random.default_rng(40)
        for _ in range(30):
            phi = random_frame(6, 2, rng)
            g = random_unitary(2, rng)
            moved = phi @ g
            assert frob(dag(moved) @ moved - np.eye(2)) <= 1e-12
            assert frob(moved @ dag(moved) - phi @ dag(phi)) <= 1e-12

    def test_fiber_transitivity(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            phi = random_frame(6, 2, rng)
            psi = phi @ random_unitary(2, rng)
            g = dag(psi) @ phi
            assert frob(dag(g) @ g - np.eye(2)) <= 1e-10
            assert frob(psi @ g - phi) <= 1e-10

    def test_dpi_identity(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            base = random_base(6, 2, rng)
            phi = base.frame
            mu = ChartTangent(base=base, block=random_complex(4, 2, rng))
            xi = horizontal_lift(phi, mu)
            push = xi @ dag(phi) + phi @ dag(xi)
            p = base.projector.matrix
            assert frob(push - dag(push)) <= 1e-12
            assert abs(complex(np.trace(push))) <= 1e-12
            assert frob(p @ push + push @ p - push) <= 1e-12
