import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grassflow import NotAntiHermitian, NotTangent, NotUnitary, OutsideChart, SectionNotInFiber
from grassflow.grassmann import (BasePoint, ChartTangent, EmbeddedTangent,
                                 Projector, chart_ambient, chart_from_proj, chart_projectors,
                                 chart_transport,
                                 covariant_derivative_along,
                                 grassmann_connection_F, grassmann_curvature_F,
                                 ham_field, hamiltonian_value, lie_field_chart,
                                 linear_hamiltonian,
                                 proj_from_chart, sampled_derivative,
                                 symplectic_form, tangent_embed, tangent_extract)
from grassflow.linalg import (commutator, dag, frob, isometrize, mat_exp,
                              random_antihermitian, random_complex,
                              random_unitary)

STD21 = BasePoint.standard(2, 1)


def random_base(n, m, rng):
    u = random_unitary(n, rng)
    p = u @ Projector.standard(n, m).matrix @ dag(u)
    return BasePoint.from_projector(Projector(matrix=(p + dag(p)) / 2, rank=m))


def random_block(base, rng, scale=1.0):
    blk = random_complex(base.n - base.m, base.m, rng)
    return ChartTangent(base=base, block=scale * blk / np.linalg.norm(blk))


class TestProjFromChart:
    def test_zero_block_gives_base(self):
        f = ChartTangent(base=STD21, block=np.zeros((1, 1)))
        np.testing.assert_allclose(proj_from_chart(STD21, f).matrix,
                                   STD21.projector.matrix, atol=1e-14)

    def test_unit_block(self):
        # oracle: isometrize (1,1)^T and form vv*
        f = ChartTangent(base=STD21, block=np.array([[1.0]], dtype=complex))
        v = isometrize(np.array([[1.0], [1.0]], dtype=complex))
        np.testing.assert_allclose(proj_from_chart(STD21, f).matrix, v @ dag(v),
                                   atol=1e-14)

    def test_imaginary_block(self):
        # oracle: isometrize (1,i)^T and form vv*
        f = ChartTangent(base=STD21, block=np.array([[1j]]))
        v = isometrize(np.array([[1.0], [1j]]))
        np.testing.assert_allclose(proj_from_chart(STD21, f).matrix, v @ dag(v),
                                   atol=1e-14)

    def test_output_is_projector(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            base = random_base(6, 2, rng)
            f = random_block(base, rng, scale=float(rng.uniform(0, 10)))
            assert proj_from_chart(base, f).defect() <= 1e-10


def random_blocks(base, count, rng, max_norm=10.0):
    """A stack of ``count`` chart blocks with norms uniform in [0, max_norm]."""
    blocks = np.array([random_complex(base.n - base.m, base.m, rng) for _ in range(count)])
    norms = np.linalg.norm(blocks, axis=(1, 2))[:, np.newaxis, np.newaxis]
    return blocks * rng.uniform(0.0, max_norm, count)[:, np.newaxis, np.newaxis] / norms


class TestChartProjectors:
    @pytest.mark.parametrize("n, m", [(6, 2), (3, 2)])
    def test_matches_proj_from_chart_per_block(self, n, m):
        rng = np.random.default_rng(12)
        base = random_base(n, m, rng)
        blocks = random_blocks(base, 40, rng)
        stacked = chart_projectors(base, blocks)
        assert stacked.shape == (40, n, n)
        for blk, p in zip(blocks, stacked):
            single = proj_from_chart(base, ChartTangent(base=base, block=blk)).matrix
            assert frob(p - single) <= 1e-14

    @pytest.mark.parametrize("n, m", [(6, 2), (3, 2)])
    def test_matches_the_graph_of_each_block(self, n, m):
        # independent route: the projector onto the span of frame + coframe f
        rng = np.random.default_rng(13)
        base = random_base(n, m, rng)
        blocks = random_blocks(base, 20, rng)
        for blk, p in zip(blocks, chart_projectors(base, blocks)):
            v = isometrize(base.frame + base.coframe @ blk)
            assert frob(p - v @ dag(v)) <= 1e-12


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 6),
       m_frac=st.floats(0.0, 1.0), count=st.integers(1, 6))
def test_chart_roundtrip_of_stacked_projectors(seed, n, m_frac, count):
    rng = np.random.default_rng(seed)
    m = min(n - 1, 1 + int(m_frac * (n - 1)))
    base = random_base(n, m, rng)
    blocks = random_blocks(base, count, rng)
    stacked = chart_projectors(base, blocks)
    for k, blk in enumerate(blocks):
        back = chart_from_proj(base, Projector(matrix=stacked[k], rank=m))
        assert frob(back.block - blk) <= 1e-10  # the criterion 01 bound


class TestChartFromProj:
    def test_base_maps_to_zero(self):
        f = chart_from_proj(STD21, STD21.projector)
        np.testing.assert_allclose(f.block, np.zeros((1, 1)), atol=1e-14)

    def test_roundtrip_of_unit_block(self):
        f = ChartTangent(base=STD21, block=np.array([[1.0]], dtype=complex))
        back = chart_from_proj(STD21, proj_from_chart(STD21, f))
        np.testing.assert_allclose(back.block, f.block, atol=1e-12)

    def test_outside_chart(self):
        with pytest.raises(OutsideChart):
            chart_from_proj(STD21, Projector.standard(2, 1).__class__(
                matrix=np.diag([0.0, 1.0]).astype(complex), rank=1))

    def test_roundtrip_random(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(2, 17))
            m = int(rng.integers(1, n))
            base = random_base(n, m, rng)
            f = random_block(base, rng, scale=float(rng.uniform(0, 10)))
            back = chart_from_proj(base, proj_from_chart(base, f))
            assert frob(back.block - f.block) <= 1e-10


class TestTangentIsomorphism:
    def test_zero(self):
        v = tangent_embed(ChartTangent(base=STD21, block=np.zeros((1, 1))))
        np.testing.assert_allclose(v.matrix, np.zeros((2, 2)))

    def test_unit_block_standard_form(self):
        v = tangent_embed(ChartTangent(base=STD21, block=np.array([[1.0]], dtype=complex)))
        np.testing.assert_allclose(v.matrix, np.array([[0.0, 1.0], [1.0, 0.0]]),
                                   atol=1e-14)

    def test_imaginary_block(self):
        v = tangent_embed(ChartTangent(base=STD21, block=np.array([[1j]])))
        np.testing.assert_allclose(v.matrix, np.array([[0.0, -1j], [1j, 0.0]]),
                                   atol=1e-14)

    def test_extract_roundtrip(self):
        phi = tangent_extract(STD21, EmbeddedTangent(
            matrix=np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)))
        np.testing.assert_allclose(phi.block, np.array([[1.0]]), atol=1e-14)

    def test_extract_rejects_nontangent(self):
        with pytest.raises(NotTangent):
            tangent_extract(STD21, EmbeddedTangent(matrix=np.diag([1.0, -1.0]).astype(complex)))

    def test_ambient_form_of_a_block(self):
        # coframe f frame*: carries the frame to coframe f, annihilates the coframe,
        # and its Hermitian part is the embedded tangent
        rng = np.random.default_rng(13)
        base = random_base(5, 2, rng)
        f = random_block(base, rng)
        ambient = chart_ambient(f)
        np.testing.assert_allclose(ambient @ base.frame, base.coframe @ f.block, atol=1e-14)
        np.testing.assert_allclose(ambient @ base.coframe, 0.0, atol=1e-14)
        np.testing.assert_array_equal(tangent_embed(f).matrix, ambient + dag(ambient))

    def test_roundtrip_both_ways_random(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            base = random_base(6, 2, rng)
            f = random_block(base, rng)
            v = tangent_embed(f)
            back = tangent_extract(base, v)
            assert frob(back.block - f.block) <= 1e-12
            assert frob(tangent_embed(back).matrix - v.matrix) <= 1e-12


class TestChartTransport:
    def test_identity(self):
        f = ChartTangent(base=STD21, block=np.array([[0.7 + 0.2j]]))
        moved = chart_transport(np.eye(2, dtype=complex), f)
        np.testing.assert_allclose(moved.block, f.block, atol=1e-12)

    def test_quarter_turn_of_zero(self):
        u = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
        f = ChartTangent(base=STD21, block=np.zeros((1, 1)))
        moved = chart_transport(u, f)
        np.testing.assert_allclose(moved.block, np.zeros((1, 1)), atol=1e-12)
        np.testing.assert_allclose(moved.base.projector.matrix, np.diag([0.0, 1.0]),
                                   atol=1e-12)

    def test_rejects_nonunitary(self):
        with pytest.raises(NotUnitary):
            chart_transport(2.0 * np.eye(2, dtype=complex),
                            ChartTangent(base=STD21, block=np.zeros((1, 1))))

    def test_equivariance_random(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(1, n))
            base = random_base(n, m, rng)
            f = random_block(base, rng, scale=2.0)
            u = random_unitary(n, rng)
            moved = chart_transport(u, f)
            lhs = proj_from_chart(moved.base, moved).matrix
            rhs = u @ proj_from_chart(base, f).matrix @ dag(u)
            assert frob(lhs - rhs) <= 1e-9


class TestLieFieldChart:
    def test_commuting_generator_gives_zero(self):
        u = np.diag([1j, -2j])
        np.testing.assert_allclose(lie_field_chart(u, STD21).block,
                                   np.zeros((1, 1)), atol=1e-14)

    def test_rotation_generator(self):
        u = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
        np.testing.assert_allclose(lie_field_chart(u, STD21).block,
                                   np.array([[1.0]]), atol=1e-14)

    def test_consistency_with_commutator(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            base = random_base(5, 2, rng)
            u = random_antihermitian(5, rng)
            embedded = tangent_embed(lie_field_chart(u, base)).matrix
            # [u, P] is already Hermitian and off-diagonal w.r.t. P, so the
            # embedded lie field must reproduce it exactly
            assert frob(embedded - commutator(u, base.projector.matrix)) <= 1e-12


class TestLinearHamiltonian:
    def test_zero(self):
        assert linear_hamiltonian(np.zeros((2, 2)), STD21.projector) == 0.0

    def test_diagonal_generator(self):
        u = np.diag([1j, -1j])
        assert abs(linear_hamiltonian(u, Projector.standard(2, 1)) - 1.0) <= 1e-14

    def test_offdiagonal_generator(self):
        u = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
        assert abs(linear_hamiltonian(u, Projector.standard(2, 1))) <= 1e-14

    def test_rejects_non_antihermitian(self):
        with pytest.raises(NotAntiHermitian):
            linear_hamiltonian(np.eye(2, dtype=complex), STD21.projector)

    def test_stack_is_each_matrix_by_the_same_rule(self):
        rng = np.random.default_rng(90)
        stack = np.array([random_antihermitian(3, rng) for _ in range(7)])
        values = hamiltonian_value(stack)
        assert values.shape == (7,)
        np.testing.assert_array_equal(values, [hamiltonian_value(a) for a in stack])
        stack[4] += 1e-6 * np.eye(3)  # one non-real trace among real ones
        with pytest.raises(NotAntiHermitian):
            hamiltonian_value(stack)

    def test_scale_is_the_norm_of_the_generator(self):
        # a zero energy of a generator of norm 1e6 with roundoff 1e-9 in its trace
        product = np.diag([1e-9 + 1e6j, -1e6j])
        with pytest.raises(NotAntiHermitian):
            hamiltonian_value(product)
        assert hamiltonian_value(product, scale=1e6) == pytest.approx(0.0, abs=1e-6)
        with pytest.raises(NotAntiHermitian):  # the rule scales with the norm, no further
            hamiltonian_value(np.diag([1e-3 + 1e6j, -1e6j]), scale=1e6)
        with pytest.raises(NotAntiHermitian):  # and holds each matrix to its own norm
            hamiltonian_value(np.array([product, product]), scale=np.array([1e6, 1.0]))


class TestSymplecticForm:
    def test_degenerate_pair_vanishes(self):
        v = tangent_embed(ChartTangent(base=STD21, block=np.array([[1.0]], dtype=complex)))
        assert abs(symplectic_form(STD21.projector, v, v)) <= 1e-14

    def test_canonical_pair_value(self):
        # Direct 2x2 arithmetic with P = diag(1,0), Phi from phi=[1],
        # Psi from psi=[i]: [Phi,Psi] = diag(2i,-2i), so
        # Re(i tr(P [Phi,Psi])) = Re(i * 2i) = -2.  This sign is forced by
        # the Hamiltonian duality property (see test_duality below): with +2
        # the form would equal minus the differential of linear Hamiltonians.
        a = tangent_embed(ChartTangent(base=STD21, block=np.array([[1.0]], dtype=complex)))
        b = tangent_embed(ChartTangent(base=STD21, block=np.array([[1j]])))
        assert abs(symplectic_form(STD21.projector, a, b) - (-2.0)) <= 1e-14

    def test_antisymmetry_of_canonical_pair(self):
        a = tangent_embed(ChartTangent(base=STD21, block=np.array([[1.0]], dtype=complex)))
        b = tangent_embed(ChartTangent(base=STD21, block=np.array([[1j]])))
        assert abs(symplectic_form(STD21.projector, b, a) - 2.0) <= 1e-14

    def test_bilinear_antisymmetric_random(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            base = random_base(5, 2, rng)
            p = base.projector
            a = tangent_embed(random_block(base, rng))
            b = tangent_embed(random_block(base, rng))
            c = tangent_embed(random_block(base, rng))
            s = float(rng.standard_normal())
            ab = symplectic_form(p, a, b)
            assert abs(ab + symplectic_form(p, b, a)) <= 1e-12
            assert abs(symplectic_form(p, a, a)) <= 1e-12
            lin = symplectic_form(p, EmbeddedTangent(matrix=s * a.matrix + c.matrix), b)
            assert abs(lin - s * ab - symplectic_form(p, c, b)) <= 1e-12


class TestHamField:
    def test_commuting_generator(self):
        p = Projector.standard(2, 1)
        v = ham_field(1j * p.matrix, p)
        assert frob(v.matrix) <= 1e-14

    def test_rotation_generator(self):
        u = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
        v = ham_field(u, Projector.standard(2, 1))
        np.testing.assert_allclose(v.matrix, np.array([[0.0, 1.0], [1.0, 0.0]]),
                                   atol=1e-14)

    def test_tangency_random(self):
        rng = np.random.default_rng(16)
        for _ in range(30):
            base = random_base(6, 2, rng)
            p = base.projector.matrix
            v = ham_field(random_antihermitian(6, rng), base.projector).matrix
            assert frob(p @ v + v @ p - v) <= 1e-12

    def test_duality(self):
        # directional derivative of the linear Hamiltonian along V equals
        # omega(ham_field, V); central differences through the chart
        rng = np.random.default_rng(17)
        h = 1e-5
        for _ in range(50):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(1, n))
            base = random_base(n, m, rng)
            u = random_antihermitian(n, rng)
            f = random_block(base, rng)

            def value(s):
                q = proj_from_chart(base, ChartTangent(base=base, block=s * f.block))
                return linear_hamiltonian(u, q)

            du = (value(h) - value(-h)) / (2 * h)
            om = symplectic_form(base.projector, ham_field(u, base.projector),
                                 tangent_embed(f))
            assert abs(du - om) <= 1e-5 * (1.0 + abs(du))


class TestConnectionF:
    def test_zero(self):
        v = EmbeddedTangent(matrix=np.zeros((2, 2)))
        np.testing.assert_allclose(
            grassmann_connection_F(STD21.projector, v), np.zeros((2, 2)))

    def test_standard_value(self):
        v = EmbeddedTangent(matrix=np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        np.testing.assert_allclose(
            grassmann_connection_F(Projector.standard(2, 1), v),
            np.array([[0.0, 1.0], [-1.0, 0.0]]), atol=1e-14)

    def test_antihermitian_output(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            base = random_base(6, 2, rng)
            f_val = grassmann_connection_F(base.projector,
                                           tangent_embed(random_block(base, rng)))
            assert frob(f_val + dag(f_val)) <= 1e-12


class TestCurvatureF:
    def test_degenerate_pair(self):
        v = tangent_embed(ChartTangent(base=STD21, block=np.array([[1.0]], dtype=complex)))
        assert frob(grassmann_curvature_F(STD21.projector, v, v)) <= 1e-14

    def test_canonical_pair(self):
        a = tangent_embed(ChartTangent(base=STD21, block=np.array([[1.0]], dtype=complex)))
        b = tangent_embed(ChartTangent(base=STD21, block=np.array([[1j]])))
        np.testing.assert_allclose(
            grassmann_curvature_F(STD21.projector, a, b), np.diag([4j, -4j]),
            atol=1e-14)

    def test_antisymmetry(self):
        rng = np.random.default_rng(19)
        base = random_base(5, 2, rng)
        a = tangent_embed(random_block(base, rng))
        b = tangent_embed(random_block(base, rng))
        lhs = grassmann_curvature_F(base.projector, a, b)
        rhs = grassmann_curvature_F(base.projector, b, a)
        assert frob(lhs + rhs) <= 1e-12


class TestSampledDerivative:
    @pytest.mark.parametrize("order, low, high", [(2, 1.8, 2.2), (4, 3.7, 4.3)])
    def test_observed_order(self, order, low, high):
        # log2 of the worst error over all nodes, ends included, at h and h/2
        rng = np.random.default_rng(7)
        a = random_antihermitian(3, rng)
        a *= 2.0 / np.linalg.norm(a)
        b = random_complex(3, 2, rng)
        errors = []
        for steps in (40, 80):
            ts = np.linspace(0.0, 1.0, steps + 1)
            curve = np.array([mat_exp(t * a) @ b for t in ts])
            d = sampled_derivative(curve, 1.0 / steps, order)
            errors.append(np.abs(d - np.einsum("ij,kjl->kil", a, curve)).max())
        assert low <= np.log2(errors[0] / errors[1]) <= high

    def test_order_2_interior_is_the_central_difference(self):
        rng = np.random.default_rng(8)
        s = random_complex(50, 6, rng).reshape(50, 3, 2)
        h = 1.0 / 7.0
        d = sampled_derivative(s, h, 2)
        assert np.array_equal(d[1:-1], (s[2:] - s[:-2]) / (2.0 * h))


class TestCovariantDerivative:
    def test_constant_everything(self):
        n_nodes = 11
        p = np.repeat(np.diag([1.0, 0.0]).astype(complex)[np.newaxis], n_nodes, axis=0)
        s = np.repeat(np.array([1.0, 0.0], dtype=complex)[np.newaxis], n_nodes, axis=0)
        d = covariant_derivative_along(p, s, 0.1)
        assert frob(d) <= 1e-14

    def test_analytic_derivative_in_fiber(self):
        ts = np.linspace(0.0, 1.0, 201)
        h = ts[1] - ts[0]
        p = np.repeat(np.diag([1.0, 0.0]).astype(complex)[np.newaxis], len(ts), axis=0)
        s = np.stack([np.cos(ts), np.zeros_like(ts)], axis=1).astype(complex)
        d = covariant_derivative_along(p, s, h)
        expected = np.stack([-np.sin(ts), np.zeros_like(ts)], axis=1)
        assert np.max(np.abs(d[1:-1] - expected[1:-1])) <= 1e-4

    def test_section_not_in_fiber(self):
        p = np.repeat(np.diag([1.0, 0.0]).astype(complex)[np.newaxis], 5, axis=0)
        s = np.repeat(np.array([0.0, 1.0], dtype=complex)[np.newaxis], 5, axis=0)
        with pytest.raises(SectionNotInFiber):
            covariant_derivative_along(p, s, 0.1, mode="canonical")

    @pytest.mark.parametrize("mode, inside", [("canonical", 0), ("complement", 1)])
    def test_one_node_off_the_fiber_is_rejected(self, mode, inside):
        # P projects onto e1: e1 spans the canonical fiber, e2 the complement
        p = np.repeat(np.diag([1.0, 0.0]).astype(complex)[np.newaxis], 5, axis=0)
        s = np.repeat(np.eye(2, dtype=complex)[inside][np.newaxis], 5, axis=0)
        assert frob(covariant_derivative_along(p, s, 0.1, mode=mode)) <= 1e-14
        s[3] = np.eye(2)[1 - inside]
        with pytest.raises(SectionNotInFiber):
            covariant_derivative_along(p, s, 0.1, mode=mode)

    def test_leibniz_for_whitney_sum(self):
        # d/dt <s1, s2> matches <Ds1, s2> + <s1, Ds2> at second order
        rng = np.random.default_rng(20)
        ts = np.linspace(0.0, 1.0, 401)
        h = ts[1] - ts[0]
        a = random_antihermitian(4, rng)
        from grassflow.linalg import mat_exp
        us = np.array([mat_exp(t * a) for t in ts])
        p0 = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
        ps = np.einsum("kij,jl,kml->kim", us, p0, us.conj())
        v1, v2 = random_complex(4, 2, rng).T
        s1 = np.einsum("kij,j->ki", us, v1)
        s2 = np.einsum("kij,j->ki", us, v2)
        d1 = covariant_derivative_along(ps, s1, h, mode="sum")
        d2 = covariant_derivative_along(ps, s2, h, mode="sum")
        inner = np.einsum("ki,ki->k", s1.conj(), s2)
        d_inner = np.gradient(inner, h)
        leibniz = (np.einsum("ki,ki->k", d1.conj(), s2)
                   + np.einsum("ki,ki->k", s1.conj(), d2))
        assert np.max(np.abs(d_inner[2:-2] - leibniz[2:-2])) <= 1e-3
