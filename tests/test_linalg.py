import json
import random
import sys
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

from grassflow import NotAntiHermitian, RankDeficient, GapTooSmall
from grassflow import bundle, cli, dynamics, linalg
from grassflow.grassmann import BasePoint
from grassflow.linalg import (DEFAULT_TOLS, Tolerances, _SeededStream, dag, frob, isometrize,
                              mat_exp, nearest_projector, polar_retract, prefix_products,
                              random_antihermitian, random_complex, random_frame,
                              random_unitary, require_antihermitian)


class TestIsometrize:
    def test_identity_is_fixed(self):
        np.testing.assert_allclose(isometrize(np.eye(2, dtype=complex)), np.eye(2))

    def test_single_column_normalized_without_phase_flip(self):
        # oracle: normalize (1,1)^T; positive-diagonal R forbids a sign flip
        q = isometrize(np.array([[1.0], [1.0]], dtype=complex))
        np.testing.assert_allclose(q, np.array([[1.0], [1.0]]) / np.sqrt(2),
                                   atol=1e-14)

    def test_imaginary_column_keeps_phase(self):
        # oracle: Gram-Schmidt of (i, 0)^T; positivity constrains R, not Q
        q = isometrize(np.array([[1j], [0.0]]))
        np.testing.assert_allclose(q, np.array([[1j], [0.0]]), atol=1e-14)

    def test_rank_deficient_raises(self):
        with pytest.raises(RankDeficient):
            isometrize(np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]], dtype=complex))

    def test_orthonormality_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 33))
            m = int(rng.integers(1, n + 1))
            q = isometrize(random_complex(n, m, rng))
            assert frob(dag(q) @ q - np.eye(m)) <= 1e-12

    def test_projectively_idempotent(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            q = isometrize(random_complex(10, 4, rng))
            assert frob(isometrize(q) - q) <= 1e-13


def frame_with_gram_defect(n, m, defect, rng):
    """A frame q (I + e K) whose Gram matrix deviates from I by ``defect`` in its largest entry."""
    q = random_frame(n, m, rng)
    if defect == 0.0:
        # permuted, phased columns of the identity: the Gram matrix is exactly I
        return np.eye(n, dtype=complex)[:, rng.permutation(n)[:m]] * np.exp(1j * rng.uniform(size=m))
    k = random_complex(m, m, rng)
    scale = defect / np.abs(k + dag(k)).max()
    for _ in range(3):  # Newton on the (nearly linear) defect of the scale
        f = q @ (np.eye(m) + scale * k)
        scale *= defect / np.abs(dag(f) @ f - np.eye(m)).max()
    return q @ (np.eye(m) + scale * k)


def svd_polar(f):
    u, _, vh = np.linalg.svd(f, full_matrices=False)
    return u @ vh


def counting_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


class TestPolarRetract:
    NEWTON = linalg._POLAR_NEWTON_DEFECT

    DEFECTS = [0.0, 1e-12, 1e-9, 0.99 * linalg._POLAR_NEWTON_DEFECT]

    def frames(self, defect, shapes, count, seed):
        rng = np.random.default_rng(seed)
        for n, m in shapes:
            for _ in range(count):
                f = frame_with_gram_defect(n, m, defect, rng)
                gram_defect = np.abs(dag(f) @ f - np.eye(m)).max()
                assert gram_defect <= self.NEWTON
                assert gram_defect >= 0.5 * defect
                yield f

    @pytest.mark.parametrize("defect", DEFECTS)
    def test_newton_step_is_the_svd_polar_factor(self, defect, monkeypatch):
        # the shapes of the package's frames and gauge factors; at m >= 4
        # LAPACK's own polar factor strays by up to 7.5e-15 from a 40-digit
        # one, which the next test uses instead
        frames = list(self.frames(defect, [(1, 1), (2, 1), (2, 2), (4, 2), (6, 2)], 10, 180))
        expected = [svd_polar(f) for f in frames]
        calls = counting_svd(monkeypatch)
        for f, polar in zip(frames, expected):
            assert frob(polar_retract(f) - polar) <= 1e-15 * (1.0 + frob(f))
        assert calls == []  # the Newton-Schulz step, not the SVD

    @pytest.mark.parametrize("defect", DEFECTS)
    def test_newton_step_is_the_polar_factor_to_roundoff(self, defect):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        for f in self.frames(defect, [(6, 2), (9, 4), (5, 5)], 3, 185):
            u, _, v = mp.svd_c(mp.matrix(f.tolist()), full_matrices=False)
            exact = np.array((u * v).tolist(), dtype=complex)
            assert frob(polar_retract(f) - exact) <= 1e-15 * (1.0 + frob(f))

    @pytest.mark.parametrize("defect", [1e-12, 0.99 * linalg._POLAR_NEWTON_DEFECT, 1e-3, 0.5])
    def test_right_unitary_equivariance(self, defect):
        rng = np.random.default_rng(181)
        for n, m in [(3, 1), (5, 2), (7, 3)]:
            for _ in range(10):
                f = frame_with_gram_defect(n, m, defect, rng)
                u = random_unitary(m, rng)
                assert frob(polar_retract(f @ u) - polar_retract(f) @ u) <= 1e-14

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_non_finite_frame_raises_value_error(self, bad):
        f = random_frame(4, 2, 182)
        f[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            polar_retract(f)

    def test_rank_deficient_frame_raises(self):
        f = random_frame(4, 2, 183)
        f[:, 1] = 2.0 * f[:, 0]
        with pytest.raises(RankDeficient):
            polar_retract(f)

    @pytest.mark.parametrize("factor", [2.0, 1e3])
    def test_defect_above_the_bound_takes_the_svd_route(self, factor, monkeypatch):
        rng = np.random.default_rng(184)
        f = frame_with_gram_defect(5, 2, factor * self.NEWTON, rng)
        expected = svd_polar(f)
        calls = counting_svd(monkeypatch)
        got = polar_retract(f)
        assert calls == [(5, 2)]
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("defect", [1e-12, 0.99 * linalg._POLAR_NEWTON_DEFECT, 1e-3])
    def test_stack_is_each_matrix_on_its_own(self, defect, monkeypatch):
        # all members on one route (Newton below the bound, SVD above it)
        rng = np.random.default_rng(186)
        stack = np.array([frame_with_gram_defect(6, 2, defect, rng) for _ in range(7)])
        alone = np.array([polar_retract(f) for f in stack])
        calls = counting_svd(monkeypatch)
        np.testing.assert_array_equal(polar_retract(stack.reshape(7, 1, 6, 2)),
                                      alone.reshape(7, 1, 6, 2))
        assert calls == ([] if defect < self.NEWTON else [(7, 1, 6, 2)])

    def test_one_member_above_the_bound_sends_the_stack_to_the_svd(self, monkeypatch):
        rng = np.random.default_rng(187)
        stack = np.array([frame_with_gram_defect(5, 2, 1e-12, rng) for _ in range(5)])
        stack[3] = frame_with_gram_defect(5, 2, 2.0 * self.NEWTON, rng)
        expected = np.array([svd_polar(f) for f in stack])
        calls = counting_svd(monkeypatch)
        got = polar_retract(stack)
        assert calls == [(5, 5, 2)]
        np.testing.assert_array_equal(got, expected)

    def test_rank_deficient_member_raises(self):
        stack = np.array([random_frame(4, 2, seed) for seed in range(188, 192)])
        stack[2, :, 1] = 2.0 * stack[2, :, 0]
        with pytest.raises(RankDeficient):
            polar_retract(stack)


class TestOneRankRule:
    """isometrize and polar_retract's SVD route keep rank m by one rule, ``_require_rank``."""

    @staticmethod
    def frame(kind, n, m, scale, rng):
        if kind == "random":
            return scale * random_complex(n, m, rng)
        # U diag(s) V* with s_max in [0.1, 10] and s_min near the rule's threshold
        largest = 10.0 ** rng.uniform(-1.0, 1.0)
        smallest = 1e-10 * max(largest, 1.0) * 10.0 ** rng.uniform(-2.0, 2.0)
        svals = np.geomspace(largest, smallest, m) if m > 1 else np.array([smallest])
        return (random_frame(n, m, rng) * (scale * svals)) @ dag(random_unitary(m, rng))

    @pytest.mark.parametrize("m", [1, 2, 3, 8, 40])
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(extra=st.integers(0, 3), kind=st.sampled_from(["random", "near_rank_deficient"]),
           scale=st.sampled_from([1.0, 1e150, 1e-150]), seed=st.integers(0, 2 ** 32 - 1))
    def test_both_frame_routes_follow_the_rule(self, m, extra, kind, scale, seed):
        f = self.frame(kind, m + extra, m, scale, np.random.default_rng(seed))
        svals = np.linalg.svd(f, compute_uv=False)
        # log10 of s_min over the rule's threshold structural * max(s_max, 1)
        margin = np.log10(svals[-1] / (DEFAULT_TOLS.structural * max(svals[0], 1.0)))
        assume(abs(margin) > 0.05)  # clear of the threshold by more than roundoff
        outcomes = []
        with mock.patch.object(linalg, "_POLAR_NEWTON_DEFECT", -1.0):  # always the SVD
            for route in (isometrize, polar_retract):
                try:
                    route(f)
                    outcomes.append(True)
                except RankDeficient:
                    outcomes.append(False)
        assert outcomes == [margin > 0] * 2

    @pytest.mark.parametrize("svals", [[1.0, np.nan], [np.nan, 1.0], [np.nan, np.nan]])
    def test_nan_fails_the_rule(self, svals):
        with pytest.raises(RankDeficient):
            linalg._require_rank(np.array(svals), DEFAULT_TOLS, RankDeficient)

    def test_large_frame_is_judged_by_its_own_scale(self):
        # singular values (1e12, 1): s_min / s_max = 1e-12 fails, though s_min = 1 > 1e-10
        f = (random_frame(6, 2, 0) * np.array([1e12, 1.0])) @ dag(random_unitary(2, 1))
        for route in (isometrize, polar_retract):
            with pytest.raises(RankDeficient):
                route(f)


class TestPrefixProducts:
    @pytest.mark.parametrize("count", [1, 2, 3, 5, 1000])
    def test_sequential_products(self, count):
        rng = np.random.default_rng(193)
        factors = np.array([random_unitary(3, rng) for _ in range(count)])
        expected, product = [], np.eye(3)
        for a in factors:
            product = a @ product
            expected.append(product)
        got = prefix_products(factors)
        assert got.shape == factors.shape
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(got[:2], expected[:2])  # one factor, one product

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("count", [0, 4, 9, 10, 16, 17, 101])
    def test_chunk_edges(self, count, m):
        # chunks of ceil(sqrt N) factors: full and padded last chunks, squares and not
        rng = np.random.default_rng(194)
        factors = np.array([random_unitary(m, rng) for _ in range(count)]).reshape(count, m, m)
        expected, product = [], np.eye(m)
        for a in factors:
            product = a @ product
            expected.append(product)
        got = prefix_products(factors)
        assert got.shape == factors.shape
        np.testing.assert_allclose(got, np.reshape(expected, got.shape), rtol=0, atol=1e-13)

    def test_order_of_non_commuting_factors(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_array_equal(prefix_products(np.array([a, a.T]))[1], a.T @ a)


def _operands(k, rows, cols, count, rng):
    """A complex (count, rows, k) stack and a real or complex (count, k, cols) one."""
    a = rng.standard_normal((count, rows, k)) + 1j * rng.standard_normal((count, rows, k))
    b = rng.standard_normal((count, k, cols))
    return a, b + 1j * rng.standard_normal(b.shape) if rng.uniform() < 0.5 else b


class TestMatmul:
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(k=st.integers(1, 6), rows=st.integers(1, 6), cols=st.integers(1, 6),
           count=st.integers(0, 6), seed=st.integers(0, 2 ** 32 - 1),
           shape=st.sampled_from(["stacks", "matrix_left", "matrix_right", "strided"]),
           transposed=st.booleans())
    def test_every_route_is_matmul_to_roundoff(self, k, rows, cols, count, seed, shape,
                                               transposed):
        rng = np.random.default_rng(seed)
        a, b = _operands(k, rows, cols, count, rng)
        if shape == "matrix_left":  # one real matrix broadcast against the stack
            a = rng.standard_normal((rows, k))
        elif shape == "matrix_right":
            b = rng.standard_normal((k, cols)) + 1j * rng.standard_normal((k, cols))
        elif shape == "strided":  # every other member of a stack of pairs, as prefix_products reads it
            a = np.repeat(a, 2, axis=0).reshape(-1, 2, rows, k)[:, 1]
            b = np.repeat(b, 2, axis=0).reshape(-1, 2, k, cols)[:, 0]
        if transposed:  # transposed views of transposed copies, as dag(v) is
            a, b = (np.swapaxes(np.swapaxes(x, -1, -2).copy(), -1, -2) for x in (a, b))
        want = a @ b
        got = linalg._matmul(a, b)
        assert got.shape == want.shape and got.dtype == want.dtype
        bound = 8 * k * np.finfo(float).eps * (np.abs(a) @ np.abs(b))
        assert np.all(np.abs(got - want) <= bound)

    @pytest.mark.parametrize("k", [3, 4])
    def test_two_stacks_above_the_broadcast_bound_are_matmul_itself(self, k):
        a, b = _operands(k, k, k, 50, np.random.default_rng(195))
        np.testing.assert_array_equal(linalg._matmul(a, b), a @ b)
        np.testing.assert_array_equal(linalg._matmul(a[0], b[0]), a[0] @ b[0])

    @pytest.mark.parametrize("k", [2, 3])
    def test_empty_stack(self, k):
        for a, b in [(np.zeros((0, 3, k)), np.zeros((0, k, 2), dtype=complex)),
                     (np.zeros((0, 3, k)), np.zeros((k, 2), dtype=complex)),
                     (np.zeros((3, k)), np.zeros((0, k, 2), dtype=complex))]:
            got = linalg._matmul(a, b)
            assert got.shape == (0, 3, 2) and got.dtype == complex

    @pytest.mark.parametrize("a, b", [
        (np.ones((4, 2, 2)), np.ones((4, 3, 2))),  # broadcast sums
        (np.ones((4, 3, 3)), np.ones((4, 2, 3))),  # two stacks
        (np.ones((4, 3, 3)), np.ones((2, 3))),     # a stack and a matrix
        (np.ones((3, 3)), np.ones((4, 2, 3))),     # a matrix and a stack
        (np.ones((3, 4, 2)), np.ones((2, 2, 2))),  # stacks that do not broadcast
    ])
    def test_mismatched_shapes_raise_as_matmul_does(self, a, b):
        with pytest.raises(ValueError):
            a @ b
        with pytest.raises(ValueError):
            linalg._matmul(a, b)

    def test_standard_coframe_is_matmul_bitwise(self):
        # 0/1 entries: every product is exact, whatever the order of the sums
        _, blocks = _operands(4, 4, 2, 50, np.random.default_rng(196))
        coframe = np.eye(6)[:, 2:]
        np.testing.assert_array_equal(linalg._matmul(coframe, blocks), coframe @ blocks)


class TestAdjointProduct:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 40), p=st.integers(1, 4), q=st.integers(1, 4),
           count=st.integers(0, 6), seed=st.integers(0, 2 ** 32 - 1),
           shape=st.sampled_from(["stacks", "matrices", "matrix_left", "strided"]),
           transposed=st.booleans(), real=st.sampled_from(["none", "left", "both"]))
    def test_every_route_is_dag_matmul_to_roundoff(self, n, p, q, count, seed, shape,
                                                   transposed, real):
        # n from 1 to 40 and p, q from 1 to 4 lie on both sides of _BROADCAST_MAX
        rng = np.random.default_rng(seed)
        stack = () if shape == "matrices" else (count,)  # "matrices": one pair, no stack
        a, b = (rng.standard_normal(stack + (n, k)) + 1j * rng.standard_normal(stack + (n, k))
                for k in (p, q))
        if shape == "matrix_left":  # one matrix broadcast against the stack
            a = rng.standard_normal((n, p)) + 1j * rng.standard_normal((n, p))
        elif shape == "strided":  # every other member of a stack of pairs
            a, b = (np.repeat(x, 2, axis=0)[i::2] for i, x in ((1, a), (0, b)))
        if transposed:  # transposed views of transposed copies, as dag(v) is
            a, b = (np.swapaxes(np.swapaxes(x, -1, -2).copy(), -1, -2) for x in (a, b))
        if real != "none":
            a = a.real
            b = b.real if real == "both" else b
        want = dag(a) @ b
        got = linalg._adjoint_product(a, b)
        assert got.shape == want.shape and got.dtype == want.dtype
        bound = 8 * n * np.finfo(float).eps * (np.abs(np.swapaxes(a, -1, -2)) @ np.abs(b))
        assert np.all(np.abs(got - want) <= bound)

    @pytest.mark.parametrize("n, p", [(2, 2), (6, 2), (6, 3)])
    def test_empty_stack(self, n, p):
        got = linalg._adjoint_product(np.zeros((0, n, p), dtype=complex), np.zeros((0, n, 1)))
        assert got.shape == (0, p, 1) and got.dtype == complex

    @pytest.mark.parametrize("a, b", [
        (np.ones((4, 6, 2)), np.ones((4, 5, 2))),  # conjugate dots of another n
        (np.ones((4, 2, 2)), np.ones((4, 3, 2))),  # broadcast sums
        (np.ones((4, 6, 3)), np.ones((4, 5, 3))),  # above the broadcast bound
        (np.ones((3, 6, 2)), np.ones((2, 6, 2))),  # stacks that do not broadcast
        (np.ones((3, 6, 4)), np.ones((2, 6, 4))),
    ])
    def test_mismatched_shapes_raise_as_matmul_does(self, a, b):
        with pytest.raises(ValueError):
            dag(a) @ b
        with pytest.raises(ValueError):
            linalg._adjoint_product(a, b)

    @pytest.mark.parametrize("a, b", [(np.ones(6), np.ones(6)), (np.ones(6), np.ones((6, 2)))])
    def test_a_vector_raises_axis_error(self, a, b):
        with pytest.raises(np.exceptions.AxisError):
            linalg._adjoint_product(a, b)

    def test_every_adjoint_product_of_a_run_calls_the_kernel(self, tmp_path, monkeypatch):
        # berry on the orbit loop at (n, m) = (4, 2), synthesize at (6, 2) and the sampled
        # transport of synthesize's loop: each site, named by its function and the contracted
        # dimension, calls the one kernel
        kernel, sites = linalg._adjoint_product, set()

        def counted(a, b):
            sites.add((sys._getframe(1).f_code.co_name, np.shape(a)[-2]))
            return kernel(a, b)

        for module in (linalg, bundle, dynamics):
            monkeypatch.setattr(module, "_adjoint_product", counted)
        runs = {"berry": (4, 2, {"schedule": {"kind": "geometric_from_curve"}}),
                "synthesize": (6, 2, {})}
        found = {}
        for command, (n, m, extra) in runs.items():
            sites.clear()
            config = tmp_path / f"{command}.json"
            config.write_text(json.dumps({"version": 1, "n": n, "m": m, "seed": 0,
                                          "grid": {"t0": 0.0, "t1": 1.0, "steps": 200}, **extra}))
            assert cli.main([command, "--config", str(config),
                             "--out", str(tmp_path / command)]) == 0
            found[command] = set(sites)
        sites.clear()
        path = dynamics.synthesize_holonomy_step(linalg.random_antihermitian(2, 0), 0.1,
                                                 BasePoint.standard(6, 2), 8)
        dynamics.horizontal_transport(path, np.eye(6, 2, dtype=complex))
        found["horizontal_transport"] = set(sites)
        assert found == {
            "berry": {("table", 4), ("_rk4_step", 4), ("berry_maps", 4), ("_gram_defects", 4),
                      ("frame_defect", 4), ("horizontality_defects", 4), ("polar_retract", 2),
                      ("_frame_oracle", 4)},
            "synthesize": {("_gram_defects", 6), ("_section_transport", 6),
                           ("_section_transport", 2), ("polar_retract", 2),
                           ("frame_defect", 6), ("horizontality_defects", 6)},
            "horizontal_transport": {("_pivoted_section", 6), ("frame_defect", 6),
                                     ("_section_transport", 6), ("_section_transport", 2),
                                     ("polar_retract", 2)},
        }


def _small_stack(kind, m, count, rng):
    """A complex (count, m, m) stack of one kind for the small det/svd kernels."""
    a = rng.standard_normal((count, m, m)) + 1j * rng.standard_normal((count, m, m))
    if kind == "near_unitary":
        return np.linalg.qr(a)[0] + 1e-9 * a
    if kind == "rank_deficient":  # the last row a multiple of the first
        a[:, -1] = (rng.standard_normal((count, 1)) + 1j) * a[:, 0]
    elif kind == "zero":
        a[:] = 0.0
    elif kind.startswith("scaled"):
        a *= float(kind[len("scaled"):])
    return a


class TestSmallDetSvals:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(m=st.integers(1, 3), count=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(["random", "near_unitary", "rank_deficient", "zero",
                                 "scaled1e150", "scaled1e-150"]))
    def test_lapack_to_roundoff(self, m, count, seed, kind):
        a = _small_stack(kind, m, count, np.random.default_rng(seed))
        want = np.linalg.svd(a, compute_uv=False)
        got = linalg._small_svals(a)
        assert got.shape == want.shape and got.dtype == want.dtype
        smax = want[:, :1]
        assert np.all(np.abs(got - want) <= 8 * np.finfo(float).eps * smax)
        with np.errstate(over="ignore"):  # the det of a 1e150 stack overflows at m = 3
            det, want_det = linalg._small_det(a), np.linalg.det(a)
        if m > 2:
            np.testing.assert_array_equal(det, want_det)
        else:
            # numpy's det is exp of its log-determinant: its own error grows with |log det|
            bound = 1e3 * np.finfo(float).eps * smax[:, 0] ** m
            assert np.all(np.abs(det - want_det) <= bound)

    def test_overflowing_det_takes_the_lapack_route(self):
        a = _small_stack("scaled1e200", 2, 6, np.random.default_rng(197))
        np.testing.assert_array_equal(linalg._small_svals(a), np.linalg.svd(a, compute_uv=False))


class TestMatExp:
    def test_zero(self):
        np.testing.assert_allclose(mat_exp(np.zeros((3, 3))), np.eye(3))

    def test_rotation_quarter_turn(self):
        # oracle: power series of the 2x2 rotation generator at theta = pi/2
        theta = np.pi / 2
        a = np.array([[0.0, -theta], [theta, 0.0]], dtype=complex)
        np.testing.assert_allclose(mat_exp(a), np.array([[0.0, -1.0], [1.0, 0.0]]),
                                   atol=1e-14)

    def test_diagonal(self):
        np.testing.assert_allclose(mat_exp(np.diag([1j * np.pi, 0.0])),
                                   np.diag([-1.0 + 0.0j, 1.0]), atol=1e-14)

    def test_inverse_property(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = random_complex(6, 6, rng)
            a *= 5.0 / np.linalg.norm(a)
            assert frob(mat_exp(a) @ mat_exp(-a) - np.eye(6)) <= 1e-10

    def test_unitary_on_antihermitian(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            u = mat_exp(random_antihermitian(6, rng))
            assert frob(dag(u) @ u - np.eye(6)) <= 1e-10


    def test_stacked_antihermitian_matches_scipy(self):
        rng = np.random.default_rng(5)
        for n in range(1, 9):
            stack = np.array([random_antihermitian(n, rng) for _ in range(12)])
            stack *= rng.uniform(0.0, 50.0, size=(12, 1, 1)) / np.linalg.norm(
                stack, axis=(1, 2), keepdims=True)
            got = mat_exp(stack)
            assert got.shape == stack.shape
            for a, u in zip(stack, got):
                assert frob(u - scipy.linalg.expm(a)) <= 1e-12 * (1.0 + frob(a))
                assert frob(dag(u) @ u - np.eye(n)) <= 1e-13

    @pytest.mark.parametrize("hermitian_part", [1.0, 1e-9])
    def test_non_antihermitian_input_is_scipy_expm(self, hermitian_part):
        # 1e-9 passes require_antihermitian's comparison rule, yet is far above
        # roundoff, so it must not take the spectral route
        rng = np.random.default_rng(7)
        g = random_complex(5, 5, rng)
        a = random_antihermitian(5, rng) + hermitian_part * (g + dag(g))
        np.testing.assert_array_equal(mat_exp(a), scipy.linalg.expm(a))
        stack = np.array([a, random_antihermitian(5, rng)])
        np.testing.assert_array_equal(mat_exp(stack), scipy.linalg.expm(stack))

    def test_overflowing_hermitian_input_is_scipy_expm(self, monkeypatch):
        # both norms of 1e200 * a overflow to inf; the spectral route would return a
        # bounded unitary for a Hermitian exponent
        calls = []
        monkeypatch.setattr(scipy.linalg, "expm", lambda a: calls.append(a) or calls)
        a = 1e200 * np.array([[1.0, 0.5], [0.5, -1.0]], dtype=complex)
        assert mat_exp(a) is calls and len(calls) == 1


class TestRequireAntihermitian:
    def test_stack_applies_the_matrix_rule_to_each_matrix(self):
        rng = np.random.default_rng(8)
        a = random_antihermitian(4, rng)
        g = random_complex(4, 4, rng)
        stack = np.array([a, a + 1e-12 * (g + dag(g)), a + 1e-6 * (g + dag(g))])
        verdicts = []
        for matrix in stack:
            try:
                require_antihermitian(matrix)
                verdicts.append(True)
            except NotAntiHermitian:
                verdicts.append(False)
        assert verdicts == [True, True, False]
        require_antihermitian(stack[:2])
        with pytest.raises(NotAntiHermitian):
            require_antihermitian(stack)

    @pytest.mark.parametrize("scale", [1.0, 1e200])
    def test_the_rule_holds_at_every_scale(self, scale):
        # at 1e200 both sides of the unscaled rule overflow to inf
        hermitian = scale * np.array([[1.0, 0.5], [0.5, -1.0]], dtype=complex)
        with pytest.raises(NotAntiHermitian):
            require_antihermitian(hermitian)
        require_antihermitian(1j * hermitian)
        require_antihermitian(np.zeros((2, 2)))

    def test_non_finite_stack_rejected(self):
        stack = np.zeros((3, 2, 2), dtype=complex)
        stack[1, 0, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            require_antihermitian(stack)


class TestNearestProjector:
    def test_already_projector(self):
        np.testing.assert_allclose(nearest_projector(np.diag([1.0, 0.0]), 1),
                                   np.diag([1.0, 0.0]), atol=1e-14)

    def test_dominant_eigenvector(self):
        m = np.array([[0.9, 0.1], [0.1, 0.1]], dtype=complex)
        # closed-form 2x2 eigendecomposition of the dominant direction
        w, v = np.linalg.eigh(m)
        top = v[:, [1]]
        np.testing.assert_allclose(nearest_projector(m, 1), top @ dag(top),
                                   atol=1e-14)

    def test_rank_one_idempotent_fixed(self):
        m = 0.5 * np.ones((2, 2), dtype=complex)
        np.testing.assert_allclose(nearest_projector(m, 1), m, atol=1e-14)

    def test_invariants_random(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            g = random_complex(7, 7, rng)
            h = (g + dag(g)) / 2
            p = nearest_projector(h, 3)
            assert frob(p @ p - p) <= 1e-12
            assert frob(p - dag(p)) <= 1e-12
            assert abs(complex(np.trace(p)) - 3) <= 1e-12

    def test_gap_too_small(self):
        with pytest.raises(GapTooSmall):
            nearest_projector(np.eye(2, dtype=complex) * 0.5, 1)


class TestRandomAntihermitian:
    def test_u1_is_imaginary(self):
        a = random_antihermitian(1, 123)
        assert abs(a[0, 0].real) == 0.0

    def test_deterministic(self):
        np.testing.assert_array_equal(random_antihermitian(5, 42),
                                      random_antihermitian(5, 42))

    def test_antihermitian_exactly(self):
        a = random_antihermitian(4, 7)
        assert frob(a + dag(a)) == 0.0


def _stream_batches(seed, count):
    """``count`` batches of 1024 normals of _SeededStream's definition, from random.Random(seed)."""
    gen, out = random.Random(seed), []
    for _ in range(count):
        words = np.frombuffer(gen.getrandbits(128 * 512).to_bytes(16 * 512, "little"), "<u8")
        u = (words >> 11) * 2.0 ** -53
        r, theta = np.sqrt(-2.0 * np.log1p(-u[:512])), 2.0 * np.pi * u[512:]
        out += [r * np.cos(theta), r * np.sin(theta)]
    return np.concatenate(out)


class TestSeededStream:
    def test_same_seed_same_draws(self):
        def draws(seed):
            stream = _SeededStream(seed)
            return [stream.standard_normal((3, 2)), stream.uniform(0.0, 10.0),
                    stream.standard_normal((2000,)), stream.uniform(-1.0, 1.0)]

        for got, want in zip(draws(5), draws(5)):
            np.testing.assert_array_equal(got, want)
        assert not np.array_equal(draws(5)[0], draws(6)[0])

    def test_draws_come_out_in_call_order(self):
        # (3,), (2, 2) and (5,) are the first 12 normals of the first batch of 1024; the
        # (1030,) draw runs 18 past it, so a second batch of 1024 is appended
        stream = _SeededStream(11)
        got = np.concatenate([stream.standard_normal(shape).ravel()
                              for shape in ((3,), (2, 2), (5,), (1030,))])
        np.testing.assert_array_equal(got, _stream_batches(11, 2)[:1042])

    @pytest.mark.parametrize("shape", [(2, 1), (3, 4, 5), (0,), (4, 0), (1500,)])
    def test_shapes(self, shape):
        stream = _SeededStream(3)
        assert stream.standard_normal(shape).shape == shape
        # a zero-size draw takes nothing from the stream
        np.testing.assert_array_equal(stream.standard_normal((0, 3)), np.empty((0, 3)))
        follow = stream.standard_normal((2,))
        reference = _SeededStream(3)
        reference.standard_normal(shape)
        np.testing.assert_array_equal(follow, reference.standard_normal((2,)))

    def test_uniform_stays_in_range(self):
        stream, gen = _SeededStream(9), random.Random(9)
        draws = np.array([stream.uniform(-2.0, 3.0) for _ in range(10_000)])
        assert np.all((-2.0 <= draws) & (draws < 3.0))
        np.testing.assert_array_equal(draws, [-2.0 + 5.0 * gen.random() for _ in range(10_000)])

    def test_normal_moments(self):
        # E x^k of 2^20 normals within 5 standard errors, sqrt(var(x^k) / N), of 0, 1, 0, 3
        count = 2 ** 20
        x = _SeededStream(0).standard_normal((count,))
        for k, mean, var in ((1, 0.0, 1.0), (2, 1.0, 2.0), (3, 0.0, 15.0), (4, 3.0, 96.0)):
            assert abs(np.mean(x ** k) - mean) <= 5.0 * np.sqrt(var / count), k

    def test_random_complex_draws_numpy_or_the_stream(self):
        # an int seed or a Generator keeps numpy's draws; a stream gives its own, in turn
        rng = np.random.default_rng(7)
        want = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        np.testing.assert_array_equal(random_complex(3, 2, 7), want)
        np.testing.assert_array_equal(random_complex(3, 2, np.random.default_rng(7)), want)
        normals = _stream_batches(7, 1)
        stream = _SeededStream(7)
        for k in range(2):
            np.testing.assert_array_equal(random_complex(3, 2, stream),
                                          (normals[12 * k:12 * k + 6]
                                           + 1j * normals[12 * k + 6:12 * k + 12]).reshape(3, 2))


class TestTolerances:
    def test_defaults(self):
        assert DEFAULT_TOLS.structural == 1e-10
        assert DEFAULT_TOLS.ode == 1e-9
        assert DEFAULT_TOLS.comparison == 1e-8

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Tolerances(structural=0.0)

    def test_rejects_structural_above_comparison(self):
        with pytest.raises(ValueError):
            Tolerances(structural=1e-3, comparison=1e-8)
