"""Dense complex linear algebra primitives.

Matrices are plain complex ``numpy`` arrays throughout the package.  This
module provides the few operations everything else is built on: adjoints and commutators,
the one rank test of every frame, overlap and fiber projection (``_require_rank``), the
oriented QR factorization (``isometrize``) and the polar retraction of a frame or a stack of
frames, running products of a stack, the adjoint product a* b of stacks, closed forms for the
determinants and singular values of 1 x 1 and 2 x 2 stacks, the matrix exponential of a matrix
or a stack (spectral for anti-Hermitian input; scipy is imported only for any other input), the
spectral retraction onto rank-m projectors, and seeded random generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .errors import GapTooSmall, InvalidArgument, NonFinite, NotAntiHermitian, RankDeficient


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used across the package.

    structural: invariant checks (idempotency, isometry defect, rank); it enters
    no anti-Hermitian test.
    ode: post-step retraction trigger during integration.
    comparison: equality threshold for comparing computed values, and the bound of
    the one anti-Hermitian rule, ``require_antihermitian``.
    Each is a finite number > 0 and structural <= comparison, else InvalidArgument.
    """

    structural: float = 1e-10
    ode: float = 1e-9
    comparison: float = 1e-8

    def __post_init__(self):
        if not all(isinstance(x, Real) and not isinstance(x, bool) and 0 < x < np.inf
                   for x in (self.structural, self.ode, self.comparison)):
            raise InvalidArgument("tolerances must be strictly positive finite numbers")
        if self.structural > self.comparison:
            raise InvalidArgument("structural tolerance must not exceed comparison tolerance")


DEFAULT_TOLS = Tolerances()


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[a, b] = ab - ba of square matrices or stacks; InvalidArgument for any other operand."""
    a, b = (_require_square(np.asarray(x), stack=True) for x in (a, b))
    return a @ b - b @ a


def frob(a: np.ndarray) -> float:
    """Frobenius norm as a plain float."""
    return float(np.linalg.norm(a))


def _require_count(value, name: str) -> None:
    """InvalidArgument unless value is a positive integer (an ``Integral``, not a bool)."""
    if not (isinstance(value, Integral) and not isinstance(value, bool) and value > 0):
        raise InvalidArgument(f"{name} must be a positive integer, not {value!r}")


def require_finite(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise NonFinite(f"{name} contains non-finite entries")
    return a


def _hermitian_defects(a: np.ndarray):
    """|| a + a* || / s, || a || / s and 1 / s for each matrix of the finite a.

    s = 1 unless a norm overflows; then s is the larger of 1 and the largest entry
    modulus of each matrix, and the norms of a / s cannot overflow.
    """
    with np.errstate(over="ignore"):
        defects, norms = (np.linalg.norm(x, axis=(-2, -1)) for x in (a + dag(a), a))
    if not (np.isfinite(defects).all() and np.isfinite(norms).all()):
        scale = np.abs(a).max(axis=(-2, -1), keepdims=True, initial=1.0)
        return _hermitian_defects(a / scale)[:2] + (1.0 / scale[..., 0, 0],)
    return defects, norms, 1.0


def require_antihermitian(a: np.ndarray, tol: Tolerances = DEFAULT_TOLS,
                          name: str = "matrix") -> np.ndarray:
    """``a`` as a complex array, checked finite and anti-Hermitian.

    InvalidArgument unless ``a`` is a square matrix or a stack (..., n, n); each matrix
    must satisfy || a + a* || <= comparison * (1 + || a ||), both sides divided by the s
    of ``_hermitian_defects``.
    """
    a = _require_square(require_finite(a, name), stack=True)
    defects, norms, unit = _hermitian_defects(a)
    if np.any(defects > tol.comparison * (unit + norms)):
        raise NotAntiHermitian(f"{name} is not anti-Hermitian")
    return a


def _require_tall(f: np.ndarray, stack: bool = False) -> np.ndarray:
    """f, or InvalidArgument unless an n x m matrix, 1 <= m <= n (or with ``stack`` a stack)."""
    if f.ndim < 2 or (f.ndim > 2 and not stack) or not 1 <= f.shape[-1] <= f.shape[-2]:
        raise InvalidArgument("expected an n x m matrix" + " or stack" * stack + ", 1 <= m <= n")
    return f


def _require_square(a: np.ndarray, stack: bool = False) -> np.ndarray:
    """a, or InvalidArgument unless a square matrix, or with ``stack`` a stack of them."""
    if a.ndim < 2 or (a.ndim > 2 and not stack) or a.shape[-2] != a.shape[-1]:
        raise InvalidArgument("expected a square n x n matrix" + " or stack" * stack)
    return a


def _require_rank(svals: np.ndarray, tol: Tolerances, error: type) -> None:
    """``error`` unless each row of descending values has s_min > structural * max(s_max, 1).

    NaN fails it.  A frame passes its singular values, a fiber projection those of a* P a.
    """
    if not np.all(svals[..., -1] > tol.structural * np.maximum(svals[..., 0], 1.0)):
        raise error(f"rank lost: s_min {np.min(svals[..., -1]):.3e} <= structural * max(s_max, 1)")


def isometrize(f: np.ndarray, tol: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Oriented orthonormalization of a full-column-rank matrix, or of each in a stack (..., n, m).

    Returns the unique Q with f = Q R, Q* Q = I and R upper triangular with
    strictly positive real diagonal.  Column spans of Q and f coincide
    prefix-by-prefix, which is the complex analogue of matching orientations.
    RankDeficient unless each f keeps rank m by ``_require_rank``.
    """
    f = _require_tall(require_finite(f, "frame seed"), stack=True)
    _require_rank(np.linalg.svd(f, compute_uv=False), tol, RankDeficient)
    q, r = np.linalg.qr(f)
    d = np.diagonal(r, axis1=-2, axis2=-1)  # nonzero at full rank: rotate its phases into R
    return q * (d / np.abs(d))[..., np.newaxis, :]


# Largest contracted dimension at which ``_matmul`` sums broadcast products.
# numpy's stacked matmul makes one BLAS call per matrix; on (8000, k, k) stacks and one
# CPU the k broadcast products took under half its time at k = 2, somewhat less at
# k = 3 and over twice it at k = 4 (timings in CHANGES.md).
_BROADCAST_MAX = 2


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b of matrices or stacks, by the route the operands' shapes pick.

    Up to a contracted dimension of _BROADCAST_MAX it sums that many broadcast products;
    above it one matrix and a stack (either side) make one product over the flattened
    stack, where ``matmul`` broadcasts the matrix and makes one BLAS call per matrix of
    the stack.  Each route equals ``a @ b`` to roundoff; any other operands go to ``a @ b``.
    """
    if a.ndim >= 2 <= b.ndim and 0 < a.shape[-1] == b.shape[-2] <= _BROADCAST_MAX:
        out = a[..., :1] * b[..., :1, :]
        for j in range(1, a.shape[-1]):
            out += a[..., j:j + 1] * b[..., j:j + 1, :]
        return out
    if a.ndim == 2 < b.ndim:  # a @ b = (b^T a^T)^T
        return _matmul(np.swapaxes(b, -1, -2), a.T).swapaxes(-1, -2)
    if a.ndim > 2 == b.ndim:
        return (a.reshape(-1, a.shape[-1]) @ b).reshape(a.shape[:-1] + b.shape[-1:])
    return a @ b


def _adjoint_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a* b of matrices or stacks (..., n, p) and (..., n, q): a Gram a* a, an overlap a* b.

    Where n > _BROADCAST_MAX >= p, q it is the p q conjugate dots of length n of each pair, one
    ``vecdot`` call that copies no conjugate.  numpy's stacked matmul makes one BLAS call per
    matrix: on (N, n, 2) stacks and one CPU the dots took half its time up to n = 32 and 0.7 of
    it at n = 128, about as long at p = q = 1 and longer from p = q = 4 (timings in CHANGES.md).
    Any other operands go to ``_matmul(dag(a), b)``.  Either route equals ``dag(a) @ b`` to
    roundoff and raises as it does.
    """
    if a.ndim >= 2 <= b.ndim and a.shape[-2] > _BROADCAST_MAX >= max(a.shape[-1], b.shape[-1]):
        return np.vecdot(a[..., :, :, np.newaxis], b[..., :, np.newaxis, :], axis=-3)
    return _matmul(dag(a), b)


def _small_det(a: np.ndarray) -> np.ndarray:
    """det of each matrix of a stack (..., m, m): closed form for m <= 2, else ``np.linalg.det``.

    numpy's ``det`` makes one LAPACK call per matrix; ad - bc is one broadcast expression.
    """
    m = a.shape[-1]
    if m == 1:
        return a[..., 0, 0]
    if m == 2:
        return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    return np.linalg.det(a)


@np.errstate(over="ignore", invalid="ignore")  # an overflowing det takes the LAPACK route
def _small_svals(a: np.ndarray) -> np.ndarray:
    """Descending singular values of each matrix of a finite stack (..., m, m).

    Closed form for m <= 2: s = |a| at m = 1; at m = 2, with rows (a, b), (c, d) and
    u = det / |det| (u = 1 at det = 0), s_1 +- s_2 = || (a +- u conj(d), b -+ u conj(c)) ||,
    since the squared norms are || a ||_F^2 +- 2 |det| = (s_1 +- s_2)^2.  Each is a sum of
    squares whose terms err by a few eps s_1, so each s is within a few eps s_1 of LAPACK's.
    A stack whose det overflows, and any larger m, go to ``np.linalg.svd``.
    """
    m = a.shape[-1]
    if m == 1:
        return np.abs(a[..., 0])
    if m == 2:
        det = _small_det(a)
        size = np.abs(det)
        u = np.divide(det, size, out=np.ones_like(det), where=size > 0)
        ud, uc = u * a[..., 1, 1].conj(), u * a[..., 1, 0].conj()
        plus, minus = (np.hypot(np.abs(a[..., 0, 0] + sign * ud),
                                np.abs(a[..., 0, 1] - sign * uc)) for sign in (1.0, -1.0))
        svals = np.stack([plus + minus, np.maximum(plus - minus, 0.0)], axis=-1) / 2.0
        if np.isfinite(svals).all():
            return svals
    return np.linalg.svd(a, compute_uv=False)


# Largest entry of |f* f - I| at which polar_retract takes one Newton-Schulz step.
_POLAR_NEWTON_DEFECT = 1e-8


@np.errstate(invalid="ignore", over="ignore")  # a non-finite f fails the test quietly
def polar_retract(f: np.ndarray, tol: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Closest frame to f in Frobenius norm: the unitary polar factor U V*.

    ``f`` is a tall (or square) matrix or a stack (..., n, m), retracted matrix by matrix.
    Unlike the oriented QR, this retraction commutes with the right U(m)
    action exactly, which keeps repeated-retraction schemes gauge equivariant.
    If no entry of E = f* f - I exceeds _POLAR_NEWTON_DEFECT anywhere in the
    stack, it is one Newton-Schulz step f (3I - f* f)/2 = f (I - E/2), which
    leaves a defect of about (3/4) ||E||^2, below roundoff (Higham, Functions
    of Matrices, SIAM 2008, sec. 8.3); any other f (NaN and inf fail the test)
    takes the SVD of the whole stack, RankDeficient unless it passes ``_require_rank``.
    """
    f = _require_tall(np.asarray(f), stack=True)
    m = f.shape[-1]
    e = _adjoint_product(f, f)
    e -= np.eye(m)
    if np.abs(e).max() <= _POLAR_NEWTON_DEFECT:
        return f - _matmul(f, e / 2.0)
    u, s, vh = np.linalg.svd(require_finite(f, "frame"), full_matrices=False)
    _require_rank(s, tol, RankDeficient)
    return u @ vh


def prefix_products(a: np.ndarray) -> np.ndarray:
    """The running products a_k ... a_1 a_0 of a stack (N, m, m), later factors on the left.

    A blocked scan (Blelloch, CMU-CS-90-190, 1990): running products within
    chunks of c = ceil(sqrt N) factors, all chunks at once (c - 1 stacked
    matmuls); the chunk totals carried from chunk to chunk in sequence; then
    one stacked matmul applies each carry to the chunk after it.
    """
    count, m = len(a), np.shape(a)[-1]
    size = max(1, int(np.ceil(np.sqrt(count))))
    out = np.empty((-(-count // size) * size, m, m), dtype=complex)
    out[:count], out[count:] = a, np.eye(m)  # identities pad the last chunk
    runs = out.reshape(-1, size, m, m)
    for j in range(1, size):
        runs[:, j] = _matmul(runs[:, j], runs[:, j - 1])
    for i in range(1, len(runs)):
        runs[i, -1] = runs[i, -1] @ runs[i - 1, -1]
    runs[1:, :-1] = _matmul(runs[1:, :-1], runs[:-1, -1:])
    return out[:count]


def mat_exp(a: np.ndarray) -> np.ndarray:
    """Matrix exponential e^A of a matrix or of each matrix in a stack (..., n, n).

    InvalidArgument unless square, NonFinite unless finite; the test below only picks the
    route and rejects nothing.  When every matrix is anti-Hermitian to roundoff, || A + A* || at most 4 n eps || A || (both
    divided by the s of ``_hermitian_defects``), e^A = V diag(e^{-i lam}) V* from
    the eigendecomposition iA = V diag(lam) V*, unitary to roundoff (the normal-matrix
    route: Higham, Functions of Matrices, SIAM 2008, ch. 10).  Any other input goes to
    scipy's scaling-and-squaring Pade ``expm``; scipy is imported only then.
    """
    a = _require_square(require_finite(a, "exponent"), stack=True)
    defects, norms, _ = _hermitian_defects(a)
    if np.all(defects <= 4.0 * a.shape[-1] * np.finfo(float).eps * norms):
        lam, v = np.linalg.eigh(1j * a)
        return (v * np.exp(-1j * lam)[..., np.newaxis, :]) @ dag(v)
    import scipy.linalg

    return scipy.linalg.expm(a)


def nearest_projector(m_mat: np.ndarray, m: int,
                      tol: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Spectral retraction onto the set of rank-m orthogonal projectors.

    Returns the orthogonal projector onto the dominant m-dimensional
    invariant subspace of the Hermitian part of ``m_mat``.  Raises
    GapTooSmall when the m-th spectral gap is below the structural tolerance
    (the dominant subspace is then ill-defined).
    """
    m_mat = _require_square(require_finite(m_mat, "matrix"))
    n = m_mat.shape[0]
    _require_count(m, "rank m")
    if not m < n:
        raise InvalidArgument("rank m must satisfy 0 < m < n")
    if frob(m_mat - dag(m_mat)) > tol.comparison * (1.0 + frob(m_mat)):
        raise InvalidArgument("input is not Hermitian within comparison tolerance")
    h = (m_mat + dag(m_mat)) / 2.0
    w, v = np.linalg.eigh(h)  # ascending eigenvalues
    gap = w[n - m] - w[n - m - 1]
    if gap <= tol.structural:
        raise GapTooSmall(f"spectral gap {gap:.3e} <= structural tolerance")
    top = v[:, n - m:]
    p = top @ dag(top)
    return (p + dag(p)) / 2.0


def random_complex(n: int, m: int, seed) -> np.ndarray:
    """Seeded complex Gaussian n x m matrix; ``seed`` may also be a Generator."""
    _require_count(n, "dimension n")
    _require_count(m, "dimension m")
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def random_antihermitian(n: int, seed) -> np.ndarray:
    """Seeded anti-Hermitian matrix A = (G - G*)/2 with Gaussian G."""
    g = random_complex(n, n, seed)
    return (g - dag(g)) / 2.0


def random_unitary(n: int, seed) -> np.ndarray:
    """Seeded Haar-ish unitary via oriented QR of a Gaussian matrix."""
    return isometrize(random_complex(n, n, seed))


def random_frame(n: int, m: int, seed) -> np.ndarray:
    """Seeded orthonormal n x m frame."""
    return isometrize(random_complex(n, m, seed))
