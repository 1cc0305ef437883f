"""Dense complex linear algebra primitives.

Matrices are plain complex ``numpy`` arrays throughout the package.  This
module provides the few operations everything else is built on: adjoints and
commutators, the oriented QR factorization (``isometrize``), the polar
retraction of a frame or a stack of frames, running products of a stack, the
matrix exponential of a matrix or a stack (spectral for anti-Hermitian input;
scipy is imported only for any other input), the spectral retraction onto
rank-m projectors, and seeded random generators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GapTooSmall, NonFinite, NotAntiHermitian, RankDeficient


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used across the package.

    structural: invariant checks (idempotency, isometry defect).
    ode: post-step retraction trigger during integration.
    comparison: equality threshold for comparing computed values.
    """

    structural: float = 1e-10
    ode: float = 1e-9
    comparison: float = 1e-8

    def __post_init__(self):
        if not (self.structural > 0 and self.ode > 0 and self.comparison > 0):
            raise ValueError("tolerances must be strictly positive")
        if self.structural > self.comparison:
            raise ValueError("structural tolerance must not exceed comparison tolerance")


DEFAULT_TOLS = Tolerances()


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def frob(a: np.ndarray) -> float:
    """Frobenius norm as a plain float."""
    return float(np.linalg.norm(a))


def require_finite(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise NonFinite(f"{name} contains non-finite entries")
    return a


def require_antihermitian(a: np.ndarray, tol: Tolerances = DEFAULT_TOLS,
                          name: str = "matrix") -> np.ndarray:
    """``a`` as a complex array, checked finite and anti-Hermitian.

    ``a`` is a matrix or a stack (..., n, n); each matrix must satisfy
    || a + a* || <= comparison * (1 + || a ||).
    """
    a = require_finite(a, name)
    defects = np.linalg.norm(a + dag(a), axis=(-2, -1))
    if np.any(defects > tol.comparison * (1.0 + np.linalg.norm(a, axis=(-2, -1)))):
        raise NotAntiHermitian(f"{name} is not anti-Hermitian")
    return a


def isometrize(f: np.ndarray, tol: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Oriented orthonormalization of a full-column-rank matrix.

    Returns the unique Q with f = Q R, Q* Q = I and R upper triangular with
    strictly positive real diagonal.  Column spans of Q and f coincide
    prefix-by-prefix, which is the complex analogue of matching orientations.
    """
    f = require_finite(f, "frame seed")
    if f.ndim != 2 or f.shape[0] < f.shape[1]:
        raise ValueError("expected a tall (or square) n x m matrix")
    svals = np.linalg.svd(f, compute_uv=False)
    if svals[-1] <= tol.structural:
        raise RankDeficient(
            f"smallest singular value {svals[-1]:.3e} <= structural tolerance")
    q, r = np.linalg.qr(f)
    d = np.diagonal(r).copy()
    # d cannot vanish for full-rank input; rotate phases into R
    phase = d / np.abs(d)
    return q * phase[np.newaxis, :]


# Largest entry of |f* f - I| at which polar_retract takes one Newton-Schulz step.
_POLAR_NEWTON_DEFECT = 1e-8


@np.errstate(invalid="ignore", over="ignore")  # a non-finite f fails the test quietly
def polar_retract(f: np.ndarray, tol: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Closest frame to f in Frobenius norm: the unitary polar factor U V*.

    ``f`` is a matrix or a stack (..., n, m), retracted matrix by matrix.
    Unlike the oriented QR, this retraction commutes with the right U(m)
    action exactly, which keeps repeated-retraction schemes gauge equivariant.
    If no entry of E = f* f - I exceeds _POLAR_NEWTON_DEFECT anywhere in the
    stack, it is one Newton-Schulz step f (3I - f* f)/2 = f (I - E/2), which
    leaves a defect of about (3/4) ||E||^2, below roundoff (Higham, Functions
    of Matrices, SIAM 2008, sec. 8.3); any other f (NaN and inf fail the test)
    takes the SVD of the whole stack.
    """
    f = np.asarray(f)
    m = f.shape[-1]
    e = dag(f) @ f
    e.reshape(e.shape[:-2] + (m * m,))[..., ::m + 1] -= 1.0  # the diagonals, as a view
    if np.abs(e).max() <= _POLAR_NEWTON_DEFECT:
        return f - f @ (e / 2.0)
    f = require_finite(f, "frame")
    u, s, vh = np.linalg.svd(f, full_matrices=False)
    smallest = s[..., -1].min()
    if smallest <= tol.structural:
        raise RankDeficient(f"smallest singular value {smallest:.3e} <= structural tolerance")
    return u @ vh


def prefix_products(a: np.ndarray) -> np.ndarray:
    """The running products a_k ... a_1 a_0 of a stack (N, m, m), later factors on the left.

    A Hillis-Steele scan: after the pass with shift s, entry k holds the
    product of the up to 2s factors ending at a_k, so ceil(log2 N) stacked
    matmuls give every prefix.
    """
    out = np.array(a, dtype=complex)
    shift = 1
    while shift < len(out):
        out[shift:] = out[shift:] @ out[:-shift]
        shift *= 2
    return out


def mat_exp(a: np.ndarray) -> np.ndarray:
    """Matrix exponential e^A of a matrix or of each matrix in a stack (..., n, n).

    When every matrix is anti-Hermitian to roundoff (|| A + A* || at most
    4 n eps || A ||), e^A = V diag(e^{-i lam}) V* from the eigendecomposition
    iA = V diag(lam) V*, unitary to roundoff (the normal-matrix route: Higham,
    Functions of Matrices, SIAM 2008, ch. 10).  Any other input goes to
    scipy's scaling-and-squaring Pade ``expm``; scipy is imported only then.
    """
    a = require_finite(a, "exponent")
    defects = np.linalg.norm(a + dag(a), axis=(-2, -1))
    eps = np.finfo(float).eps
    if np.all(defects <= 4.0 * a.shape[-1] * eps * np.linalg.norm(a, axis=(-2, -1))):
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
    m_mat = require_finite(m_mat, "matrix")
    n = m_mat.shape[0]
    if not (0 < m < n):
        raise ValueError("rank m must satisfy 0 < m < n")
    if frob(m_mat - dag(m_mat)) > tol.comparison * (1.0 + frob(m_mat)):
        raise ValueError("input is not Hermitian within comparison tolerance")
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
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def random_antihermitian(n: int, seed) -> np.ndarray:
    """Seeded anti-Hermitian matrix A = (G - G*)/2 with Gaussian G."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    g = random_complex(n, n, seed)
    return (g - dag(g)) / 2.0


def random_unitary(n: int, seed) -> np.ndarray:
    """Seeded Haar-ish unitary via oriented QR of a Gaussian matrix."""
    return isometrize(random_complex(n, n, seed))


def random_frame(n: int, m: int, seed) -> np.ndarray:
    """Seeded orthonormal n x m frame."""
    return isometrize(random_complex(n, m, seed))
