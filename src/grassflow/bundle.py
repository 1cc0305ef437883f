"""The canonical principal U(m)-bundle over the Grassmannian.

Total space: orthonormal m-frames phi (n x m arrays with phi* phi = I),
projecting to Gr_m via phi -> phi phi*.  Frame tangents are n x m arrays xi
with xi* phi + phi* xi = 0; gauge elements are m x m unitary (group) or
anti-Hermitian (algebra) arrays.  The connection form is A = phi* d(phi);
horizontal vectors are those with image orthogonal to im(phi).
"""

from __future__ import annotations

import numpy as np

from .errors import (BaseMismatch, DimensionTooSmall, InvalidArgument, NotAFrame,
                     NotHorizontal, NotTangent)
from .grassmann import ChartTangent, Projector, chart_ambient
from .linalg import (DEFAULT_TOLS, Tolerances, _require_tall, dag, frob, isometrize,
                     require_antihermitian, require_finite)


def frame_defect(phi: np.ndarray):
    """|| phi* phi - I ||: a float for one frame, an array for a stack (..., n, m)."""
    defect = np.linalg.norm(dag(phi) @ phi - np.eye(phi.shape[-1]), axis=(-2, -1))
    return defect if defect.ndim else float(defect)


def require_frame(phi: np.ndarray, tol: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    phi = _require_tall(require_finite(phi, "frame"))
    if frame_defect(phi) > tol.comparison * phi.shape[1]:
        raise NotAFrame("phi* phi deviates from the identity")
    return phi


def require_frame_tangent(phi: np.ndarray, xi: np.ndarray,
                          tol: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    xi = require_finite(xi, "frame tangent")
    if xi.shape != np.shape(phi):
        raise InvalidArgument(f"frame tangent has shape {xi.shape}, want {np.shape(phi)}")
    if frob(dag(xi) @ phi + dag(phi) @ xi) > tol.comparison * (1.0 + frob(xi)):
        raise NotTangent("xi* phi + phi* xi != 0")
    return xi


def require_over(phi: np.ndarray, p: np.ndarray, tol: Tolerances = DEFAULT_TOLS,
                 where: str = "the base point") -> np.ndarray:
    """A finite frame that lies over the projector matrix p, else BaseMismatch.

    InvalidArgument unless phi is an n x m frame (1 <= m <= n) and p an n x n matrix;
    im(phi) counts as im(p) when || phi phi* - p || <= comparison * n.
    """
    phi = _require_tall(require_finite(phi, "frame"))
    if np.shape(p) != 2 * phi.shape[:1]:
        raise InvalidArgument(f"a {phi.shape} frame cannot lie over a {np.shape(p)} matrix")
    if frob(phi @ dag(phi) - p) > tol.comparison * p.shape[0]:
        raise BaseMismatch(f"im(frame) differs from {where}")
    return phi


def project_frame(phi: np.ndarray, tol: Tolerances = DEFAULT_TOLS) -> Projector:
    """Bundle projection pi(phi) = phi phi*."""
    phi = require_frame(phi, tol)
    return Projector.from_frame(phi)


def connection_A(phi: np.ndarray, xi: np.ndarray,
                 tol: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Canonical connection form evaluated on a frame tangent: phi* xi.

    Anti-Hermitian by the tangent constraint; reproduces u on fundamental
    vertical vectors phi u.
    """
    phi = require_frame(phi, tol)
    xi = require_frame_tangent(phi, xi, tol)
    return dag(phi) @ xi


def split_vertical_horizontal(phi: np.ndarray, xi: np.ndarray,
                              tol: Tolerances = DEFAULT_TOLS):
    """Split a frame tangent: vertical = phi phi* xi, horizontal = (1 - phi phi*) xi."""
    phi = require_frame(phi, tol)
    xi = require_frame_tangent(phi, xi, tol)
    vertical = phi @ (dag(phi) @ xi)
    return vertical, xi - vertical


def horizontal_lift(phi: np.ndarray, mu: ChartTangent,
                    tol: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Horizontal lift of a chart tangent at X = im(phi): the ambient form of mu . phi."""
    base = mu.base
    phi = require_over(require_frame(phi, tol), base.projector.matrix, tol,
                       "the chart base point")
    return chart_ambient(mu) @ phi


def curvature_Omega(phi: np.ndarray, u: np.ndarray, v: np.ndarray,
                    tol: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Curvature on a pair of horizontal tangents at phi: (u* v - v* u) / 2."""
    phi = require_frame(phi, tol)
    for xi in (u, v):
        xi = require_finite(xi, "horizontal tangent")
        if xi.shape != phi.shape:
            raise InvalidArgument(f"horizontal tangent has shape {xi.shape}, want {phi.shape}")
        if frob(dag(phi) @ xi) > tol.comparison * (1.0 + frob(xi)):
            raise NotHorizontal("tangent has a vertical component")
    return (dag(u) @ v - dag(v) @ u) / 2.0


def curvature_generators(w: np.ndarray, n: int,
                         tol: Tolerances = DEFAULT_TOLS):
    """Horizontal pairs at the standard frame whose curvature values sum to w.

    For codimension n - m >= m a single pair suffices: u embeds C^m
    isometrically into the complement and v = u w.  Otherwise w is
    diagonalized, w = tau* D tau, and each eigenvalue contributes a rank-one
    pair supported on a single complement direction (this only needs
    codimension 1).  Returns a list of (u, v) pairs of n x m arrays.
    InvalidArgument unless w is one square matrix.
    """
    if np.ndim(w) != 2 or np.shape(w)[0] != np.shape(w)[1]:
        raise InvalidArgument(f"gauge algebra element has shape {np.shape(w)}, want (m, m)")
    w = require_antihermitian(w, tol, "gauge algebra element")
    m = w.shape[0]
    if n <= m:
        raise DimensionTooSmall(f"need ambient dimension > {m}")
    if frob(w) == 0.0:
        return []
    if n - m >= m:
        u = np.zeros((n, m), dtype=complex)
        u[m:2 * m, :] = np.eye(m)
        return [(u, u @ w)]
    # -i w is Hermitian: w = v_mat diag(i lam) v_mat*, so tau = v_mat* diagonalizes w.
    lam, v_mat = np.linalg.eigh(-1j * w)
    tau = dag(v_mat)
    units = np.zeros((m, n, m), dtype=complex)  # row i of tau in complement direction m
    units[:, m, :] = tau
    return [(u, 1j * a * u) for u, a in zip(units, lam) if a != 0.0]


def local_trivialization(phi: np.ndarray, f: ChartTangent,
                         tol: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Trivialization Phi_X(phi, f): the oriented orthonormalization of (1 + f) phi.

    The result is a frame over the graph of f, i.e. it projects to
    proj_from_chart(f.base, f).
    """
    base = f.base
    phi = require_over(require_frame(phi, tol), base.projector.matrix, tol,
                       "the chart base point")
    return isometrize((np.eye(base.n) + chart_ambient(f)) @ phi, tol)


__all__ = [
    "frame_defect", "require_frame", "require_frame_tangent", "project_frame",
    "connection_A", "split_vertical_horizontal", "horizontal_lift",
    "curvature_Omega", "curvature_generators", "local_trivialization",
    "require_over",
]
