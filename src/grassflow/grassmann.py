"""The complex Grassmannian in its projector representation.

A point of Gr_m(C^n) is a rank-m Hermitian idempotent P.  Around a base
point X = im(P) the manifold is charted by Hom(X, X_perp): a chart tangent
is an (n-m) x m block in an adapted orthonormal basis [frame | coframe], and its graph
is a nearby subspace.  This module implements the chart maps (on matrices or stacks),
the two tangent representations and the isomorphism between them, the
unitary action, the coadjoint-orbit symplectic form with its Hamiltonian
fields, the Grassmannian connection form F = 2P dP - dP, and covariant
derivatives along sampled curves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, NotTangent, NotUnitary, OutsideChart, SectionNotInFiber
from .linalg import (DEFAULT_TOLS, Tolerances, _matmul, _require_rank, _require_square,
                     _require_tall, commutator, dag, frob, isometrize, require_antihermitian,
                     require_finite)


def projector_defect(p: np.ndarray, rank: int):
    """Worst violation of the rank-``rank`` projector invariants by a matrix.

    The largest of || p p - p ||, || p - p* || and |tr p - rank|, the last a
    complex modulus: a float for one matrix, an array for a stack (..., n, n).
    """
    dev = p @ p
    dev -= p
    idem = np.linalg.norm(dev, axis=(-2, -1))
    np.subtract(p, dag(p), out=dev)
    herm = np.linalg.norm(dev, axis=(-2, -1))
    trace = np.abs(np.trace(p, axis1=-2, axis2=-1) - rank)
    worst = np.maximum(np.maximum(idem, herm), trace)
    return worst if worst.ndim else float(worst)


@dataclass(frozen=True)
class Projector:
    """A point of Gr_m(C^n): an n x n Hermitian idempotent of trace m."""

    matrix: np.ndarray
    rank: int

    @property
    def n(self) -> int:
        return self.matrix.shape[-1]

    def defect(self) -> float:
        """Worst violation of the projector invariants, see ``projector_defect``."""
        return projector_defect(self.matrix, self.rank)

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, rank: int,
                    tol: Tolerances = DEFAULT_TOLS) -> "Projector":
        matrix = _require_square(require_finite(matrix, "projector"))
        proj = cls(matrix=matrix, rank=rank)
        if proj.defect() > tol.structural * (1.0 + frob(matrix)):
            raise InvalidArgument("matrix is not a rank-m orthogonal projector")
        return proj

    @classmethod
    def from_frame(cls, phi: np.ndarray) -> "Projector":
        """Projector onto the column span of an orthonormal frame: phi phi*."""
        phi = _require_tall(np.asarray(phi, dtype=complex))
        p = phi @ dag(phi)
        return cls(matrix=(p + dag(p)) / 2.0, rank=phi.shape[1])

    @classmethod
    def standard(cls, n: int, m: int) -> "Projector":
        """Projector onto the first m coordinate vectors; InvalidArgument unless 1 <= m <= n."""
        if not 1 <= m <= n:
            raise InvalidArgument(f"rank m = {m} must satisfy 1 <= m <= n = {n}")
        return cls(matrix=np.diag(np.arange(n) < m).astype(complex), rank=m)


def _adapted_basis(proj: Projector, tol: Tolerances, coframe: bool = True):
    """``BasePoint.from_projector``'s frame and coframe (None unless ``coframe``) from eigh(P)."""
    n, m = proj.n, proj.rank
    _, v = np.linalg.eigh((proj.matrix + dag(proj.matrix)) / 2.0)  # kernel first, image last
    return isometrize(v[..., n - m:], tol), isometrize(v[..., :n - m], tol) if coframe else None


@dataclass(frozen=True)
class BasePoint:
    """A projector with a cached adapted basis: frame spans im(P), coframe ker(P)."""

    projector: Projector
    frame: np.ndarray    # n x m
    coframe: np.ndarray  # n x (n-m)

    @property
    def n(self) -> int:
        return self.projector.n

    @property
    def m(self) -> int:
        return self.projector.rank

    @classmethod
    def from_projector(cls, proj: Projector,
                       tol: Tolerances = DEFAULT_TOLS) -> "BasePoint":
        """Deterministic adapted basis from the eigendecomposition of P, or of each P of a stack."""
        return cls(proj, *_adapted_basis(proj, tol))

    @classmethod
    def standard(cls, n: int, m: int) -> "BasePoint":
        return cls(Projector.standard(n, m), *np.hsplit(np.eye(n, dtype=complex), [m]))


def _random_base(u: np.ndarray, m: int, tol: Tolerances = DEFAULT_TOLS) -> BasePoint:
    """The base point at u P u* for the standard rank-m P and a unitary u, or a stack of them."""
    p = u @ Projector.standard(u.shape[-1], m).matrix @ dag(u)
    return BasePoint.from_projector(Projector(matrix=(p + dag(p)) / 2, rank=m), tol)


@dataclass(frozen=True)
class ChartTangent:
    """A tangent vector at a base point, as the (n-m) x m block of Hom(X, X_perp), or a stack."""

    base: BasePoint
    block: np.ndarray

    def __post_init__(self):
        expected = self.base.frame.shape[:-2] + (self.base.n - self.base.m, self.base.m)
        if self.block.shape != expected:
            raise InvalidArgument(f"block shape {self.block.shape} != {expected}")


@dataclass(frozen=True)
class EmbeddedTangent:
    """A tangent vector as an ambient Hermitian trace-free matrix with PV+VP=V."""

    matrix: np.ndarray


def tangency_defect(p: Projector, v: np.ndarray) -> float:
    """Violation of the embedded-tangent constraints at P."""
    pm = p.matrix
    return max(frob(pm @ v + v @ pm - v), frob(v - dag(v)),
               abs(complex(np.trace(v))))


def _require_tangent(p: Projector, v: EmbeddedTangent,
                     tol: Tolerances) -> np.ndarray:
    mat = require_finite(v.matrix, "tangent")
    if mat.shape != p.matrix.shape:
        raise InvalidArgument(f"tangent has shape {mat.shape}, want {p.matrix.shape}")
    if tangency_defect(p, mat) > tol.comparison * (1.0 + frob(mat)):
        raise NotTangent("matrix violates the tangency constraints at P")
    return mat


def chart_frames(base: BasePoint, blocks: np.ndarray) -> np.ndarray:
    """The (N, n, m) frames Y = frame + coframe f spanning the graphs of (N, n-m, m) chart blocks f.

    Y* Y = 1 + f* f, as the adapted basis is orthonormal.  One block gives one frame.
    """
    y = _matmul(base.coframe, np.asarray(blocks, dtype=complex))
    y += base.frame  # in place: no second stack
    return y


def chart_projectors(base: BasePoint, blocks: np.ndarray) -> np.ndarray:
    """Projector matrices onto the graphs of chart blocks: (N, n-m, m) blocks give (N, n, n).

    The blocks sit at one base point, or at a stack of N; one (n-m, m) block gives one (n, n)
    matrix.  The graph of f is spanned by its ``chart_frames`` Y, and its projector is
    Y (Y* Y)^-1 Y*, from one stacked m x m solve, Hermitized.
    Y* Y = 1 + f* f is always invertible: only a block or Gram matrix not finite fails, NonFinite.
    """
    y = chart_frames(base, require_finite(blocks, "chart block"))
    y_dag = dag(y)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported as NonFinite
        gram = require_finite(y_dag @ y, "chart Gram matrix")
    p = y @ np.linalg.solve(gram, y_dag)
    del y, y_dag  # free the frames before Hermitizing allocates a second stack
    p += dag(p)
    p /= 2.0
    return p


def proj_from_chart(base: BasePoint, f: ChartTangent) -> Projector:
    """The projector onto the graph of f, see ``chart_projectors``; a stack for a stacked f."""
    return Projector(matrix=chart_projectors(base, f.block), rank=base.m)


def chart_from_proj(base: BasePoint, q: Projector,
                    tol: Tolerances = DEFAULT_TOLS) -> ChartTangent:
    """Inverse chart map: f = (coframe* Q frame)(frame* Q frame)^-1.

    NonFinite or InvalidArgument unless Q is finite and of the base's shape; OutsideChart unless
    each im(Q) is transverse to ker P: frame* Q frame keeps rank m (``_require_rank``).
    """
    q_mat, want = require_finite(q.matrix, "projector"), base.projector.matrix.shape
    if q_mat.shape != want:
        raise InvalidArgument(f"projector has shape {q_mat.shape}, want {want}")
    top = dag(base.frame) @ q_mat @ base.frame      # m x m
    bottom = dag(base.coframe) @ q_mat @ base.frame
    _require_rank(np.linalg.svd(top, compute_uv=False), tol, OutsideChart)
    return ChartTangent(base=base, block=bottom @ np.linalg.inv(top))


def chart_ambient(f: ChartTangent) -> np.ndarray:
    """The n x n ambient form coframe f frame* of a chart block (maps X into X_perp)."""
    return f.base.coframe @ np.asarray(f.block, dtype=complex) @ dag(f.base.frame)


def tangent_embed(v: ChartTangent) -> EmbeddedTangent:
    """Ambient Hermitian matrix with adapted-basis blocks [[0, phi*], [phi, 0]]."""
    mat = chart_ambient(v)
    return EmbeddedTangent(matrix=mat + dag(mat))


def tangent_extract(base: BasePoint, v: EmbeddedTangent,
                    tol: Tolerances = DEFAULT_TOLS) -> ChartTangent:
    """Chart block phi = coframe* V frame of an embedded tangent at the base."""
    mat = _require_tangent(base.projector, v, tol)
    return ChartTangent(base=base, block=dag(base.coframe) @ mat @ base.frame)


def transported_base(u: np.ndarray, base: BasePoint,
                     tol: Tolerances = DEFAULT_TOLS) -> BasePoint:
    """The base point at u(X), frames carried by u and re-oriented; u has the base's shape."""
    u, n = require_finite(u, "unitary"), base.n
    if u.shape != base.projector.matrix.shape:
        raise InvalidArgument(f"unitary has shape {u.shape}, want {base.projector.matrix.shape}")
    if np.any(np.linalg.norm(dag(u) @ u - np.eye(n), axis=(-2, -1)) > tol.comparison * n):
        raise NotUnitary("matrix is not unitary")
    p = u @ base.projector.matrix @ dag(u)
    return BasePoint(projector=Projector(matrix=(p + dag(p)) / 2.0, rank=base.m),
                     frame=isometrize(u @ base.frame, tol),
                     coframe=isometrize(u @ base.coframe, tol))


def chart_transport(u: np.ndarray, f: ChartTangent,
                    tol: Tolerances = DEFAULT_TOLS) -> ChartTangent:
    """Push a chart tangent through a unitary: the block of u f u^-1 at u(X); u, f may be stacks."""
    new_base = transported_base(u, f.base, tol)
    pushed = u @ chart_ambient(f) @ dag(u)
    return ChartTangent(base=new_base,
                        block=dag(new_base.coframe) @ pushed @ new_base.frame)


def _require_generator(u: np.ndarray, n: int, tol: Tolerances,
                       name: str = "generator") -> np.ndarray:
    """u checked by ``require_antihermitian``, after InvalidArgument unless it is n x n."""
    if np.shape(u)[-2:] != (n, n):
        raise InvalidArgument(f"{name} must be a square {n} x {n} matrix, not {np.shape(u)}")
    return require_antihermitian(u, tol, name)


def lie_field_chart(u: np.ndarray, base: BasePoint,
                    tol: Tolerances = DEFAULT_TOLS) -> ChartTangent:
    """Chart block of the vector field generated by u in u(n): (1-P) u restricted to X."""
    u = _require_generator(u, base.n, tol)
    return ChartTangent(base=base, block=dag(base.coframe) @ u @ base.frame)


def linear_hamiltonian(u: np.ndarray, p: Projector,
                       tol: Tolerances = DEFAULT_TOLS) -> float:
    """The linear Hamiltonian -i tr(u P) attached to a generator u.

    u is checked by ``require_antihermitian``, the one anti-Hermitian rule: ``structural``
    enters no test of u, and the value is ``hamiltonian_value`` of u P.
    """
    u = _require_generator(u, p.n, tol)
    return hamiltonian_value(u @ p.matrix)


def hamiltonian_value(product: np.ndarray):
    """Re(-i tr(product)) for product = u P, or phi* u phi over a frame of P.

    Both traces equal the linear Hamiltonian of u at P, which is real for an
    anti-Hermitian u; the imaginary part is roundoff, dropped with no test and no
    tolerance (u is checked where it enters, by ``require_antihermitian``).
    A stack (..., k, k) gives an array.
    """
    value = (-1j * np.trace(product, axis1=-2, axis2=-1)).real
    return value if value.ndim else float(value)


def symplectic_form(p: Projector, phi: EmbeddedTangent, psi: EmbeddedTangent,
                    tol: Tolerances = DEFAULT_TOLS) -> float:
    """Coadjoint-orbit symplectic form: Re(i tr(P [Phi, Psi]))."""
    a = _require_tangent(p, phi, tol)
    b = _require_tangent(p, psi, tol)
    return float((1j * np.trace(p.matrix @ commutator(a, b))).real)


def ham_field(u: np.ndarray, p: Projector,
              tol: Tolerances = DEFAULT_TOLS) -> EmbeddedTangent:
    """Hamiltonian vector field of the linear Hamiltonian of u: [u, P]."""
    u = _require_generator(u, p.n, tol)
    return EmbeddedTangent(matrix=commutator(u, p.matrix))


def grassmann_connection_F(p: Projector, v: EmbeddedTangent,
                           tol: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Connection form F = 2P dP - dP evaluated on a tangent: (2P - 1) V."""
    mat = _require_tangent(p, v, tol)
    return (2.0 * p.matrix - np.eye(p.n)) @ mat


def grassmann_curvature_F(p: Projector, phi: EmbeddedTangent, psi: EmbeddedTangent,
                          tol: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Curvature dF = 2 dP dP evaluated on a pair of tangents: 2 [Phi, Psi]."""
    a = _require_tangent(p, phi, tol)
    b = _require_tangent(p, psi, tol)
    return 2.0 * commutator(a, b)


def sampled_derivative(samples: np.ndarray, h: float, order: int) -> np.ndarray:
    """Finite-difference derivative along axis 0 of samples on a uniform grid.

    ``order`` 2: central differences, one-sided three-point stencils at the
    ends.  ``order`` 4: five-point stencils, offset at the two nodes nearest
    each end; fewer than 5 samples fall back to order 2.  Fewer than 3
    samples raise InvalidArgument.
    """
    if order not in (2, 4):
        raise InvalidArgument("order must be 2 or 4")
    if len(samples) < 3:
        raise InvalidArgument(f"need at least 3 samples for a derivative, got {len(samples)}")
    s = samples
    # interiors in place in d, operation for operation as stated; integers differentiate as floats
    d = np.empty(s.shape, dtype=np.result_type(s, 1.0))
    if order == 4 and len(s) >= 5:
        # (s[:-4] - 8 s[1:-3] + 8 s[3:-1] - s[4:]) / 12h
        inner = np.subtract(s[:-4], np.multiply(8.0, s[1:-3], out=d[2:-2]), out=d[2:-2])
        inner += np.multiply(8.0, s[3:-1])
        inner -= s[4:]
        inner /= 12.0 * h
        d[0] = (-25.0 * s[0] + 48.0 * s[1] - 36.0 * s[2] + 16.0 * s[3] - 3.0 * s[4]) / (12.0 * h)
        d[1] = (-3.0 * s[0] - 10.0 * s[1] + 18.0 * s[2] - 6.0 * s[3] + s[4]) / (12.0 * h)
        d[-1] = (25.0 * s[-1] - 48.0 * s[-2] + 36.0 * s[-3] - 16.0 * s[-4] + 3.0 * s[-5]) / (12.0 * h)
        d[-2] = (3.0 * s[-1] + 10.0 * s[-2] - 18.0 * s[-3] + 6.0 * s[-4] - s[-5]) / (12.0 * h)
        return d
    np.subtract(s[2:], s[:-2], out=d[1:-1])
    d[1:-1] /= 2.0 * h
    d[0] = (-3.0 * s[0] + 4.0 * s[1] - s[2]) / (2.0 * h)
    d[-1] = (3.0 * s[-1] - 4.0 * s[-2] + s[-3]) / (2.0 * h)
    return d


def covariant_derivative_along(projectors: np.ndarray, sections: np.ndarray,
                               h: float, mode: str = "canonical",
                               tol: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Covariant derivative of a sampled section along a sampled projector path.

    ``projectors`` has shape (N, n, n) on a uniform grid with spacing ``h``;
    ``sections`` has shape (N, n).  Mode selects the bundle:
    'canonical' projects the raw derivative by P (sections of the canonical
    bundle), 'complement' by 1-P (sections of the complement bundle), and
    'sum' splits the section by P, applies each derivative, and adds
    (Whitney-sum derivative on the trivial bundle).
    """
    projectors = require_finite(projectors, "projector path")
    sections = require_finite(sections, "section samples")
    if sections.ndim != 2 or projectors.shape[1:] != 2 * sections.shape[1:]:
        raise InvalidArgument("need an (N, n, n) projector path and (N, n) section samples")
    if len(projectors) != len(sections) or len(projectors) < 3:
        raise InvalidArgument("need matching sample counts, at least 3 nodes")
    if mode not in ("canonical", "complement", "sum"):
        raise InvalidArgument(f"unknown mode {mode!r}")

    def project(v):
        return np.einsum("kij,kj->ki", projectors, v)

    if mode in ("canonical", "complement"):
        ps = project(sections)
        off = ps - sections if mode == "canonical" else ps  # the part of s off the fiber
        if np.any(np.linalg.norm(off, axis=1)
                  > tol.comparison * (1.0 + np.linalg.norm(sections, axis=1))):
            raise SectionNotInFiber(f"section leaves the {mode} fiber")
        ds = sampled_derivative(sections, h, 2)
        return project(ds) if mode == "canonical" else ds - project(ds)

    # Whitney sum: split by P, differentiate each part in its own bundle, add.
    s1 = project(sections)
    s2 = sections - s1
    d2 = sampled_derivative(s2, h, 2)
    return project(sampled_derivative(s1, h, 2)) + (d2 - project(d2))
