"""Hamiltonian flows on the Grassmannian and its frame bundle.

Integrates the frame equation phi' = H(t) phi and the projector equation
P' = [H(t), P] with a classical 4th-order one-step method plus per-step
retraction back onto the constraint set: oriented QR for integrated frames,
spectral projection for projectors, and the polar factor (which commutes with
the right U(m) action) for gauge factors.  On top of the flows: horizontal
transport, the dynamical vs. geometric Berry maps, purely off-diagonal
("geometric") schedules driving a prescribed projector curve, loop holonomy with
the polar factor of a discrete projector-product oracle, and first-order holonomy
synthesis from curvature generators.

Transport runs in a local trivialization of the bundle, where it is an m x m
gauge equation: along a Hamiltonian flow by ``berry_maps`` over the Schroedinger
frame (its ``horizontal_path``), along a sampled path by ``_section_transport`` from
the fiber overlaps of a section: ``horizontal_transport`` takes the ``_pivoted_section``
of the projector samples, the CLI's ``synthesize`` the ``_graph_section`` of its chart
loop, one in-place Gram-Schmidt pass over its graph frames that forms no n x n matrix.  Both
chain by ``_gauge_chain``.  ``pancharatnam_oracle`` is ``_frame_oracle``, which the CLI runs
on its flow's frames, of the ``_pivoted_section``.
Every RK4 route reads its 2 * steps + 1 stage generators once each, a checked table of B steps
at a time, as B + 1 nodes and B midpoints (``_stage_generators``).  A geometric table is Kato's
[Q', Q] = W - W*, W = Q' Q: of any curve Q(t) with Q' by central differences
(``geometric_schedule``), and exactly, from one stacked ``eigh`` of iX, for a unitary orbit
Q = e^X P e^-X, as both CLI loops are (``_orbit_schedule``).
One kernel, ``_rk4_step``, writes the RK4 tableau.  The frame equation has one integrator,
``_frame_blocks``, which ``integrate_frame`` and ``berry_maps`` share: the kernel's step of I
gives its step maps, and of the frames the stage generators that ``berry_maps`` steps its gauge
maps over.  The projector flow, a reference route, steps by ``_rk4_nodes``.  A
``constant_schedule`` runs by one ``eigh``, in whose basis the kernel steps its eigenvalues.
Stacked products by ``_matmul`` make no per-matrix BLAS call for 1 x 1 and 2 x 2 factors (the
step maps at n = 2, the gauge maps at m <= 2) or for a stack times one matrix (a scan's frames,
the graph frames of a chart loop).  Every stacked product whose left factor is an adjoint (the
Grams, fiber overlaps and stage products) is ``_adjoint_product``: conjugate dots at m <= 2 < n.
The determinants and singular values of the overlaps and chains of ``_frame_oracle`` and
``_section_transport`` are closed forms at m <= 2 (``_small_det``, ``_small_svals``).  Each fiber
projection keeps rank m by one rule, ``_require_rank`` on the squared singular values of its
overlap or projected frame.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateStep, InvalidArgument, NotClosed, PathTooRough
from .bundle import _gram_defect, curvature_generators, frame_defect, require_over
from .grassmann import (BasePoint, Projector, chart_frames, chart_projectors,
                        hamiltonian_value, projector_defect, sampled_derivative)
from .linalg import (DEFAULT_TOLS, Tolerances, _adjoint_product, _matmul, _require_count,
                     _require_rank, _require_square, _require_tall, _small_det, _small_svals,
                     commutator, dag, frob, isometrize, nearest_projector, polar_retract,
                     prefix_products, require_antihermitian, require_finite)

# Proportionality constant between the log-holonomy of a unit parallelogram
# loop and the curvature generator it realizes:
# log(loop_holonomy(synthesize_holonomy_step(w, t))) = C * t^2 * w + O(t^3).
# Measured once on the m=1, n=2 Bloch-sphere case (a chart square of side t
# near the origin subtends solid angle ~4 t^2, giving holonomy phase -2 t^2)
# and asserted for m=2 in the test suite.
SYNTHESIS_CURVATURE_CONSTANT = -2.0

# Step of the central difference that gives Q' in ``geometric_schedule`` (absolute, in
# units of t: it assumes a curve whose time scale is near 1), and the largest projector
# move || P_{k+1} - P_k || that ``geometric_hamiltonian`` accepts.
_FD_STEP = 1e-6
_ROUGH_BOUND = 0.5


def _require_stack(samples: np.ndarray, name: str = "projector samples",
                   square: bool = True) -> np.ndarray:
    """samples, or InvalidArgument unless a nonempty stack: (N, n, n), or without ``square``
    (N, n, m) with 1 <= m <= n."""
    shape = np.shape(samples)
    if len(shape) != 3 or not shape[0] or not (
            shape[1] == shape[2] if square else 1 <= shape[2] <= shape[1]):
        raise InvalidArgument(f"{name} must be a nonempty (N, n, {'n' if square else 'm'}) stack")
    return samples


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [t0, t1] with ``steps`` intervals (steps+1 nodes)."""

    t0: float
    t1: float
    steps: int

    def __post_init__(self):
        _require_count(self.steps, "steps")
        # a step below the smallest float is 0 (the nodes coincide), an overflowing span inf
        if not 0.0 < self.h < np.inf:
            raise InvalidArgument("t1 must exceed t0 by a finite nonzero step")

    @property
    def h(self) -> float:
        return (self.t1 - self.t0) / self.steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(self.t0, self.t1, self.steps + 1)


@dataclass(frozen=True)
class HamiltonianSchedule:
    """Time-dependent anti-Hermitian generator t -> H(t), held as its table.

    ``tabulate`` maps a 1-D array of N times to the (N, n, n) stack of
    generators at those times (it must broadcast over the times); the
    schedule at one time is its table at that one time.
    """

    tabulate: Callable[[np.ndarray], np.ndarray]

    def __call__(self, t: float) -> np.ndarray:
        return self.table(np.array([t]))[0]

    def table(self, times: np.ndarray, n: Optional[int] = None) -> np.ndarray:
        """(N, n, n) stack of H at the 1-D ``times``, maybe a read-only view; or InvalidArgument."""
        times = np.asarray(times, dtype=float)
        hs = np.asarray(self.tabulate(times))
        want = times.shape + 2 * (hs.shape[-1:] if n is None else (n,))
        if hs.shape != want:
            raise InvalidArgument(f"schedule table has shape {hs.shape}, want {want}")
        return hs


@dataclass(frozen=True, eq=False)
class _ConstantTable:
    """The table of ``constant_schedule``: its one matrix at any times, as a zero-stride view."""

    matrix: np.ndarray

    def __call__(self, times: np.ndarray) -> np.ndarray:
        return np.broadcast_to(self.matrix, times.shape + self.matrix.shape)


def constant_schedule(h_mat: np.ndarray) -> HamiltonianSchedule:
    """H(t) = h_mat; InvalidArgument unless a square matrix, NonFinite unless finite."""
    return HamiltonianSchedule(_ConstantTable(_require_square(require_finite(h_mat, "generator"))))


def rotating_schedule(omega: float) -> HamiltonianSchedule:
    """Precession about the z axis of the Bloch sphere at angular speed omega.

    The constant generator -i (omega/2) sigma_z carries a spin-1/2 projector
    at polar angle theta around the latitude circle once per period 2 pi/omega.
    """
    return constant_schedule(-0.5j * omega * np.diag([1.0, -1.0]).astype(complex))


def bloch_matrices(theta: float, azimuths) -> np.ndarray:
    """The 2 x 2 matrix of ``bloch_projector(theta, a)`` for each of ``azimuths``.

    A shape-S array of azimuths gives an S + (2, 2) stack; NonFinite on a non-finite angle.
    """
    require_finite(np.append(theta, azimuths), "Bloch angles")
    phase = np.exp(1j * np.asarray(azimuths, dtype=float))
    v = np.empty(phase.shape + (2, 1), dtype=complex)
    v[..., 0, 0] = np.cos(theta / 2.0)
    v[..., 1, 0] = phase * np.sin(theta / 2.0)
    p = v @ dag(v)
    return (p + dag(p)) / 2.0


def bloch_projector(theta: float, azimuth: float = 0.0) -> Projector:
    """Rank-1 projector onto the spin-up state along (theta, azimuth)."""
    return Projector(matrix=bloch_matrices(theta, azimuth), rank=1)


def sampled_schedule(grid: TimeGrid, values: np.ndarray) -> HamiltonianSchedule:
    """Schedule from per-node samples (N, n, n), linearly interpolated in between."""
    values = _require_stack(require_finite(values, "schedule samples"), "schedule samples")
    if len(values) != grid.steps + 1:
        raise InvalidArgument("need one sample per grid node")
    t0, h = grid.t0, grid.h

    def table(times: np.ndarray) -> np.ndarray:
        s = (times - t0) / h
        k = np.clip(np.floor(s), 0, grid.steps - 1).astype(int)
        w = np.clip(s - k, 0.0, 1.0)[:, np.newaxis, np.newaxis]
        return (1.0 - w) * values[k] + w * values[k + 1]

    return HamiltonianSchedule(table)


def _geometric_generator(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Kato's generator [V, Q] = W - W*, W = V Q, V the Hermitian part of v: exactly anti-Hermitian.

    [[V, Q], Q] = Q V (1 - Q) + (1 - Q) V Q moves the projector Q along v horizontally (Kato,
    J. Phys. Soc. Jpn. 5, 435 (1950)).  q and v may be stacks (..., n, n).
    """
    w = (v + dag(v)) / 2.0 @ q
    return w - dag(w)


def geometric_schedule(qfun: Callable[[np.ndarray], np.ndarray]) -> HamiltonianSchedule:
    """Geometric schedule H(t) = [Q', Q] (``_geometric_generator``) for a smooth projector curve.

    ``qfun`` maps a 1-D array of N times to the (N, n, n) stack of projector
    matrices (it must broadcast over the times); its derivative is taken by
    central differences with the absolute step _FD_STEP = 1e-6, so the curve's
    time scale should be near 1 (a loop run over [0, 1e-3] or [0, 1e4] no longer
    closes to tolerance).  The returned generator is purely off-diagonal in the
    moving splitting im(Q) + ker(Q), so the lifted flow is horizontal.  A unitary
    orbit has an exact, scale-free generator: ``_orbit_schedule``.
    """

    def table(times: np.ndarray) -> np.ndarray:
        q = qfun(times)
        if q.shape[:-2] != times.shape:
            raise InvalidArgument("qfun must map N times to an (N, n, n) stack")
        v = (qfun(times + _FD_STEP) - qfun(times - _FD_STEP)) / (2.0 * _FD_STEP)
        return _geometric_generator(q, v)

    return HamiltonianSchedule(table)


def _scale_rows_cols(a: np.ndarray, d: np.ndarray) -> None:
    """a_jk *= d_j conj(d_k) in place, for a stack a (..., n, n) and unimodular d (..., n)."""
    a *= d[..., :, np.newaxis]
    a *= d.conj()[..., np.newaxis, :]


def _orbit_schedule(p: np.ndarray, exponent: Callable[[np.ndarray], tuple],
                    tol: Tolerances = DEFAULT_TOLS) -> HamiltonianSchedule:
    """``geometric_schedule`` of the orbit Q(t) = U P U*, U = e^{X(t)}, with Q' exact, not differenced.

    ``exponent`` maps a 1-D array of N times to the (N, n, n) stacks X and X' (X' may
    broadcast).  Q' = [Omega, Q] with Omega = U' U* = dexp_X(X'), so the generator is
    H = Q Omega (1 - Q) + (1 - Q) Omega Q.  In the eigenbasis of iX = V diag(lam) V*,
    U is diag(e^{-i lam}) and U* Omega U is Phi o (V* X' V), with the divided differences
    Phi_jk = e^{i theta/2} sinc(theta / 2 pi) of the exponential, theta = lam_j - lam_k
    (Daleckii-Krein: Higham, Functions of Matrices, SIAM 2008, Thm 3.11; dexp: Iserles,
    Munthe-Kaas, Norsett & Zanna, Acta Numerica 9, 2000), finite at theta = 0.  So
    H = B - B* with B = V (e^{-i theta} o A) V*, A = P_V (Phi o V* X' V)(1 - P_V) and
    P_V = V* P V: one stacked ``eigh`` a table.  X is checked by ``require_antihermitian``
    under ``tol``.
    """

    def table(times: np.ndarray) -> np.ndarray:
        x, dx = exponent(times)
        lam, v = np.linalg.eigh(1j * require_antihermitian(x, tol, "orbit exponent"))
        del x
        turn = np.exp(0.5j * lam)  # e^{i theta_jk / 2} = turn_j / turn_k
        vh = dag(v)
        a = _adjoint_product(v, dx) @ v
        del dx
        a *= np.sinc((lam[..., :, np.newaxis] - lam[..., np.newaxis, :]) / (2.0 * np.pi))
        _scale_rows_cols(a, turn)
        p_v = _adjoint_product(v, p) @ v
        a = p_v @ a
        a -= a @ p_v
        del p_v
        _scale_rows_cols(a, turn.conj() ** 2)
        a = v @ a @ vh
        a -= dag(a)
        return a

    return HamiltonianSchedule(table)


@dataclass(frozen=True)
class ProjectorPath:
    """Sampled solution of P' = [H, P] (or any sampled projector curve)."""

    grid: TimeGrid
    samples: np.ndarray          # (steps+1, n, n)
    rank: int

    @property
    def n(self) -> int:
        return self.samples.shape[1]

    def projector_defects(self) -> np.ndarray:
        """Per-node projector_defect of the stored samples."""
        return projector_defect(self.samples, self.rank)

    def node_defect(self) -> float:
        """Worst projector-invariant violation over the stored nodes."""
        return float(self.projector_defects().max())

    def closure_residual(self) -> float:
        """|| P(T) - P(0) ||; InvalidArgument unless the samples are a nonempty (N, n, n) stack."""
        return frob(_require_stack(self.samples)[-1] - self.samples[0])


@dataclass(frozen=True)
class FramePath:
    """Sampled frame curve (Schroedinger or horizontal transport)."""

    grid: TimeGrid
    samples: np.ndarray          # (steps+1, n, m)

    def frame_defects(self) -> np.ndarray:
        """Per-node frame_defect: || phi_k* phi_k - I ||."""
        return frame_defect(self.samples)

    def projector_defects(self) -> np.ndarray:
        """Per-node projector_defect of phi_k phi_k*, from the Gram matrices alone."""
        return self._gram_defects()[1]

    def _gram_defects(self):
        """``frame_defects()`` and ``projector_defects()`` from one Gram G_k = phi_k* phi_k each.

        The Grams are one ``_adjoint_product``.  phi phi* is Hermitian by construction, and
        (phi phi*)^2 - phi phi* = phi (G - I) phi*, whose squared norm is
        tr((G - I) G (G - I) G) = || (G - I) G ||^2, as (G - I) G is Hermitian;
        tr(phi phi*) = tr G.  No n x n matrix is formed.
        """
        grams = _adjoint_product(self.samples, self.samples)
        m = grams.shape[-1]
        idem = np.linalg.norm(_matmul(grams - np.eye(m), grams), axis=(1, 2))
        trace = np.trace(grams, axis1=1, axis2=2) - m
        return _gram_defect(grams), np.maximum(idem, np.abs(trace))

    def node_defect(self) -> float:
        return float(self.frame_defects().max())

    def closure_residual(self) -> float:
        """|| phi_N phi_N* - phi_0 phi_0* ||; InvalidArgument unless a nonempty (N, n, m) stack."""
        first, last = _require_stack(self.samples, "frame samples", square=False)[[0, -1]]
        return frob(last @ dag(last) - first @ dag(first))


def closure_tolerance(rank: int, tol: Tolerances = DEFAULT_TOLS) -> float:
    """Largest || P(T) - P(0) || at which a rank-``rank`` projector path counts as closed."""
    return tol.comparison * (1.0 + rank)


def _require_closed(residual: float, rank: int, tol: Tolerances) -> None:
    """NotClosed unless a loop's closure residual is within ``closure_tolerance``."""
    if residual > closure_tolerance(rank, tol):
        raise NotClosed(f"loop closure residual {residual:.3e}")


def _rk4_step(f, y, h, g1, g2, g3, g4, stages=None):
    """One classical RK4 step of y' = f(G, y) from the generators G_i of its four stages.

    Stage i has the state s_i = y + a_i h k_{i-1} (s_1 = y), the slope k_i = f(G_i, s_i) and the
    weight b_i of y + (h/6) sum b_i k_i (Kutta 1901; Hairer & Wanner, Solving ODEs II, IV.2).
    ``stages``, if given, receives each c_i = s_i* k_i as its slope forms.  y and the G_i may be
    stacks; for f(G, y) = G y, the step of y = I is the stack of step maps.
    """
    k, total = None, 0.0
    for i, (g, a, b) in enumerate(((g1, 0.0, 1.0), (g2, 0.5, 2.0), (g3, 0.5, 2.0), (g4, 1.0, 1.0))):
        s = y if k is None else y + (a * h) * k
        k = f(g, s)
        if stages is not None:
            stages[i] = _adjoint_product(s, k)
        total = total + b * k
    return y + (h / 6.0) * total


def _rk4_nodes(schedule, rhs, y, grid: TimeGrid, retract, tol: Tolerances):
    """y at each grid node of y' = rhs(H(t), y) by RK4, ``retract`` applied after every step.

    Steps over the tables of ``_stage_generators``; the first is checked before the start
    node is yielded.
    """
    tables = _stage_generators(schedule, grid, y.shape[0], tol)
    first = next(tables)
    yield y
    for nodes, mids in itertools.chain([first], tables):
        for stage in zip(nodes[:-1], mids, mids, nodes[1:]):
            y = retract(_rk4_step(rhs, y, grid.h, *stage))
            yield y


def _retract_projector(p, rank: int, tol: Tolerances):
    """p, or the nearest rank-``rank`` projector unless its defect is within ``tol.ode``.

    A NaN defect is not, so a non-finite p raises NonFinite.
    """
    if projector_defect(p, rank) <= tol.ode:
        return p
    return nearest_projector((p + dag(p)) / 2.0, rank, tol)


def integrate_frame(schedule: HamiltonianSchedule, phi0: np.ndarray,
                    grid: TimeGrid, tol: Tolerances = DEFAULT_TOLS) -> FramePath:
    """phi' = H(t) phi from a tall (or square) phi0 by ``_frame_blocks``, isometrized on demand."""
    phi0 = _require_tall(require_finite(phi0, "initial frame"))
    frames = np.empty((grid.steps + 1,) + phi0.shape, dtype=complex)
    frames[0] = phi0
    for _ in _frame_blocks(schedule, frames, grid, tol):
        pass
    return FramePath(grid, frames)


def integrate_projector(schedule: HamiltonianSchedule, p0: Projector, grid: TimeGrid,
                        tol: Tolerances = DEFAULT_TOLS) -> ProjectorPath:
    """Integrate P' = [H(t), P] with per-step spectral retraction on demand (a reference route)."""
    p = require_finite(p0.matrix, "initial projector")
    nodes = _rk4_nodes(schedule, commutator, p, grid,
                       lambda y: _retract_projector(y, p0.rank, tol), tol)
    samples = np.fromiter(nodes, np.dtype((complex, p.shape)), grid.steps + 1)
    return ProjectorPath(grid=grid, samples=samples, rank=p0.rank)


def horizontal_transport(path: ProjectorPath, sigma: np.ndarray,
                         tol: Tolerances = DEFAULT_TOLS) -> FramePath:
    """Parallel transport of a start frame along a sampled projector path: psi' = P' psi.

    The discrete (Pancharatnam) connection psi_{k+1} = polar(P_{k+1} psi_k), of order 2,
    on any path of 2 samples or more: ``_section_transport`` of the ``_pivoted_section``
    (its errors too).  Along a Hamiltonian flow the 4th-order transport is
    ``berry_maps(...).horizontal_path``.  InvalidArgument unless sigma has ``path.rank`` columns.
    """
    sigma = require_over(sigma, _require_stack(path.samples)[0], tol, "the path start")
    if sigma.shape[1] != path.rank:
        raise InvalidArgument(f"sigma has {sigma.shape[1]} columns, not the path rank {path.rank}")
    return FramePath(path.grid, _section_transport(_pivoted_section(path.samples, sigma, tol), tol))


def horizontality_defects(frames: FramePath) -> np.ndarray:
    """Per-node || psi_k* psi_k' || with the derivative by finite differences.

    Uses 4th-order stencils so the measurement error stays well below the
    transported curve's own vertical drift; the products psi_k* psi_k' are one
    ``_adjoint_product``.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # roundoff over a tiny h: inf or NaN
        derivs = sampled_derivative(frames.samples, frames.grid.h, 4)
        return np.linalg.norm(_adjoint_product(frames.samples, derivs), axis=(1, 2))


def horizontality_defect(frames: FramePath) -> float:
    """max_k || psi_k* psi_k' ||, see ``horizontality_defects``."""
    return float(horizontality_defects(frames).max())


def tracking_defect(path: ProjectorPath, frames: FramePath) -> float:
    """max_k || psi_k psi_k* - P_k ||; InvalidArgument unless both paths have the same nodes."""
    psi = frames.samples
    if len(psi) != len(path.samples):
        raise InvalidArgument("the frame and projector paths differ in length")
    return float(np.linalg.norm(psi @ dag(psi) - path.samples, axis=(1, 2)).max())


@dataclass(frozen=True)
class HolonomyResult:
    """Dynamical vs. geometric fiber maps of one Hamiltonian run, with per-node audits."""

    dynamical: np.ndarray        # sigma* phi(T)
    geometric: np.ndarray        # sigma* psi(T)
    fiber_gap: np.ndarray        # psi(T)* phi(T)
    closed: bool
    closure_residual: float
    projector_defects: np.ndarray = field(repr=False)      # of phi_k phi_k*
    isometry_defects: np.ndarray = field(repr=False)       # worse of phi_k and psi_k
    horizontality_defects: np.ndarray = field(repr=False)  # of psi_k
    energies: np.ndarray = field(repr=False, default=None)  # -i tr(phi_k* H(t_k) phi_k)
    frame_path: FramePath = field(repr=False, default=None)
    horizontal_path: FramePath = field(repr=False, default=None)

    @property
    def projector_defect(self) -> float:
        return float(self.projector_defects.max())

    @property
    def isometry_defect(self) -> float:
        return float(self.isometry_defects.max())

    @property
    def horizontality_defect(self) -> float:
        return float(self.horizontality_defects.max())


# Bytes of one generator table read by an RK4 route (a geometric table holds several stacks
# this size at once).  A ``_frame_blocks`` block is the steps of one table, so a stack of its
# n x n RK4 step maps takes half a table (a constant schedule's run is the steps whose (m, m, n)
# stage products take one): peak memory stays fixed however many steps a run takes.  The
# sampled transport runs in blocks too (``_transport_block``), as its temporaries over a whole
# path would set the peak memory of a long ``synthesize`` run.
_TABLE_BYTES = 1 << 22

# Largest n at which ``_frame_blocks`` chains stacked n x n RK4 step maps by
# ``prefix_products``; above it the per-step loop, O(n^2 m) a step, is faster.
_SCAN_MAX_N = 16


def _stage_generators(schedule: HamiltonianSchedule, grid: TimeGrid, n: int, tol: Tolerances):
    """Each table of H at the RK4 stage times t0 + (h/2) j as (nodes, mids) of B steps.

    Stage 2k is the node t_k and stage 2k + 1 its midpoint t_k + h/2, and the 2 * steps + 1
    stage times are read once each, a table at a time: the B + 1 nodes (the last ends the steps)
    and B midpoints of B steps, at most _TABLE_BYTES but one step at least.  Each table is read,
    and checked to be an (N, n, n) stack, finite and anti-Hermitian, before the steps of the one
    before are yielded: a ``constant_schedule`` by its one matrix once, any other in full.
    """
    times = grid.t0 + (grid.h / 2.0) * np.arange(2 * grid.steps + 1)
    constant = isinstance(schedule.tabulate, _ConstantTable)
    chunk = 2 * max(1, _TABLE_BYTES // (32 * n * n))
    for start in range(0, len(times), chunk):
        table = schedule.table(times[start:start + chunk], n)
        if not (constant and start):
            require_antihermitian(table[:1] if constant else table, tol, "generator")
        if start:  # the table before ends at this one's first node
            yield np.concatenate([hs[0::2], table[:1]]), hs[1::2]
        hs = table
    if len(hs) > 1:
        yield hs[0::2], hs[1::2]


def _transport_block(n: int) -> int:
    """Nodes of a ``_section_transport`` block, _TABLE_BYTES / (64 n^2): see _TABLE_BYTES."""
    return max(1, _TABLE_BYTES // (4 * 16 * n * n))


@np.errstate(divide="ignore", invalid="ignore", over="ignore")  # a bad sample fails the check
def _pivoted_section(samples: np.ndarray, sigma: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Orthonormal frames phi_k of im(P_k), phi_0 = sigma, by a diagonally pivoted Cholesky.

    Each of the m steps, over all samples at once, pivots on the largest diagonal entry d of
    the residual R_i = P_k - l_1 l_1* - ... - l_i l_i* (d >= (m - i)/n for a projector) and
    takes l_{i+1} = R_i e_p / sqrt(d), reading only the pivot columns; F = [l_1 ... l_m] is
    orthonormal if P_k = F F* is idempotent.  The check both routes rest on, O(n^2 m) a
    sample, within comparison * n: phi_k is a frame, P_k phi_{k-1} = phi_k phi_k* phi_{k-1}
    (phi_{-1} = sigma) and sum |diag R_m| = 0; else InvalidArgument (NonFinite if not finite).
    """
    (n, m), rows = sigma.shape, np.arange(len(samples))
    frames = np.empty(rows.shape + sigma.shape, dtype=complex)
    residual = np.diagonal(samples, axis1=1, axis2=2).real.astype(float)
    for i in range(m):
        pivot = residual.argmax(axis=1)
        column = samples[rows, :, pivot]
        for j in range(i):
            column = column - frames[..., j] * frames[rows, pivot, j, np.newaxis].conj()
        frames[..., i] = column / np.sqrt(residual[rows, pivot])[:, np.newaxis]
        residual -= np.abs(frames[..., i]) ** 2
    frames[0] = sigma
    previous = np.concatenate([sigma[np.newaxis], frames[:-1]])
    moved = _matmul(samples, previous) - _matmul(frames, _adjoint_product(frames, previous))
    defects = [frame_defect(frames), np.linalg.norm(moved, axis=(1, 2)), np.abs(residual).sum(1)]
    kept = np.maximum.reduce(defects) <= tol.comparison * n  # NaN fails it
    if not kept.all():
        k = int(kept.argmin())
        require_finite(samples[k], "projector samples")
        raise InvalidArgument(f"projector sample {k} is not a rank-{m} orthogonal projector")
    return frames


def _graph_section(base: BasePoint, blocks: np.ndarray) -> np.ndarray:
    """Oriented QR factors phi_k of the ``chart_frames`` Y_k = frame + coframe f_k of blocks f_k.

    One modified Gram-Schmidt pass in place over the Y_k: column by column, each loses its
    components along the columns before it and is divided by its norm, so phi_k equals
    ``isometrize(Y_k)`` to roundoff and no n x n matrix is formed.  NonFinite if a norm
    overflows.
    """
    frames = chart_frames(base, blocks)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported as NonFinite
        for j in range(frames.shape[-1]):
            column = frames[..., j]
            for i in range(j):
                done = frames[..., i]
                column -= done * np.vecdot(done, column)[..., np.newaxis]
            norm = np.linalg.norm(column, axis=-1, keepdims=True)
            require_finite(norm, "loop frame norm")
            column /= norm
    return frames


def _section_transport(frames: np.ndarray, tol: Tolerances) -> np.ndarray:
    """The transport psi_k = phi_k g_k of phi_0 along an orthonormal section phi, in place.

    The discrete (Pancharatnam) connection psi_{k+1} = polar(P_{k+1} psi_k) of the path
    P_k = phi_k phi_k*, whichever section of it is given: the ``_gauge_chain`` g of the
    fiber overlaps O_k = phi_{k+1}* phi_k after one Newton-Schulz step (the same polar
    factor, an O(h^4) defect: no SVD), applied block by block (``_transport_block``).  The
    overlaps and the Grams O_k* O_k of the step are ``_adjoint_product``s.
    DegenerateStep unless each phi_k* P_{k+1} phi_k = O_k* O_k keeps rank m by
    ``_require_rank`` on the squared singular values of O_k; NonFinite if an O_k is not finite.
    """
    steps, (n, m) = len(frames) - 1, frames.shape[1:]
    block, eye = _transport_block(n), np.eye(m)
    maps = np.empty((steps, m, m), dtype=complex)
    for start in range(0, steps, block):
        stop = min(start + block, steps)
        overlaps = require_finite(_adjoint_product(frames[start + 1:stop + 1], frames[start:stop]),
                                  "overlap")
        _require_rank(_small_svals(overlaps) ** 2, tol, DegenerateStep)
        maps[start:stop] = _matmul(overlaps, 1.5 * eye - 0.5 * _adjoint_product(overlaps, overlaps))
    gauges = _gauge_chain(maps, tol)
    for start in range(0, steps + 1, block):
        frames[start:start + block] = _matmul(frames[start:start + block],
                                              gauges[start:start + block])
    return frames


def _scan_frames(run, frames: np.ndarray, tol: Tolerances, cap: int) -> None:
    """Fill frames[1:] from frames[0] in runs of at most ``cap`` steps, retracted as a step loop.

    ``run(j, k, count)`` gives the frames of nodes k + 1, ..., k + count (fewer at the end) from
    node k, unretracted since node j.  The first frame of a run not within ``tol.ode`` (NaN
    included: ``isometrize`` raises) is isometrized and the next run starts from it, over twice
    the steps of the run before: a grid that retracts at every step costs O(N) work, not O(N^2).
    """
    anchor, start, size = 0, 0, cap
    while start < len(frames) - 1:
        ahead = run(anchor, start, size)
        kept = frame_defect(ahead) <= tol.ode
        cut = len(ahead) if kept.all() else int(kept.argmin())
        frames[start + 1:start + cut + 1] = ahead[:cut]
        if cut < len(ahead):
            cut += 1
            frames[start + cut] = isometrize(ahead[cut - 1], tol)
            anchor = start + cut
        start, size = start + cut, min(2 * cut, cap)


def _eigen_frames(matrix: np.ndarray, phis: np.ndarray, grid: TimeGrid, tol: Tolerances,
                  stages: bool):
    """``_frame_blocks`` of a constant H, in the eigenbasis iS = V diag(lam) V* of S = (H - H*)/2.

    There an RK4 step from phi = V u is diagonal: ``_rk4_step`` on the eigenvalues mu = -i lam,
    from 1, has the stage states q_i(h mu) and ends at the stability polynomial p(h mu) of RK4,
    and its stages give the weights mu |q_i|^2.  So phi_k = V (p^(k-j) o V* phi_j) from the last
    node j retracted, one product with V a ``_scan_frames`` run, and the stage generators
    s_i* S s_i are c_i = u_k* (mu |q_i|^2 o u_k), u_k = V* phi_k: O(n m^2) a step.  A run's
    (m, m, n) stage products take at most _TABLE_BYTES.  H is checked once, before the ``eigh``.
    """
    require_antihermitian(matrix, tol, "generator")
    steps, (n, m) = len(phis) - 1, phis.shape[1:]
    out = np.empty((4, steps, m, m), dtype=complex) if stages else None
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite frame raises instead
        lam, v = np.linalg.eigh(1j * (matrix / 2.0 - dag(matrix) / 2.0))  # halved: no overflow
        mu, weights = (-1j * lam)[:, np.newaxis, np.newaxis], [None] * 4
        log_step = np.log(_rk4_step(_matmul, np.ones((n, 1, 1)), grid.h, mu, mu, mu, mu,
                                    weights)).ravel()
        weights = np.concatenate(weights, axis=-1)[:, 0]  # (n, 4): mu |q_i|^2

        def run(j, k, count):  # from the rows u_k^T of nodes k, ..., k + count
            powers = np.arange(k - j, min(k + count, steps) - j + 1)[:, np.newaxis, np.newaxis]
            rows = np.exp(powers * log_step) * (phis[j].T @ v.conj())  # C order: no copies
            if stages:
                pairs = rows[:-1, :, np.newaxis].conj() * rows[:-1, np.newaxis]
                out[:, k:k + len(pairs)] = np.moveaxis(_matmul(pairs, weights), -1, 0)
            return _matmul(rows[1:], v.T).swapaxes(-1, -2)

        _scan_frames(run, phis, tol, max(1, _TABLE_BYTES // (16 * n * m * m)))
    yield slice(0, steps), matrix[np.newaxis], out


def _frame_blocks(schedule: HamiltonianSchedule, phis: np.ndarray, grid: TimeGrid,
                  tol: Tolerances, stages: bool = False):
    """Fill phis[1:] with the RK4 frames of phi' = H(t) phi from phis[0], a table at a time.

    A ``constant_schedule`` takes ``_eigen_frames`` of its checked (1, n, n) table at t0, any
    other the tables of ``_stage_generators``.
    An RK4 step of the linear equation is an n x n matrix R_k, the ``_rk4_step`` of I.  Up to
    _SCAN_MAX_N a table's R_k, one stacked call, are chained by ``_scan_frames``; above it a
    per-step call on phi, O(n^2 m), isometrizes phi where its frame defect is not within
    ``tol.ode``.  Yields each table's steps (a slice), the (1, n, n) node ending them and, only
    if ``stages``, their (4, B, m, m) stage generators c_i = s_i* H s_i, recorded by the kernel.
    """
    if isinstance(schedule.tabulate, _ConstantTable):
        yield from _eigen_frames(schedule.table(np.array([grid.t0]), phis.shape[1])[0], phis,
                                 grid, tol, stages)
        return
    (n, m), h, start = phis.shape[1:], grid.h, 0
    for nodes, mids in _stage_generators(schedule, grid, n, tol):
        block = slice(start, start + len(mids))
        out = np.empty((4, len(mids), m, m), complex) if stages else None
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite frame raises instead
            if n <= _SCAN_MAX_N:
                step_maps = _rk4_step(_matmul, np.eye(n), h, nodes[:-1], mids, mids, nodes[1:])
                frames = phis[start:block.stop + 1]
                _scan_frames(lambda j, k, count: _matmul(prefix_products(step_maps[k:k + count]),
                                                         frames[k]), frames, tol, len(step_maps))
                if stages:
                    _rk4_step(_matmul, phis[block], h, nodes[:-1], mids, mids, nodes[1:], out)
            else:
                for k, stage in enumerate(zip(nodes[:-1], mids, mids, nodes[1:])):
                    phi = _rk4_step(_matmul, phis[start + k], h, *stage,
                                    out[:, k] if stages else None)
                    kept = frame_defect(phi) <= tol.ode
                    phis[start + k + 1] = phi if kept else isometrize(phi, tol)
        yield block, nodes[-1:], out
        start = block.stop


def _gauge_chain(maps: np.ndarray, tol: Tolerances) -> np.ndarray:
    """g_0 = I and g_{k+1} = N(maps[k]) g_k: the maps retracted onto U(m), chained, retracted.

    Two stacked ``polar_retract`` calls around ``prefix_products``; as the Newton-Schulz
    step N satisfies N(L g) = N(L) g for unitary g, this retracts g after every step.
    """
    chain = polar_retract(prefix_products(polar_retract(maps, tol)), tol)
    return np.concatenate([np.eye(maps.shape[-1])[np.newaxis], chain])


def berry_maps(schedule: HamiltonianSchedule, p0: Projector, sigma: np.ndarray,
               grid: TimeGrid, tol: Tolerances = DEFAULT_TOLS) -> HolonomyResult:
    """Dynamical and geometric fiber maps of a Hamiltonian run, from stacked RK4 step maps.

    The Schroedinger frame phi' = H phi, phi(0) = sigma, is the local section:
    split as phi = psi g* with the m x m gauge factor g' = -(phi* H phi) g,
    g(0) = I, psi = phi g solves psi' = (1 - phi phi*) H psi, the horizontal
    transport of sigma along P = phi phi*.  This is the Aharonov-Anandan
    split of the evolution into a dynamical and a geometric part (PRL 58,
    1593 (1987); non-abelian form: Anandan, Phys. Lett. A 133, 171 (1988)).
    The frames phi are those of ``integrate_frame`` (``_frame_blocks``); the gauge
    equation is linear too, so an RK4 step is an m x m matrix, g_{k+1} = L_k g_k: the
    ``_rk4_step`` of I, with step -h, over the stage generators c_i that ``_frame_blocks``
    gives each block, chained by ``_gauge_chain``.  A grid of fewer than 2 steps raises
    InvalidArgument before any table is read.

    Returns ``dynamical = sigma* phi(T)``, ``geometric = sigma* psi(T)`` and
    ``fiber_gap = psi(T)* phi(T) = g(T)*``.  When the projector path closes
    (|| phi(T) phi(T)* - sigma sigma* || within ``closure_tolerance``) the
    first two are the U(m) holonomies of the loop; the fiber gap is always a
    gauge element and measures the accumulated vertical drift.  The node
    energies -i tr(phi_k* H(t_k) phi_k) are ``hamiltonian_value`` of the node generators
    the gauge maps already form (the first RK4 stage): each table of H was checked
    anti-Hermitian by ``require_antihermitian`` before a step used it, and ``structural``
    enters no further test of the energies.  The per-node audits (projector defect of
    phi phi*, the worse isometry defect of phi and psi, horizontality defect
    of psi) are computed here, once.
    """
    sigma = require_over(sigma, p0.matrix, tol, "P0")
    if grid.steps < 2:
        raise InvalidArgument("berry_maps needs at least 3 samples (2 steps) for its audits")
    n, m = sigma.shape
    h, steps = grid.h, grid.steps
    phis = np.empty((steps + 1, n, m), dtype=complex)
    gens = np.empty((steps + 1, m, m), dtype=complex)  # phi_k* H(t_k) phi_k
    maps = np.empty((steps, m, m), dtype=complex)
    phis[0] = sigma
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite frame raises instead
        for block, end, (c1, c2, c3, c4) in _frame_blocks(schedule, phis, grid, tol, True):
            gens[block], maps[block] = c1, _rk4_step(_matmul, np.eye(m), -h, c1, c2, c3, c4)
    # the last node's generator phi* H phi, H the node ending the last table
    gens[steps] = _adjoint_product(phis[-1], _matmul(end[0], phis[-1]))

    fpath = FramePath(grid=grid, samples=phis)
    hpath = FramePath(grid=grid, samples=_matmul(phis, _gauge_chain(maps, tol)))
    phi_end, psi_end = fpath.samples[-1], hpath.samples[-1]
    residual = fpath.closure_residual()
    frame_defects, projector_defects = fpath._gram_defects()
    return HolonomyResult(
        dynamical=dag(sigma) @ phi_end,
        geometric=dag(sigma) @ psi_end,
        fiber_gap=dag(psi_end) @ phi_end,
        closed=residual <= closure_tolerance(p0.rank, tol),
        closure_residual=residual,
        projector_defects=projector_defects,
        isometry_defects=np.maximum(frame_defects, hpath.frame_defects()),
        horizontality_defects=horizontality_defects(hpath),
        energies=hamiltonian_value(gens),
        frame_path=fpath,
        horizontal_path=hpath,
    )


def geometric_hamiltonian(path: ProjectorPath,
                          tol: Tolerances = DEFAULT_TOLS) -> HamiltonianSchedule:
    """The off-diagonal schedule driving a sampled projector curve horizontally.

    H(t_k) = [Q'(t_k), Q(t_k)] (``_geometric_generator``) with Q' by central differences;
    between nodes the samples are interpolated linearly.  Raises PathTooRough when a
    single step moves the projector further than _ROUGH_BOUND (derivative
    estimates would be meaningless); InvalidArgument unless the samples are an (N, n, n) stack.
    """
    steps = np.linalg.norm(np.diff(_require_stack(path.samples), axis=0), axis=(1, 2))
    if steps.size and float(steps.max()) > _ROUGH_BOUND:
        raise PathTooRough("consecutive projector samples are too far apart")
    derivs = sampled_derivative(path.samples, path.grid.h, 2)
    return sampled_schedule(path.grid, _geometric_generator(path.samples, derivs))


def loop_holonomy(path: ProjectorPath, sigma: np.ndarray,
                  tol: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """U(m) holonomy of a closed projector loop: psi(0)* psi(T) after transport.

    The loop is checked closed (NotClosed) before ``horizontal_transport`` runs.
    """
    _require_closed(path.closure_residual(), path.rank, tol)
    frames = horizontal_transport(path, sigma, tol).samples
    return dag(frames[0]) @ frames[-1]


def pancharatnam_oracle(samples: np.ndarray, sigma: np.ndarray,
                        tol: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Discrete holonomy oracle: the unitary polar factor of sigma* P_{N-1} ... P_1 sigma.

    The product is phi_{N-1} O_{N-1} ... O_1, O_k = phi_k* phi_{k-1}, for orthonormal frames
    phi_k of im(P_k), phi_0 = sigma (Samuel & Bhandari, PRL 60, 2339 (1988)), so this is
    ``_frame_oracle`` of the ``_pivoted_section``, with their errors; NotClosed unless the loop
    closes at the rank of sigma.  It converges to ``loop_holonomy`` at second order, at m >= 2
    too: the product is the holonomy times a positive contraction, which its polar factor drops.
    """
    samples = _require_stack(require_finite(samples, "loop samples"))
    sigma = require_over(sigma, samples[0], tol, "the first sample")
    _require_closed(frob(samples[-1] - samples[0]), sigma.shape[1], tol)
    return _frame_oracle(_pivoted_section(samples, sigma, tol), tol)


def _frame_oracle(frames: np.ndarray, tol: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """The Pancharatnam oracle of the loop P_k = phi_k phi_k* (closure is the caller's check).

    P_k ... P_1 phi_0 = phi_k C_k, C_k = O_k ... O_1 for the overlaps O_k = phi_k* phi_{k-1}
    (one ``_adjoint_product``), chained by ``prefix_products`` at |det O_k| = 1, which keeps C
    finite while its rank holds.  Step k checks the projected frame O_k C_{k-1} / s_max(C_{k-1})
    by the rank rule.  Returns the ``polar_retract`` of phi_0* phi_N C_N / s_max(C_N).
    """
    overlaps = _adjoint_product(frames[1:], frames[:-1])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # only once rank is lost
        scales = np.abs(_small_det(overlaps)) ** (1.0 / overlaps.shape[-1])  # |det O_k|^(1/m)
        chains = prefix_products(overlaps / scales[:, np.newaxis, np.newaxis])
    if not np.isfinite(chains).all():
        raise DegenerateStep("projection collapsed the frame rank")
    chain_svals = _small_svals(chains)
    steps = scales / np.append(1.0, chain_svals[:-1, 0])
    _require_rank((chain_svals * steps[:, np.newaxis]) ** 2, tol, DegenerateStep)
    end = chains[-1] / chain_svals[-1, 0] if len(chains) else np.eye(frames.shape[-1])
    return polar_retract(dag(frames[0]) @ frames[-1] @ end, tol)


def synthesize_holonomy_step(w: np.ndarray, scale: float, base: BasePoint,
                             samples_per_side: int = 64,
                             tol: Tolerances = DEFAULT_TOLS) -> ProjectorPath:
    """Closed parallelogram loops realizing exp(C t^2 w) holonomy to first order.

    For each curvature generator pair (u_i, v_i) the chart coordinates trace
    the square 0 -> t u_i -> t (u_i + v_i) -> t v_i -> 0; the loops are
    concatenated.  The holonomy of the result is
    exp(SYNTHESIS_CURVATURE_CONSTANT * t^2 * w) + O(t^3).  ``w`` is an m x m
    anti-Hermitian matrix for the rank m of ``base``; ``samples_per_side`` is a
    positive integer.
    """
    if np.shape(w) != (base.m, base.m):
        raise InvalidArgument(f"w has shape {np.shape(w)}, want {(base.m, base.m)}")
    blocks = _parallelogram_loop(curvature_generators(w, base.n, tol), scale, base,
                                 samples_per_side)
    return ProjectorPath(grid=TimeGrid(0.0, 1.0, len(blocks) - 1),
                         samples=chart_projectors(base, blocks), rank=base.m)


def _parallelogram_loop(pairs, scale: float, base: BasePoint,
                        samples_per_side: int) -> np.ndarray:
    """The (N, n-m, m) chart blocks of the loop of ``synthesize_holonomy_step`` for given pairs."""
    if not 0.0 <= scale <= 0.5:
        raise InvalidArgument("scale must lie in [0, 0.5]")
    _require_count(samples_per_side, "samples_per_side")
    m = base.m
    zero = np.zeros((base.n - m, m), dtype=complex)
    if not pairs or scale == 0.0:
        return np.repeat(zero[np.newaxis], 3, axis=0)

    waypoints = []
    for u, v in pairs:
        bu, bv = scale * u[m:, :], scale * v[m:, :]
        waypoints.extend([(zero, bu), (bu, bu + bv), (bu + bv, bv), (bv, zero)])

    s = np.arange(samples_per_side) / samples_per_side
    # quintic ease: velocity and acceleration vanish at the corners,
    # so the concatenated traversal is C^2 in time (same loop in space)
    s = (s * s * s * (10.0 - 15.0 * s + 6.0 * s * s))[:, np.newaxis, np.newaxis]
    blocks = np.empty((len(waypoints) * samples_per_side + 1,) + zero.shape, dtype=complex)
    for i, (start, end) in enumerate(waypoints):
        blocks[i * samples_per_side:(i + 1) * samples_per_side] = (1.0 - s) * start + s * end
    blocks[-1] = zero
    return blocks
