"""Hamiltonian flows on the Grassmannian and its frame bundle.

Integrates the frame equation phi' = H(t) phi and the projector equation
P' = [H(t), P] with a classical 4th-order one-step method plus per-step
retraction back onto the constraint set (oriented QR for frames, spectral
projection for projectors).  On top of the flows: horizontal transport,
the dynamical vs. geometric Berry maps (one frame-first loop that splits the
Schroedinger frame into a horizontal frame and a gauge factor), purely
off-diagonal ("geometric") schedules driving a prescribed projector curve,
loop holonomy with a discrete projector-product oracle, and first-order
holonomy synthesis from curvature generators.

Every RK4 route reads its 2 * steps + 1 stage generators once each from checked
schedule tables (``_stage_generators``) and takes each step by ``_rk4_step``; the
reference routes step by ``_rk4_nodes``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateStep, NotClosed, PathTooRough
from .bundle import curvature_generators, frame_defect, require_over
from .grassmann import (BasePoint, Projector, chart_projectors, hamiltonian_value,
                        projector_defect, sampled_derivative)
from .linalg import (DEFAULT_TOLS, Tolerances, commutator, dag, frob,
                     isometrize, nearest_projector, polar_retract, prefix_products,
                     require_antihermitian, require_finite)

# Proportionality constant between the log-holonomy of a unit parallelogram
# loop and the curvature generator it realizes:
# log(loop_holonomy(synthesize_holonomy_step(w, t))) = C * t^2 * w + O(t^3).
# Measured once on the m=1, n=2 Bloch-sphere case (a chart square of side t
# near the origin subtends solid angle ~4 t^2, giving holonomy phase -2 t^2)
# and asserted for m=2 in the test suite.
SYNTHESIS_CURVATURE_CONSTANT = -2.0

# Step of the central difference that gives Q' in ``geometric_schedule``, and the
# largest projector move || P_{k+1} - P_k || that ``geometric_hamiltonian`` accepts.
_FD_STEP = 1e-6
_ROUGH_BOUND = 0.5


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [t0, t1] with ``steps`` intervals (steps+1 nodes)."""

    t0: float
    t1: float
    steps: int

    def __post_init__(self):
        if not self.t1 > self.t0:
            raise ValueError("t1 must exceed t0")
        if self.steps < 1:
            raise ValueError("steps must be positive")

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
        """(N, n, n) stack of H(t) at the 1-D ``times``, maybe a read-only view; else ValueError."""
        times = np.asarray(times, dtype=float)
        hs = np.asarray(self.tabulate(times))
        want = times.shape + 2 * (hs.shape[-1:] if n is None else (n,))
        if hs.shape != want:
            raise ValueError(f"schedule table has shape {hs.shape}, want {want}")
        return hs


def constant_schedule(h_mat: np.ndarray) -> HamiltonianSchedule:
    h_mat = require_finite(h_mat, "generator")
    # the table is a zero-stride view: one matrix however many times
    return HamiltonianSchedule(lambda times: np.broadcast_to(h_mat, times.shape + h_mat.shape))


def rotating_schedule(omega: float) -> HamiltonianSchedule:
    """Precession about the z axis of the Bloch sphere at angular speed omega.

    The constant generator -i (omega/2) sigma_z carries a spin-1/2 projector
    at polar angle theta around the latitude circle once per period 2 pi/omega.
    """
    return constant_schedule(-0.5j * omega * np.diag([1.0, -1.0]).astype(complex))


def bloch_matrices(theta: float, azimuths) -> np.ndarray:
    """The 2 x 2 matrix of ``bloch_projector(theta, a)`` for each of ``azimuths``.

    An array of azimuths of shape S gives a stack of shape S + (2, 2).
    """
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
    """Schedule from per-node samples, linearly interpolated in between."""
    values = require_finite(np.asarray(values), "schedule samples")
    if len(values) != grid.steps + 1:
        raise ValueError("need one sample per grid node")
    t0, h = grid.t0, grid.h

    def table(times: np.ndarray) -> np.ndarray:
        s = (times - t0) / h
        k = np.clip(np.floor(s), 0, grid.steps - 1).astype(int)
        w = np.clip(s - k, 0.0, 1.0)[:, np.newaxis, np.newaxis]
        return (1.0 - w) * values[k] + w * values[k + 1]

    return HamiltonianSchedule(table)


def _geometric_generator(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Skew part of V_off (2Q - 1), the generator moving Q along v horizontally.

    V_off is the Hermitian part of v with its diagonal blocks w.r.t.
    im(q) + ker(q) removed.  q and v may be stacks (..., n, n).
    """
    v = (v + dag(v)) / 2.0
    eye = np.eye(q.shape[-1])
    comp = eye - q
    h_mat = (q @ v @ comp + comp @ v @ q) @ (2.0 * q - eye)
    return (h_mat - dag(h_mat)) / 2.0


def geometric_schedule(qfun: Callable[[np.ndarray], np.ndarray]) -> HamiltonianSchedule:
    """Geometric schedule H(t) = [[0, -Q'*], [Q', 0]] for a smooth curve of projectors.

    ``qfun`` maps a 1-D array of N times to the (N, n, n) stack of projector
    matrices (it must broadcast over the times); its derivative is taken by
    central differences with step _FD_STEP.  The returned generator is
    purely off-diagonal in the moving splitting im(Q) + ker(Q), so the lifted
    flow is horizontal.
    """

    def table(times: np.ndarray) -> np.ndarray:
        q = qfun(times)
        if q.shape[:-2] != times.shape:
            raise ValueError("qfun must map N times to an (N, n, n) stack")
        v = (qfun(times + _FD_STEP) - qfun(times - _FD_STEP)) / (2.0 * _FD_STEP)
        return _geometric_generator(q, v)

    return HamiltonianSchedule(table)


@dataclass(frozen=True)
class ProjectorPath:
    """Sampled solution of P' = [H, P] (or any sampled projector curve)."""

    grid: TimeGrid
    samples: np.ndarray          # (steps+1, n, n)
    rank: int
    schedule: Optional[HamiltonianSchedule] = None

    @property
    def n(self) -> int:
        return self.samples.shape[1]

    def projector_defects(self) -> np.ndarray:
        """Per-node projector_defect of the stored samples, over the whole stack."""
        p = self.samples
        dev = p @ p
        dev -= p
        idem = np.linalg.norm(dev, axis=(1, 2))
        np.subtract(p, dag(p), out=dev)
        herm = np.linalg.norm(dev, axis=(1, 2))
        trace = np.abs(np.trace(p, axis1=1, axis2=2) - self.rank)
        return np.maximum(np.maximum(idem, herm), trace)

    def node_defect(self) -> float:
        """Worst projector-invariant violation over the stored nodes."""
        return float(self.projector_defects().max())

    def closure_residual(self) -> float:
        return frob(self.samples[-1] - self.samples[0])


@dataclass(frozen=True)
class FramePath:
    """Sampled frame curve (Schroedinger or horizontal transport)."""

    grid: TimeGrid
    samples: np.ndarray          # (steps+1, n, m)

    def grams(self) -> np.ndarray:
        """The m x m Gram matrices phi_k* phi_k, one per node."""
        return dag(self.samples) @ self.samples

    def frame_defects(self) -> np.ndarray:
        """Per-node frame_defect: || phi_k* phi_k - I ||."""
        grams = self.grams()
        return np.linalg.norm(grams - np.eye(grams.shape[-1]), axis=(1, 2))

    def projector_defects(self) -> np.ndarray:
        """Per-node projector_defect of phi_k phi_k*, from the Gram matrices alone.

        phi phi* is Hermitian by construction, and with G = phi* phi,
        (phi phi*)^2 - phi phi* = phi (G - I) phi*, whose squared norm is
        tr((G - I) G (G - I) G); tr(phi phi*) = tr G.  No n x n matrix is formed.
        """
        grams = self.grams()
        m = grams.shape[-1]
        dev = grams - np.eye(m)
        idem = np.trace(dev @ grams @ dev @ grams, axis1=1, axis2=2).real
        trace = np.trace(grams, axis1=1, axis2=2) - m
        return np.maximum(np.sqrt(np.abs(idem)), np.abs(trace))

    def node_defect(self) -> float:
        return float(self.frame_defects().max())


def closure_tolerance(rank: int, tol: Tolerances = DEFAULT_TOLS) -> float:
    """Largest || P(T) - P(0) || at which a rank-``rank`` projector path counts as closed."""
    return tol.comparison * (1.0 + rank)


def _rk4_step(f, y, h, h_start, h_mid, h_end, slopes=None):
    """One RK4 step of y' = f(H, y) from the generators at t, t + h/2 and t + h.

    ``slopes``, if given, receives the stage slopes k1, ..., k4.
    """
    k1 = f(h_start, y)
    k2 = f(h_mid, y + (h / 2.0) * k1)
    k3 = f(h_mid, y + (h / 2.0) * k2)
    k4 = f(h_end, y + h * k3)
    if slopes is not None:
        slopes[0], slopes[1], slopes[2], slopes[3] = k1, k2, k3, k4
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_nodes(schedule, rhs, y, grid: TimeGrid, retract, tol: Tolerances):
    """y at each grid node of y' = rhs(H(t), y) by RK4, ``retract`` applied after every step.

    The first generator table is checked before the start node is yielded.
    """
    stages = _stage_generators(schedule, grid, y.shape[0], tol)
    h_node = next(stages)
    yield y
    for _ in range(grid.steps):
        h_mid, h_next = next(stages), next(stages)
        y = retract(_rk4_step(rhs, y, grid.h, h_node, h_mid, h_next))
        h_node = h_next
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
    """Integrate phi' = H(t) phi with per-step re-isometrization on demand."""
    phi0 = require_finite(phi0, "initial frame")
    nodes = _rk4_nodes(schedule, np.matmul, phi0, grid,
                       lambda y: y if frame_defect(y) <= tol.ode else isometrize(y, tol), tol)
    return FramePath(grid, np.fromiter(nodes, np.dtype((complex, phi0.shape)), grid.steps + 1))


def integrate_projector(schedule: HamiltonianSchedule, p0: Projector, grid: TimeGrid,
                        tol: Tolerances = DEFAULT_TOLS) -> ProjectorPath:
    """Integrate P' = [H(t), P] with per-step spectral retraction on demand."""
    p = require_finite(p0.matrix, "initial projector")
    nodes = _rk4_nodes(schedule, commutator, p, grid,
                       lambda y: _retract_projector(y, p0.rank, tol), tol)
    samples = np.fromiter(nodes, np.dtype((complex, p.shape)), grid.steps + 1)
    return ProjectorPath(grid=grid, samples=samples, rank=p0.rank, schedule=schedule)


def horizontal_transport(path: ProjectorPath, sigma: np.ndarray,
                         tol: Tolerances = DEFAULT_TOLS) -> FramePath:
    """Parallel transport of a start frame along a projector path: psi' = P' psi.

    When the path carries its schedule, psi is co-integrated with
    P' = [H(t), P(t)] by RK4 on the n x (n+m) state [P | psi] (4th order), P
    retracted as by ``integrate_projector`` and only psi stored; for a bare
    sampled path the node derivatives D_k come from central differences and
    the 2nd-order trapezoidal step is psi + A_k psi, A_k = (h/2)(D_k + D_{k+1})
    + (h^2/2) D_{k+1} D_k, with the maps built as stacked products in blocks of
    _TABLE_BYTES / 4.  The transported frame is polar-retracted after every
    step: the correction stays at the per-step drift level (so finite-difference
    horizontality measurements see no threshold jumps) and the polar factor
    commutes with the right U(m) action, keeping transport gauge equivariant.
    """
    sigma = require_over(sigma, path.samples[0], tol, "the path start")
    grid = path.grid
    h, n = grid.h, path.n

    if path.schedule is not None:
        def rhs(h_mat, y):
            pdot = commutator(h_mat, y[:, :n])
            return np.hstack([pdot, pdot @ y[:, n:]])

        def retract(y):
            return np.hstack([_retract_projector(y[:, :n], path.rank, tol),
                              polar_retract(y[:, n:], tol)])

        nodes = _rk4_nodes(path.schedule, rhs, np.hstack([path.samples[0], sigma]), grid,
                           retract, tol)
        psis = np.fromiter((y[:, n:] for y in nodes), np.dtype((complex, sigma.shape)),
                           grid.steps + 1)  # the n x n part P is never stored
        return FramePath(grid, psis)

    samples = np.empty((grid.steps + 1,) + sigma.shape, dtype=complex)
    samples[0] = psi = sigma
    derivs = sampled_derivative(path.samples, h, 2)
    block = max(1, _TABLE_BYTES // (4 * 16 * n * n))
    for start in range(0, grid.steps, block):
        stop = min(start + block, grid.steps)
        d0, d1 = derivs[start:stop], derivs[start + 1:stop + 1]
        maps = (d0 + d1 + h * (d1 @ d0)) * (h / 2.0)
        for k, step_map in enumerate(maps, start + 1):
            samples[k] = psi = polar_retract(psi + step_map @ psi, tol)
    return FramePath(grid=grid, samples=samples)


def horizontality_defects(frames: FramePath) -> np.ndarray:
    """Per-node || psi_k* psi_k' || with the derivative by finite differences.

    Uses 4th-order stencils so the measurement error stays well below the
    transported curve's own vertical drift.
    """
    derivs = sampled_derivative(frames.samples, frames.grid.h, 4)
    return np.linalg.norm(dag(frames.samples) @ derivs, axis=(1, 2))


def horizontality_defect(frames: FramePath) -> float:
    """max_k || psi_k* psi_k' ||, see ``horizontality_defects``."""
    return float(horizontality_defects(frames).max())


def tracking_defect(path: ProjectorPath, frames: FramePath) -> float:
    """max_k || psi_k psi_k* - P_k || over shared grid nodes."""
    return max(frob(phi @ dag(phi) - p)
               for phi, p in zip(frames.samples, path.samples))


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


# Bytes of one generator table read by an RK4 route (a geometric table holds
# several stacks this size at once), four sampled-transport step-map blocks, and
# sixteen blocks of berry_maps stage slopes: a large-n run's peak memory stays
# fixed however many steps it takes.
_TABLE_BYTES = 1 << 22


def _stage_generators(schedule: HamiltonianSchedule, grid: TimeGrid, n: int,
                      tol: Tolerances):
    """H at the 2 * steps + 1 RK4 stage times t0 + (h/2) j, in order.

    Stage 2k is the node t_k and stage 2k + 1 its midpoint t_k + h/2.  The
    generators come from tables of at most _TABLE_BYTES, and each table is
    checked to be an (N, n, n) stack, finite and anti-Hermitian (a zero-stride
    table of a constant schedule by its one matrix) before any of it is
    yielded.
    """
    times = grid.t0 + (grid.h / 2.0) * np.arange(2 * grid.steps + 1)
    chunk = max(1, _TABLE_BYTES // (16 * n * n))
    for start in range(0, len(times), chunk):
        hs = schedule.table(times[start:start + chunk], n)
        require_antihermitian(hs[:1] if hs.strides[0] == 0 else hs, tol, "generator")
        yield from hs


def _gauge_step_maps(phis: np.ndarray, slopes: np.ndarray, h: float):
    """Node generators phi_k* H(t_k) phi_k and RK4 gauge maps L_k of a block of steps.

    ``phis`` (N, n, m) are the frames at the start of each step and ``slopes``
    (N, 4, n, m) its stage slopes a_i = H s_i at the stage frames s_1 = phi_k,
    s_2 = phi_k + (h/2) a_1, s_3 = phi_k + (h/2) a_2 and s_4 = phi_k + h a_3.
    With c_i = s_i* a_i, RK4 on g' = -(phi* H phi) g gives g_{k+1} = L_k g_k
    for L_k = I + (h/6)(B_1 + 2 B_2 + 2 B_3 + B_4), B_1 = -c_1,
    B_2 = -c_2 (I + (h/2) B_1), B_3 = -c_3 (I + (h/2) B_2), B_4 = -c_4 (I + h B_3).
    """
    a1, a2, a3, a4 = slopes.swapaxes(0, 1)
    c1 = dag(phis) @ a1
    c2 = dag(phis + (h / 2.0) * a1) @ a2
    c3 = dag(phis + (h / 2.0) * a2) @ a3
    c4 = dag(phis + h * a3) @ a4
    eye = np.eye(c1.shape[-1])
    b1 = -c1
    b2 = -c2 @ (eye + (h / 2.0) * b1)
    b3 = -c3 @ (eye + (h / 2.0) * b2)
    b4 = -c4 @ (eye + h * b3)
    return c1, eye + (h / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)


def berry_maps(schedule: HamiltonianSchedule, p0: Projector, sigma: np.ndarray,
               grid: TimeGrid, tol: Tolerances = DEFAULT_TOLS) -> HolonomyResult:
    """Dynamical and geometric fiber maps of a Hamiltonian run, by one RK4 loop.

    The Schroedinger frame phi' = H phi, phi(0) = sigma, is split as
    phi = psi g* with the m x m gauge factor g' = -(phi* H phi) g, g(0) = I:
    then psi = phi g solves psi' = (1 - phi phi*) H psi, the horizontal
    transport of sigma along P = phi phi*.  This is the Aharonov-Anandan
    split of the evolution into a dynamical and a geometric part (PRL 58,
    1593 (1987); non-abelian form: Anandan, Phys. Lett. A 133, 171 (1988)).
    The generators at the 2 * steps + 1 stage times come from
    ``_stage_generators`` (one table for the whole run at small n), checked
    before a step uses them.  The RK4 loop integrates phi alone, O(n^2 m) per
    step, and re-isometrizes it when its frame defect, read from its m x m
    Gram matrix, is not within ``tol.ode``.  It keeps the four stage slopes
    in blocks of at most _TABLE_BYTES // 16 bytes; at each block end
    ``_gauge_step_maps`` turns them into the m x m RK4 maps L_k of the gauge
    equation (g_{k+1} = L_k g_k, since its right-hand side is linear in g).
    After the loop the maps are polar-retracted onto U(m) in one stack
    (``polar_retract``), chained by ``prefix_products`` and retracted once
    more to remove the roundoff of the products.  As the Newton-Schulz step
    N satisfies N(L g) = N(L) g for unitary g, this is the retraction of g
    after every step, computed on stacks.

    Returns ``dynamical = sigma* phi(T)``, ``geometric = sigma* psi(T)`` and
    ``fiber_gap = psi(T)* phi(T) = g(T)*``.  When the projector path closes
    (|| phi(T) phi(T)* - sigma sigma* || within ``closure_tolerance``) the
    first two are the U(m) holonomies of the loop; the fiber gap is always a
    gauge element and measures the accumulated vertical drift.  The node
    energies -i tr(phi_k* H(t_k) phi_k) come from the first RK4 stage and
    each is checked to be real.  The per-node audits (projector defect of
    phi phi*, the worse isometry defect of phi and psi, horizontality defect
    of psi) are computed here, once.
    """
    sigma = require_over(sigma, p0.matrix, tol, "P0")
    n, m = sigma.shape
    h, steps = grid.h, grid.steps
    eye = np.eye(m)
    phis = np.empty((steps + 1, n, m), dtype=complex)
    gens = np.empty((steps + 1, m, m), dtype=complex)  # phi_k* H(t_k) phi_k
    maps = np.empty((steps, m, m), dtype=complex)
    block = max(1, (_TABLE_BYTES // 16) // (4 * 16 * n * m))  # steps of slopes per block
    slopes = np.empty((min(block, steps), 4, n, m), dtype=complex)
    phi = sigma
    stages = _stage_generators(schedule, grid, n, tol)
    h_node = next(stages)
    for start in range(0, steps, block):
        stop = min(start + block, steps)
        for k in range(start, stop):
            phis[k] = phi
            h_mid, h_next = next(stages), next(stages)
            phi = _rk4_step(np.matmul, phi, h, h_node, h_mid, h_next, slopes[k - start])
            e = dag(phi) @ phi - eye
            if not np.vdot(e, e).real ** 0.5 <= tol.ode:  # NaN: isometrize raises
                phi = isometrize(phi, tol)
            h_node = h_next
        gens[start:stop], maps[start:stop] = _gauge_step_maps(
            phis[start:stop], slopes[:stop - start], h)
    phis[steps] = phi
    gens[steps] = dag(phi) @ (h_node @ phi)
    gauges = np.empty((steps + 1, m, m), dtype=complex)
    gauges[0] = eye
    gauges[1:] = polar_retract(prefix_products(polar_retract(maps, tol)), tol)

    fpath = FramePath(grid=grid, samples=phis)
    hpath = FramePath(grid=grid, samples=phis @ gauges)
    phi_end, psi_end = fpath.samples[-1], hpath.samples[-1]
    residual = frob(phi_end @ dag(phi_end) - sigma @ dag(sigma))
    return HolonomyResult(
        dynamical=dag(sigma) @ phi_end,
        geometric=dag(sigma) @ psi_end,
        fiber_gap=dag(psi_end) @ phi_end,
        closed=residual <= closure_tolerance(p0.rank, tol),
        closure_residual=residual,
        projector_defects=fpath.projector_defects(),
        isometry_defects=np.maximum(fpath.frame_defects(), hpath.frame_defects()),
        horizontality_defects=horizontality_defects(hpath),
        energies=hamiltonian_value(gens, tol),
        frame_path=fpath,
        horizontal_path=hpath,
    )


def geometric_hamiltonian(path: ProjectorPath,
                          tol: Tolerances = DEFAULT_TOLS) -> HamiltonianSchedule:
    """The off-diagonal schedule driving a sampled projector curve horizontally.

    H(t_k) = Q'(t_k) (2 Q(t_k) - 1) with Q' by central differences; between
    nodes the samples are interpolated linearly.  Raises PathTooRough when a
    single step moves the projector further than _ROUGH_BOUND (derivative
    estimates would be meaningless).
    """
    steps = np.linalg.norm(np.diff(path.samples, axis=0), axis=(1, 2))
    if steps.size and float(steps.max()) > _ROUGH_BOUND:
        raise PathTooRough("consecutive projector samples are too far apart")
    derivs = sampled_derivative(path.samples, path.grid.h, 2)
    return sampled_schedule(path.grid, _geometric_generator(path.samples, derivs))


def loop_transport(path: ProjectorPath, sigma: np.ndarray,
                   tol: Tolerances = DEFAULT_TOLS) -> FramePath:
    """Horizontal transport of sigma around a projector loop, checked closed first."""
    residual = path.closure_residual()
    if residual > closure_tolerance(path.rank, tol):
        raise NotClosed(f"loop closure residual {residual:.3e}")
    return horizontal_transport(path, sigma, tol)


def loop_holonomy(path: ProjectorPath, sigma: np.ndarray,
                  tol: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """U(m) holonomy of a closed projector loop: psi(0)* psi(T) after transport."""
    frames = loop_transport(path, sigma, tol).samples
    return dag(frames[0]) @ frames[-1]


def pancharatnam_oracle(samples: np.ndarray, sigma: np.ndarray,
                        tol: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Discrete holonomy oracle: ordered product of fiber projections.

    Pushes the start frame through P_1, ..., P_{N-1} by successive
    projection, then orient-isometrizes the m x m overlap with the start
    frame.  Converges to ``loop_holonomy`` as the sampling refines, by a
    route entirely independent of the transport ODE.
    """
    samples = require_finite(np.asarray(samples), "loop samples")
    rank = int(round(float(np.trace(samples[0]).real)))
    if frob(samples[-1] - samples[0]) > closure_tolerance(rank, tol):
        raise NotClosed("first and last samples differ")
    sigma = require_over(sigma, samples[0], tol, "the first sample")

    v = sigma.copy()
    for p in samples[1:]:
        v = p @ v
        svals = np.linalg.svd(v, compute_uv=False)
        if svals[-1] <= tol.structural * max(svals[0], 1.0):
            raise DegenerateStep("projection collapsed the frame rank")
        v = v / svals[0]
    return isometrize(dag(sigma) @ v, tol)


def _frame_oracle(frames: np.ndarray, tol: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """``pancharatnam_oracle(P, phi_0)`` for P_k = phi_k phi_k* (closure is the caller's check).

    P_N ... P_1 phi_0 = phi_N (phi_N* phi_{N-1}) ... (phi_1* phi_0) needs only m x m overlaps
    (one stacked matmul), chained by ``prefix_products``; one of collapsed rank raises
    DegenerateStep, as its projection does.
    """
    overlaps = dag(frames[1:]) @ frames[:-1]
    svals = np.linalg.svd(overlaps, compute_uv=False)
    if np.any(svals[:, -1] <= tol.structural * np.maximum(svals[:, 0], 1.0)):
        raise DegenerateStep("projection collapsed the frame rank")
    chain = prefix_products(overlaps / svals[:, :1, np.newaxis])[-1]
    return isometrize(dag(frames[0]) @ frames[-1] @ chain, tol)


def synthesize_holonomy_step(w: np.ndarray, scale: float, base: BasePoint,
                             samples_per_side: int = 64,
                             tol: Tolerances = DEFAULT_TOLS) -> ProjectorPath:
    """Closed parallelogram loops realizing exp(C t^2 w) holonomy to first order.

    For each curvature generator pair (u_i, v_i) the chart coordinates trace
    the square 0 -> t u_i -> t (u_i + v_i) -> t v_i -> 0; the loops are
    concatenated.  The holonomy of the result is
    exp(SYNTHESIS_CURVATURE_CONSTANT * t^2 * w) + O(t^3).
    """
    return _parallelogram_loop(curvature_generators(w, base.n, tol), scale, base,
                               samples_per_side)


def _parallelogram_loop(pairs, scale: float, base: BasePoint,
                        samples_per_side: int) -> ProjectorPath:
    """The concatenated chart squares of ``synthesize_holonomy_step`` for given pairs."""
    if not 0.0 <= scale <= 0.5:
        raise ValueError("scale must lie in [0, 0.5]")
    m = base.m

    if not pairs or scale == 0.0:
        samples = np.repeat(base.projector.matrix[np.newaxis], 3, axis=0)
        return ProjectorPath(grid=TimeGrid(0.0, 1.0, 2), samples=samples, rank=m)

    waypoints = []
    zero = np.zeros((base.n - m, m), dtype=complex)
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

    samples = chart_projectors(base, blocks)
    grid = TimeGrid(0.0, 1.0, len(samples) - 1)
    return ProjectorPath(grid=grid, samples=samples, rank=m)
