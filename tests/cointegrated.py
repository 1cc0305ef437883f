"""Independent test references for the library's transport and holonomy routes.

``cointegrated_transport``: RK4 on the n x (n + m) state [P | psi] of P' = [H, P],
psi' = P' psi (4th order), P retracted as by ``integrate_projector`` and psi
polar-retracted after every step.  The library transports along a Hamiltonian flow
by ``berry_maps``; the tests hold it to this route.

``projection_transport``: the sampled transport psi_{k+1} = polar(P_{k+1} psi_k) step by
step, the polar factor by the SVD.  ``pancharatnam_reference``: the projector-product
oracle as a per-sample loop over the n x n samples, its polar factor by the SVD.  The library's
``horizontal_transport`` and ``pancharatnam_oracle`` take both from the fiber overlaps of
a section; the tests hold them to these loops.

``block_geometric_generator``: the geometric generator as the skew part of V_off (2Q - 1),
from the off-diagonal blocks of V.  The library forms Kato's one-product [V, Q]; the tests
hold it to this formula.

``rk4_maps`` and ``rk4_polynomials``: the RK4 step maps of a linear equation by the B_i
recursion, and RK4 on y' = mu y in closed form.  The library takes both from its one RK4
kernel; the tests hold it to these formulas.
"""

import numpy as np

from grassflow import DegenerateStep, RankDeficient, dynamics
from grassflow.bundle import require_over
from grassflow.linalg import (DEFAULT_TOLS, _matmul, _require_rank, commutator, dag, frob,
                              polar_retract, require_finite)


def cointegrated_transport(schedule, p0, sigma, grid, tol=DEFAULT_TOLS) -> dynamics.FramePath:
    """The transport of ``sigma`` along the flow of ``schedule`` from the projector ``p0``."""
    n = sigma.shape[0]

    def rhs(h_mat, y):
        pdot = commutator(h_mat, y[:, :n])
        return np.hstack([pdot, pdot @ y[:, n:]])

    def retract(y):
        return np.hstack([dynamics._retract_projector(y[:, :n], p0.rank, tol),
                          polar_retract(y[:, n:], tol)])

    nodes = dynamics._rk4_nodes(schedule, rhs, np.hstack([p0.matrix, sigma]), grid,
                                retract, tol)
    return dynamics.FramePath(grid, np.array([y[:, n:] for y in nodes]))


def pancharatnam_reference(samples, sigma, tol=DEFAULT_TOLS) -> np.ndarray:
    """The unitary polar factor of sigma* P_{N-1} ... P_1 sigma, one sample at a time, by the SVD.

    Pushes the start frame through P_1, ..., P_{N-1} by successive projection, rescaled
    by its largest singular value at each step.  NotClosed unless the loop closes at the
    rank round(tr P_0); DegenerateStep unless each projected frame keeps rank m by the
    library's rank rule on its squared singular values.
    """
    samples = dynamics._require_stack(require_finite(samples, "loop samples"))
    rank = int(round(float(np.trace(samples[0]).real)))
    dynamics._require_closed(frob(samples[-1] - samples[0]), rank, tol)
    sigma = require_over(sigma, samples[0], tol, "the first sample")

    v = sigma.copy()
    for p in samples[1:]:
        v = p @ v
        svals = np.linalg.svd(v, compute_uv=False)
        _require_rank(svals ** 2, tol, DegenerateStep)
        v = v / svals[0]
    u, svals, vh = np.linalg.svd(dag(sigma) @ v)
    _require_rank(svals, tol, RankDeficient)
    return u @ vh


def projection_transport(samples, sigma) -> np.ndarray:
    """psi_0 = sigma and psi_{k+1} = polar(P_{k+1} psi_k), the polar factor by the SVD."""
    psis = [sigma]
    for p in samples[1:]:
        u, _, vh = np.linalg.svd(p @ psis[-1], full_matrices=False)
        psis.append(u @ vh)
    return np.array(psis)


def block_geometric_generator(q, v) -> np.ndarray:
    """Skew part of V_off (2Q - 1), V_off the Hermitian part V of v without its diagonal
    blocks in im(q) + ker(q); q and v may be stacks (..., n, n)."""
    v = (v + dag(v)) / 2.0
    eye = np.eye(q.shape[-1])
    comp = eye - q
    h_mat = (q @ v @ comp + comp @ v @ q) @ (2.0 * q - eye)
    return (h_mat - dag(h_mat)) / 2.0


def rk4_maps(g1, g2, g3, g4, h) -> np.ndarray:
    """Stacked RK4 step maps of y' = G(t) y from its stage generators G_i.

    One step is y_{k+1} = (I + (h/6)(B_1 + 2 B_2 + 2 B_3 + B_4)) y_k with B_1 = G_1,
    B_2 = G_2 (I + (h/2) B_1), B_3 = G_3 (I + (h/2) B_2) and B_4 = G_4 (I + h B_3).
    """
    eye = np.eye(g1.shape[-1])
    b2 = _matmul(g2, eye + (h / 2.0) * g1)
    b3 = _matmul(g3, eye + (h / 2.0) * b2)
    b4 = _matmul(g4, eye + h * b3)
    return eye + (h / 6.0) * (g1 + 2.0 * b2 + 2.0 * b3 + b4)


def rk4_polynomials(z):
    """RK4 on y' = mu y from y = 1, z = h mu: its stage states q_i(z), stacked first, and its
    step, the stability polynomial p(z) = 1 + z + z^2/2 + z^3/6 + z^4/24."""
    q = np.array([np.ones_like(z), 1 + z / 2, 1 + z / 2 + z**2 / 4, 1 + z + z**2 / 2 + z**3 / 4])
    return q, 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
