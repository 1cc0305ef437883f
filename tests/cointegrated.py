"""Independent test references for the library's transport and holonomy routes.

``cointegrated_transport``: RK4 on the n x (n + m) state [P | psi] of P' = [H, P],
psi' = P' psi (4th order), P retracted as by ``integrate_projector`` and psi
polar-retracted after every step.  The library transports along a Hamiltonian flow
by ``berry_maps``; the tests hold it to this route.

``projection_transport``: the sampled transport psi_{k+1} = polar(P_{k+1} psi_k) step by
step, the polar factor by the SVD.  ``pancharatnam_reference``: the projector-product
oracle as a per-sample loop over the n x n samples.  The library's
``horizontal_transport`` and ``pancharatnam_oracle`` take both from the fiber overlaps of
a section; the tests hold them to these loops.
"""

import numpy as np

from grassflow import DegenerateStep, dynamics
from grassflow.bundle import require_over
from grassflow.linalg import (DEFAULT_TOLS, _require_rank, commutator, dag, frob,
                              isometrize, polar_retract, require_finite)


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
    """The oriented isometrization of sigma* P_{N-1} ... P_1 sigma, one sample at a time.

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
    return isometrize(dag(sigma) @ v, tol)


def projection_transport(samples, sigma) -> np.ndarray:
    """psi_0 = sigma and psi_{k+1} = polar(P_{k+1} psi_k), the polar factor by the SVD."""
    psis = [sigma]
    for p in samples[1:]:
        u, _, vh = np.linalg.svd(p @ psis[-1], full_matrices=False)
        psis.append(u @ vh)
    return np.array(psis)
