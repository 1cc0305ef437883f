"""Horizontal transport co-integrated with the projector flow: an independent test reference.

RK4 on the n x (n + m) state [P | psi] of P' = [H, P], psi' = P' psi (4th order),
P retracted as by ``integrate_projector`` and psi polar-retracted after every
step.  The library transports along a Hamiltonian flow by ``berry_maps``; the
tests hold it to this route.
"""

import numpy as np

from grassflow import dynamics
from grassflow.linalg import DEFAULT_TOLS, commutator, polar_retract


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
