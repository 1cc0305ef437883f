import numpy as np
import pytest

from grassflow import InvalidArgument
from grassflow.bundle import connection_A, curvature_Omega, split_vertical_horizontal
from grassflow.dynamics import (FramePath, HamiltonianSchedule, ProjectorPath, TimeGrid,
                                constant_schedule, geometric_hamiltonian, geometric_schedule,
                                tracking_defect)
from grassflow.grassmann import (BasePoint, ChartTangent, EmbeddedTangent, Projector,
                                 chart_from_proj, chart_transport, covariant_derivative_along,
                                 grassmann_connection_F, ham_field, lie_field_chart,
                                 linear_hamiltonian, symplectic_form, tangent_extract)
from grassflow.linalg import Tolerances, random_antihermitian

_P = Projector.standard(3, 1).matrix
_GRID = TimeGrid(0.0, 1.0, 2)
_TWO_BASES = BasePoint.from_projector(Projector(matrix=np.array([_P, _P]), rank=1))
# a point of Gr_2(C^4), its frame, and a tangent of the wrong size there
_P4, _B4 = Projector.standard(4, 2), BasePoint.standard(4, 2)
_PHI4, _V3 = _B4.frame, EmbeddedTangent(np.ones((3, 3)))


@pytest.mark.parametrize("call, match", [
    (lambda: Tolerances(structural=0.0), "strictly positive"),
    (lambda: Tolerances(structural=1e-3, comparison=1e-8), "must not exceed"),
    (lambda: HamiltonianSchedule(lambda t: np.zeros((3, 3))).table(np.zeros(2)),
     "schedule table"),
    (lambda: geometric_schedule(lambda t: _P).table(np.zeros(2)), "qfun"),
    (lambda: tracking_defect(ProjectorPath(_GRID, np.array([_P] * 3), rank=1),
                             FramePath(_GRID, np.zeros((2, 3, 1)))), "differ in length"),
    (lambda: covariant_derivative_along(np.array([_P] * 2), np.zeros((2, 3)), 0.5),
     "at least 3 nodes"),
    (lambda: covariant_derivative_along(np.array([_P] * 3), np.zeros((3, 3)), 0.5, "warp"),
     "unknown mode"),
    (lambda: ChartTangent(base=BasePoint.standard(3, 1), block=np.zeros((1, 2))),
     "block shape"),
    (lambda: Projector.from_matrix(0.7 * np.eye(2), 1), "not a rank-m"),
    (lambda: random_antihermitian(0, 1), "dimension"),
    (lambda: TimeGrid(0, 1, 2.5), "positive integer"),
    (lambda: TimeGrid(0, 1, True), "positive integer"),
    (lambda: TimeGrid(0, 1, "4"), "positive integer"),
    (lambda: TimeGrid(-1e308, 1e308, 10), "finite nonzero step"),
    (lambda: TimeGrid(0.0, np.inf, 10), "finite nonzero step"),
    (lambda: TimeGrid(np.nan, 1.0, 10), "finite nonzero step"),
    (lambda: ChartTangent(base=_TWO_BASES, block=np.zeros((3, 2, 1))), "block shape"),
    (lambda: chart_from_proj(_TWO_BASES, Projector(matrix=np.array([_P] * 3), rank=1)),
     "projector has shape"),
    (lambda: chart_transport(np.array([np.eye(3)] * 3),
                             ChartTangent(base=_TWO_BASES, block=np.zeros((2, 2, 1)))),
     "unitary has shape"),
    (lambda: linear_hamiltonian(np.ones(4), _P4), "square"),
    (lambda: lie_field_chart(np.ones(4), _B4), "square"),
    (lambda: ham_field(np.ones(4), _P4), "square"),
    (lambda: connection_A(_PHI4, np.ones((3, 2))), "frame tangent has shape"),
    (lambda: split_vertical_horizontal(_PHI4, np.ones((3, 2))), "frame tangent has shape"),
    (lambda: symplectic_form(_P4, _V3, _V3), "tangent has shape"),
    (lambda: tangent_extract(_B4, _V3), "tangent has shape"),
    (lambda: grassmann_connection_F(_P4, _V3), "tangent has shape"),
    (lambda: curvature_Omega(_PHI4, np.ones((3, 2)), np.ones((3, 2))),
     "horizontal tangent has shape"),
    (lambda: Projector.from_frame(np.ones(3)), "n x m matrix"),
    (lambda: geometric_hamiltonian(ProjectorPath(_GRID, np.eye(3), rank=1)), "stack"),
    (lambda: constant_schedule(np.zeros(3)), "square"),
    (lambda: constant_schedule(np.zeros((3, 4))), "square"),
    (lambda: linear_hamiltonian(np.zeros((3, 3)), _P4), "square 4 x 4"),
    (lambda: lie_field_chart(np.zeros((3, 3)), _B4), "square 4 x 4"),
    (lambda: ham_field(np.zeros((3, 3)), _P4), "square 4 x 4"),
    (lambda: covariant_derivative_along(np.ones(4), np.ones(4), 0.1), "projector path"),
], ids=["tolerance_sign", "tolerance_order", "schedule_table", "geometric_qfun",
        "tracking_lengths", "covariant_nodes", "covariant_mode", "chart_tangent",
        "projector_from_matrix", "random_antihermitian", "grid_fractional_steps",
        "grid_bool_steps", "grid_string_steps", "grid_overflowing_span", "grid_infinite_end",
        "grid_nan_start", "chart_tangent_stack_lengths",
        "chart_from_proj_stack_lengths", "chart_transport_stack_lengths",
        "linear_hamiltonian_vector", "lie_field_chart_vector", "ham_field_vector",
        "connection_A_tangent_size", "split_tangent_size", "symplectic_form_tangent_size",
        "tangent_extract_size", "grassmann_connection_F_tangent_size",
        "curvature_Omega_tangent_size", "from_frame_vector", "geometric_hamiltonian_matrix",
        "constant_schedule_vector", "constant_schedule_rectangle",
        "linear_hamiltonian_other_n", "lie_field_chart_other_n", "ham_field_other_n",
        "covariant_vectors"])
def test_bad_arguments_raise_invalid_argument(call, match):
    # InvalidArgument is a ValueError too: callers catching ValueError still do
    with pytest.raises(InvalidArgument, match=match):
        call()


@pytest.mark.parametrize("steps", [np.int64(4), np.int32(1), 7])
def test_grid_takes_integral_steps(steps):
    grid = TimeGrid(0.0, 1.0, steps)
    assert len(grid.times) == steps + 1
