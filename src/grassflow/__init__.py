"""grassflow: differential geometry and holonomy on complex Grassmann manifolds."""

from .errors import (BaseMismatch, DegenerateStep, DimensionTooSmall, GapTooSmall,
                     GrassflowError, InvalidArgument, NonFinite, NotAFrame, NotAntiHermitian,
                     NotClosed, NotHorizontal, NotTangent, NotUnitary, OutsideChart,
                     PathTooRough, RankDeficient, SectionNotInFiber)
from .linalg import (DEFAULT_TOLS, Tolerances, commutator, dag, frob, isometrize,
                     mat_exp, nearest_projector, polar_retract,
                     random_antihermitian, random_frame, random_unitary)
from .grassmann import (BasePoint, ChartTangent, EmbeddedTangent, Projector,
                        chart_from_proj, chart_transport,
                        covariant_derivative_along, grassmann_connection_F,
                        grassmann_curvature_F, ham_field, lie_field_chart,
                        linear_hamiltonian, proj_from_chart, symplectic_form,
                        tangent_embed, tangent_extract)
from .bundle import (connection_A, curvature_generators, curvature_Omega,
                     horizontal_lift, local_trivialization, project_frame,
                     split_vertical_horizontal)
from .dynamics import (FramePath, HamiltonianSchedule, HolonomyResult,
                       ProjectorPath, SYNTHESIS_CURVATURE_CONSTANT, TimeGrid,
                       berry_maps, bloch_projector, constant_schedule,
                       geometric_hamiltonian, geometric_schedule,
                       horizontal_transport, integrate_frame,
                       integrate_projector, loop_holonomy, pancharatnam_oracle,
                       rotating_schedule, sampled_schedule,
                       synthesize_holonomy_step)

__version__ = "0.1.0"
