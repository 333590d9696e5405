"""metriclab: transport metrics, Lipschitz geometry and deformation fields
on finite metric spaces, at desk scale and oracle-grade exactness."""

__version__ = "0.1.0"

from .config import TOL, DomainError, SpaceMismatchError, Tolerances
from .spaces import (FiniteMetricSpace, SubsetRef, MetricValidationError,
                     bridge_metric, circle_net, epsilon_net, interval_net,
                     product_space, space_from_json, validate_metric)
from .transport import (Coupling, Measure, Potential, SimplexNet, mix, point_mass,
                        prob_net, pushforward, uniform_measure, wasserstein1,
                        wasserstein1_dual, wasserstein_inf)
from .lipgeom import (MatrixObservable, Nucleus, Observable, lipschitz_seminorm,
                      matrix_nucleus_membership, matrix_trace_observable,
                      mcshane_project, nucleus_decompose, nucleus_net, state_metric)
from .distances import (AlmostIsometryReport, GapResult, SearchBudget, dq_upper,
                        epsilon_isometry_check, fukaya_distance, gh_distance,
                        intertwining_gap, simplex_net)
from .dynamics import (BirkhoffReport, DynMap, InvariantSimplex, birkhoff_rate,
                       crossed_product_seminorm, deform, egh_distance, identity_map,
                       invariant_measures, invariant_simplex_hausdorff,
                       project_circle_map, rotation, sine_pluck, sine_pluck_map)
from .markov import (LdpReport, MarkovKernel, RandomMapFamily, kernel_from_maps,
                     ldp_experiment, stationary_measures)
from .fields import (ContinuityReport, EnvelopeReport, MetricField, WaveProfile,
                     birkhoff_field, circle_wave_metric, field_continuity_check,
                     lipschitz_envelope, nucleus_field, rotation_field,
                     wave_metric_field)
