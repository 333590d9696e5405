"""Central numeric tolerances and base error types.

Every module reads its tolerances from one shared record so that test
suites and the CLI agree on what "equal" means at desk scale.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    metric_atol: float = 1e-9        # metric axiom checks on float64 matrices
    weight_atol: float = 1e-12       # probability weights sum to one
    coupling_atol: float = 1e-9      # marginal sums of transport plans
    duality_gap: float = 1e-7        # mandatory primal/dual agreement
    lipschitz_atol: float = 1e-9     # 1-Lipschitz certificates
    hermitian_atol: float = 1e-12    # Hermitian symmetry of matrix fields
    trace_imag_atol: float = 1e-11   # imaginary part of the normalised trace of a Hermitian field
    trace_null_atol: float = 1e-9    # tracially null certificates
    feasibility_atol: float = 1e-9   # mass a W-infinity threshold plan may move beyond t
    threshold_slack: float = 1e-12   # distance above a W-infinity threshold that still counts as equal
    simplex_opt_tol: float = 1e-11   # reduced cost below which the network simplex is optimal
    quadrature_atol: float = 1e-10   # adaptive Simpson target
    atom_slack: float = 1e-15        # circle atoms this far past a breakpoint count as reached there
    mesh_snap: float = 1e-9          # fraction of a circle mesh within which an image snaps to a net point
    descent_step: float = 1e-15      # least drop in cost that moves a map-search descent
    projection_tie: float = 1e-15    # circle-map images this close to a tie take the lower net index
    section_constant_atol: float = 1e-15  # a section this close to its first fibre is one function
    ldp_tie_margin: float = 1e-9     # LDP deviations this near eps, per unit max|values|, are re-decided

    @property
    def bridge_delta_floor(self) -> float:
        """Least bridge scale in dq_upper (bridges need delta > 0): a bridge
        puts delta/2 between matched points, which must clear metric_atol."""
        return 4 * self.metric_atol


TOL = Tolerances()


def as_integer(v) -> int:
    """v as an int when it is integral: 4 and 4.0 pass; 4.5, "4" and true do
    not (ValueError)."""
    if isinstance(v, bool) or int(v) != v:
        raise ValueError(f"expected an integer, not {v!r}")
    return int(v)


def as_integer_argument(v, what: str) -> int:
    """v by the integer rule of `as_integer`, of any sign; DomainError naming
    `what` otherwise, so 2.0 passes as 2 and 2.5, "2" and True do not."""
    try:
        return as_integer(v)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{what} must be an integer, not {v!r}") from None


def as_positive_integer(v, what: str) -> int:
    """v by the integer rule of `as_integer`, and at least 1: the one rule
    for counts, resolutions, trials and horizons. DomainError naming `what`
    otherwise, so 2.0 passes as 2 and 2.5, 0, "2" and True do not."""
    try:
        n = as_integer(v)
    except (TypeError, ValueError, OverflowError):
        n = 0
    if n < 1:
        raise DomainError(f"{what} must be a positive integer, not {v!r}")
    return n


class DomainError(Exception):
    """Base class for all domain-level failures (CLI exit code 1)."""


class SpaceMismatchError(DomainError):
    """Two objects that must share a metric space do not."""
