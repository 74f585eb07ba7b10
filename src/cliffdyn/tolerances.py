"""Central tolerance configuration.

Every numerical threshold used by the verification suites lives here so a
run can be audited (and overridden) from one place.  Values are absolute
unless the name says otherwise.
"""

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Tolerances:
    # clifford core
    hermitian_input: float = 1e-14      # allowed |H - H^dagger| per entry (scaled by matrix size)
    gram_residual: float = 1e-10
    gram_null: float = 1e-12
    eig_zero_rel: float = 1e-9          # |lambda| below this times max|lambda| counts as zero

    # spinor identities
    c30_identity: float = 1e-12         # relative

    # particle
    bracket_reduction: float = 1e-9     # scaled by (1 + |PB|)
    straight_line: float = 1e-8
    constraint_drift: float = 1e-8
    mu_match: float = 1e-8

    # matrix mechanics
    unitarity: float = 1e-12            # max |U U^dagger - 1| gauge_transform accepts
    state_norm: float = 1e-12           # |<s|s> - 1| expectation accepts
    unitary_covariance: float = 1e-10
    constraint_invariance: float = 1e-11
    picture_equivalence: float = 1e-8
    stationarity: float = 1e-9

    # string
    fd_residual: float = 1e-6           # at h_grid = 1e-3
    fd_order_window: float = 0.2        # accepted deviation from order 2
    trace_vanish: float = 1e-9
    total_momentum: float = 1e-8
    spinning_match: float = 1e-10
    mode_gram_residual: float = 1e-9    # build_wave_state feasibility gate

    # current algebra
    g1_identity: float = 1e-9           # relative
    algebra_closure: float = 1e-10
    charge_closure: float = 1e-9        # relative: every gate of charge_algebra
    momentum_charge: float = 1e-9       # relative: poincare_check's [P, J] pattern
    unitary_brackets: float = 1e-10
    fit_rank: float = 1e-6              # relative: the fit's least singular value
    oracle_closure: float = 1e-12       # the Poincare matrix oracle's own closure

    h_grid: float = 1e-3

    def with_overrides(self, **kwargs) -> "Tolerances":
        return replace(self, **kwargs)


DEFAULT = Tolerances()
