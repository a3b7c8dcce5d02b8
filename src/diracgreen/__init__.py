"""Semiclassical Green kernel asymptotics for Dirac operators with scalar potential."""

from .clifford import (
    DiracRep,
    DomainError,
    Projector,
    build_dirac_rep,
    negate_rep,
    principal_sqrt,
    projector,
)
from .potential import PotentialModel, make_potential, validate_hypothesis
from .geoflow import (
    Trajectory,
    GeodesicSolution,
    OdeOpts,
    ShootOpts,
    ConjugatePointError,
    NumericalError,
    ShootingError,
    integrate_flow,
    shoot_geodesic,
    agmon_distance_quadrature_1d,
    bordered_determinant,
    det_exp_prime,
    exp_map_oracle,
    exp_prime_fd,
)
from .transport import (
    TransportResult,
    rotation_1d,
    solve_spinor_transport,
    theta_1d,
    transport_matrix,
)
from .kernel import (
    KernelEstimate,
    leading_kernel_multid,
    leading_kernel_1d,
    positive_potential_kernel,
    bessel_K,
    bessel_K_prime,
    bessel_K_oracle,
    constant_V_exact,
    exact_sweep,
    ratio_sweep,
)
from .oracle1d import decaying_solution, exact_green_kernel_1d, exact_green_kernel_pair_1d
from .bmt import SpinTransportResult, build_W, left_factor, solve_bmt_spin, equivalence_check

__version__ = "0.1.0"
