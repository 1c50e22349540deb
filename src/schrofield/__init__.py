"""Lattice laboratory for the Schrodinger equation and its wave-potential field.

Three equivalent faces of one dynamics, all on a 1D lattice with a symmetric
operator K = (hbar^2/2m) Laplacian - V:

  * the wave picture: two real fields (re, im) with the usual first-order
    Schrodinger evolution;
  * the field picture: a single real field phi with hbar^2 phi_ddot
    + K^2 phi = 0, whose energy density is the probability density over
    2 hbar, and which generates wave functions through Psi = -K phi + i p;
  * the constrained picture: four fields with two second-class constraints,
    whose two dynamical-sector parameterizations reduce to the first two.

The brackets module realizes the Poisson and Dirac structures as tables of
blocks that are polynomials in K, so that every claimed identity is
checkable finite algebra in O(n) time and memory.
"""

__version__ = "0.1.0"

from .lattice import (
    Grid,
    Operator,
    Potential,
    Spectrum,
    apply,
    build_grid,
    build_operator,
    eigendecompose,
    eigenpairs,
    inner_product,
    solve_elliptic,
)
from .quadrature import Trajectory
from .schrodinger import (
    CrankNicolson,
    WaveFunction,
    hamiltonian_action,
    norm_hamiltonian,
    propagate_spectral,
    schrodinger_residual,
    schrodinger_rhs,
    step_crank_nicolson,
    wave_hamiltonian,
)
from .field import (
    FieldState,
    Leapfrog,
    energy_densities,
    field_action,
    field_hamiltonian,
    field_rhs,
    propagate_spectral_field,
    rescale_state,
    step_leapfrog,
)
from .correspondence import (
    KernelBasis,
    current_residual,
    dequantize,
    dequantize_quadrature,
    field_to_wave,
    kernel_basis,
    probability_and_phase,
    quantize,
    quantize_trajectory,
    wave_to_field,
)
from .constrained import (
    ConstrainedState,
    Rk4,
    constrained_hamiltonian,
    constrained_rhs,
    constraint_residuals,
    lagrangian_residuals,
    make_onshell,
    multiplier_v,
    reduce_to_field,
    reduce_to_wave,
    singular_action,
    step_rk4,
)
from .brackets import (
    BracketTable,
    canonical_structure,
    constraint_gradient_matrix,
    dirac_flow_check,
    dirac_structure,
    generalized_hamiltonian_check,
    verify_dirac_relations,
)
from .errors import (
    ConfigError,
    EllipticObstructionError,
    OffShellError,
    StabilityError,
)
