"""Von Neumann entropy of large sparse symmetric PSD matrices.

Estimators: probing with distance-d graph colorings, Hutchinson, Hutch++
and adaptive Hutch++, all driven by a mixed polynomial/rational Krylov
engine with a posteriori error bounds.
"""

from .bounds import (
    best_approx_error_oracle,
    cheb_bound,
    entropy_poly_bound,
    probing_apriori_bound,
    select_d_apriori,
)
from .coloring import (
    Coloring,
    banded_coloring,
    degree_descending_order,
    greedy_distance_coloring,
    grid2d_coloring,
    make_coloring,
    rcm_order,
    validate_coloring,
)
from .estimators import (
    EntropyEstimate,
    NonConvergenceError,
    adaptive_hutchpp,
    entropy_hutchpp,
    entropy_probing,
    heuristic_select_d,
    hutchinson,
    hutchpp,
    probing_error_identity_check,
    probing_trace,
)
from .generators import barabasi_albert_adjacency, grid2d_adjacency
from .krylov import (
    ENTROPY,
    XLOGX,
    PoleSequence,
    QuadformResult,
    RationalArnoldiDecomposition,
    adaptive_funvec,
    adaptive_quadform,
    aposteriori_bounds,
    eds_poles,
    funvec_aposteriori,
    funvec_value,
    gm_estimate,
    quadform_value,
    trace_to_csv,
)
from .solver import PoleSolver, cg_solve, factorize
from .sparse import (
    DensityMatrix,
    MatrixFormatError,
    SparseSymMatrix,
    SpectralInterval,
    build_laplacian,
    dense_entropy_oracle,
    dense_sym_eig,
    entropy_rescale,
    laplacian_interval,
    largest_component,
    matvec,
    normalize_trace,
    parse_matrix_market,
    spectral_interval,
    write_matrix_market,
)

__version__ = "0.1.0"
