"""Point counting on a singular quintic del Pezzo surface.

The surface S in P^5 is cut out by five quadrics and carries one
singularity of type A2 and exactly four lines.  This package counts
rational points of bounded height on the complement of the lines by two
independent routes (a direct box search and a torsor parametrization),
evaluates the predicted leading constant, and cross-checks every layer
of the computation.
"""

from .arith import factorize, moebius, phi_dagger, phi_star, primes, squarefree_divisors
from .counting import (
    NAIVE_MAX_B,
    BijectionResult,
    CountResult,
    count_naive,
    count_torsor,
    verify_bijection,
)
from .density import (
    G2,
    EulerProduct,
    PeyreConstant,
    QuadratureError,
    QuadratureResult,
    alpha_constant,
    euler_product,
    g0,
    g_family,
    h_max,
    omega_infty,
    peyre_constant,
)
from .dirichlet import (
    K_CUT,
    K_MAIN,
    ZetaRational,
    delta_k,
    local_factor,
    predicted_main_term,
    summatory_M,
    theta,
)
from .surface import (
    LINES,
    Line,
    ProjectivePoint,
    brute_force_points,
    find_lines,
    find_singular_points,
    height,
    in_U,
    is_on_surface,
    normalize,
)
from .torsor import (
    EDGES,
    VERTICES,
    ScalingContext,
    TorsorPoint,
    coprimality_full,
    coprimality_reduced,
    psi,
    scaling_context,
)
from .verify import CheckResult, run_all

__version__ = "0.1.0"
