"""atlab: analytic-torsion lab.

Zeta-regularized determinants of flat-torus Laplacians, genus-1 Arakelov
invariants, effective upper bounds on log det for genus g > 1, and an audit
that recomputes every numeric claim of the source document it implements.
"""

from .numerics import (
    ConvergenceError,
    ModularTransform,
    Precision,
    UpperHalfPoint,
    abs_eta,
    exp_integral_e1,
    log_abs_eta,
    reduce_to_fundamental_domain,
    zeta_em,
    zeta_em_deriv,
    zeta_prime_minus1,
)
from .torus import (
    DetComparison,
    UnitTorus,
    compare_logdet,
    eigenvalues_below,
    heat_trace,
    logdet_closed,
    logdet_oracle,
    scaled_logdet,
    spectral_zeta,
)
from .elliptic import (
    arakelov_area,
    arakelov_logdet,
    d_ar_elliptic,
    elliptic_upper_bound_log,
    faltings_delta_elliptic,
    log_arakelov_area,
    qprod_bound,
)
from .bounds import (
    BoundBreakdown,
    TableRow,
    a_of_g,
    assembled_bound,
    csel_lower,
    delta_conversion,
    e_of_g,
    fq_gap_coefficients,
    fq_gap_lower,
    genus0_det,
    heat_integral,
    heat_term,
    k_const,
    kappa,
    log_area_bound,
    metric_ratio_bound,
    table,
    upper_bound_logdet,
    wentworth_delta,
    wilms_lower,
)
from .claims import (
    Claim,
    ClaimRecord,
    ClaimReport,
    EXPECTED_DISCREPANT,
    builtin_registry,
    evaluate,
    run_all,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError", "ModularTransform", "Precision", "UpperHalfPoint",
    "abs_eta", "exp_integral_e1", "log_abs_eta", "reduce_to_fundamental_domain",
    "zeta_em", "zeta_em_deriv", "zeta_prime_minus1",
    "DetComparison", "UnitTorus", "compare_logdet", "eigenvalues_below",
    "heat_trace", "logdet_closed", "logdet_oracle", "scaled_logdet",
    "spectral_zeta",
    "arakelov_area", "arakelov_logdet", "d_ar_elliptic",
    "elliptic_upper_bound_log", "faltings_delta_elliptic", "log_arakelov_area",
    "qprod_bound",
    "BoundBreakdown", "TableRow", "a_of_g", "assembled_bound", "csel_lower",
    "delta_conversion", "e_of_g", "fq_gap_coefficients", "fq_gap_lower", "genus0_det",
    "heat_integral", "heat_term", "k_const", "kappa", "log_area_bound",
    "metric_ratio_bound", "table", "upper_bound_logdet", "wentworth_delta",
    "wilms_lower",
    "Claim", "ClaimRecord", "ClaimReport", "EXPECTED_DISCREPANT",
    "builtin_registry", "evaluate", "run_all",
    "__version__",
]
