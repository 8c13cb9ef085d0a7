"""triring: exact differential-ring and Puiseux-series toolkit.

Implements the exact polynomial ring with the y-weight grading, the
derivations D, D', H and their homogeneous counterpart, Rankin brackets,
stable-ideal certificates, truncated Puiseux arithmetic, the local
hypergeometric expansions at 0, 1 and infinity with their connection
constants, and vanishing-order computations with an empirical audit of
the degree-profile multiplicity bound.
"""

from . import errors
from .params import (
    TriangleParams,
    DerivedConstants,
    validate,
    derived_constants,
    eta,
    critical_residuals,
    eta_scan,
)
from .ring import (
    Poly,
    AFFINE_VARS,
    HOMOG_VARS,
    poly_from_text,
    weight,
    isobaric_components,
    homogenize_weight,
    resultant,
    resultant_with_cofactors,
)
from .derivation import (
    apply_D,
    apply_variant,
    rankin_bracket,
    homog_D,
    quadratic_form,
)
from .ideals import (
    kappa,
    ramanujan_l,
    principal_stability,
    certify_stability,
    membership,
    certify_case_one,
)
from .series import PuiseuxSeries
from .hypergeom import (
    u_series,
    y_series,
    tau_q_series_at_zero,
    connection_constants,
    numeric_checks,
)
from .multiplicity import (
    OrdReport,
    BoundAudit,
    ord_at_zero,
    ord_at_generic,
    log_dist_hypersurface,
    bound_audit,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "TriangleParams",
    "DerivedConstants",
    "validate",
    "derived_constants",
    "eta",
    "critical_residuals",
    "eta_scan",
    "Poly",
    "AFFINE_VARS",
    "HOMOG_VARS",
    "poly_from_text",
    "weight",
    "isobaric_components",
    "homogenize_weight",
    "resultant",
    "resultant_with_cofactors",
    "apply_D",
    "apply_variant",
    "rankin_bracket",
    "homog_D",
    "quadratic_form",
    "kappa",
    "ramanujan_l",
    "principal_stability",
    "certify_stability",
    "membership",
    "certify_case_one",
    "PuiseuxSeries",
    "u_series",
    "y_series",
    "tau_q_series_at_zero",
    "connection_constants",
    "numeric_checks",
    "OrdReport",
    "BoundAudit",
    "ord_at_zero",
    "ord_at_generic",
    "log_dist_hypersurface",
    "bound_audit",
    "__version__",
]
