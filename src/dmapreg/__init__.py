"""Exact Sobolev regularity analysis over degenerate geometry maps.

The package decides, symbolically and with exact rational arithmetic, how
much Sobolev regularity (first or second order, any integrability exponent
p >= 1) a function f = z o x^{-1} retains when the geometry map x collapses
one parameter edge direction at a corner.  It also produces the linear
coefficient constraints that enforce a target regularity, and ships an
independent numeric quadrature oracle that cross-examines the symbolic
verdicts on truncated domains.

Layering:

- :mod:`dmapreg.poly2` - exact bivariate polynomials and 2x2 matrix helpers;
- :mod:`dmapreg.bernstein` - Bernstein-coefficient positivity certificates;
- :mod:`dmapreg.dmap` - validation and standardisation of degenerate maps;
- :mod:`dmapreg.sobolev` - derivative quotients and the regularity cascade;
- :mod:`dmapreg.constraints` - linear constraint systems on coefficients;
- :mod:`dmapreg.verify` - truncated-domain quadrature oracle;
- :mod:`dmapreg.cli` - JSON job front end (``dmapreg`` console script).
"""

from .poly2 import (
    Poly2,
    PolyMat2,
    U,
    V,
    adjugate2,
    det2,
    mat2,
    vec2,
)
from .bernstein import (
    POSITIVE,
    UNKNOWN,
    WITNESS,
    SubdivisionBudget,
    bernstein_coefficients,
    certify_positive_on_box,
    restrict_to_box,
)
from .dmap import (
    CERTIFIED,
    FAILED,
    SAMPLED_ONLY,
    DMapRecord,
    ValidationError,
    ValidationReport,
    canonical_dmap,
    jacobian,
    reduce_field,
    standardize,
    validate,
)
from .sobolev import (
    InternalInconsistencyError,
    QuotientData,
    RegularityReport,
    agreement_probes,
    classify,
    leading_part,
    monomial_in_Lp,
    p_range,
    quotient,
    quotient_first,
    quotient_second,
    weight,
)
from .constraints import (
    CoefficientSpace,
    ConstraintSystem,
    admissible_basis,
    c1_residuals,
    c1_system,
    case_for_p,
    check_membership,
    constraints_for,
)
from .verify import (
    CONVERGENT,
    DIVERGENT_LOG,
    DIVERGENT_POWER,
    INCONCLUSIVE,
    DivergenceDiagnostic,
    GradientLimitReport,
    QuadratureError,
    SubstitutedBounds,
    gradient_limit_check,
    log_squared_integral,
    monomial_oracle,
    substituted_norm,
    truncated_norm,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # poly2
    "Poly2",
    "PolyMat2",
    "U",
    "V",
    "vec2",
    "mat2",
    "det2",
    "adjugate2",
    # bernstein
    "POSITIVE",
    "WITNESS",
    "UNKNOWN",
    "SubdivisionBudget",
    "restrict_to_box",
    "bernstein_coefficients",
    "certify_positive_on_box",
    # dmap
    "CERTIFIED",
    "SAMPLED_ONLY",
    "FAILED",
    "DMapRecord",
    "ValidationError",
    "ValidationReport",
    "validate",
    "standardize",
    "reduce_field",
    "canonical_dmap",
    "jacobian",
    # sobolev
    "InternalInconsistencyError",
    "QuotientData",
    "RegularityReport",
    "agreement_probes",
    "classify",
    "weight",
    "monomial_in_Lp",
    "p_range",
    "leading_part",
    "quotient",
    "quotient_first",
    "quotient_second",
    # constraints
    "CoefficientSpace",
    "ConstraintSystem",
    "constraints_for",
    "c1_system",
    "c1_residuals",
    "case_for_p",
    "admissible_basis",
    "check_membership",
    # verify
    "CONVERGENT",
    "DIVERGENT_LOG",
    "DIVERGENT_POWER",
    "INCONCLUSIVE",
    "DivergenceDiagnostic",
    "GradientLimitReport",
    "QuadratureError",
    "SubstitutedBounds",
    "truncated_norm",
    "monomial_oracle",
    "substituted_norm",
    "gradient_limit_check",
    "log_squared_integral",
]
