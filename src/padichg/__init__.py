"""p-adic hypergeometric functions over truncated arithmetic."""

from .padic import (
    CNotOneModP,
    DenominatorDivisibleByP,
    NotDivisible,
    Padic,
    PadicError,
    PrecisionExhausted,
    PreconditionViolated,
    embed_rational,
    iwasawa_log,
    parse_rational,
)
from .series import TruncSeries, polymul
from .hyper import (
    SIGMA,
    SIGMA_HAT,
    FrobeniusSpec,
    HGParams,
    NoPeriod,
    b0_constant,
    b_coefficients,
    bhat_coefficients,
    compute_h,
    hg_series,
    twist_pair,
)
from .interp import beta_values, ratio_identity_check, witness_for
from .verify import (
    CheckReport,
    NoUnitCoefficient,
    check_congruence_relation,
    check_dwork_transformation,
    check_integrality,
    check_main_congruence,
    check_ratio_interpolation,
    sweep_beta_pairing,
    sweep_braced,
    sweep_ratio,
    sweep_section,
)

__version__ = "0.1.0"
