"""rudlab: exact Rademacher sign averages, norm engines for classical and
counterexample sequence spaces, and reproducible convergence/divergence
ratio certificates at desk scale."""

from .coeffs import (
    Coeffs,
    DomainError,
    EnumerationCapError,
    NormingFunctional,
    SignPattern,
    apply_signs,
    enumerate_sign_patterns,
    pair,
)
from .config import RunConfig, SpaceFactory, parse_coeffs
from .exactnum import QSum, sqrt_exact
from .rademacher import (
    ExpectationEstimate,
    expect_exact,
    expect_mc,
    expect_perm,
    expect_second_moment,
    expect_subsets,
)
from .witness import partition_rud_bound, ratio_ruc, ratio_rud, ratio_unc

__version__ = "0.1.0"

__all__ = [
    "Coeffs", "SignPattern", "NormingFunctional", "QSum", "sqrt_exact",
    "DomainError", "EnumerationCapError", "apply_signs", "pair",
    "enumerate_sign_patterns", "RunConfig", "SpaceFactory", "parse_coeffs",
    "ExpectationEstimate", "expect_exact", "expect_mc", "expect_subsets",
    "expect_perm", "expect_second_moment", "ratio_ruc", "ratio_rud",
    "ratio_unc", "partition_rud_bound",
]
