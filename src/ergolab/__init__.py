"""Numerical transfer-operator toolkit for CLT/FCLT diagnostics on
interval maps: operator backends, norm-decay classification, martingale
decomposition, variance estimation and Monte Carlo limit-law tests."""

__version__ = "0.1.0"

from .decay import (
    DecayReport,
    RateFit,
    cesaro_norm_sequence,
    classify_conditions,
    decay_report,
    fit_polynomial_rate,
    norm_decay_sequence,
)
from .errors import (
    ConfigurationError,
    ConvergenceError,
    DegenerateMeasureError,
    DomainError,
    EnsembleRunError,
    ErgolabError,
    FitError,
    IncompatibleGridsError,
    InvalidInputError,
    NumericalEscapeError,
    ParameterError,
    PreconditionError,
)
from .function_space import (
    GridFunction,
    MeasureDensity,
    QuadratureGrid,
    inner_product,
    integrate,
    lp_norm,
)
from .gordin import (
    CoboundaryResult,
    GordinDecomposition,
    coboundary_detect,
    gordin_decompose,
)
from .maps import Branch, IntervalMap, builtin_map
from .montecarlo import (
    EnsembleConfig,
    GreenKuboResult,
    PathEnsemble,
    run_ensemble,
    sigma_green_kubo,
    sigma_variance_growth,
)
from .observables import Observable, build_observable, parse_expression
from .stats import (
    KSResult,
    clt_test,
    clt_threshold,
    fclt_test,
    ks_statistic,
    reference_cdf,
)
from .transfer import (
    BranchTransferOperator,
    UlamTransferOperator,
    duality_residual,
    invariant_density,
    make_backend,
    resolve_measure,
    transfer_apply,
    ulam_matrix,
)

__all__ = [name for name in dir() if not name.startswith("_")]
