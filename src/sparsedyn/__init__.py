"""sparsedyn: data-driven discovery of sparse governing equations.

Fit dq/dt (or a weak/implicit reformulation) as a sparse combination of
candidate features built from states, derivatives, and controls.  See the
README for the CLI and a worked example.
"""

from .data import (
    Dataset,
    Grid,
    TrajectoryCollection,
    add_noise,
    flatten,
    load_dataset,
    save_dataset,
    split_train_test,
    unflatten,
)
from .diff import (
    DiffMethod,
    FiniteDifference,
    SavitzkyGolay,
    Spectral,
    differentiate,
    differentiate_dataset,
)
from .ensemble import EnsembleReport, EnsembleSpec, fit_ensemble
from .errors import DataError, FitError, SpecError
from .library import (
    Concat,
    Custom,
    Fourier,
    InputSubset,
    LibrarySpec,
    PDE,
    Polynomial,
    Tensor,
    WeakPDE,
    evaluate_pointwise,
)
from .model import (
    FittedModel,
    SimulationResult,
    design,
    equations,
    fit,
    fit_implicit,
    predict,
    score,
    simulate,
)
from .optimize import (
    FROLS,
    SR3,
    SSR,
    STLSQ,
    Coefficients,
    OptimizerSpec,
    Problem,
    solve,
    solve_path,
)
from .systems import KS, BenchmarkSpec, Lorenz, canonical_library, generate, verify_residual

__version__ = "0.1.0"

__all__ = [
    "BenchmarkSpec",
    "Coefficients",
    "Concat",
    "Custom",
    "DataError",
    "Dataset",
    "DiffMethod",
    "EnsembleReport",
    "EnsembleSpec",
    "FROLS",
    "FiniteDifference",
    "FitError",
    "FittedModel",
    "Fourier",
    "Grid",
    "InputSubset",
    "KS",
    "LibrarySpec",
    "Lorenz",
    "OptimizerSpec",
    "PDE",
    "Polynomial",
    "Problem",
    "SR3",
    "SSR",
    "STLSQ",
    "SavitzkyGolay",
    "SimulationResult",
    "SpecError",
    "Spectral",
    "Tensor",
    "TrajectoryCollection",
    "WeakPDE",
    "add_noise",
    "canonical_library",
    "design",
    "differentiate",
    "differentiate_dataset",
    "equations",
    "evaluate_pointwise",
    "fit",
    "fit_ensemble",
    "fit_implicit",
    "flatten",
    "generate",
    "load_dataset",
    "predict",
    "save_dataset",
    "score",
    "simulate",
    "solve",
    "solve_path",
    "split_train_test",
    "unflatten",
    "verify_residual",
]
