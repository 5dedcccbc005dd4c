"""Gradient-backpropagation-free trainer for fully-connected networks.

Training alternates closed-form or backtracked block updates over weights,
intercepts, pre-activations, and activations, with the nonlinear coupling
relaxed into an elementwise tolerance slab. The package also ships a
diagnostics suite that audits the optimizer's descent guarantees, IDX data
loading, first-order baselines, and an experiment CLI.

Set DLAM_THREADS before the first import to cap the BLAS thread pools
(best effort: it only takes hold if numpy has not been loaded yet).
"""

import os as _os

_threads = _os.environ.get("DLAM_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

from .network_state import (                                    # noqa: E402
    ActivationKind,
    Architecture,
    NetworkState,
    RegKind,
    RiskKind,
    activation_apply,
    feasibility_residual,
    forward_logits,
    initialize,
    load_state,
    save_state,
)
from .objective import HyperParams, ObjectiveBreakdown, evaluate_f   # noqa: E402
from .optimizer import EpochReport, adapt_epsilon, run_epoch, train  # noqa: E402

__version__ = "0.1.0"

__all__ = [
    "ActivationKind",
    "Architecture",
    "EpochReport",
    "HyperParams",
    "NetworkState",
    "ObjectiveBreakdown",
    "RegKind",
    "RiskKind",
    "activation_apply",
    "adapt_epsilon",
    "evaluate_f",
    "feasibility_residual",
    "forward_logits",
    "initialize",
    "load_state",
    "run_epoch",
    "save_state",
    "train",
]
