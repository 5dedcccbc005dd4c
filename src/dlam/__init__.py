"""Gradient-backpropagation-free trainer for fully-connected networks.

Training alternates closed-form or backtracked block updates over weights,
intercepts, pre-activations, and activations, with the nonlinear coupling
relaxed into an elementwise tolerance slab. The package also ships a
diagnostics suite that audits the optimizer's descent guarantees, IDX data
loading, first-order baselines, and an experiment CLI.
"""

from .network_state import (
    ActivationKind,
    Architecture,
    NetworkState,
    RegKind,
    activation_apply,
    feasibility_residual,
    forward_logits,
    initialize,
)
from .objective import HyperParams, ObjectiveBreakdown, evaluate_f
from .optimizer import EpochReport, run_epoch, train

__version__ = "0.1.0"

__all__ = [
    "ActivationKind",
    "Architecture",
    "EpochReport",
    "HyperParams",
    "NetworkState",
    "ObjectiveBreakdown",
    "RegKind",
    "activation_apply",
    "evaluate_f",
    "feasibility_residual",
    "forward_logits",
    "initialize",
    "run_epoch",
    "train",
]
