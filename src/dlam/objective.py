"""The training objective: risk, regularizers, quadratic coupling penalty.

The full objective is

    F = risk(z_L; y) + sum_l reg(W_l) + sum_l phi_l + sum_hidden indicator

where phi_l = (rho/2) ||z_l - W_l a_{l-1} - b_l||_F^2 couples each layer's
pre-activation to the affine image of its input, and the indicator is 0 when
every hidden activation sits inside its eps-slab and +inf otherwise. Risk is
averaged over batch columns so rho does not have to scale with batch size;
the penalty sums over columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import network_state as ns
from .tensor_core import ShapeError

# Absolute slack when deciding whether the indicator terms vanish; pure
# float-rounding headroom.
FEASIBILITY_TOL = 1e-12


@dataclass(frozen=True)
class HyperParams:
    """Optimizer knobs. Defaults reproduce the reference experiment setup."""

    rho: float = 1e-4          # coupling penalty weight
    eps0: float = 10.0         # slab tolerance upper bound; a fresh adaptive run
                               # starts at min(eps0, 0.01) and only shrinks
    gamma: float = 2.0         # curvature growth factor for the W backtracking
    eta: float = 2.0           # curvature growth factor for the a backtracking
    alpha0: float = 1e-3       # smallest curvature tried by either backtracking
    fista_iters: int = 50
    fista_tol: float = 1e-8
    max_backtrack: int = 60
    epochs: int = 150
    seed: int = 0

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError("rho must be > 0")
        if self.eps0 <= 0:
            raise ValueError("eps0 must be > 0")
        if self.gamma <= 1 or self.eta <= 1:
            raise ValueError("gamma and eta must be > 1")
        if self.alpha0 <= 0:
            raise ValueError("alpha0 must be > 0")
        if self.fista_iters < 1 or self.max_backtrack < 1:
            raise ValueError("iteration budgets must be >= 1")
        if self.fista_tol <= 0:
            raise ValueError("fista_tol must be > 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")


@dataclass
class ObjectiveBreakdown:
    risk: float
    reg: float
    penalty_per_layer: list[float]
    feasible: bool
    total: float


def coupling_residual(a_prev: np.ndarray, W: np.ndarray, b: np.ndarray,
                      z: np.ndarray) -> np.ndarray:
    """W a_prev + b 1^T - z, the residual every coupling term is built on."""
    return W @ a_prev + b - z


def mean_residual(a_prev: np.ndarray, W: np.ndarray, b: np.ndarray,
                  z: np.ndarray) -> np.ndarray:
    """Per-sample mean of the coupling residual, as a column: b + mean(W a_prev - z).

    The intercept is added after the mean, so this is the shift the exact
    intercept step removes and what its identity check measures.
    """
    return b + (W @ a_prev - z).mean(axis=1, keepdims=True)


def penalty_phi(a_prev: np.ndarray, W: np.ndarray, b: np.ndarray, z: np.ndarray,
                rho: float) -> float:
    """(rho/2) ||z - W a_prev - b 1^T||_F^2."""
    resid = coupling_residual(a_prev, W, b, z)
    return 0.5 * rho * float(np.sum(resid * resid))


def grad_phi_w(a_prev, W, b, z, rho) -> np.ndarray:
    """rho (W a_prev + b 1^T - z) a_prev^T."""
    return rho * (coupling_residual(a_prev, W, b, z) @ a_prev.T)


def grad_phi_b(a_prev, W, b, z, rho) -> np.ndarray:
    """Column vector rho * rowsum(b 1^T + W a_prev - z).

    Summed over batch columns, which is what finite differences of
    penalty_phi with respect to the shared intercept produce.
    """
    return rho * coupling_residual(a_prev, W, b, z).sum(axis=1, keepdims=True)


def grad_phi_z(a_prev, W, b, z, rho) -> np.ndarray:
    """rho (z - W a_prev - b 1^T)."""
    return -rho * coupling_residual(a_prev, W, b, z)


def grad_phi_a(a, W_next, b_next, z_next, rho) -> np.ndarray:
    """rho W_next^T (W_next a + b_next 1^T - z_next)."""
    return rho * (W_next.T @ coupling_residual(a, W_next, b_next, z_next))


def softmax_columns(z: np.ndarray) -> np.ndarray:
    """Column-wise softmax, log-sum-exp stabilized."""
    shifted = z - z.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=0, keepdims=True)


def risk_cross_entropy(z: np.ndarray, y: np.ndarray) -> float:
    """Mean over columns of -sum_c y_c log softmax(z)_c; y must be one-hot.

    The labels are checked once where they enter (``initialize`` and
    ``train_baseline``), not on every evaluation.
    """
    if z.shape != y.shape:
        raise ShapeError(f"risk: shapes differ, {z.shape} vs {y.shape}")
    m = z.max(axis=0, keepdims=True)
    lse = m + np.log(np.exp(z - m).sum(axis=0, keepdims=True))
    return float(np.mean(lse - (y * z).sum(axis=0, keepdims=True)))


def grad_risk_cross_entropy(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(softmax(z) - y) / N."""
    if z.shape != y.shape:
        raise ShapeError(f"risk grad: shapes differ, {z.shape} vs {y.shape}")
    return (softmax_columns(z) - y) / z.shape[1]


def risk_value(kind: ns.RiskKind, z: np.ndarray, y: np.ndarray) -> float:
    if kind is ns.RiskKind.CROSS_ENTROPY:
        return risk_cross_entropy(z, y)
    if kind is ns.RiskKind.SQUARED:
        d = z - y
        return 0.5 * float(np.sum(d * d)) / z.shape[1]
    if kind is ns.RiskKind.ZERO:
        return 0.0
    raise ValueError(f"unknown risk {kind!r}")


def risk_grad(kind: ns.RiskKind, z: np.ndarray, y: np.ndarray) -> np.ndarray:
    if kind is ns.RiskKind.CROSS_ENTROPY:
        return grad_risk_cross_entropy(z, y)
    if kind is ns.RiskKind.SQUARED:
        return (z - y) / z.shape[1]
    if kind is ns.RiskKind.ZERO:
        return np.zeros_like(z)
    raise ValueError(f"unknown risk {kind!r}")


def risk_smoothness(kind: ns.RiskKind, n_samples: int) -> float:
    """Valid Lipschitz constant of the risk gradient.

    The softmax cross-entropy Hessian per column has eigenvalues in
    [0, 1/2]; the batch mean divides that by N.
    """
    if kind is ns.RiskKind.CROSS_ENTROPY:
        return 0.5 / n_samples
    if kind is ns.RiskKind.SQUARED:
        return 1.0 / n_samples
    return 0.0


def regularizer_value(kind: ns.RegKind, lam: float, W: np.ndarray) -> float:
    if kind is ns.RegKind.NONE or lam == 0.0:
        return 0.0
    if kind is ns.RegKind.L2:
        return lam * float(np.linalg.norm(W)) ** 2
    if kind is ns.RegKind.L1:
        return lam * float(np.abs(W).sum())
    raise ValueError(f"unknown regularizer {kind!r}")


def soft_threshold(v: np.ndarray, thresh: float) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - thresh, 0.0)


def solve_w_subproblem(kind: ns.RegKind, lam: float, W_k: np.ndarray,
                       grad: np.ndarray, theta: float) -> np.ndarray:
    """Exact minimizer of <grad, W - W_k> + (theta/2)||W - W_k||_F^2 + reg(W).

    Separable in the entries for scalar theta, so each case is a closed
    form: plain step, shrunken step for l2, soft threshold for l1.
    """
    if theta <= 0:
        raise ValueError("theta must be > 0")
    if kind is ns.RegKind.NONE or lam == 0.0:
        return W_k - grad / theta
    if kind is ns.RegKind.L2:
        return (theta * W_k - grad) / (theta + 2.0 * lam)
    if kind is ns.RegKind.L1:
        return soft_threshold(W_k - grad / theta, lam / theta)
    raise ValueError(f"unknown regularizer {kind!r}")


def evaluate_f(state: ns.NetworkState, hp: HyperParams,
               eps: float | None = None) -> ObjectiveBreakdown:
    """Full objective at the current state, broken into its terms.

    ``eps`` is the slab tolerance in force (defaults to hp.eps0); a state
    violating the slab beyond float slack reports feasible=False and an
    infinite total instead of raising.
    """
    if eps is None:
        eps = hp.eps0
    arch = state.arch
    risk = risk_value(arch.risk, state.z[-1], state.y)
    reg = sum(regularizer_value(arch.regularizer, arch.reg_weight, W) for W in state.W)
    penalties = [
        penalty_phi(state.a_prev(l), state.W[l], state.b[l], state.z[l], hp.rho)
        for l in range(state.num_layers)
    ]
    feasible = ns.feasibility_residual(state, eps) <= FEASIBILITY_TOL
    total = risk + reg + sum(penalties) if feasible else math.inf
    return ObjectiveBreakdown(risk=risk, reg=reg, penalty_per_layer=penalties,
                              feasible=feasible, total=total)


def accuracy_from_logits(logits: np.ndarray, y: np.ndarray) -> float:
    """Fraction of columns whose argmax matches the one-hot label."""
    return float(np.mean(logits.argmax(axis=0) == y.argmax(axis=0)))
