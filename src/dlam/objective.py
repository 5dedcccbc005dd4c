"""The training objective: cross-entropy risk, regularizers, quadratic coupling penalty.

The full objective is

    F = risk(z_L; y) + sum_l reg(W_l) + sum_l phi_l + sum_hidden indicator

where phi_l = (rho/2) ||z_l - W_l a_{l-1} - b_l||_F^2 couples each layer's
pre-activation to the affine image of its input, and the indicator is 0 when
every hidden activation sits inside its eps-slab and +inf otherwise. The
cross-entropy risk is averaged over batch columns so rho does not have to
scale with batch size; the penalty sums over columns.

phi_l depends on the blocks only through R_l = W_l a_{l-1} + b_l - z_l, and
this module holds the one copy of each formula on R: ``residual``, ``penalty``
and its block gradients ``grad_w/b/z/a``, the W one with l2 in ``smooth_grad_w``.
``penalty_phi`` and ``grad_phi_*`` compose them with ``coupling_residual`` for
callers holding only the blocks. ``inner`` is the one reduction of two blocks
that the penalty and the optimizer's squared norms and pairings share. The
output solve's Newton step, ``newton_direction``, sits beside the risk formulas.
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
    """What a run varies. Defaults reproduce the reference experiment setup;
    the solver's own constants live in the optimizer module."""

    rho: float = 1e-4          # coupling penalty weight
    eps0: float = 10.0         # slab tolerance bound; train holds eps at
                               # min(eps0, optimizer.EPS_MAX) for the whole run
    epochs: int = 150
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "seed"):
            if ns.check_integer(name, getattr(self, name)) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not 0 < self.rho < math.inf:
            raise ValueError("rho must be finite and > 0")
        if not 0 < self.eps0 < math.inf:
            raise ValueError("eps0 must be finite and > 0")


@dataclass
class ObjectiveBreakdown:
    risk: float
    reg: float
    penalty_per_layer: list[float]
    feasible: bool
    total: float


def inner(u: np.ndarray, v: np.ndarray) -> float:
    """<u, v>_F, summed without forming u * v: the one reduction of two blocks."""
    return float(np.vdot(u, v))


def residual(free: np.ndarray, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """free - z, ``free`` = W a_prev + b 1^T the free step: the coupling residual R,
    written into ``out`` when given, which may be ``free`` itself."""
    return np.subtract(free, z, out=out)


def coupling_residual(a_prev: np.ndarray, W: np.ndarray, b: np.ndarray,
                      z: np.ndarray) -> np.ndarray:
    """W a_prev + b 1^T - z, the residual every coupling term is built on."""
    free = W @ a_prev
    free += b
    return residual(free, z, out=free)


def mean_residual(product: np.ndarray, b: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Per-sample mean of the coupling residual, as a column: b + mean(W a_prev - z).

    ``product`` is W a_prev. The intercept is added after the mean, so this
    is the shift the exact intercept step removes.
    """
    return b + (product - z).mean(axis=1, keepdims=True)


def penalty(R: np.ndarray, rho: float) -> float:
    """phi = (rho/2) ||R||_F^2 for a coupling residual R."""
    return 0.5 * rho * inner(R, R)


def grad_w(R: np.ndarray, a_prev: np.ndarray, rho: float) -> np.ndarray:
    """d phi / d W = rho R a_prev^T."""
    return rho * (R @ a_prev.T)


def grad_b(R: np.ndarray, rho: float) -> np.ndarray:
    """d phi / d b = rho rowsum(R): b is shared by every batch column."""
    return rho * R.sum(axis=1, keepdims=True)


def grad_z(R: np.ndarray, rho: float) -> np.ndarray:
    """d phi / d z = -rho R."""
    return -rho * R


def grad_a(R: np.ndarray, W_next: np.ndarray, rho: float,
           out: np.ndarray | None = None) -> np.ndarray:
    """d phi_next / d a = rho W_next^T R_next, R_next the next layer's residual;
    written into ``out`` when given."""
    g = np.matmul(W_next.T, R, out=out)
    g *= rho
    return g


def penalty_phi(a_prev: np.ndarray, W: np.ndarray, b: np.ndarray, z: np.ndarray,
                rho: float) -> float:
    return penalty(coupling_residual(a_prev, W, b, z), rho)


def grad_phi_w(a_prev, W, b, z, rho) -> np.ndarray:
    return grad_w(coupling_residual(a_prev, W, b, z), a_prev, rho)


def grad_phi_b(a_prev, W, b, z, rho) -> np.ndarray:
    return grad_b(coupling_residual(a_prev, W, b, z), rho)


def grad_phi_z(a_prev, W, b, z, rho) -> np.ndarray:
    return grad_z(coupling_residual(a_prev, W, b, z), rho)


def grad_phi_a(a, W_next, b_next, z_next, rho) -> np.ndarray:
    return grad_a(coupling_residual(a, W_next, b_next, z_next), W_next, rho)


def _shifted_exp(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(m, e, s): the column max m, e = exp(z - m) and its column sums s, so that
    softmax(z) = e / s and log-sum-exp(z) = m + log s without overflow."""
    m = z.max(axis=0, keepdims=True)
    e = np.exp(z - m)
    return m, e, e.sum(axis=0, keepdims=True)


def softmax_columns(z: np.ndarray) -> np.ndarray:
    """Column-wise softmax, log-sum-exp stabilized."""
    _, e, s = _shifted_exp(z)
    return e / s


def cross_entropy(z: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """(risk, e, s): the cross-entropy risk and the softmax's parts, softmax(z) = e / s.

    The risk is the mean over columns of -sum_c y_c log softmax(z)_c; y must
    be one-hot. The labels are checked once where they enter (``initialize``
    and ``train_baseline``), not on every evaluation.
    """
    if z.shape != y.shape:
        raise ShapeError(f"risk: shapes differ, {z.shape} vs {y.shape}")
    m, e, s = _shifted_exp(z)
    lse = m + np.log(s)
    return float(np.mean(lse - (y * z).sum(axis=0, keepdims=True))), e, s


def risk_cross_entropy(z: np.ndarray, y: np.ndarray) -> float:
    """The cross-entropy risk alone (cross_entropy)."""
    return cross_entropy(z, y)[0]


def grad_risk_cross_entropy(z: np.ndarray, y: np.ndarray,
                            p: np.ndarray | None = None) -> np.ndarray:
    """(softmax(z) - y) / N; ``p`` is softmax(z) when the caller already formed it."""
    if z.shape != y.shape:
        raise ShapeError(f"risk grad: shapes differ, {z.shape} vs {y.shape}")
    return ((softmax_columns(z) if p is None else p) - y) / z.shape[1]


def newton_direction(g: np.ndarray, rho: float, p: np.ndarray) -> np.ndarray:
    """H^{-1} g, H the Hessian of the output composite (rho/2)||z - m||_F^2 + risk(z; y).

    ``g`` is the composite's gradient at z and ``p`` = softmax(z). H is block
    diagonal, one C x C block per column: diag(D) - p p^T / N with
    D = rho + p / N, and Sherman-Morrison inverts that rank-one update in
    closed form: H^{-1} g = g / D + (p / D) sum_c(p g / D) / (N - sum_c(p^2 / D)).
    Since sum_c p = 1 the denominator equals N rho sum_c(p / D), which is
    how it is formed here: a sum of positive terms, free of cancellation.
    """
    n = g.shape[1]
    d = rho + p / n
    q = p / d
    coef = (q * g).sum(axis=0, keepdims=True) / ((n * rho) * q.sum(axis=0, keepdims=True))
    return g / d + q * coef


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


def smooth_grad_w(kind: ns.RegKind, lam: float, W: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """A W step's direction: the penalty's gradient ``grad``, plus 2 lam W under l2."""
    if kind is ns.RegKind.L2 and lam != 0.0:
        return grad + 2.0 * lam * W
    return grad


def objective_from_penalties(state: ns.NetworkState, penalties: list[float],
                             feas: float) -> ObjectiveBreakdown:
    """Full objective at the current state, given every layer's coupling penalty.

    ``penalties[l]`` must be phi_l = penalty(R_l, rho) at the current state
    and ``feas`` its largest slab violation, ns.feasibility_residual at the
    eps in force. A state violating the slab beyond float slack reports
    feasible=False and an infinite total instead of raising.
    """
    arch = state.arch
    risk = risk_cross_entropy(state.z[-1], state.y)
    reg = sum(regularizer_value(arch.regularizer, arch.reg_weight, W) for W in state.W)
    feasible = feas <= FEASIBILITY_TOL
    total = risk + reg + sum(penalties) if feasible else math.inf
    return ObjectiveBreakdown(risk=risk, reg=reg, penalty_per_layer=penalties,
                              feasible=feasible, total=total)


def evaluate_f(state: ns.NetworkState, hp: HyperParams, eps: float) -> ObjectiveBreakdown:
    """Full objective at the current state, broken into its terms.

    ``eps`` is the slab tolerance in force. Forms every coupling residual
    afresh, one at a time; see objective_from_penalties.
    """
    penalties = [penalty_phi(state.a_prev(l), state.W[l], state.b[l], state.z[l], hp.rho)
                 for l in range(state.num_layers)]
    return objective_from_penalties(state, penalties, ns.feasibility_residual(state, eps))


def accuracy_from_logits(logits: np.ndarray, y: np.ndarray) -> float:
    """Fraction of columns whose argmax matches the one-hot label."""
    return float(np.mean(logits.argmax(axis=0) == y.argmax(axis=0)))
