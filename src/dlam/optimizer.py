"""Cyclic block updates for the coupled training objective (the DLAM loop).

One epoch sweeps the layers front to back and, within each layer, updates
W, b, z, and finally a (hidden layers only), each block against the freshest
values of the others. W and a are solved through a backtracked quadratic
majorizer whose curvature is grown geometrically until it dominates the true
penalty at the candidate point; b and hidden z have exact closed forms; the
output z solves a strongly convex composite (quadratic tether plus risk) by
monotone FISTA. No gradient is ever propagated through more than one layer.

Every accepted step decreases the objective by at least the weighted squared
block movement, which run_epoch records so the diagnostics module can audit
the descent ledger after the fact.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import network_state as ns
from . import objective as obj
from .diagnostics import descent_ledger, grad_b_identity_check


class BacktrackError(RuntimeError):
    """Backtracking failed to majorize within the trial budget."""

    def __init__(self, message: str, last_param: float):
        super().__init__(message)
        self.last_param = last_param


@dataclass
class BacktrackResult:
    accepted_param: float        # curvature theta (W step) or tau (a step)
    updated_block: np.ndarray
    trials: int
    phi_value: float             # true penalty at the accepted candidate
    model_value: float           # majorizer at the accepted candidate


@dataclass
class FistaResult:
    z: np.ndarray
    iterations: int
    converged: bool
    objective_start: float
    objective_end: float
    history: list[float] | None = None


@dataclass
class WarmStart:
    """Carries each layer's last accepted curvature into the next epoch."""

    theta: list[float]
    tau: list[float]

    @classmethod
    def fresh(cls, num_layers: int, alpha0: float) -> "WarmStart":
        return cls(theta=[alpha0] * num_layers, tau=[alpha0] * max(num_layers - 1, 0))


@dataclass
class EpochReport:
    """Everything the diagnostics need from one epoch, norms and deltas only."""

    epoch: int
    f_before: float
    f_after: float
    risk: float
    theta: list[float]
    tau: list[float]
    dw_sq: list[float]
    db_sq: list[float]
    dz_sq: list[float]
    da_sq: list[float]
    descent_rhs: float
    trials_w: list[int]
    trials_a: list[int]
    majorization_w: list[tuple[float, float]]    # (phi, model) at acceptance
    majorization_a: list[tuple[float, float]]
    fista_iterations: int
    fista_converged: bool
    recoveries: int
    feasibility_residual: float
    grad_b_err: float
    grad_norm_proxy: float
    eps_used: float
    eps_next: float
    block_norms: dict = field(default_factory=dict)
    wall_time_s: float = 0.0


def _expand_at(phi0: float, grad: np.ndarray, d: np.ndarray) -> float:
    return phi0 + float(np.sum(grad * d))


def _sq(delta: np.ndarray) -> float:
    return float(np.sum(delta * delta))


def update_w(state: ns.NetworkState, layer: int, hp: obj.HyperParams,
             theta0: float | None = None) -> BacktrackResult:
    """Backtracked majorized step on W at ``layer``; writes the result into state.

    The candidate minimizes the quadratic model plus the regularizer in
    closed form; the curvature grows by gamma until the true penalty no
    longer exceeds the model at the candidate. The penalty is exactly
    quadratic in W, so the comparison is evaluated through its expansion
    phi(cand) = phi(W) + <grad, d> + (rho/2)||d a_prev||^2, which stays
    exact when the residual is near machine zero (a direct phi evaluation
    is cancellation noise there and can stall the loop). Termination is
    guaranteed once the curvature dominates rho ||a_prev||^2.
    """
    arch = state.arch
    a_prev = state.a_prev(layer)
    W_k = state.W[layer]
    resid = obj.coupling_residual(a_prev, W_k, state.b[layer], state.z[layer])
    phi0 = 0.5 * hp.rho * _sq(resid)
    grad = hp.rho * (resid @ a_prev.T)
    theta = hp.alpha0 if theta0 is None else max(theta0, hp.alpha0)
    trials = 1
    while True:
        cand = obj.solve_w_subproblem(arch.regularizer, arch.reg_weight, W_k, grad, theta)
        d = cand - W_k
        quad_true = 0.5 * hp.rho * float(np.sum((d @ a_prev) ** 2))
        quad_model = 0.5 * theta * float(np.sum(d * d))
        if quad_true <= quad_model:
            break
        if trials >= hp.max_backtrack:
            raise BacktrackError(
                f"W update at layer {layer} did not majorize after {trials} trials",
                theta,
            )
        theta *= hp.gamma
        trials += 1
    state.W[layer] = cand
    base = _expand_at(phi0, grad, d)
    return BacktrackResult(theta, cand, trials, base + quad_true, base + quad_model)


def update_b(state: ns.NetworkState, layer: int, hp: obj.HyperParams) -> np.ndarray:
    """Exact intercept step b <- b - mean residual; writes into state.

    With the curvature pinned to rho, the majorized step equals the exact
    minimizer: the per-sample mean of z - W a_prev. Uses the W already
    updated this epoch.
    """
    b_new = state.b[layer] - obj.mean_residual(state.a_prev(layer), state.W[layer],
                                               state.b[layer], state.z[layer])
    state.b[layer] = b_new
    return b_new


def update_z_hidden(state: ns.NetworkState, layer: int, hp: obj.HyperParams,
                    eps: float) -> tuple[np.ndarray, int]:
    """Exact hidden pre-activation step: clip the free step onto the slab box.

    The penalty is an exact separable quadratic in z, so the unconstrained
    step already minimizes it and clipping onto [B1, B2] (the z-image of the
    slab around the current a) yields the exact constrained minimizer.
    Entries whose slab inverts to an empty set are recovered by recentering
    the offending a entry onto h(z) first; returns the recovery count, which
    stays zero on clean runs.
    """
    arch = state.arch
    kind = arch.activation[layer]
    a_k = state.a[layer]
    lo, hi, empty = ns.slab_z_bounds(kind, a_k, eps)
    recoveries = int(empty.sum())
    if recoveries:
        h = ns.activation_apply(kind, state.z[layer])
        fixed = a_k.copy()
        fixed[empty] = h[empty]
        state.a[layer] = fixed
        lo, hi, empty = ns.slab_z_bounds(kind, fixed, eps)
    grad = obj.grad_phi_z(state.a_prev(layer), state.W[layer], state.b[layer],
                          state.z[layer], hp.rho)
    step = state.z[layer] - grad / hp.rho
    z_new = np.clip(step, lo, hi)
    state.z[layer] = z_new
    return z_new, recoveries


def update_z_output(state: ns.NetworkState, hp: obj.HyperParams,
                    record_history: bool = False) -> FistaResult:
    """Monotone FISTA on the output-layer composite; writes z_L into state.

    Minimizes (rho/2)||z - m||_F^2 + risk(z; y) with m the free quadratic
    step. Both parts are smooth for every supported risk, so FISTA reduces
    to accelerated gradient with step 1/(rho + L_risk). A momentum step that
    would raise the composite value is replaced by a plain gradient step
    from the previous iterate (which cannot increase it) and the momentum is
    reset, making the recorded objective nonincreasing.
    """
    arch = state.arch
    L = state.num_layers
    z_k = state.z[L - 1]
    grad0 = obj.grad_phi_z(state.a_prev(L - 1), state.W[L - 1], state.b[L - 1],
                           z_k, hp.rho)
    m = z_k - grad0 / hp.rho
    y = state.y
    lip = hp.rho + obj.risk_smoothness(arch.risk, state.n_samples)
    step = 1.0 / lip

    def value(z):
        d = z - m
        return 0.5 * hp.rho * float(np.sum(d * d)) + obj.risk_value(arch.risk, z, y)

    def gradient(z):
        return hp.rho * (z - m) + obj.risk_grad(arch.risk, z, y)

    z_prev = z_k
    y_v = z_k
    t = 1.0
    f_start = value(z_k)
    f_prev = f_start
    history = [f_start] if record_history else None
    converged = False
    iterations = 0
    for iterations in range(1, hp.fista_iters + 1):
        cand = y_v - step * gradient(y_v)
        f_cand = value(cand)
        if f_cand > f_prev:
            # momentum overshot: plain descent step from the last iterate
            cand = z_prev - step * gradient(z_prev)
            f_cand = value(cand)
            t = 1.0
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        y_v = cand + ((t - 1.0) / t_next) * (cand - z_prev)
        diff = float(np.max(np.abs(cand - z_prev)))
        z_prev = cand
        f_prev = f_cand
        t = t_next
        if history is not None:
            history.append(f_cand)
        if diff < hp.fista_tol:
            converged = True
            break
    state.z[L - 1] = z_prev
    return FistaResult(z_prev, iterations, converged, f_start, f_prev, history)


def update_a(state: ns.NetworkState, layer: int, hp: obj.HyperParams, eps: float,
             tau0: float | None = None) -> BacktrackResult:
    """Backtracked projected step on a hidden activation; writes into state.

    The candidate projects the free quadratic step onto the slab around
    h(z) at this epoch's fresh z, which is the exact minimizer of the
    model-plus-indicator for scalar curvature; the curvature grows by eta
    until the true penalty of the next layer is majorized. Feasibility of
    the accepted block holds by construction.
    """
    kind = state.arch.activation[layer]
    a_k = state.a[layer]
    W_next = state.W[layer + 1]
    h = ns.activation_apply(kind, state.z[layer])
    lo, hi = h - eps, h + eps
    resid = obj.coupling_residual(a_k, W_next, state.b[layer + 1], state.z[layer + 1])
    phi0 = 0.5 * hp.rho * _sq(resid)
    grad = hp.rho * (W_next.T @ resid)
    tau = hp.alpha0 if tau0 is None else max(tau0, hp.alpha0)
    trials = 1
    while True:
        cand = np.clip(a_k - grad / tau, lo, hi)
        d = cand - a_k
        # exact quadratic expansion, see update_w
        quad_true = 0.5 * hp.rho * float(np.sum((W_next @ d) ** 2))
        quad_model = 0.5 * tau * float(np.sum(d * d))
        if quad_true <= quad_model:
            break
        if trials >= hp.max_backtrack:
            raise BacktrackError(
                f"a update at layer {layer} did not majorize after {trials} trials",
                tau,
            )
        tau *= hp.eta
        trials += 1
    state.a[layer] = cand
    base = _expand_at(phi0, grad, d)
    return BacktrackResult(tau, cand, trials, base + quad_true, base + quad_model)


# Tolerance the schedule jumps down to; a fresh adaptive run starts here.
EPS_FLOOR = 0.01


def adapt_epsilon(eps: float, risk: float) -> float:
    """Slab tolerance schedule: shrink when the tolerance dwarfs the risk.

    Jumps down to EPS_FLOOR (halving below it), otherwise keeps eps. It
    never grows: regrowing after a paid shrink lets the activations drift
    off h(z) again, so the next shrink has to clip them back and raises F.
    """
    if eps > 10.0 * risk:
        return min(eps / 2.0, EPS_FLOOR)
    return eps


def _block_norms(state: ns.NetworkState) -> dict:
    return {
        "W": max(float(np.linalg.norm(W)) for W in state.W),
        "b": max(float(np.linalg.norm(b)) for b in state.b),
        "z": max(float(np.linalg.norm(z)) for z in state.z),
        "a": max((float(np.linalg.norm(a)) for a in state.a), default=0.0),
    }


def _grad_norm_proxy(state: ns.NetworkState, hp: obj.HyperParams) -> float:
    """Norm of the computable smooth components of the objective gradient.

    Covers the W and b penalty gradients (plus the l2 regularizer term when
    active) and the output pre-activation's penalty-plus-risk gradient. The
    hidden z and a components involve indicator subdifferentials and are
    left out; the ratio of this proxy to the block movement is logged by the
    diagnostics as the weak form of the subgradient bound.
    """
    arch = state.arch
    L = state.num_layers
    total = 0.0
    for l in range(L):
        a_prev = state.a_prev(l)
        resid = obj.coupling_residual(a_prev, state.W[l], state.b[l], state.z[l])
        gw = hp.rho * (resid @ a_prev.T)
        if arch.regularizer is ns.RegKind.L2 and arch.reg_weight > 0.0:
            gw = gw + 2.0 * arch.reg_weight * state.W[l]
        gb = hp.rho * resid.sum(axis=1, keepdims=True)
        total += _sq(gw) + _sq(gb)
    # resid is the output layer's here
    gz = -hp.rho * resid + obj.risk_grad(arch.risk, state.z[L - 1], state.y)
    total += _sq(gz)
    return math.sqrt(total)


def run_epoch(state: ns.NetworkState, hp: obj.HyperParams, epoch: int,
              eps: float | None = None, warm: WarmStart | None = None,
              adapt: bool = True) -> EpochReport:
    """One full sweep: per layer W, b, z, then a; adapt eps afterwards.

    The update order is fixed; the descent ledger assumes each block sees
    the freshest upstream values. ``eps_next`` comes from adapt_epsilon,
    which never grows eps. When it shrinks, every hidden activation is
    clipped back into the new slab before the next epoch so the
    feasibility invariant survives; that re-projection happens after
    f_after is measured and raises the objective when activations had
    drifted, which is the one step the descent guarantees do not cover.
    ``adapt=False`` keeps eps fixed (the regime the guarantees assume).
    """
    if eps is None:
        eps = hp.eps0
    t0 = time.perf_counter()
    L = state.num_layers
    z_before = list(state.z)
    f_before = obj.evaluate_f(state, hp, eps).total

    theta, tau = [], []
    dw_sq, db_sq, dz_sq, da_sq = [], [], [], []
    trials_w, trials_a = [], []
    maj_w, maj_a = [], []
    recoveries = 0
    fista = None
    for l in range(L):
        theta0 = warm.theta[l] / hp.gamma if warm is not None else None
        old_w = state.W[l]
        rw = update_w(state, l, hp, theta0)
        theta.append(rw.accepted_param)
        trials_w.append(rw.trials)
        maj_w.append((rw.phi_value, rw.model_value))
        dw_sq.append(_sq(state.W[l] - old_w))
        if warm is not None:
            warm.theta[l] = rw.accepted_param

        old_b = state.b[l]
        update_b(state, l, hp)
        db_sq.append(_sq(state.b[l] - old_b))

        old_z = state.z[l]
        if l == L - 1:
            fista = update_z_output(state, hp)
        else:
            _, rec = update_z_hidden(state, l, hp, eps)
            recoveries += rec
        dz_sq.append(_sq(state.z[l] - old_z))

        if l < L - 1:
            tau0 = warm.tau[l] / hp.eta if warm is not None else None
            old_a = state.a[l]
            ra = update_a(state, l, hp, eps, tau0)
            tau.append(ra.accepted_param)
            trials_a.append(ra.trials)
            maj_a.append((ra.phi_value, ra.model_value))
            da_sq.append(_sq(state.a[l] - old_a))
            if warm is not None:
                warm.tau[l] = ra.accepted_param

    grad_b_err = grad_b_identity_check(state, z_before, hp.rho)
    grad_proxy = _grad_norm_proxy(state, hp)
    after = obj.evaluate_f(state, hp, eps)
    feas = ns.feasibility_residual(state, eps)
    eps_next = adapt_epsilon(eps, after.risk) if adapt else eps
    if eps_next < eps:
        for l in range(L - 1):
            h = ns.activation_apply(state.arch.activation[l], state.z[l])
            state.a[l] = np.clip(state.a[l], h - eps_next, h + eps_next)

    report = EpochReport(
        epoch=epoch,
        f_before=f_before,
        f_after=after.total,
        risk=after.risk,
        theta=theta,
        tau=tau,
        dw_sq=dw_sq,
        db_sq=db_sq,
        dz_sq=dz_sq,
        da_sq=da_sq,
        descent_rhs=math.nan,   # filled in from the movement below
        trials_w=trials_w,
        trials_a=trials_a,
        majorization_w=maj_w,
        majorization_a=maj_a,
        fista_iterations=fista.iterations,
        fista_converged=fista.converged,
        recoveries=recoveries,
        feasibility_residual=feas,
        grad_b_err=grad_b_err,
        grad_norm_proxy=grad_proxy,
        eps_used=eps,
        eps_next=eps_next,
        block_norms=_block_norms(state),
        wall_time_s=time.perf_counter() - t0,
    )
    report.descent_rhs = descent_ledger(report, hp.rho)[1]
    return report


def train(arch: ns.Architecture, x: np.ndarray, y: np.ndarray, hp: obj.HyperParams,
          per_epoch=None, adapt: bool = True) -> tuple[ns.NetworkState, list[EpochReport]]:
    """Run hp.epochs sweeps from a fresh feasible start; returns state and trace.

    ``per_epoch(state, report)`` is called after each epoch when given (the
    CLI uses it to record accuracies). ``adapt=False`` pins eps at eps0 for
    the whole run.

    With ``adapt=True`` the jump down to EPS_FLOOR is taken before the first
    sweep, where a = h(z) and tightening the slab moves no activation, so
    eps starts at min(eps0, EPS_FLOOR) and only shrinks from there.
    """
    state = ns.initialize(arch, x, y, hp)
    warm = WarmStart.fresh(arch.num_layers, hp.alpha0)
    eps = hp.eps0
    if adapt:
        # feasibility_residual at eps=0 is max|a - h(z)|: never cut below it
        eps = min(eps, max(EPS_FLOOR, ns.feasibility_residual(state, 0.0)))
    trace: list[EpochReport] = []
    for k in range(hp.epochs):
        report = run_epoch(state, hp, k, eps, warm, adapt=adapt)
        eps = report.eps_next
        trace.append(report)
        if per_epoch is not None:
            per_epoch(state, report)
    return state, trace
