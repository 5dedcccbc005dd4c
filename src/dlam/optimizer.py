"""Cyclic block updates for the coupled training objective (the DLAM loop).

One epoch sweeps the layers front to back and, within each layer, updates
W, b, z, and finally a (hidden layers only), each block against the freshest
values of the others. W and a are solved through a backtracked quadratic
majorizer whose curvature is grown geometrically until it dominates the true
penalty at the candidate point, W in several such steps per sweep, all but
the first through the Gram matrix of the layer's input; b and hidden z have
exact closed forms; the output z solves a strongly convex composite
(quadratic tether plus risk) by a safeguarded Newton iteration. No gradient
is ever propagated through more than one layer.

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
from .diagnostics import grad_b_layer_error
from .network_state import NonFiniteError

# The solver's constants; a run varies only HyperParams.
ALPHA0 = 1e-3           # smallest curvature either backtracking tries
GROWTH = 2.0            # curvature growth per rejected trial, W and a alike
MAX_BACKTRACK = 60      # trials before a backtracking gives up
NEWTON_ITERS = 50       # the output solve's Newton iteration budget
NEWTON_TOL = 1e-8       # full Newton steps below this have converged
NEWTON_DECREMENT = 1e-16  # so has a Newton decrement g.s/2 at most this times |value|
NEWTON_HALVINGS = 30    # halvings of a rising Newton step before the solve stops
W_STEPS = 20            # majorized steps per W block: the first reads the batch, the rest G only
EPS_MAX = 0.01          # largest slab tolerance train uses: eps = min(eps0, EPS_MAX)


class BacktrackError(RuntimeError):
    """Backtracking failed to majorize within the trial budget."""

    def __init__(self, message: str, last_param: float):
        super().__init__(message)
        self.last_param = last_param


@dataclass
class BlockStep:
    """One block step of the sweep, as the descent ledger and the report read it."""

    block: str                   # "W", "b", "z" or "a"
    layer: int
    curvature: float             # the ledger's weight on move_sq: theta (W), rho (b, z), tau (a)
    move_sq: float               # squared Frobenius norm of the step
    trials: int = 1              # backtracking trials (W, a); Newton iterations (output z)
    phi: float = math.nan        # value at acceptance: penalty (W, a), composite (output z)
    model: float = math.nan      # majorizer at acceptance (W, a)
    converged: bool = False      # the output solve's
    held: int = 0                # hidden z entries held because their slab was empty
    slab_violation: float = 0.0  # largest slab violation of the accepted a
    mean_move: np.ndarray | None = None  # z steps: row means of z_new - z_old, a column


@dataclass
class WarmStart:
    """What one epoch hands the next: curvatures, residuals and the end objective.

    ``theta``/``tau`` are each layer's last accepted curvatures. ``resid[l]``
    is layer l's coupling residual W_l a_{l-1} + b_l - z_l while none of its
    operands has moved since it was formed, and None otherwise; run_epoch
    fills the empty ones and leaves every slot current. ``grad_w0`` is layer 0's
    penalty gradient rho R_0 x^T formed from ``resid[0]``, held only while
    that slot is and cleared with it. ``gram_x`` is the input's Gram matrix
    x x^T, which layer 0's W trials read; no block moves x, so the first
    sweep forms it and every later one reuses it. ``f_end`` is (eps, F) at
    the end of the last sweep; the next sweep starts from that F when it
    runs at the same eps. The slots hold values derived from the state,
    never the operand arrays themselves, and describe only the state they
    were formed on: between epochs that state may have blocks replaced,
    never mutated in place.
    """

    theta: list[float]
    tau: list[float]
    resid: list[np.ndarray | None]
    grad_w0: np.ndarray | None = None
    gram_x: np.ndarray | None = None
    f_end: tuple[float, float] | None = None

    @classmethod
    def fresh(cls, num_layers: int) -> "WarmStart":
        return cls(theta=[ALPHA0] * num_layers, tau=[ALPHA0] * (num_layers - 1),
                   resid=[None] * num_layers)


@dataclass
class EpochReport:
    """Everything the diagnostics need from one epoch, norms and deltas only.

    The W lists (``theta``, ``dw_sq``, ``trials_w``, ``majorization_w``)
    hold one entry per W step, in sweep order: update_w takes one or more
    per layer. The other per-block lists hold one entry per layer.
    """

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
    trials_w: list[int]
    trials_a: list[int]
    majorization_w: list[tuple[float, float]]    # (phi, model) at acceptance
    majorization_a: list[tuple[float, float]]
    fista_iterations: int        # the output solve's Newton iterations; the name is kept
    fista_converged: bool
    recoveries: int              # hidden z entries held because their slab was empty
    feasibility_residual: float
    grad_b_err: float
    grad_norm_proxy: float
    eps_used: float
    eps_next: float              # always eps_used: run_epoch never moves eps
    block_norms: dict = field(default_factory=dict)
    wall_time_s: float = 0.0


def _majorized_step(block: str, layer: int, rho: float, current: np.ndarray,
                    phi0: float, grad: np.ndarray, param0: float,
                    candidate, image_sq) -> tuple[np.ndarray, BlockStep]:
    """Backtracked quadratic-majorizer step, shared by the W and a blocks.

    ``candidate(param)`` minimizes the block's model at curvature ``param``;
    ``image_sq(d)`` is ||image(d)||^2, image(d) the change a step d makes
    to the coupling residual, so the penalty at the candidate is exactly
    phi0 + <grad, d> + (rho/2) image_sq(d). This is the acceptance test of
    Beck & Teboulle's backtracking: the curvature starts at
    max(param0, ALPHA0) and grows by GROWTH until that last term is at most
    (param/2)||d||^2, which holds once it dominates rho||image||^2. Testing
    the expansion stays exact where a direct phi evaluation is cancellation
    noise and can stall the loop. Returns the accepted candidate and its
    record; raises NonFiniteError for a non-finite phi0 or a NaN trial,
    which no curvature repairs, and BacktrackError after MAX_BACKTRACK
    trials.
    """
    if not math.isfinite(phi0):
        raise NonFiniteError(f"{block} update", layer)
    param = max(param0, ALPHA0)
    trials = 1
    d = None
    while True:
        cand = candidate(param)
        d = np.subtract(cand, current, out=d)
        quad_true = 0.5 * rho * image_sq(d)
        move_sq = obj.inner(d, d)
        quad_model = 0.5 * param * move_sq
        if quad_true <= quad_model:
            break
        if math.isnan(quad_true):
            raise NonFiniteError(f"{block} update", layer)
        if trials >= MAX_BACKTRACK:
            raise BacktrackError(
                f"{block} update at layer {layer} did not majorize after {trials} trials", param)
        param *= GROWTH
        trials += 1
    base = phi0 + obj.inner(grad, d)
    return cand, BlockStep(block, layer, param, move_sq, trials, base + quad_true,
                           base + quad_model)


def update_w(state: ns.NetworkState, layer: int, hp: obj.HyperParams, theta0: float,
             resid: np.ndarray, grad: np.ndarray | None = None,
             gram: np.ndarray | None = None, f_before: float = 0.0) -> list[BlockStep]:
    """Up to W_STEPS backtracked majorized steps on W at ``layer``; writes the result into state.

    Each candidate minimizes the quadratic model plus the regularizer in
    closed form (_majorized_step). A trial's image d a_prev enters only
    through ||d a_prev||^2 = <d G, d> with G = a_prev a_prev^T, so no trial
    touches the batch. The first step reads the batch: its penalty comes
    from ``resid``, the layer's current coupling residual W a_prev + b - z,
    and ``grad`` (the penalty gradient rho resid a_prev^T) and ``gram`` (G)
    are formed unless the caller already formed them; its curvature starts
    at max(theta0, ALPHA0). A later step reads only G: it starts from the
    last step's phi, the last gradient plus rho d G and the last accepted
    curvature over GROWTH, so it costs O(n_l n_{l-1}^2). The loop stops
    after a step whose guaranteed decrease (theta/2)||d||^2 is at most
    NEWTON_DECREMENT |f_before|, below the rounding of the objective the
    sweep started from; so does a step that moves nothing. Returns one
    record per step, in order. Raises NonFiniteError when the penalty is
    NaN or inf: every operand of the step enters it.
    """
    arch = state.arch
    rho = hp.rho
    a_prev = state.a_prev(layer)
    phi = obj.penalty(resid, rho)
    if grad is None:
        grad = obj.grad_w(resid, a_prev, rho)
    if gram is None:
        gram = a_prev @ a_prev.T
    W = state.W[layer]
    image = None        # the last trial's d G; after a step, the accepted d's

    def candidate(theta):
        return obj.solve_w_subproblem(arch.regularizer, arch.reg_weight, W, grad, theta)

    def image_sq(d):
        nonlocal image
        image = d @ gram
        return obj.inner(image, d)

    steps: list[BlockStep] = []
    for _ in range(W_STEPS):
        W_new, step = _majorized_step("W", layer, rho, W, phi, grad, theta0, candidate,
                                      image_sq)
        steps.append(step)
        if 0.5 * step.curvature * step.move_sq <= NEWTON_DECREMENT * abs(f_before):
            break
        grad = grad + rho * image
        W, phi, theta0 = W_new, step.phi, step.curvature / GROWTH
    state.W[layer] = W_new
    return steps


def update_b(state: ns.NetworkState, layer: int, rho: float, product: np.ndarray) -> BlockStep:
    """Exact intercept step b <- b - mean residual; writes into state.

    With the curvature pinned to rho, the majorized step equals the exact
    minimizer: the per-sample mean of z - W a_prev. ``product`` is W a_prev
    with the W already updated this epoch.
    """
    old = state.b[layer]
    state.b[layer] = new = old - obj.mean_residual(product, old, state.z[layer])
    d = new - old
    return BlockStep("b", layer, rho, obj.inner(d, d))


def update_z_hidden(state: ns.NetworkState, layer: int, eps: float, rho: float,
                    product: np.ndarray) -> BlockStep:
    """Exact hidden pre-activation step: clip the free step onto the slab box.

    The penalty in z is (rho/2)||z - m||^2 with m = W a_prev + b the free
    step (``product`` is W a_prev), a separable quadratic, so clipping m onto
    [B1, B2] (the z-image of the slab around the current a) yields the exact
    constrained minimizer. An entry whose slab inverts to an empty set keeps
    its current z; the a step that follows projects a into the slab around
    h(z). Writes only z; the step counts the held entries, zero on clean
    runs.
    """
    kind = state.arch.activation[layer]
    lo, hi, empty = ns.slab_z_bounds(kind, state.a[layer], eps)
    # the free step is formed after the bounds, whose temporaries are gone by then
    z = product + state.b[layer]
    np.clip(z, lo, hi, out=z)
    held = np.count_nonzero(empty)
    if held:
        np.copyto(z, state.z[layer], where=empty)
    dz = np.subtract(z, state.z[layer], out=lo)     # in lo's buffer: peak memory
    state.z[layer] = z
    return BlockStep("z", layer, rho, obj.inner(dz, dz), held=held,
                     mean_move=dz.mean(axis=1, keepdims=True))


def update_z_output(state: ns.NetworkState, hp: obj.HyperParams,
                    product: np.ndarray) -> BlockStep:
    """Safeguarded Newton on the output-layer composite; writes z_L into state.

    Minimizes (rho/2)||z - free||_F^2 + risk(z; y) with free = W_L a_{L-1} + b_L
    the free step; ``product`` is W_L a_{L-1}. The composite is strongly
    convex and separates into one problem per sample column, and
    obj.newton_direction solves every column's Newton system in closed form.
    The solve has converged, within NEWTON_ITERS iterations, when the full
    Newton step s at the current iterate moves no entry by NEWTON_TOL or
    more, or when the Newton decrement <g, s>/2, which estimates the gap to
    the optimum (Boyd & Vandenberghe, Convex Optimization, 9.5.1), is at
    most NEWTON_DECREMENT times the composite value: s carries the rounding
    of the gradient g amplified by up to 1/rho, so near the optimum the step
    test alone may never pass. That step is not taken, since a value check
    at its scale compares rounding noise. Otherwise the iteration takes the
    full step and halves it while the composite value rises, at most
    NEWTON_HALVINGS times; when no halving lowers the value (a NaN
    included), the solve stops at the last accepted iterate, not converged.
    So the value does not rise from one iterate to the next, and a halved
    step never counts as convergence.
    """
    y, rho = state.y, hp.rho
    free = product + state.b[-1]

    def value(z):
        return obj.penalty(z - free, rho) + obj.risk_cross_entropy(z, y)

    z = state.z[-1]
    f = value(z)
    converged = False
    iterations = 0
    for iterations in range(1, NEWTON_ITERS + 1):
        p = obj.softmax_columns(z)
        g = rho * (z - free) + obj.grad_risk_cross_entropy(z, y, p)
        s = obj.newton_direction(g, rho, p)
        if (float(np.max(np.abs(s))) < NEWTON_TOL
                or 0.5 * obj.inner(g, s) <= NEWTON_DECREMENT * abs(f)):
            converged = True
            break
        for _ in range(NEWTON_HALVINGS + 1):
            cand = z - s
            f_cand = value(cand)
            if f_cand <= f:
                break
            s *= 0.5
        else:   # no halving lowered the value
            break
        z, f = cand, f_cand
    dz = z - state.z[-1]
    state.z[-1] = z
    return BlockStep("z", state.num_layers - 1, rho, obj.inner(dz, dz), iterations, phi=f,
                     converged=converged, mean_move=dz.mean(axis=1, keepdims=True))


def update_a(state: ns.NetworkState, layer: int, hp: obj.HyperParams, eps: float,
             tau0: float, resid: np.ndarray) -> BlockStep:
    """Backtracked projected step on a hidden activation; writes into state.

    The candidate projects the free quadratic step onto the slab around
    h(z) at this epoch's fresh z, which is the exact minimizer of the
    model-plus-indicator for scalar curvature; the curvature starts at
    max(tau0, ALPHA0) and grows by GROWTH (_majorized_step, image W_next d).
    Feasibility of the accepted block holds by construction, and the step
    measures it against the slab it was projected onto, as
    ns.feasibility_residual would. ``resid`` is the next layer's current
    coupling residual W_next a + b_next - z_next. Raises NonFiniteError
    when the penalty or a trial step is NaN or inf; a NaN in h(z) reaches
    only the trials.
    """
    kind = state.arch.activation[layer]
    a_k = state.a[layer]
    W_next = state.W[layer + 1]
    hi = ns.activation_apply(kind, state.z[layer])
    lo = hi - eps
    hi += eps
    phi0 = obj.penalty(resid, hp.rho)
    grad = obj.grad_a(resid, W_next, hp.rho)
    cand = np.empty_like(a_k)       # every trial's candidate, and the accepted one

    def candidate(tau):
        np.divide(grad, tau, out=cand)
        np.subtract(a_k, cand, out=cand)
        return np.clip(cand, lo, hi, out=cand)

    def image_sq(d):
        image = W_next @ d
        return obj.inner(image, image)

    _, step = _majorized_step("a", layer, hp.rho, a_k, phi0, grad, tau0, candidate, image_sq)
    state.a[layer] = cand
    # the trial temporaries go before the violation is formed: peak memory
    del grad
    step.slab_violation = ns.slab_violation(cand, lo, hi)
    return step


def _block_norms(state: ns.NetworkState) -> dict:
    return {
        "W": max(float(np.linalg.norm(W)) for W in state.W),
        "b": max(float(np.linalg.norm(b)) for b in state.b),
        "z": max(float(np.linalg.norm(z)) for z in state.z),
        "a": max((float(np.linalg.norm(a)) for a in state.a), default=0.0),
    }


def _gradient_certificates(state: ns.NetworkState, hp: obj.HyperParams, warm: WarmStart,
                           z_steps: list[BlockStep]) -> tuple[float, float]:
    """(gradient proxy, grad_b_err), the end-of-sweep gradient certificates.

    The proxy is the norm of the computable smooth gradient components: the
    W and b penalty gradients (plus the l2 regularizer term when active) and
    the output pre-activation's penalty-plus-risk gradient. The hidden z and
    a components involve indicator subdifferentials and are left out; the
    diagnostics log the proxy's ratio to the block movement as the weak form
    of the subgradient bound. grad_b_err checks each b gradient against
    ``z_steps[l].mean_move`` (grad_b_layer_error). ``warm.resid`` holds
    every layer's current coupling residual; layer 0's penalty gradient, the
    next sweep's first W gradient, is left in ``warm.grad_w0``.
    """
    arch = state.arch
    L = state.num_layers
    residuals = warm.resid
    total = grad_b_err = 0.0
    for l in range(L):
        gw = obj.grad_w(residuals[l], state.a_prev(l), hp.rho)
        if l == 0:
            warm.grad_w0 = gw
        if arch.regularizer is ns.RegKind.L2 and arch.reg_weight > 0.0:
            gw = gw + 2.0 * arch.reg_weight * state.W[l]
        gb = obj.grad_b(residuals[l], hp.rho)
        total += obj.inner(gw, gw) + obj.inner(gb, gb)
        grad_b_err = max(grad_b_err, grad_b_layer_error(gb, z_steps[l].mean_move,
                                                        state.n_samples, hp.rho))
    gz = obj.grad_z(residuals[-1], hp.rho) + obj.grad_risk_cross_entropy(state.z[-1], state.y)
    total += obj.inner(gz, gz)
    return math.sqrt(total), grad_b_err


def run_epoch(state: ns.NetworkState, hp: obj.HyperParams, epoch: int,
              eps: float, warm: WarmStart | None = None) -> EpochReport:
    """One full sweep at slab tolerance ``eps``: per layer W, b, z, then a.

    The update order is fixed; the descent ledger assumes each block sees
    the freshest upstream values. Every step keeps the state inside the
    eps-slab and none moves eps, so the report's ``eps_next`` equals
    ``eps_used`` and f_after describes the state this call leaves.

    The sweep forms every coupling residual R_l = W_l a_{l-1} + b_l - z_l
    and hands each W and a update the one it steps on; it reuses one only
    while its operands are unchanged, in the operation order of a fresh
    formation, so reuse changes no bit. The R_l formed after layer l's z
    step holds to the end of the sweep, where the certificates and f_after
    read it. Each W update also gets f_before, for the stop rule of its
    inner steps. The other certificates are by-products of the blocks,
    read from the BlockSteps the block updates return (one each, one per
    step from update_w), in sweep order: dw_sq and da_sq are the squared
    steps the majorization tests formed, grad_b_err reads the z steps' mean
    moves, and the feasibility residual is the a steps' own slab violation.

    ``warm`` carries the residuals, the proxy's layer-0 W gradient, the
    input's Gram matrix and f_after into the next call, which must get the
    state as this call left it; there only R_l for l >= 1 is formed anew,
    and f_before is the carried F when eps is unchanged. Without ``warm`` the epoch starts from
    fresh curvatures and residuals. A NaN or inf in a block's penalty or
    trial step, in f_after or in the proxy raises NonFiniteError naming
    the epoch (and the layer and block where it is known).
    """
    t0 = time.perf_counter()
    L = state.num_layers
    if warm is None:
        warm = WarmStart.fresh(L)
    resid = warm.resid
    if resid[0] is None:        # the carried W gradient was formed from R_0
        warm.grad_w0 = None
    if warm.gram_x is None:
        warm.gram_x = state.x @ state.x.T
    for l in range(L):
        if resid[l] is None:
            resid[l] = obj.coupling_residual(state.a_prev(l), state.W[l], state.b[l], state.z[l])
    if warm.f_end is not None and warm.f_end[0] == eps:
        f_before = warm.f_end[1]
    else:
        f_before = obj.objective_from_residuals(state, hp, resid,
                                                ns.feasibility_residual(state, eps)).total

    steps: list[BlockStep] = []     # one per block step, in sweep order
    try:
        for l in range(L):
            # the slot is empty for l >= 1: update_a(l - 1) took R_l and moved a_{l-1}.
            # The carried W gradient goes with R_0 (the slot is empty after layer 0).
            r_w, resid[l] = resid[l], None
            if r_w is None:
                r_w = obj.coupling_residual(state.a_prev(l), state.W[l], state.b[l], state.z[l])
            g_w, warm.grad_w0 = warm.grad_w0, None
            steps.extend(update_w(state, l, hp, warm.theta[l] / GROWTH, r_w, g_w,
                                  warm.gram_x if l == 0 else None, f_before))
            del r_w, g_w    # batch-sized temporaries go as soon as they are used: peak memory
            warm.theta[l] = steps[-1].curvature

            # W_l and a_{l-1} are final for this sweep from here on
            product = state.W[l] @ state.a_prev(l)
            steps.append(update_b(state, l, hp.rho, product))

            if l == L - 1:
                steps.append(update_z_output(state, hp, product))
            else:
                steps.append(update_z_hidden(state, l, eps, hp.rho, product))
            # current to the end of the sweep; nothing reads the product after the z step
            resid[l] = obj.residual(product, state.b[l], state.z[l], out=product)
            del product

            if l < L - 1:
                # R_{l+1} leaves the cache with update_a, which moves a_l under it;
                # z_l is final, so the accepted a_l's slab violation is layer l's
                # feasibility residual
                r_a, resid[l + 1] = resid[l + 1], None
                steps.append(update_a(state, l, hp, eps, warm.tau[l] / GROWTH, r_a))
                del r_a
                warm.tau[l] = steps[-1].curvature
    except NonFiniteError as err:
        err.epoch = epoch
        raise

    feas = float(np.max([s.slab_violation for s in steps], initial=0.0))   # a NaN propagates
    w_steps, b_steps, z_steps, a_steps = ([s for s in steps if s.block == k] for k in "Wbza")
    grad_proxy, grad_b_err = _gradient_certificates(state, hp, warm, z_steps)
    after = obj.objective_from_residuals(state, hp, resid, feas)
    for what, value in (("objective", after.total), ("gradient proxy", grad_proxy)):
        if not math.isfinite(value):
            raise NonFiniteError(what, epoch=epoch)
    warm.f_end = (eps, after.total)

    return EpochReport(
        epoch=epoch,
        f_before=f_before,
        f_after=after.total,
        risk=after.risk,
        theta=[s.curvature for s in w_steps],
        tau=[s.curvature for s in a_steps],
        dw_sq=[s.move_sq for s in w_steps],
        db_sq=[s.move_sq for s in b_steps],
        dz_sq=[s.move_sq for s in z_steps],
        da_sq=[s.move_sq for s in a_steps],
        trials_w=[s.trials for s in w_steps],
        trials_a=[s.trials for s in a_steps],
        majorization_w=[(s.phi, s.model) for s in w_steps],
        majorization_a=[(s.phi, s.model) for s in a_steps],
        fista_iterations=z_steps[-1].trials,     # the output solve's
        fista_converged=z_steps[-1].converged,
        recoveries=sum(s.held for s in steps),
        feasibility_residual=feas,
        grad_b_err=grad_b_err,
        grad_norm_proxy=grad_proxy,
        eps_used=eps,
        eps_next=eps,
        block_norms=_block_norms(state),
        wall_time_s=time.perf_counter() - t0,
    )


def train(arch: ns.Architecture, x: np.ndarray, y: np.ndarray, hp: obj.HyperParams,
          per_epoch=None) -> tuple[ns.NetworkState, list[EpochReport]]:
    """Run hp.epochs sweeps from a fresh feasible start; returns state and trace.

    ``per_epoch(state, report)`` is called after each epoch when given (the
    CLI uses it to record accuracies); it may read the state but must not
    mutate its blocks in place, because the next epoch reuses residuals
    formed from them.

    Every sweep runs at the one slab tolerance min(eps0, EPS_MAX): the
    descent guarantees hold for a fixed eps, so F never rises from one
    epoch to the next.
    """
    state = ns.initialize(arch, x, y, hp)
    warm = WarmStart.fresh(arch.num_layers)
    eps = min(hp.eps0, EPS_MAX)
    trace: list[EpochReport] = []
    for k in range(hp.epochs):
        report = run_epoch(state, hp, k, eps, warm)
        trace.append(report)
        if per_epoch is not None:
            per_epoch(state, report)
    return state, trace
