"""Cyclic block updates for the coupled training objective (the DLAM loop).

One epoch sweeps the layers front to back and, within each layer, updates
W, b, z, and finally a (hidden layers only), each block against the freshest
values of the others. W and a are solved through a backtracked quadratic
majorizer whose curvature is grown geometrically until it dominates the true
penalty at the candidate point, W in several such steps per sweep, each
through the Gram matrix of the layer's input and starting at the exact
curvature along its direction; b and hidden z have exact closed forms; the
output z solves a strongly convex composite (quadratic tether plus risk) by
a safeguarded Newton iteration. No gradient is ever propagated through more
than one layer.

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
RQ_SLACK = 1e-9         # a W step's start over its Rayleigh quotient, for the test's rounding
GRAM_RESOLVE = 1e-3     # <d G, d> over its rounding scale below which the batch forms it
MAX_BACKTRACK = 60      # trials before a backtracking gives up
NEWTON_ITERS = 50       # the output solve's Newton iteration budget
NEWTON_TOL = 1e-8       # full Newton steps below this have converged
NEWTON_DECREMENT = 1e-16  # so has a Newton decrement g.s/2 at most this times |value|
NEWTON_HALVINGS = 30    # halvings of a rising Newton step before the solve stops
W_STEPS = 20            # majorized steps per W block: each reads G, the batch only to resolve it
BLOCK_ENTRIES = 40_000  # entries per row block of the hidden z and a steps' per-entry work
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

    ``tau`` holds each hidden layer's last accepted a curvature; the W
    steps carry none, since each starts at its own Rayleigh quotient
    (update_w). ``resid`` maps each layer l >= 1 to its coupling residual
    R_l = W_l a_{l-1} + b_l - z_l, kept only while none of its operands has
    moved since it was formed; its one reader is the next sweep's
    update_a(l - 1), which run_epoch hands it with ``resid.pop(l)`` and
    which carries it to the a_{l-1} it accepts. run_epoch forms any missing
    layer's at the start and stores each afresh at its layer's close, so
    the sweep leaves every layer's current. Layer 0 has no key: after
    layer 0's z step nothing reads R_0 but its own end-of-sweep terms, so
    layer 0 carries only ``layer0``, the pair (penalty, W gradient) of R_0,
    (rho/2)||R_0||^2 and rho R_0 x^T, which the next sweep's first W step
    starts from. ``gram_x`` is the input's Gram matrix x x^T, which layer
    0's W trials read; no block moves x, so the first sweep forms it and
    every later one reuses it. ``f_end`` is (eps, F) at the end of the last
    sweep; the next sweep starts from that F when it runs at the same eps.
    The slots hold values derived from the state, never the operand arrays
    themselves, and describe only the state they were formed on: between
    epochs that state may have blocks replaced, never mutated in place.
    """

    tau: list[float]
    resid: dict[int, np.ndarray] = field(default_factory=dict)
    layer0: tuple[float, np.ndarray] | None = None
    gram_x: np.ndarray | None = None
    f_end: tuple[float, float] | None = None

    @classmethod
    def fresh(cls, num_layers: int) -> "WarmStart":
        return cls(tau=[ALPHA0] * (num_layers - 1))


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


def _row_blocks(shape: tuple[int, int]):
    """Row slices of an array of ``shape``, each about BLOCK_ENTRIES entries and one row at least.

    The hidden z and a steps run their per-entry work block by block, so its
    temporaries are block-sized and stay in cache between passes; per entry
    the work is unchanged, so the result is the same bit for bit.
    """
    rows, cols = shape
    step = max(1, BLOCK_ENTRIES // cols)
    for start in range(0, rows, step):
        yield slice(start, min(start + step, rows))


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
    (param/2)||d||^2, which holds once it dominates rho||image||^2. A W step
    passes its Rayleigh quotient as param0 (update_w), which the first trial
    accepts unless an l1 threshold bends the step; an a step passes its
    last accepted curvature over GROWTH. Testing
    the expansion stays exact where a direct phi evaluation is cancellation
    noise and can stall the loop. Returns the accepted candidate and its
    record; raises NonFiniteError for a non-finite phi0 or a NaN trial,
    which no curvature repairs, and BacktrackError after MAX_BACKTRACK
    trials. Every trial after the first writes its step into the first's
    buffer. Each trial takes <grad, d> and ||d||^2 before ``image_sq(d)``,
    so image_sq may write its image over ``grad`` (update_a); the accepted
    trial's <grad, d> gives the record's phi and model.
    """
    if not math.isfinite(phi0):
        raise NonFiniteError(f"{block} update", layer)
    param = max(param0, ALPHA0)
    trials = 1
    d = None
    while True:
        cand = candidate(param)
        d = np.subtract(cand, current, out=d)
        base = phi0 + obj.inner(grad, d)    # before image_sq, which may spend grad
        move_sq = obj.inner(d, d)
        quad_true = 0.5 * rho * image_sq(d)
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
    return cand, BlockStep(block, layer, param, move_sq, trials, base + quad_true,
                           base + quad_model)


def update_w(state: ns.NetworkState, layer: int, rho: float, phi: float,
             grad: np.ndarray, gram: np.ndarray, f_before: float) -> list[BlockStep]:
    """Up to W_STEPS backtracked majorized steps on W at ``layer``; writes the result into state.

    Each candidate minimizes the quadratic model plus the regularizer in
    closed form (_majorized_step). A trial's image d a_prev enters only
    through ||d a_prev||^2 = <d G, d> with G = a_prev a_prev^T, and the
    rounding of that form is about eps ||(|d| s)||^2, s_i = sqrt(G_ii),
    since |G_ij| <= s_i s_j. Only where d is a direction G nearly
    annihilates, so that <d G, d> falls below GRAM_RESOLVE of that scale
    and the rounding would swamp it, is ||d a_prev||^2 formed from the
    batch. The first step starts from ``phi`` and ``grad``, the layer's
    current penalty (rho/2)||R||^2 and its gradient rho R a_prev^T, R the
    coupling residual W a_prev + b - z, which the caller forms as it forms
    ``gram`` (G); run_epoch drops R before this call, so no W step holds a
    batch-sized array. A later step reads only G: it starts from the last
    step's phi and the last gradient plus rho d G, so it costs
    O(n_l n_{l-1}^2). Every step's curvature starts at
    rho <v G, v>/<v, v> (1 + RQ_SLACK), the exact curvature of the penalty
    along the step's direction v (obj.smooth_grad_w), and at ALPHA0 for a
    zero v. Without a
    regularizer and under l2 the candidate moves along -v, so that first
    trial majorizes and the step is the exact line-search (Cauchy) step;
    under l1 it is a guess that backtracking grows. The loop stops after a step whose guaranteed
    decrease (theta/2)||d||^2 is at most NEWTON_DECREMENT |f_before|, below
    the rounding of the objective the sweep started from; so does a step
    that moves nothing. Returns one record per step, in order. Raises
    NonFiniteError when the penalty is NaN or inf: every operand of the
    step enters it.
    """
    arch = state.arch
    a_prev = state.a_prev(layer)
    scale = np.sqrt(np.diag(gram))      # ||a_prev row i||, so |G_ij| <= scale_i scale_j
    W = state.W[layer]
    image = None        # the last trial's d G; after a step, the accepted d's

    def candidate(theta):
        return obj.solve_w_subproblem(arch.regularizer, arch.reg_weight, W, grad, theta)

    def image_sq(d):
        nonlocal image
        image = d @ gram
        quad = obj.inner(image, d)
        size = np.abs(d) @ scale
        if quad < GRAM_RESOLVE * obj.inner(size, size):
            direct = d @ a_prev
            quad = obj.inner(direct, direct)
        return quad

    steps: list[BlockStep] = []
    for _ in range(W_STEPS):
        v = obj.smooth_grad_w(arch.regularizer, arch.reg_weight, W, grad)
        vv = obj.inner(v, v)
        theta0 = rho * image_sq(v) / vv * (1.0 + RQ_SLACK) if vv > 0.0 else 0.0
        W_new, step = _majorized_step("W", layer, rho, W, phi, grad, theta0, candidate,
                                      image_sq)
        steps.append(step)
        if 0.5 * step.curvature * step.move_sq <= NEWTON_DECREMENT * abs(f_before):
            break
        grad = grad + rho * image
        W, phi = W_new, step.phi
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
                    free: np.ndarray) -> BlockStep:
    """Exact hidden pre-activation step: clip the free step onto the slab box.

    The penalty in z is (rho/2)||z - m||^2 with m = ``free`` = W a_prev + b
    the free step, a separable quadratic, so clipping m onto [B1, B2] (the
    z-image of the slab around the current a) yields the exact constrained
    minimizer. An entry whose slab inverts to an empty set keeps
    its current z; the a step that follows projects a into the slab around
    h(z). Writes only z, leaving ``free`` as it got it; the step counts the
    held entries, zero on clean runs. The bounds, the clip, the held entries
    and dz are formed per row block (_row_blocks), so the slab's bounds and
    masks are block-sized; the squared move and dz's row means are one
    reduction each over the whole dz.
    """
    kind = state.arch.activation[layer]
    a, z_old = state.a[layer], state.z[layer]
    z = np.empty_like(z_old)
    dz = np.empty_like(z_old)
    held = []       # per block; their sum keeps np.count_nonzero's type, which reports show
    for rows in _row_blocks(z.shape):
        lo, hi, empty = ns.slab_z_bounds(kind, a[rows], eps)
        np.clip(free[rows], lo, hi, out=z[rows])
        held.append(np.count_nonzero(empty))
        if held[-1]:
            np.copyto(z[rows], z_old[rows], where=empty)
        np.subtract(z[rows], z_old[rows], out=dz[rows])
        del lo, hi, empty       # before the next block's are made: peak memory
    state.z[layer] = z
    return BlockStep("z", layer, rho, obj.inner(dz, dz), held=sum(held),
                     mean_move=dz.mean(axis=1, keepdims=True))


def update_z_output(state: ns.NetworkState, rho: float, free: np.ndarray) -> BlockStep:
    """Safeguarded Newton on the output-layer composite; writes z_L into state.

    Minimizes (rho/2)||z - free||_F^2 + risk(z; y), ``free`` = W_L a_{L-1} + b_L
    the free step. The composite is strongly convex and separates into one
    problem per sample column, and
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
    step never counts as convergence. The value check that accepts an
    iterate keeps z - free and softmax's parts (obj.cross_entropy), and
    the next iteration's gradient and Newton step read them from there.
    """
    y = state.y

    def value(z):
        tether = z - free
        risk, e, sums = obj.cross_entropy(z, y)
        return obj.penalty(tether, rho) + risk, (tether, e, sums)

    z = state.z[-1]
    f, parts = value(z)
    converged = False
    iterations = 0
    for iterations in range(1, NEWTON_ITERS + 1):
        tether, e, sums = parts
        p = e / sums        # softmax(z)
        g = rho * tether + obj.grad_risk_cross_entropy(z, y, p)
        s = obj.newton_direction(g, rho, p)
        if (float(np.max(np.abs(s))) < NEWTON_TOL
                or 0.5 * obj.inner(g, s) <= NEWTON_DECREMENT * abs(f)):
            converged = True
            break
        for _ in range(NEWTON_HALVINGS + 1):
            cand = z - s
            f_cand, cand_parts = value(cand)
            if f_cand <= f:
                break
            s *= 0.5
        else:   # no halving lowered the value
            break
        z, f, parts = cand, f_cand, cand_parts
    dz = z - state.z[-1]
    state.z[-1] = z
    return BlockStep("z", state.num_layers - 1, rho, obj.inner(dz, dz), iterations, phi=f,
                     converged=converged, mean_move=dz.mean(axis=1, keepdims=True))


def update_a(state: ns.NetworkState, layer: int, rho: float, eps: float,
             tau0: float, resid: np.ndarray) -> BlockStep:
    """Backtracked projected step on a hidden activation; writes into state.

    The candidate projects the free quadratic step onto the slab around
    h(z) at this epoch's fresh z, which is the exact minimizer of the
    model-plus-indicator for scalar curvature; the curvature starts at
    max(tau0, ALPHA0) and grows by GROWTH (_majorized_step, image W_next d).
    Feasibility of the accepted block holds by construction, and the step
    measures it against the slab it was projected onto, as
    ns.feasibility_residual would. ``resid`` is the next layer's current
    coupling residual R_next = W_next a + b_next - z_next, and this step
    carries it, not uses it up: once the step's penalty and gradient are
    formed from it, each trial writes its image W_next d over the spent
    gradient (into its leading rows, or into an array of its own where
    layer + 1 is wider than this one), a rejected trial's successor forms
    the gradient again from the intact ``resid``, and the accepted image is
    added into ``resid``, which then holds R_next at the new a. That sum
    drifts from a fresh formation by the rounding of three sums of
    n_{layer} + 2 terms (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 3); run_epoch forms R_next afresh at that layer's
    close, so the drift lasts one sweep. Each trial forms its candidate per
    row block (_row_blocks): h(z), the slab's two bounds and the clip, and
    the slab check of that candidate, which the accepted trial's record
    keeps; so the step holds no full-size h(z), and the per-block maxima
    are folded with np.maximum, which keeps a NaN. Raises NonFiniteError
    when the penalty or a trial step is NaN or inf; a NaN in h(z) reaches
    only the trials.
    """
    kind = state.arch.activation[layer]
    a_k, z = state.a[layer], state.z[layer]
    W_next = state.W[layer + 1]
    phi0 = obj.penalty(resid, rho)
    grad = obj.grad_a(resid, W_next, rho)
    # each trial's image W_next d: the gradient's leading rows unless layer + 1 is wider
    shared = len(W_next) <= len(grad)
    image = grad[:len(W_next)] if shared else np.empty((len(W_next), a_k.shape[1]))
    spent = False       # whether the last trial's image overwrote the gradient
    cand = np.empty_like(a_k)       # every trial's candidate, and the accepted one
    blocks = list(_row_blocks(a_k.shape))
    h_buf = np.empty_like(a_k[blocks[0]])     # h(z) of one block, then h + eps
    b_buf = np.empty_like(h_buf)              # each bound in turn, then the check's clip
    violation = 0.0

    def candidate(tau):
        nonlocal violation, spent
        if spent:       # a rejected trial's image; resid is still the R it started from
            obj.grad_a(resid, W_next, rho, out=grad)
            spent = False
        violation = 0.0
        for rows in blocks:
            c = cand[rows]
            h, bound = ns.activation_apply(kind, z[rows], out=h_buf[:len(c)]), b_buf[:len(c)]
            # np.clip(c, h - eps, h + eps) bit for bit, one bound at a time
            np.divide(grad[rows], tau, out=c)
            np.subtract(a_k[rows], c, out=c)
            np.maximum(c, np.subtract(h, eps, out=bound), out=c)
            np.minimum(c, np.add(h, eps, out=bound), out=c)
            violation = np.maximum(violation, ns.slab_violation(c, h, eps, out=bound))
        return cand

    def image_sq(d):
        nonlocal spent
        np.matmul(W_next, d, out=image)
        spent = shared
        return obj.inner(image, image)

    _, record = _majorized_step("a", layer, rho, a_k, phi0, grad, tau0, candidate,
                                image_sq)
    resid += image      # R_next at the accepted a: W_next (a_k + d) + b_next - z_next
    state.a[layer] = cand
    record.slab_violation = float(violation)
    return record


def _block_norms(state: ns.NetworkState) -> dict:
    return {
        "W": max(float(np.linalg.norm(W)) for W in state.W),
        "b": max(float(np.linalg.norm(b)) for b in state.b),
        "z": max(float(np.linalg.norm(z)) for z in state.z),
        "a": max((float(np.linalg.norm(a)) for a in state.a), default=0.0),
    }


def run_epoch(state: ns.NetworkState, rho: float, epoch: int,
              eps: float, warm: WarmStart | None = None) -> EpochReport:
    """One full sweep at coupling weight ``rho`` and slab tolerance ``eps``.

    Per layer W, b, z, then a, in a fixed order: the descent ledger assumes
    each block sees the freshest upstream values. Every step keeps the state
    inside the eps-slab and none moves eps, so the report's ``eps_next``
    equals ``eps_used`` and f_after describes the state this call leaves.

    The sweep forms every coupling residual R_l = W_l a_{l-1} + b_l - z_l
    and hands each block what it steps on; it reuses one unchanged only
    while its operands are unchanged, in the operation order of a fresh
    formation, so that reuse changes no bit. For l >= 1, update_a(l - 1)
    moves a_{l-1} and carries R_l along, adding its accepted image
    W_l (a_new - a_old) into it, so R_l reaches layer l within rounding of
    a fresh formation, not bit for bit. A layer's W steps get its penalty,
    W gradient and Gram matrix a_{l-1} a_{l-1}^T: for l >= 1 from that
    carried R_l, which the sweep drops before the W steps. After them it
    forms W_l a_{l-1}, which the b step reads, and adds the new b_l into it
    once: the free step W_l a_{l-1} + b_l, which the z step takes. A layer
    closes when its z step ends: from then on nothing moves W_l, b_l, z_l or
    a_{l-1}, so the R_l formed from the free step there yields the layer's
    end-of-sweep terms, taken at once: its penalty, which f_after sums, and
    its W and b gradients, which enter the certificates and are then
    dropped. That fresh R_l also ends the carry's drift, every sweep. R_l
    itself is kept in ``warm.resid`` only until the next sweep's
    update_a(l - 1) takes it out (``resid.pop(l)``) and carries it into
    layer l; R_0 is dropped at once, and layer 0 carries only its (penalty,
    W gradient) pair. Each W update also gets f_before, for the stop rule
    of its inner steps.

    The gradient proxy is the norm of the computable smooth gradient
    components: each layer's W gradient (obj.smooth_grad_w) and b penalty
    gradient, summed at its close, and the output pre-activation's
    penalty-plus-risk gradient, added after the last layer. The hidden z
    and a components involve indicator subdifferentials and are left out;
    the diagnostics log the proxy's ratio to the block movement as the
    weak form of the subgradient bound. grad_b_err checks each layer's b
    gradient against the mean move of the z step it closes on
    (grad_b_layer_error). The other certificates are by-products of the
    blocks, read from the BlockSteps the block updates return (one each,
    one per step from update_w), in sweep order: dw_sq and da_sq are the
    squared steps the majorization tests formed, and the feasibility
    residual is the a steps' own slab violation.

    ``warm`` carries R_l for l >= 1, layer 0's pair, the input's Gram
    matrix and f_after into the next call, which must get the state as
    this call left it; there no residual is formed anew, and f_before is
    the carried F when eps is unchanged. Without ``warm`` the epoch starts
    from fresh a curvatures and residuals. A NaN or inf in a block's
    penalty or trial step, in f_after or in the proxy raises NonFiniteError
    naming the epoch (and the layer and block where it is known).
    """
    t0 = time.perf_counter()
    L = state.num_layers
    if warm is None:
        warm = WarmStart.fresh(L)
    resid = warm.resid

    def fresh_resid(l):
        return obj.coupling_residual(state.a_prev(l), state.W[l], state.b[l], state.z[l])

    def w_inputs(l, R):
        """Layer l's penalty and W gradient from its residual R."""
        return obj.penalty(R, rho), obj.grad_w(R, state.a_prev(l), rho)

    if warm.gram_x is None:
        warm.gram_x = state.x @ state.x.T
    if warm.layer0 is None:
        warm.layer0 = w_inputs(0, fresh_resid(0))
    for l in range(1, L):
        if l not in resid:
            resid[l] = fresh_resid(l)
    if warm.f_end is not None and warm.f_end[0] == eps:
        f_before = warm.f_end[1]
    else:
        carried = [warm.layer0[0], *(obj.penalty(resid[l], rho) for l in range(1, L))]
        f_before = obj.objective_from_penalties(state, carried,
                                                ns.feasibility_residual(state, eps)).total

    arch = state.arch
    steps: list[BlockStep] = []     # one per block step, in sweep order
    penalties: list[float] = []     # one per layer, in sweep order
    proxy_sq = grad_b_err = 0.0
    carried = None      # R_l, which update_a(l - 1) carried to the a_{l-1} it accepted
    try:
        for l in range(L):
            if l == 0:
                (phi, g_w), warm.layer0 = warm.layer0, None
            else:
                # R_l goes before the W steps: peak memory
                phi, g_w = w_inputs(l, carried)
                carried = None
            a_prev = state.a_prev(l)
            gram = warm.gram_x if l == 0 else a_prev @ a_prev.T
            steps.extend(update_w(state, l, rho, phi, g_w, gram, f_before))
            del g_w, gram   # before the closing W gradient is formed

            # W_l and a_{l-1} are final for this sweep from here on
            free = state.W[l] @ a_prev
            steps.append(update_b(state, l, rho, free))
            free += state.b[l]      # the free step W_l a_{l-1} + b_l
            if l == L - 1:
                steps.append(update_z_output(state, rho, free))
            else:
                steps.append(update_z_hidden(state, l, eps, rho, free))
            # the layer closes; nothing reads the free step after the z step
            R = obj.residual(free, state.z[l], out=free)
            del free
            penalties.append(obj.penalty(R, rho))
            g_w, g_b = obj.grad_w(R, a_prev, rho), obj.grad_b(R, rho)
            if l == 0:
                warm.layer0 = (penalties[0], g_w)
            else:
                resid[l] = R
            del R       # R_0 goes before update_a(0): peak memory
            g_w = obj.smooth_grad_w(arch.regularizer, arch.reg_weight, state.W[l], g_w)
            proxy_sq += obj.inner(g_w, g_w) + obj.inner(g_b, g_b)
            grad_b_err = max(grad_b_err, grad_b_layer_error(g_b, steps[-1].mean_move,
                                                            state.n_samples, rho))

            if l < L - 1:
                # R_{l+1} leaves the cache with update_a, which moves a_l and
                # carries R_{l+1} along; z_l is final, so the accepted a_l's slab
                # violation is layer l's feasibility residual
                carried = resid.pop(l + 1)
                steps.append(update_a(state, l, rho, eps, warm.tau[l] / GROWTH, carried))
                warm.tau[l] = steps[-1].curvature
            # dropped after the a step: dropped before it, they left heap holes
            # that raised sigmoid-net's peak RSS by 1.5 MiB
            del g_w, g_b
    except NonFiniteError as err:
        err.epoch = epoch
        raise

    feas = float(np.max([s.slab_violation for s in steps], initial=0.0))   # a NaN propagates
    w_steps, b_steps, z_steps, a_steps = ([s for s in steps if s.block == k] for k in "Wbza")
    g_z = obj.grad_z(resid[L - 1], rho) + obj.grad_risk_cross_entropy(state.z[-1], state.y)
    grad_proxy = math.sqrt(proxy_sq + obj.inner(g_z, g_z))
    after = obj.objective_from_penalties(state, penalties, feas)
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
    and layer 0's penalty and W gradient formed from them.

    Every sweep runs at the one slab tolerance min(eps0, EPS_MAX): the
    descent guarantees hold for a fixed eps, so F never rises from one
    epoch to the next.
    """
    state = ns.initialize(arch, x, y, hp)
    warm = WarmStart.fresh(arch.num_layers)
    eps = min(hp.eps0, EPS_MAX)
    trace: list[EpochReport] = []
    for k in range(hp.epochs):
        report = run_epoch(state, hp.rho, k, eps, warm)
        trace.append(report)
        if per_epoch is not None:
            per_epoch(state, report)
    return state, trace
