import gzip

import numpy as np
import pytest

from dlam import network_state as ns
from dlam import objective as obj
from dlam.diagnostics import grad_b_layer_error


def central_diff(f, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function over every entry of x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + step
        hi = f(x)
        x[idx] = orig - step
        lo = f(x)
        x[idx] = orig
        g[idx] = (hi - lo) / (2.0 * step)
    return g


def rel_err(approx: np.ndarray, exact: np.ndarray) -> float:
    scale = max(float(np.linalg.norm(exact)), 1e-12)
    return float(np.linalg.norm(approx - exact)) / scale


def grid_minimize_1d(f, lo: float, hi: float, points: int = 20001) -> float:
    """Dense-grid 1-D minimizer, refined once around the best cell."""
    xs = np.linspace(lo, hi, points)
    vals = np.array([f(x) for x in xs])
    i = int(vals.argmin())
    span = xs[1] - xs[0]
    xs2 = np.linspace(xs[i] - span, xs[i] + span, 2001)
    vals2 = np.array([f(x) for x in xs2])
    return float(xs2[vals2.argmin()])


def random_one_hot(rng, classes: int, n: int) -> np.ndarray:
    y = np.zeros((classes, n))
    y[rng.integers(0, classes, n), np.arange(n)] = 1.0
    return y


def damaged_gzip(payload: bytes, how: str) -> bytes:
    """``payload`` gzipped, then cut to half its length ("truncated") or with
    the header of its first deflate block made invalid ("corrupt")."""
    raw = bytearray(gzip.compress(payload, mtime=0))
    if how == "truncated":
        return bytes(raw[:len(raw) // 2])
    raw[10] = 0x07      # after the 10-byte gzip header: a final block of reserved type 3
    return bytes(raw)


def small_state(seed: int = 0, sizes=(3, 4, 3, 2), n: int = 5,
                activation=ns.ActivationKind.RELU, reg=ns.RegKind.NONE, lam: float = 0.0,
                scatter: float = 0.0):
    """A compact feasible state; ``scatter`` optionally perturbs z/a blocks.

    With scatter > 0 the blocks are moved off the zero-residual start (a is
    re-projected afterwards so the slab invariant still holds for eps >= 1).
    """
    rng = np.random.default_rng(seed)
    arch = ns.Architecture(sizes, activation=activation, regularizer=reg, reg_weight=lam)
    x = rng.uniform(0.0, 1.0, (sizes[0], n))
    y = random_one_hot(rng, sizes[-1], n)
    state = ns.initialize(arch, x, y, seed=seed)
    if scatter > 0.0:
        for l in range(state.num_layers):
            state.z[l] = state.z[l] + rng.normal(0.0, scatter, state.z[l].shape)
            if l < state.num_layers - 1:
                h = ns.activation_apply(arch.activation[l], state.z[l])
                drift = state.a[l] + rng.normal(0.0, scatter, state.a[l].shape)
                state.a[l] = np.clip(drift, h - 1.0, h + 1.0)
    return state


def grad_b_identity_check(state_after, z_before, rho: float) -> float:
    """Fresh-recompute oracle for EpochReport.grad_b_err: every product formed anew.

    Forms each layer's coupling residual and movement z_after - z_before
    from the states alone and hands their b gradient and row means to
    grad_b_layer_error, as the sweep does with what it already holds; the
    two must agree bit for bit.
    """
    worst = 0.0
    for l in range(state_after.num_layers):
        z = state_after.z[l]
        R = obj.coupling_residual(state_after.a_prev(l), state_after.W[l], state_after.b[l], z)
        mean_move = (z - z_before[l]).mean(axis=1, keepdims=True)
        worst = max(worst, grad_b_layer_error(obj.grad_b(R, rho), mean_move,
                                              state_after.n_samples, rho))
    return worst


def nan_before_epoch(run_epoch, at_epoch: int):
    """run_epoch that puts a NaN into z_0 before sweep ``at_epoch``.

    The block is replaced, not mutated, and what the warm start derived
    from it (layer 0's penalty and W gradient; it holds no R_0) is dropped,
    as a caller that changes the state between sweeps must.
    """
    def poisoned(state, rho, k, eps, warm=None):
        if k == at_epoch:
            z = state.z[0].copy()
            z[0, 0] = np.nan
            state.z[0] = z
            warm.layer0 = None
        return run_epoch(state, rho, k, eps, warm)
    return poisoned


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
