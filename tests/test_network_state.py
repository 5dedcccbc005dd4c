import math

import numpy as np
import pytest

from dlam import network_state as ns
from dlam import objective as obj
from dlam.tensor_core import ShapeError
from conftest import random_one_hot, small_state

RELU = ns.ActivationKind.RELU
SIG = ns.ActivationKind.SIGMOID
TANH = ns.ActivationKind.TANH


def test_activation_values():
    z = np.array([[-1.0, 0.0, 2.0]])
    assert np.array_equal(ns.activation_apply(RELU, z), [[0.0, 0.0, 2.0]])
    assert ns.activation_apply(SIG, np.array([[0.0]]))[0, 0] == 0.5
    assert ns.activation_apply(TANH, np.array([[0.0]]))[0, 0] == 0.0


def test_sigmoid_extreme_inputs_finite():
    z = np.array([[-800.0, 800.0]])
    s = ns.activation_apply(SIG, z)
    assert np.all(np.isfinite(s)) and s[0, 0] == 0.0 and s[0, 1] == 1.0


def _invert(kind, a, eps):
    """slab_z_bounds of one entry: (lo, hi, empty) as Python scalars."""
    lo, hi, empty = ns.slab_z_bounds(kind, np.array([[float(a)]]), eps)
    return float(lo[0, 0]), float(hi[0, 0]), bool(empty[0, 0])


def test_invert_relu_interior():
    lo, hi, empty = _invert(RELU, 0.5, 0.1)
    assert not empty
    assert lo == pytest.approx(0.4, abs=1e-12)
    assert hi == pytest.approx(0.6, abs=1e-12)


def test_invert_relu_unbounded_below():
    # every z <= 0 gives h(z) = 0 inside [-0.05, 0.15]
    lo, hi, empty = _invert(RELU, 0.05, 0.1)
    assert not empty
    assert lo == -math.inf
    assert hi == pytest.approx(0.15, abs=1e-12)


def test_invert_relu_empty():
    assert _invert(RELU, -0.5, 0.1)[2]


def test_invert_sigmoid_hand_case():
    lo, hi, _ = _invert(SIG, 0.5, 0.1)
    expect = math.log(0.6 / 0.4)
    assert lo == pytest.approx(-expect, abs=1e-9)
    assert hi == pytest.approx(expect, abs=1e-9)
    assert hi == pytest.approx(0.405465, abs=1e-6)


def test_invert_sigmoid_saturated_sides():
    lo, hi, empty = _invert(SIG, 0.95, 0.2)   # upper target past range
    assert not empty and hi == math.inf and np.isfinite(lo)
    lo, hi, empty = _invert(SIG, 0.05, 0.2)   # lower target below range
    assert not empty and lo == -math.inf and np.isfinite(hi)
    assert _invert(SIG, 1.5, 0.2)[2]
    assert _invert(TANH, -1.5, 0.2)[2]


def test_invert_requires_positive_eps():
    for eps in (0.0, -0.1):
        with pytest.raises(ValueError):
            ns.slab_z_bounds(RELU, np.array([[0.5]]), eps)


def _grid_oracle(kind, a, eps):
    """Membership scan over a dense z grid; returns (lo, hi) of the sampled set."""
    zs = np.linspace(-40.0, 40.0, 400001)
    h = ns.activation_apply(kind, zs.reshape(1, -1)).ravel()
    mask = (h >= a - eps) & (h <= a + eps)
    return zs[mask]


@pytest.mark.parametrize("kind,a,eps", [
    (RELU, 0.5, 0.1),
    (RELU, 0.05, 0.1),
    (RELU, 2.0, 0.5),
    (SIG, 0.3, 0.05),
    (TANH, -0.2, 0.15),
])
def test_invert_matches_grid_oracle(kind, a, eps):
    iv_lo, iv_hi, empty = _invert(kind, a, eps)
    assert not empty
    inside = _grid_oracle(kind, a, eps)
    assert inside.size > 0
    lo = iv_lo if math.isfinite(iv_lo) else inside.min()
    hi = iv_hi if math.isfinite(iv_hi) else inside.max()
    assert inside.min() >= lo - 1e-3 and inside.max() <= hi + 1e-3
    # the sampled set fills the interval, no gaps at the ends
    assert abs(inside.min() - lo) < 1e-3 or iv_lo == -math.inf
    assert abs(inside.max() - hi) < 1e-3 or iv_hi == math.inf


def test_interval_tightness_property(rng):
    """Inside the bounds h lands in the band; just outside it does not."""
    for _ in range(10_000):
        kind = [RELU, SIG, TANH][rng.integers(0, 3)]
        if kind is RELU:
            a = float(rng.uniform(-0.3, 3.0))
            eps = float(rng.uniform(0.01, 0.5))
            if a + eps < 0:
                continue
        elif kind is SIG:
            a = float(rng.uniform(0.05, 0.95))
            eps = float(rng.uniform(0.01, 0.3))
        else:
            a = float(rng.uniform(-0.9, 0.9))
            eps = float(rng.uniform(0.01, 0.3))
        iv_lo, iv_hi, empty = _invert(kind, a, eps)
        assert not empty
        lo = iv_lo if math.isfinite(iv_lo) else -5.0
        hi = iv_hi if math.isfinite(iv_hi) else 5.0
        z_in = float(rng.uniform(lo, hi))
        h = float(ns.activation_apply(kind, np.array([[z_in]]))[0, 0])
        assert a - eps - 1e-9 <= h <= a + eps + 1e-9
        if math.isfinite(iv_hi):
            h_out = float(ns.activation_apply(kind, np.array([[iv_hi + 1e-3]]))[0, 0])
            assert h_out > a + eps
        if math.isfinite(iv_lo):
            h_out = float(ns.activation_apply(kind, np.array([[iv_lo - 1e-3]]))[0, 0])
            assert h_out < a - eps


def test_slab_bounds_match_scalar_inversion(rng):
    """Bounds of a whole matrix equal the bounds of each entry on its own."""
    for kind in (RELU, SIG, TANH):
        a = rng.uniform(-0.5, 1.5, (4, 6)) if kind is RELU else rng.uniform(-0.8, 0.8, (4, 6))
        if kind is SIG:
            a = rng.uniform(0.05, 0.95, (4, 6))
        eps = 0.2
        lo, hi, empty = ns.slab_z_bounds(kind, a, eps)
        for idx in np.ndindex(a.shape):
            assert _invert(kind, a[idx], eps) == (lo[idx], hi[idx], empty[idx])


def test_architecture_validation():
    with pytest.raises(ValueError):
        ns.Architecture((4, 3))            # only one weight layer
    with pytest.raises(ValueError):
        ns.Architecture((4, 0, 2))
    with pytest.raises(ValueError):
        ns.Architecture((4, 3, 2), activation=(RELU,) * 3)
    arch = ns.Architecture((4, 3, 2), activation=SIG)
    assert arch.activation == (SIG,)
    assert arch.num_layers == 2 and arch.features == 4 and arch.classes == 2


def test_initialize_feasible_and_deterministic(rng):
    arch = ns.Architecture((3, 5, 4, 2))
    x = rng.uniform(0, 1, (3, 7))
    y = random_one_hot(rng, 2, 7)
    s1 = ns.initialize(arch, x, y, seed=42)
    s2 = ns.initialize(arch, x, y, seed=42)
    for l in range(arch.num_layers):
        assert np.array_equal(s1.W[l], s2.W[l])
        assert np.array_equal(s1.z[l], s2.z[l])
    # activation sits dead center of the slab, so the residual is exactly 0
    for eps in (1e-9, 0.1, 10.0):
        assert ns.feasibility_residual(s1, eps) == 0.0
    hp = obj.HyperParams()
    for l in range(arch.num_layers):
        assert obj.penalty_phi(s1.a_prev(l), s1.W[l], s1.b[l], s1.z[l], hp.rho) == 0.0


def test_feasibility_residual_measures_slab_violation():
    state = small_state(seed=4)
    state.a[0] = state.a[0] + 0.25
    assert ns.feasibility_residual(state, 0.0) == pytest.approx(0.25, abs=1e-12)
    assert ns.feasibility_residual(state, 0.1) == pytest.approx(0.15, abs=1e-12)
    assert ns.feasibility_residual(state, 0.3) == 0.0
    with pytest.raises(ValueError, match="eps"):
        ns.feasibility_residual(state, -1e-3)


def test_initialize_shape_errors(rng):
    arch = ns.Architecture((3, 4, 2))
    y = random_one_hot(rng, 2, 5)
    with pytest.raises(ShapeError):
        ns.initialize(arch, rng.uniform(0, 1, (4, 5)), y)
    with pytest.raises(ShapeError):
        ns.initialize(arch, rng.uniform(0, 1, (3, 6)), y)
    with pytest.raises(ShapeError):
        ns.initialize(arch, rng.uniform(0, 1, (3, 5)), random_one_hot(rng, 3, 5))


def test_checkpoint_round_trip(tmp_path):
    state = small_state(seed=3, scatter=0.3)
    path = str(tmp_path / "state.bin")
    ns.save_state(state, path)
    back = ns.load_state(path, state.arch, state.x, state.y)
    for l in range(state.num_layers):
        assert np.array_equal(back.W[l], state.W[l])
        assert np.array_equal(back.b[l], state.b[l])
        assert np.array_equal(back.z[l], state.z[l])
    for l in range(state.num_layers - 1):
        assert np.array_equal(back.a[l], state.a[l])


def test_checkpoint_rejects_mismatch(tmp_path):
    state = small_state(seed=3)
    path = str(tmp_path / "state.bin")
    ns.save_state(state, path)
    other = ns.Architecture((3, 5, 3, 2))
    with pytest.raises(ShapeError):
        ns.load_state(path, other, state.x, state.y)
    with open(path, "rb") as f:
        raw = f.read()
    with open(path, "wb") as f:
        f.write(raw[:-16])
    with pytest.raises(ValueError, match="truncated"):
        ns.load_state(path, state.arch, state.x, state.y)


def test_checkpoint_resumes_training(tmp_path):
    from dlam import objective as obj_mod
    from dlam import optimizer as opt

    state = small_state(seed=14, scatter=0.3)
    hp = obj_mod.HyperParams(rho=0.1, epochs=4, seed=0)
    eps = hp.eps0
    for k in range(2):
        eps = opt.run_epoch(state, hp, k, eps).eps_next
    path = str(tmp_path / "mid.bin")
    ns.save_state(state, path)
    resumed = ns.load_state(path, state.arch, state.x, state.y)
    r1 = opt.run_epoch(state, hp, 2, eps)
    r2 = opt.run_epoch(resumed, hp, 2, eps)
    assert r1.f_after == r2.f_after
    assert r1.descent_rhs == r2.descent_rhs


def test_forward_logits_matches_state(rng):
    state = small_state(seed=9)
    logits = ns.forward_logits(state.arch, state.W, state.b, state.x)
    assert np.allclose(logits, state.z[-1], atol=1e-12)
