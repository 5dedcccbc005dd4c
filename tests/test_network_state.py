import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dlam import baselines as bl
from dlam import network_state as ns
from dlam import objective as obj
from dlam import optimizer as opt
from dlam.diagnostics import descent_ledger
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


PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)
SHAPES = st.tuples(st.integers(1, 6), st.integers(1, 9))


def _sigmoid_sign_split(z):
    """The boolean-mask sigmoid activation_apply used to compute: the oracle."""
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _relu_bounds_where(a, eps):
    """slab_z_bounds' ReLU branch with its np.where passes always taken: the oracle."""
    t_lo, t_hi = a - eps, a + eps
    empty = t_hi < 0.0
    hi = np.where(empty, 0.0, t_hi)
    lo = np.where(t_lo > 0.0, t_lo, -np.inf)
    lo = np.where(empty, 0.0, lo)
    return lo, hi, empty


@PROPERTY
@given(arrays(np.float64, SHAPES,
              elements=st.floats(-40.0, 40.0) | st.floats(allow_nan=False)))
def test_sigmoid_equals_sign_split_formula(z):
    # every finite value, both zeros and both infinities, byte for byte
    assert ns.activation_apply(SIG, z).tobytes() == _sigmoid_sign_split(z).tobytes()


@pytest.mark.parametrize("with_empty", [False, True])
@PROPERTY
@given(a=arrays(np.float64, SHAPES, elements=st.floats(-3.0, 3.0)),
       eps=st.floats(1e-6, 2.0))
def test_relu_bounds_equal_where_path(with_empty, a, eps):
    a = np.maximum(a, -eps)              # a + eps >= 0: no entry is empty
    if with_empty:
        a[0, 0] = -eps - 1.0
    got = ns.slab_z_bounds(RELU, a, eps)
    assert bool(got[2].any()) == with_empty
    for g, w in zip(got, _relu_bounds_where(a, eps)):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def _smooth_bounds_where(kind, a, eps):
    """slab_z_bounds' sigmoid/tanh branch with its np.where passes always taken: the oracle."""
    d = ns.SATURATION_GUARD
    floor, inverse = ((0.0, lambda c: np.log(c / (1 - c))) if kind is SIG
                      else (-1.0, np.arctanh))
    t_lo, t_hi = a - eps, a + eps
    empty = (t_hi <= floor) | (t_lo >= 1.0)
    lo = np.where(t_lo <= floor + d, -np.inf, inverse(np.clip(t_lo, floor + d, 1.0 - d)))
    hi = np.where(t_hi >= 1.0 - d, np.inf, inverse(np.clip(t_hi, floor + d, 1.0 - d)))
    return np.where(empty, 0.0, lo), np.where(empty, 0.0, hi), empty


@pytest.mark.parametrize("kind", [SIG, TANH])
@pytest.mark.parametrize("with_empty", [False, True])
@PROPERTY
@given(a=arrays(np.float64, SHAPES, elements=st.floats(-1.5, 2.0)),
       eps=st.floats(1e-6, 2.0))
def test_smooth_bounds_equal_where_path(kind, with_empty, a, eps):
    floor = 0.0 if kind is SIG else -1.0
    a = np.clip(a, floor - eps / 2, 1.0 + eps / 2)   # the band meets the range
    if with_empty:
        a[0, 0] = 1.0 + eps + 0.5                       # the band lies above the range
    got = ns.slab_z_bounds(kind, a, eps)
    assert bool(got[2].any()) == with_empty
    for g, w in zip(got, _smooth_bounds_where(kind, a, eps)):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


@PROPERTY
@given(kind=st.sampled_from([RELU, SIG, TANH]), a=st.floats(-1.5, 3.0),
       eps=st.floats(1e-3, 1.0), z=st.floats(-40.0, 40.0))
def test_interval_holds_exactly_the_feasible_z(kind, a, eps, z):
    # |h(z) - a| <= eps inside [lo, hi] and > eps outside it, up to the rounding
    # of h, of the inversion and of the saturation guard
    tol = 1e-12
    lo, hi, empty = _invert(kind, a, eps)

    def gap(v):
        return abs(float(ns.activation_apply(kind, np.array([[v]]))[0, 0]) - a) - eps

    if empty:
        assert gap(z) > -tol
        return
    assert gap(z) <= tol if lo <= z <= hi else gap(z) > -tol
    for edge in (lo, hi):
        if math.isfinite(edge):
            assert gap(edge) <= tol


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
    # a kind is its member or its string value; a bare one serves every hidden layer
    arch = ns.Architecture((3, 4, 2), activation="relu", regularizer="l2")
    assert arch.activation == (RELU,)
    assert arch.regularizer is ns.RegKind.L2
    assert ns.Architecture((3, 4, 5, 2), activation="sigmoid").activation == (SIG, SIG)
    assert ns.Architecture((3, 4, 5, 2), activation=("relu", SIG)).activation == (RELU, SIG)


@pytest.mark.parametrize("name,kind", [
    (name, kind) for name, enum in (("activation", ns.ActivationKind), ("regularizer", ns.RegKind))
    for kind in enum])
def test_architecture_kind_from_string(name, kind):
    built = getattr(ns.Architecture((3, 4, 5, 2), **{name: kind.value}), name)
    assert built == ((kind, kind) if name == "activation" else kind)


@pytest.mark.parametrize("name,enum", [("activation", "ActivationKind"),
                                       ("regularizer", "RegKind")])
def test_architecture_rejects_unknown_kind(name, enum):
    with pytest.raises(ValueError, match=f"^'x' is not a valid {enum}$"):
        ns.Architecture((3, 4, 2), **{name: "x"})


@pytest.mark.parametrize("lam", [-0.1, math.nan, math.inf])
def test_architecture_rejects_bad_reg_weight(lam):
    with pytest.raises(ValueError, match="reg_weight must be finite and >= 0"):
        ns.Architecture((4, 3, 2), reg_weight=lam)


@pytest.mark.parametrize("sizes", [(3, 4.7, 2), (3.0, 4, 2), (3, "4", 2), (3, 4, None)])
def test_architecture_rejects_non_integer_sizes(sizes):
    with pytest.raises(ValueError, match="layer_sizes must be an integer"):
        ns.Architecture(sizes)
    arch = ns.Architecture(tuple(np.int64(n) for n in (3, 4, 2)))
    assert arch.layer_sizes == (3, 4, 2) and all(type(n) is int for n in arch.layer_sizes)


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


def test_nan_activation_reads_infeasible():
    # a NaN entry is no slab member; folding the layers must not drop it
    state = small_state(seed=7)
    a = state.a[0].copy()
    a[0, 0] = np.nan
    state.a[0] = a
    assert math.isnan(ns.feasibility_residual(state, 0.5))
    out = obj.evaluate_f(state, obj.HyperParams(), eps=0.5)
    assert not out.feasible
    assert out.total == math.inf


def test_initialize_shape_errors(rng):
    arch = ns.Architecture((3, 4, 2))
    y = random_one_hot(rng, 2, 5)
    with pytest.raises(ShapeError):
        ns.initialize(arch, rng.uniform(0, 1, (4, 5)), y)
    with pytest.raises(ShapeError):
        ns.initialize(arch, rng.uniform(0, 1, (3, 6)), y)
    with pytest.raises(ShapeError):
        ns.initialize(arch, rng.uniform(0, 1, (3, 5)), random_one_hot(rng, 3, 5))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_initialize_rejects_non_finite_input(rng, bad):
    # the finiteness check on y runs before the one-hot check, which a
    # non-finite entry would also fail
    arch = ns.Architecture((3, 4, 2))
    x = rng.uniform(0, 1, (3, 5))
    y = random_one_hot(rng, 2, 5)
    x_bad, y_bad = x.copy(), y.copy()
    x_bad[1, 2] = bad
    y_bad[0, 3] = bad
    with pytest.raises(ValueError, match="x contains non-finite values"):
        ns.initialize(arch, x_bad, y)
    with pytest.raises(ValueError, match="y contains non-finite values"):
        ns.initialize(arch, x, y_bad)


@pytest.mark.parametrize("y,message", [
    ([[0.5], [0.5]], "labels must be one-hot columns"),
    ([[1.0], [1.0]], "labels must be one-hot columns"),
    ([[0.0], [0.0]], "labels must be one-hot columns"),
    ([[1.0], [math.nan]], "y contains non-finite values"),
    ([[math.inf], [0.0]], "y contains non-finite values")])
def test_both_trainers_share_the_label_check(y, message):
    # the DLAM and baseline trainers reject a label batch with one message
    arch = ns.Architecture((2, 3, 2))
    x, y = np.zeros((2, 1)), np.array(y)
    cfg = bl.BaselineConfig(epochs=1)
    messages = []
    for start in (lambda: ns.initialize(arch, x, y), lambda: bl.train_baseline(cfg, arch, x, y)):
        with pytest.raises(ValueError) as err:
            start()
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith(message)


def test_initialize_rejects_empty_batch():
    arch = ns.Architecture((3, 4, 2))
    with pytest.raises(ValueError, match="empty batch"):
        ns.initialize(arch, np.zeros((3, 0)), np.zeros((2, 0)))


def test_epoch_on_a_copied_state_matches_the_original():
    # a sweep reads nothing but the state's blocks and its arguments: a fresh
    # run_epoch on a deep copy repeats the original's sweep
    state = small_state(seed=14, scatter=0.3)
    hp = obj.HyperParams(rho=0.1, epochs=4, seed=0)
    for k in range(2):
        opt.run_epoch(state, hp, k, hp.eps0)
    copied = copy.deepcopy(state)
    r1 = opt.run_epoch(state, hp, 2, hp.eps0)
    r2 = opt.run_epoch(copied, hp, 2, hp.eps0)
    assert r1.f_after == r2.f_after
    assert descent_ledger(r1, hp.rho) == descent_ledger(r2, hp.rho)


def test_forward_logits_matches_state(rng):
    state = small_state(seed=9)
    logits = ns.forward_logits(state.arch, state.W, state.b, state.x)
    assert np.allclose(logits, state.z[-1], atol=1e-12)


@pytest.mark.parametrize("kind", list(ns.ActivationKind))
def test_activation_into_out_matches_a_fresh_call(kind, rng):
    z = np.concatenate([rng.normal(0.0, 3.0, (2, 50)), [[0.0, -0.0], [40.0, -40.0]]], axis=1)
    out = np.full_like(z, np.nan)
    assert ns.activation_apply(kind, z, out=out) is out
    assert out.tobytes() == ns.activation_apply(kind, z).tobytes()


@pytest.mark.parametrize("kind", list(ns.ActivationKind))
def test_forward_pass_into_out_matches_a_fresh_pass(kind, rng):
    arch = ns.Architecture((5, 7, 6, 3), activation=kind)
    W, b = ns.he_init(arch, 4)
    b = [v + 0.1 for v in b]
    x = rng.normal(size=(5, 9))
    out = ns.forward_pass(arch, *ns.he_init(arch, 8), rng.normal(size=(5, 9)))
    zs, hidden = out
    arrays = [*zs, *hidden]
    fresh = ns.forward_pass(arch, W, b, x)
    got = ns.forward_pass(arch, W, b, x, out=out)
    assert got[0] is zs and got[1] is hidden
    assert all(new is old for new, old in zip([*got[0], *got[1]], arrays))
    assert [v.tobytes() for v in [*got[0], *got[1]]] == \
        [v.tobytes() for v in [*fresh[0], *fresh[1]]]
    assert fresh[0][-1].tobytes() == ns.forward_logits(arch, W, b, x).tobytes()
