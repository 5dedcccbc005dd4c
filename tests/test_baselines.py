import math

import numpy as np
import pytest

from dlam import baselines as bl
from dlam import network_state as ns
from dlam import objective as obj
from dlam import data_io
from dlam.tensor_core import ShapeError
from conftest import central_diff, random_one_hot, rel_err


def _loss(arch, W, b, x, y):
    return obj.risk_cross_entropy(ns.forward_logits(arch, W, b, x), y)


class TestBackprop:
    @pytest.mark.parametrize("activation", [ns.ActivationKind.RELU,
                                            ns.ActivationKind.SIGMOID,
                                            ns.ActivationKind.TANH])
    def test_matches_finite_differences(self, activation, rng):
        for seed in range(4):
            r2 = np.random.default_rng(seed)
            sizes = (int(r2.integers(2, 6)), int(r2.integers(2, 6)),
                     int(r2.integers(2, 6)), int(r2.integers(2, 4)))
            arch = ns.Architecture(sizes, activation=activation)
            # smooth pre-activations away from the relu kink for clean differences
            W, b = ns.he_init(arch, seed)
            b = [v + 0.05 for v in b]
            x = r2.uniform(0.1, 1.0, (sizes[0], 6))
            y = random_one_hot(r2, sizes[-1], 6)
            dW, db = bl.backprop_grads(arch, W, b, x, y)
            for l in range(arch.num_layers):
                fW = central_diff(lambda M, l=l: _loss(arch, W[:l] + [M] + W[l + 1:], b, x, y), W[l])
                assert rel_err(fW, dW[l]) < 1e-5
                fb = central_diff(lambda v, l=l: _loss(arch, W, b[:l] + [v] + b[l + 1:], x, y), b[l])
                assert rel_err(fb, db[l]) < 1e-5

    def test_zero_top_layer_gradient_closed_form(self, rng):
        arch = ns.Architecture((3, 4, 2))
        W, b = ns.he_init(arch, 0)
        W[1] = np.zeros_like(W[1])
        b[1] = np.zeros_like(b[1])
        x = rng.uniform(0, 1, (3, 5))
        y = random_one_hot(rng, 2, 5)
        dW, db = bl.backprop_grads(arch, W, b, x, y)
        acts = ns.activation_apply(arch.activation[0], W[0] @ x + b[0])
        resid = (obj.softmax_columns(np.zeros((2, 5))) - y) / 5
        assert np.allclose(dW[1], resid @ acts.T, atol=1e-12)
        assert np.allclose(db[1], resid.sum(axis=1, keepdims=True), atol=1e-12)

    @pytest.mark.parametrize("activation", list(ns.ActivationKind))
    def test_carried_pass_gives_the_same_bytes(self, activation, rng):
        arch = ns.Architecture((5, 7, 6, 3), activation=activation)
        W, b = ns.he_init(arch, 1)
        b = [v + 0.05 for v in b]
        x = rng.normal(size=(5, 11))
        y = random_one_hot(rng, 3, 11)
        fresh = bl.backprop_grads(arch, W, b, x, y)
        zs, hidden = ns.forward_pass(arch, W, b, x)
        kept = [zs[-1].copy(), *(a.copy() for a in hidden)]
        carried = bl.backprop_grads(arch, W, b, x, y, (zs, hidden))
        for got, want in zip([*carried[0], *carried[1]], [*fresh[0], *fresh[1]]):
            assert got.tobytes() == want.tobytes()
        # only zs[:-1] serve as scratch: the logits and the activations are intact
        assert [v.tobytes() for v in [zs[-1], *hidden]] == [v.tobytes() for v in kept]


@pytest.mark.parametrize("kind", list(ns.ActivationKind))
def test_derivative_of_activation_matches_the_z_formula(kind, rng):
    # backprop hands the derivative a = h(z) from the forward pass, not z
    z = np.concatenate([rng.normal(0.0, 3.0, 200), [0.0, -0.0, 40.0, -40.0]])
    if kind is ns.ActivationKind.RELU:
        expected = (z > 0.0).astype(np.float64)
    elif kind is ns.ActivationKind.SIGMOID:
        s = ns.activation_apply(kind, z)
        expected = s * (1.0 - s)
    else:
        t = np.tanh(z)
        expected = 1.0 - t * t
    got = bl.activation_derivative(kind, ns.activation_apply(kind, z))
    assert got.tobytes() == expected.tobytes()


def _two_pass_reference(cfg, arch, x, y):
    """The loop with two passes per epoch: a fresh backprop_grads, then forward_logits."""
    L = arch.num_layers
    W, b = ns.he_init(arch, cfg.seed)
    params = W + b
    g2 = [np.zeros_like(p) for p in params]
    d2 = [np.zeros_like(p) for p in params]
    records = []
    for _ in range(cfg.epochs):
        dW, db = bl.backprop_grads(arch, params[:L], params[L:], x, y)
        for i, g in enumerate(dW + db):
            if cfg.kind is bl.BaselineKind.SGD:
                step = cfg.lr * g
            elif cfg.kind is bl.BaselineKind.ADAGRAD:
                g2[i] = g2[i] + g * g
                step = cfg.lr * g / np.sqrt(g2[i] + bl.ADAGRAD_EPS)
            else:
                g2[i] = bl.ADADELTA_RHO * g2[i] + (1 - bl.ADADELTA_RHO) * g * g
                delta = np.sqrt((d2[i] + bl.ADADELTA_EPS) / (g2[i] + bl.ADADELTA_EPS)) * g
                d2[i] = bl.ADADELTA_RHO * d2[i] + (1 - bl.ADADELTA_RHO) * delta * delta
                step = cfg.lr * delta
            params[i] = params[i] - step
        logits = ns.forward_logits(arch, params[:L], params[L:], x)
        records.append((obj.risk_cross_entropy(logits, y), obj.accuracy_from_logits(logits, y)))
    return params[:L], params[L:], records


class TestOnePassPerEpoch:
    @pytest.mark.parametrize("activation", list(ns.ActivationKind))
    @pytest.mark.parametrize("kind", list(bl.BaselineKind))
    def test_matches_the_two_pass_loop_bit_for_bit(self, kind, activation):
        ds = data_io.synth_gaussian_blobs(4, 20, 15, seed=3, noise=0.1)
        arch = ns.Architecture((20, 12, 10, 4), activation=activation)
        cfg = bl.BaselineConfig(kind=kind, lr=1.0 if kind is bl.BaselineKind.ADADELTA else 0.3,
                                epochs=12, seed=2)
        W, b, trace = bl.train_baseline(cfg, arch, ds.x, ds.y)
        W_ref, b_ref, records = _two_pass_reference(cfg, arch, ds.x, ds.y)
        assert [v.tobytes() for v in W + b] == [v.tobytes() for v in W_ref + b_ref]
        got = [(r["loss"], r["train_acc"]) for r in trace]
        assert np.array(got).tobytes() == np.array(records).tobytes()

    def test_one_forward_pass_per_epoch_plus_the_first(self, monkeypatch, rng):
        calls = []
        forward_pass = ns.forward_pass
        monkeypatch.setattr(ns, "forward_pass",
                            lambda *a, **kw: calls.append(1) or forward_pass(*a, **kw))
        arch = ns.Architecture((4, 6, 5, 3))
        x = rng.uniform(0, 1, (4, 20))
        y = random_one_hot(rng, 3, 20)
        bl.train_baseline(bl.BaselineConfig(lr=0.1, epochs=5), arch, x, y)
        # the first pass, then one per epoch; a fresh pass inside each
        # gradient besides the loss pass would make 2 * 5
        assert len(calls) == 5 + 1


class TestTrainBaseline:
    def _data(self, rng):
        arch = ns.Architecture((4, 6, 3))
        x = rng.uniform(0, 1, (4, 20))
        y = random_one_hot(rng, 3, 20)
        return arch, x, y

    def test_zero_lr_is_noop(self, rng):
        arch, x, y = self._data(rng)
        cfg = bl.BaselineConfig(kind=bl.BaselineKind.SGD, lr=0.0, epochs=3, seed=1)
        W, b, _ = bl.train_baseline(cfg, arch, x, y)
        W0, b0 = ns.he_init(arch, 1)
        assert all(np.array_equal(a, b_) for a, b_ in zip(W, W0))
        assert all(np.array_equal(a, b_) for a, b_ in zip(b, b0))

    def test_sgd_descends(self, rng):
        arch, x, y = self._data(rng)
        cfg = bl.BaselineConfig(kind=bl.BaselineKind.SGD, lr=0.1, epochs=30, seed=1)
        _, _, trace = bl.train_baseline(cfg, arch, x, y)
        assert trace[-1]["loss"] < trace[0]["loss"]

    def test_adagrad_effective_step_shrinks(self, rng):
        # the per-coordinate denominator sqrt(G + eps) only grows
        arch, x, y = self._data(rng)
        cfg = bl.BaselineConfig(kind=bl.BaselineKind.ADAGRAD, lr=0.5, epochs=1, seed=2)
        W, b, _ = bl.train_baseline(cfg, arch, x, y)
        g1, _ = bl.backprop_grads(arch, *ns.he_init(arch, 2), x, y)
        accum_once = g1[0] ** 2
        g2, _ = bl.backprop_grads(arch, W, b, x, y)
        accum_twice = accum_once + g2[0] ** 2
        step1 = cfg.lr / np.sqrt(accum_once + bl.ADAGRAD_EPS)
        step2 = cfg.lr / np.sqrt(accum_twice + bl.ADAGRAD_EPS)
        assert np.all(step2 <= step1)

    @pytest.mark.parametrize("kind", list(bl.BaselineKind))
    def test_deterministic(self, kind, rng):
        arch, x, y = self._data(rng)
        cfg = bl.BaselineConfig(kind=kind, lr=0.1, epochs=5, seed=3)
        W1, b1, t1 = bl.train_baseline(cfg, arch, x, y)
        W2, b2, t2 = bl.train_baseline(cfg, arch, x, y)
        assert all(np.array_equal(a, b_) for a, b_ in zip(W1, W2))
        assert [r["loss"] for r in t1] == [r["loss"] for r in t2]

    def test_adadelta_moves_without_lr_tuning(self, rng):
        arch, x, y = self._data(rng)
        cfg = bl.BaselineConfig(kind=bl.BaselineKind.ADADELTA, lr=1.0, epochs=50, seed=4)
        _, _, trace = bl.train_baseline(cfg, arch, x, y)
        assert trace[-1]["loss"] < trace[0]["loss"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_loss_raises_non_finite_error(self, rng):
        arch, x, y = self._data(rng)
        cfg = bl.BaselineConfig(kind=bl.BaselineKind.SGD, lr=1e308, epochs=3)
        with pytest.raises(ns.NonFiniteError) as err:
            bl.train_baseline(cfg, arch, x, y)
        assert str(err.value) == "NaN or inf in the sgd loss at epoch 0"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            bl.BaselineConfig(lr=-1.0)
        with pytest.raises(ValueError, match="epochs must be >= 0"):
            bl.BaselineConfig(epochs=-1)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            bl.BaselineConfig(seed=-1)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["lr"])
    def test_config_rejects_non_finite(self, name, value):
        with pytest.raises(ValueError, match="must be finite"):
            bl.BaselineConfig(**{name: value})

    @pytest.mark.parametrize("value", [2.5, 2.0, "3", None])
    @pytest.mark.parametrize("name", ["epochs", "seed"])
    def test_config_rejects_non_integers(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            bl.BaselineConfig(**{name: value})
        assert getattr(bl.BaselineConfig(**{name: np.int64(3)}), name) == 3

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_x(self, value, rng):
        arch, x, y = self._data(rng)
        x[2, 7] = value
        cfg = bl.BaselineConfig(kind=bl.BaselineKind.SGD, lr=0.1, epochs=2)
        with pytest.raises(ValueError, match="x contains non-finite values"):
            bl.train_baseline(cfg, arch, x, y)

    def test_rejects_x_with_the_wrong_row_count(self, rng):
        arch, x, y = self._data(rng)
        cfg = bl.BaselineConfig(kind=bl.BaselineKind.SGD, lr=0.1, epochs=2)
        with pytest.raises(ShapeError, match="x has 5 rows, architecture expects 4"):
            bl.train_baseline(cfg, arch, np.vstack([x, x[:1]]), y)

    def test_rejects_x_and_y_with_different_columns(self, rng):
        arch, x, y = self._data(rng)
        cfg = bl.BaselineConfig(kind=bl.BaselineKind.SGD, lr=0.1, epochs=2)
        with pytest.raises(ShapeError, match="x has 20 columns but y has 19"):
            bl.train_baseline(cfg, arch, x, y[:, :19])

    def test_rejects_an_empty_batch(self, rng):
        arch, _, _ = self._data(rng)
        cfg = bl.BaselineConfig(kind=bl.BaselineKind.SGD, lr=0.1, epochs=2)
        with pytest.raises(ValueError, match="empty batch"):
            bl.train_baseline(cfg, arch, np.zeros((4, 0)), np.zeros((3, 0)))


class TestLearningRateSelection:
    def test_grid_winner_separates_blobs(self):
        ds = data_io.synth_gaussian_blobs(3, 8, 30, seed=5, noise=0.05)
        arch = ns.Architecture((8, 16, 3))
        lr = bl.select_learning_rate(bl.BaselineKind.SGD, arch, ds.x, ds.y,
                                     probe_epochs=40, seed=0)
        assert lr in bl.LR_GRID
        cfg = bl.BaselineConfig(kind=bl.BaselineKind.SGD, lr=lr, epochs=200, seed=0)
        W, b, _ = bl.train_baseline(cfg, arch, ds.x, ds.y)
        acc = obj.accuracy_from_logits(ns.forward_logits(arch, W, b, ds.x), ds.y)
        assert acc == 1.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_rate_is_skipped(self):
        ds = data_io.synth_gaussian_blobs(3, 12, 40, seed=11, noise=0.05)   # criterion 11's
        arch = ns.Architecture((12, 16, 16, 3))
        lr = bl.select_learning_rate(bl.BaselineKind.SGD, arch, ds.x, ds.y,
                                     grid=(1e308, 0.3, 0.1), probe_epochs=30, seed=0)
        assert lr == 0.3

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_grid_where_every_rate_diverges_is_an_error(self):
        ds = data_io.synth_gaussian_blobs(3, 12, 40, seed=11, noise=0.05)   # criterion 11's
        arch = ns.Architecture((12, 16, 16, 3))
        with pytest.raises(ValueError) as err:
            bl.select_learning_rate(bl.BaselineKind.SGD, arch, ds.x, ds.y,
                                    grid=(1e308, 1e300), probe_epochs=30, seed=0)
        assert str(err.value) == "every learning rate in the grid (1e+308, 1e+300) diverged"

    def test_needs_at_least_one_probe_epoch(self):
        ds = data_io.synth_gaussian_blobs(3, 8, 10, seed=5)
        with pytest.raises(ValueError, match="probe_epochs must be >= 1"):
            bl.select_learning_rate(bl.BaselineKind.SGD, ns.Architecture((8, 4, 3)),
                                    ds.x, ds.y, probe_epochs=0)
