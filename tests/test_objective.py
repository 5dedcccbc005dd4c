import math

import numpy as np
import pytest

from dlam import baselines as bl
from dlam import network_state as ns
from dlam import objective as obj
from dlam.tensor_core import ShapeError
from conftest import central_diff, grid_minimize_1d, random_one_hot, rel_err, small_state


def _scalar(v):
    return np.array([[float(v)]])


class TestCouplingResidual:
    def test_hand_case_broadcasts_intercept(self):
        a_prev = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 3.0]])
        W = np.array([[2.0, -1.0]])
        b = np.array([[0.5]])
        z = np.array([[1.0, 1.0, 1.0]])
        # W a_prev = [2, 3, -3]
        assert np.array_equal(obj.coupling_residual(a_prev, W, b, z), [[1.5, 2.5, -3.5]])
        assert np.array_equal(obj.mean_residual(W @ a_prev, b, z), [[0.5 + (1.0 + 2.0 - 4.0) / 3]])

    def test_nonconforming_operands_raise(self):
        with pytest.raises(ValueError):
            obj.coupling_residual(np.ones((3, 2)), np.ones((1, 2)), np.zeros((1, 1)),
                                  np.ones((1, 2)))
        with pytest.raises(ValueError):
            obj.coupling_residual(np.ones((2, 4)), np.ones((1, 2)), np.zeros((1, 1)),
                                  np.ones((1, 3)))


class TestPenalty:
    def test_zero_residual(self):
        state = small_state(seed=1)
        for l in range(state.num_layers):
            assert obj.penalty_phi(state.a_prev(l), state.W[l], state.b[l],
                                   state.z[l], 1e-4) == 0.0

    def test_scalar_hand_case(self):
        # rho=2, z=3, W=1, a=1, b=1 -> (2/2)(3-2)^2 = 1
        val = obj.penalty_phi(_scalar(1), _scalar(1), _scalar(1), _scalar(3), 2.0)
        assert val == pytest.approx(1.0, abs=1e-15)

    def test_linear_in_rho(self, rng):
        a, W, b, z = (rng.normal(size=(2, 3)), rng.normal(size=(2, 2)),
                      rng.normal(size=(2, 1)), rng.normal(size=(2, 3)))
        assert obj.penalty_phi(a, W, b, z, 2.0) == pytest.approx(
            2.0 * obj.penalty_phi(a, W, b, z, 1.0), rel=1e-14)


class TestPenaltyGradients:
    def test_zero_residual_gives_zero_grads(self):
        state = small_state(seed=2)
        rho = 0.5
        for l in range(state.num_layers):
            a_prev, W, b, z = state.a_prev(l), state.W[l], state.b[l], state.z[l]
            assert np.all(obj.grad_phi_w(a_prev, W, b, z, rho) == 0.0)
            assert np.all(obj.grad_phi_b(a_prev, W, b, z, rho) == 0.0)
            assert np.all(obj.grad_phi_z(a_prev, W, b, z, rho) == 0.0)
        for l in range(state.num_layers - 1):
            g = obj.grad_phi_a(state.a[l], state.W[l + 1], state.b[l + 1],
                               state.z[l + 1], rho)
            assert np.all(g == 0.0)

    def test_scalar_hand_case(self):
        # rho=2, W=1, a=1, b=1, z=3 -> dphi/dW = 2*(1+1-3)*1 = -2
        g = obj.grad_phi_w(_scalar(1), _scalar(1), _scalar(1), _scalar(3), 2.0)
        assert g[0, 0] == pytest.approx(-2.0, abs=1e-15)

    def test_all_gradients_match_finite_differences(self, rng):
        rho = 0.37
        for trial in range(100):
            n_out, n_in, n = rng.integers(1, 5, 3)
            a_prev = rng.normal(size=(n_in, n))
            W = rng.normal(size=(n_out, n_in))
            b = rng.normal(size=(n_out, 1))
            z = rng.normal(size=(n_out, n))
            gw = obj.grad_phi_w(a_prev, W, b, z, rho)
            fw = central_diff(lambda M: obj.penalty_phi(a_prev, M, b, z, rho), W)
            assert rel_err(fw, gw) < 1e-5
            gb = obj.grad_phi_b(a_prev, W, b, z, rho)
            fb = central_diff(lambda v: obj.penalty_phi(a_prev, W, v, z, rho), b)
            assert rel_err(fb, gb) < 1e-5
            gz = obj.grad_phi_z(a_prev, W, b, z, rho)
            fz = central_diff(lambda m: obj.penalty_phi(a_prev, W, b, m, rho), z)
            assert rel_err(fz, gz) < 1e-5
            ga = obj.grad_phi_a(a_prev, W, b, z, rho)
            fa = central_diff(lambda m: obj.penalty_phi(m, W, b, z, rho), a_prev)
            assert rel_err(fa, ga) < 1e-5


class TestRisk:
    def test_symmetric_logits(self):
        z = np.array([[0.0], [0.0]])
        y = np.array([[1.0], [0.0]])
        assert obj.risk_cross_entropy(z, y) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_risk_decreases_with_margin(self):
        y = np.array([[1.0], [0.0]])
        vals = [obj.risk_cross_entropy(np.array([[m], [0.0]]), y)
                for m in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_grad_matches_finite_differences(self, rng):
        for _ in range(30):
            classes, n = rng.integers(2, 6, 2)
            z = rng.normal(size=(classes, n))
            y = random_one_hot(rng, classes, n)
            g = obj.grad_risk_cross_entropy(z, y)
            f = central_diff(lambda m: obj.risk_cross_entropy(m, y), z)
            assert rel_err(f, g) < 1e-6

    def test_one_hot_rejected(self):
        """Labels are checked where they enter: initialize and train_baseline."""
        arch = ns.Architecture((2, 3, 2))
        x = np.zeros((2, 1))
        cfg = bl.BaselineConfig(epochs=1)
        for y in (np.array([[0.5], [0.5]]), np.array([[1.0], [1.0]])):
            with pytest.raises(ValueError, match="one-hot"):
                ns.initialize(arch, x, y)
            with pytest.raises(ValueError, match="one-hot"):
                bl.train_baseline(cfg, arch, x, y)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            obj.risk_cross_entropy(np.zeros((2, 2)), np.eye(3))

    def test_logsumexp_stability(self):
        z = np.array([[1000.0], [0.0]])
        y = np.array([[1.0], [0.0]])
        assert obj.risk_cross_entropy(z, y) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("rho", [1e-4, 1e-2, 1.0])
    def test_newton_direction_solves_each_column_hessian(self, rho, rng):
        # the composite's Hessian per column, (rho I + (diag p - p p^T) / N) for
        # cross-entropy, built densely and solved directly
        n, c = 6, 4
        z = rng.normal(0.0, 3.0, (c, n))
        g = rng.normal(size=(c, n))
        p = obj.softmax_columns(z)
        got = obj.newton_direction(g, rho, p)
        for j in range(n):
            q = p[:, j]
            hessian = rho * np.eye(c) + (np.diag(q) - np.outer(q, q)) / n
            want = np.linalg.solve(hessian, g[:, j])
            assert np.allclose(got[:, j], want, rtol=1e-9, atol=0.0)

    def test_risk_grad_takes_the_formed_softmax(self, rng):
        z = rng.normal(0.0, 5.0, (3, 7))
        y = random_one_hot(rng, 3, 7)
        p = obj.softmax_columns(z)
        assert obj.grad_risk_cross_entropy(z, y, p).tobytes() == \
            obj.grad_risk_cross_entropy(z, y).tobytes()


class TestWSubproblem:
    def test_zero_grad_none_reg_unchanged(self, rng):
        W = rng.normal(size=(3, 3))
        got = obj.solve_w_subproblem(ns.RegKind.NONE, 0.0, W, np.zeros_like(W), 2.0)
        assert np.array_equal(got, W)

    def test_scalar_against_grid(self):
        # theta=2, W_k=1, grad=0.5, no regularizer -> 0.75
        got = obj.solve_w_subproblem(ns.RegKind.NONE, 0.0, _scalar(1), _scalar(0.5), 2.0)
        def p(w):
            return 0.5 * (w - 1.0) + 1.0 * (w - 1.0) ** 2
        assert got[0, 0] == pytest.approx(0.75, abs=1e-12)
        assert got[0, 0] == pytest.approx(grid_minimize_1d(p, -2, 3), abs=1e-6)

    def test_scalar_l1_thresholded_to_zero(self):
        got = obj.solve_w_subproblem(ns.RegKind.L1, 0.5, _scalar(0.3), _scalar(0.0), 1.0)
        def p(w):
            return 0.5 * (w - 0.3) ** 2 + 0.5 * abs(w)
        assert got[0, 0] == 0.0
        assert abs(grid_minimize_1d(p, -1, 1)) < 1e-6

    def test_theta_must_be_positive(self):
        with pytest.raises(ValueError):
            obj.solve_w_subproblem(ns.RegKind.NONE, 0.0, _scalar(1), _scalar(1), 0.0)

    @pytest.mark.parametrize("kind,lam", [(ns.RegKind.NONE, 0.0),
                                          (ns.RegKind.L2, 0.7),
                                          (ns.RegKind.L1, 0.4)])
    def test_beats_random_perturbations(self, kind, lam, rng):
        """Exact-minimizer property on scalar and 3x3 instances."""
        for shape in ((1, 1), (3, 3)):
            W_k = rng.normal(size=shape)
            grad = rng.normal(size=shape)
            theta = 1.3
            sol = obj.solve_w_subproblem(kind, lam, W_k, grad, theta)

            def val(M):
                return (float(np.sum(grad * (M - W_k)))
                        + 0.5 * theta * float(np.sum((M - W_k) ** 2))
                        + obj.regularizer_value(kind, lam, M))

            base = val(sol)
            for _ in range(10_000 // 2):
                pert = sol + rng.normal(scale=rng.choice([1e-3, 0.1, 1.0]), size=shape)
                assert base <= val(pert) + 1e-6


class TestRegularizerValues:
    def test_values(self, rng):
        W = np.array([[1.0, -2.0]])
        assert obj.regularizer_value(ns.RegKind.NONE, 5.0, W) == 0.0
        assert obj.regularizer_value(ns.RegKind.L2, 0.5, W) == pytest.approx(2.5)
        assert obj.regularizer_value(ns.RegKind.L1, 0.5, W) == pytest.approx(1.5)


class TestEvaluateF:
    def test_fresh_state_penalties_zero(self):
        state = small_state(seed=4, reg=ns.RegKind.L2, lam=0.2)
        hp = obj.HyperParams()
        out = obj.evaluate_f(state, hp, eps=0.01)
        assert all(p == 0.0 for p in out.penalty_per_layer)
        assert out.feasible
        assert out.total == pytest.approx(out.risk + out.reg, rel=1e-14)
        assert out.reg > 0.0

    def test_infeasible_reports_infinite_total(self):
        state = small_state(seed=4)
        state.a[0] = state.a[0] + 100.0
        out = obj.evaluate_f(state, obj.HyperParams(), eps=0.5)
        assert not out.feasible
        assert out.total == math.inf

    def test_smallest_scalar_network_hand_sum(self):
        arch = ns.Architecture((1, 1, 1), activation=ns.ActivationKind.RELU)
        x = _scalar(1.0)
        y = _scalar(1.0)
        state = ns.initialize(arch, x, y, seed=0)
        state.W = [_scalar(2.0), _scalar(1.0)]
        state.b = [_scalar(0.5), _scalar(-0.5)]
        state.z = [_scalar(3.0), _scalar(1.0)]
        state.a = [_scalar(3.2)]
        hp = obj.HyperParams(rho=2.0)
        out = obj.evaluate_f(state, hp, eps=1.0)
        # phi_1 = (2/2)(3 - 2*1 - 0.5)^2 ; phi_2 = (2/2)(1 - 1*3.2 + 0.5)^2
        # single-class softmax risk is exactly 0
        expect = (3.0 - 2.5) ** 2 + (1.0 - 2.7) ** 2
        assert out.risk == pytest.approx(0.0, abs=1e-15)
        assert out.total == pytest.approx(expect, rel=1e-12)
        # |a - h(z)| = 0.2 <= eps, so the slab holds
        assert out.feasible

    def test_column_permutation_invariance(self, rng):
        state = small_state(seed=5, scatter=0.4)
        hp = obj.HyperParams()
        before = obj.evaluate_f(state, hp, eps=1.0)
        perm = rng.permutation(state.n_samples)
        state.x = state.x[:, perm]
        state.y = state.y[:, perm]
        state.z = [z[:, perm] for z in state.z]
        state.a = [a[:, perm] for a in state.a]
        after = obj.evaluate_f(state, hp, eps=1.0)
        assert after.total == pytest.approx(before.total, rel=1e-12)

    def test_hyperparams_validation(self):
        with pytest.raises(ValueError):
            obj.HyperParams(rho=0.0)
        with pytest.raises(ValueError):
            obj.HyperParams(eps0=-1.0)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            obj.HyperParams(seed=-1)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["rho", "eps0"])
    def test_hyperparams_reject_non_finite(self, name, value):
        with pytest.raises(ValueError, match=f"{name}.* must be finite"):
            obj.HyperParams(**{name: value})

    @pytest.mark.parametrize("value", [2.5, 2.0, "3", None])
    @pytest.mark.parametrize("name", ["epochs", "seed"])
    def test_hyperparams_reject_non_integers(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            obj.HyperParams(**{name: value})
        assert getattr(obj.HyperParams(**{name: np.int64(3)}), name) == 3


def test_accuracy_from_logits():
    logits = np.array([[2.0, 0.0], [1.0, 3.0]])
    y = np.array([[1.0, 1.0], [0.0, 0.0]])
    assert obj.accuracy_from_logits(logits, y) == 0.5
