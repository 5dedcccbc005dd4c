import math

import numpy as np
import pytest

from dlam import network_state as ns
from dlam import objective as obj
from dlam import optimizer as opt
from dlam.data_io import one_hot, synth_gaussian_blobs
from conftest import grid_minimize_1d, random_one_hot, small_state


def _scalar(v):
    return np.array([[float(v)]])


def _scalar_state(W1, b1, z1, a1, W2, b2, z2, x=1.0, y=None,
                  activation=ns.ActivationKind.RELU, risk=ns.RiskKind.CROSS_ENTROPY):
    """Fully hand-specified (1,1,1) network."""
    arch = ns.Architecture((1, 1, 1), activation=activation, risk=risk)
    state = ns.NetworkState(arch=arch, x=_scalar(x),
                            y=_scalar(1.0) if y is None else _scalar(y))
    state.W = [_scalar(W1), _scalar(W2)]
    state.b = [_scalar(b1), _scalar(b2)]
    state.z = [_scalar(z1), _scalar(z2)]
    state.a = [_scalar(a1)]
    return state


class TestUpdateW:
    def test_stationary_block_unchanged(self):
        state = small_state(seed=1)
        before = state.W[0]
        res = opt.update_w(state, 0, obj.HyperParams())
        assert res.trials == 1
        assert np.array_equal(state.W[0], before)

    def test_scalar_matches_grid_minimizer(self):
        # rho=1, a=1, b=0, z=0, W=1; curvature of phi in W is rho*a^2 = 1,
        # so theta0 at the curvature accepts immediately with the exact step
        state = _scalar_state(W1=1.0, b1=0.0, z1=0.0, a1=0.0, W2=1.0, b2=0.0, z2=0.0)
        hp = obj.HyperParams(rho=1.0)
        res = opt.update_w(state, 0, hp, theta0=1.0)
        def phi(w):
            return 0.5 * (0.0 - w * 1.0 - 0.0) ** 2
        expect = grid_minimize_1d(phi, -2.0, 2.0)
        assert res.trials == 1
        assert state.W[0][0, 0] == pytest.approx(expect, abs=1e-6)

    def test_majorization_holds_at_acceptance(self, rng):
        for seed in range(8):
            state = small_state(seed=seed, scatter=0.5)
            hp = obj.HyperParams(rho=0.3)
            l = int(rng.integers(0, state.num_layers))
            W_before = state.W[l]
            a_prev, b, z = state.a_prev(l), state.b[l], state.z[l]
            res = opt.update_w(state, l, hp)
            assert res.phi_value <= res.model_value
            # recompute both sides through the exact quadratic expansion
            d = state.W[l] - W_before
            grad = obj.grad_phi_w(a_prev, W_before, b, z, hp.rho)
            phi0 = obj.penalty_phi(a_prev, W_before, b, z, hp.rho)
            lin = phi0 + float(np.sum(grad * d))
            quad_true = 0.5 * hp.rho * float(np.sum((d @ a_prev) ** 2))
            quad_model = 0.5 * res.accepted_param * float(np.sum(d * d))
            assert lin + quad_true <= lin + quad_model

    @pytest.mark.parametrize("reg,lam", [(ns.RegKind.NONE, 0.0),
                                         (ns.RegKind.L2, 0.3),
                                         (ns.RegKind.L1, 0.1)])
    def test_block_objective_nonincreasing(self, reg, lam):
        for seed in range(6):
            state = small_state(seed=seed, scatter=0.6, reg=reg, lam=lam)
            hp = obj.HyperParams(rho=0.5)
            l = seed % state.num_layers
            a_prev, b, z = state.a_prev(l), state.b[l], state.z[l]
            before = (obj.penalty_phi(a_prev, state.W[l], b, z, hp.rho)
                      + obj.regularizer_value(reg, lam, state.W[l]))
            opt.update_w(state, l, hp)
            after = (obj.penalty_phi(a_prev, state.W[l], b, z, hp.rho)
                     + obj.regularizer_value(reg, lam, state.W[l]))
            assert after <= before + 1e-10

    def test_budget_exhaustion_raises_with_param(self):
        state = small_state(seed=2, scatter=0.5)
        hp = obj.HyperParams(rho=1.0, alpha0=1e-12, max_backtrack=2)
        with pytest.raises(opt.BacktrackError) as err:
            opt.update_w(state, 0, hp)
        assert err.value.last_param > 1e-12


class TestUpdateB:
    def test_zero_residual_unchanged(self):
        state = small_state(seed=3)
        before = state.b[1]
        opt.update_b(state, 1, obj.HyperParams())
        assert np.array_equal(state.b[1], before)

    def test_scalar_hand_case(self):
        # rho=2, b=1, W*a=1, z=4: grad = 2(1+1-4) = -4, b <- 1 - (-4)/2 = 3,
        # which equals the closed form z - W*a for one sample
        state = _scalar_state(W1=1.0, b1=1.0, z1=4.0, a1=4.0, W2=1.0, b2=0.0, z2=4.0)
        opt.update_b(state, 0, obj.HyperParams(rho=2.0))
        assert state.b[0][0, 0] == pytest.approx(3.0, abs=1e-14)

    def test_penalty_never_increases(self):
        for seed in range(10):
            state = small_state(seed=seed, scatter=0.7)
            hp = obj.HyperParams(rho=0.8)
            l = seed % state.num_layers
            a_prev, W, z = state.a_prev(l), state.W[l], state.z[l]
            before = obj.penalty_phi(a_prev, W, state.b[l], z, hp.rho)
            opt.update_b(state, l, hp)
            after = obj.penalty_phi(a_prev, W, state.b[l], z, hp.rho)
            assert after <= before + 1e-12


class TestUpdateZHidden:
    def test_interior_step_is_free_minimizer(self):
        state = small_state(seed=4, scatter=0.2)
        hp = obj.HyperParams(rho=0.5)
        expect = state.z[0] - obj.grad_phi_z(state.x, state.W[0], state.b[0],
                                             state.z[0], hp.rho) / hp.rho
        z_new, recoveries = opt.update_z_hidden(state, 0, hp, eps=50.0)
        assert recoveries == 0
        assert np.allclose(z_new, expect, atol=1e-12)

    def test_relu_clip_hand_case(self):
        # slab around a=0.5 with eps=0.1 inverts to [0.4, 0.6]; the free step
        # lands at 1.0 and is clipped to 0.6
        state = _scalar_state(W1=1.0, b1=0.0, z1=0.45, a1=0.5, W2=1.0, b2=0.0, z2=0.5,
                              x=1.0)
        hp = obj.HyperParams(rho=1.0)
        # free step goes to W*x + b = 1.0
        z_new, recoveries = opt.update_z_hidden(state, 0, hp, eps=0.1)
        assert recoveries == 0
        assert z_new[0, 0] == pytest.approx(0.6, abs=1e-12)

    def test_beats_random_feasible_perturbations(self, rng):
        """Exact minimizer of the quadratic model plus slab indicator."""
        hp = obj.HyperParams(rho=0.7)
        for seed in range(20):
            r2 = np.random.default_rng(seed)
            a_val = float(r2.uniform(0.1, 1.5))
            eps = float(r2.uniform(0.05, 0.5))
            state = _scalar_state(W1=float(r2.normal()), b1=float(r2.normal()),
                                  z1=float(r2.uniform(max(0.0, a_val - eps) or -1.0,
                                                      a_val + eps)),
                                  a1=a_val, W2=1.0, b2=0.0, z2=a_val)
            z_k = state.z[0][0, 0]
            grad = obj.grad_phi_z(state.x, state.W[0], state.b[0], state.z[0], hp.rho)
            lo, hi, _ = ns.slab_z_bounds(ns.ActivationKind.RELU,
                                         np.array([[a_val]]), eps)
            z_new, _ = opt.update_z_hidden(state, 0, hp, eps=eps)

            def model_value(z):
                return grad[0, 0] * (z - z_k) + 0.5 * hp.rho * (z - z_k) ** 2

            base = model_value(z_new[0, 0])
            lo_s = lo[0, 0] if math.isfinite(lo[0, 0]) else z_new[0, 0] - 20.0
            for _ in range(1000):
                pert = float(r2.uniform(lo_s, hi[0, 0]))
                assert base <= model_value(pert) + 1e-6

    def test_empty_interval_recovery_recenters(self):
        # a sits far below zero so no z satisfies the ReLU slab; recovery
        # recenters that entry of a onto h(z) and counts it
        state = _scalar_state(W1=1.0, b1=0.0, z1=0.5, a1=-5.0, W2=1.0, b2=0.0, z2=0.5)
        hp = obj.HyperParams(rho=1.0)
        z_new, recoveries = opt.update_z_hidden(state, 0, hp, eps=0.1)
        assert recoveries == 1
        assert state.a[0][0, 0] == 0.5   # recentered onto h(z_k)


class TestUpdateZOutput:
    def test_zero_risk_converges_to_free_step(self):
        state = small_state(seed=5, scatter=0.4, risk=ns.RiskKind.ZERO)
        hp = obj.HyperParams(rho=0.5, fista_iters=200, fista_tol=1e-12)
        L = state.num_layers
        expect = state.z[L - 1] - obj.grad_phi_z(state.a_prev(L - 1), state.W[L - 1],
                                                 state.b[L - 1], state.z[L - 1],
                                                 hp.rho) / hp.rho
        res = opt.update_z_output(state, hp)
        assert res.converged
        assert np.allclose(state.z[L - 1], expect, atol=1e-9)

    def test_squared_risk_scalar_closed_form(self):
        # minimizer of (rho/2)(z-m)^2 + (1/2)(z-y)^2 is (rho m + y)/(rho + 1)
        state = _scalar_state(W1=1.0, b1=0.0, z1=1.0, a1=1.0, W2=2.0, b2=0.5, z2=0.0,
                              y=3.0, risk=ns.RiskKind.SQUARED)
        hp = obj.HyperParams(rho=1.0, fista_iters=500, fista_tol=1e-14)
        m = 2.0 * 1.0 + 0.5
        opt.update_z_output(state, hp)
        expect = (hp.rho * m + 3.0) / (hp.rho + 1.0)
        assert state.z[1][0, 0] == pytest.approx(expect, abs=1e-8)

    def test_inner_objective_nonincreasing_cross_entropy(self):
        for seed in range(50):
            state = small_state(seed=seed, scatter=1.0)
            hp = obj.HyperParams(rho=float(np.random.default_rng(seed).uniform(1e-4, 1.0)),
                                 fista_iters=40)
            res = opt.update_z_output(state, hp, record_history=True)
            hist = res.history
            for prev, cur in zip(hist, hist[1:]):
                assert cur <= prev + 1e-12 * max(1.0, abs(prev))
            assert res.objective_end <= res.objective_start

    def test_nonconverged_flagged(self):
        state = small_state(seed=6, scatter=1.0, sizes=(3, 4, 3, 2), n=4)
        hp = obj.HyperParams(rho=1e-4, fista_iters=3, fista_tol=1e-14)
        res = opt.update_z_output(state, hp)
        assert not res.converged
        assert res.iterations == 3


class TestUpdateA:
    def test_stationary_feasible_unchanged(self):
        state = small_state(seed=7)
        before = state.a[0]
        res = opt.update_a(state, 0, obj.HyperParams(), eps=0.5)
        assert res.trials == 1
        assert np.array_equal(state.a[0], before)

    def test_scalar_projection_hand_case(self):
        # slab [0.4, 0.6], free step lands at 0.9 -> projected to 0.6;
        # grad = rho*W2*(W2*a + b2 - z2) = 1*1*(0.5 - 0.9) = -0.4 and tau=1
        state = _scalar_state(W1=1.0, b1=0.0, z1=0.5, a1=0.5, W2=1.0, b2=0.0, z2=0.9)
        hp = obj.HyperParams(rho=1.0)
        res = opt.update_a(state, 0, hp, eps=0.1, tau0=1.0)
        assert state.a[0][0, 0] == pytest.approx(0.6, abs=1e-12)
        assert res.phi_value <= res.model_value

    def test_block_objective_nonincreasing(self):
        for seed in range(10):
            state = small_state(seed=seed, scatter=0.6)
            hp = obj.HyperParams(rho=0.9)
            l = seed % (state.num_layers - 1)
            W2, b2, z2 = state.W[l + 1], state.b[l + 1], state.z[l + 1]
            before = obj.penalty_phi(state.a[l], W2, b2, z2, hp.rho)
            res = opt.update_a(state, l, hp, eps=1.0)
            after = obj.penalty_phi(state.a[l], W2, b2, z2, hp.rho)
            assert after <= before + 1e-10
            assert res.phi_value <= res.model_value
            # accepted block is feasible by construction
            h = ns.activation_apply(state.arch.activation[l], state.z[l])
            assert np.all(state.a[l] >= h - 1.0 - 1e-12)
            assert np.all(state.a[l] <= h + 1.0 + 1e-12)


class TestAdaptEpsilon:
    def test_never_grows(self):
        assert opt.adapt_epsilon(10.0, 200.0) == 10.0
        assert opt.adapt_epsilon(0.01, 2.0) == 0.01

    def test_shrink_branch_jumps_to_floor(self):
        assert opt.adapt_epsilon(10.0, 0.5) == 0.01

    def test_dead_zone(self):
        assert opt.adapt_epsilon(1.0, 5.0) == 1.0

    def test_halving_below_floor(self):
        assert opt.adapt_epsilon(0.004, 1e-9) == 0.002


class TestRunEpoch:
    def test_objective_never_increases_within_epoch(self):
        for seed in range(6):
            state = small_state(seed=seed, scatter=0.4, sizes=(4, 5, 4, 3), n=8)
            hp = obj.HyperParams(rho=0.05)
            report = opt.run_epoch(state, hp, 0, eps=1.0)
            assert report.f_after <= report.f_before + 1e-8

    def test_descent_margin(self):
        for seed in range(6):
            state = small_state(seed=seed, scatter=0.4, sizes=(4, 5, 4, 3), n=8)
            hp = obj.HyperParams(rho=0.05)
            report = opt.run_epoch(state, hp, 0, eps=1.0)
            lhs = report.f_before - report.f_after
            assert lhs >= report.descent_rhs - 1e-6 * max(1.0, abs(report.f_before))

    def test_feasibility_and_recovery_clean(self):
        state = small_state(seed=11, scatter=0.3)
        hp = obj.HyperParams(rho=0.1)
        eps = hp.eps0
        for k in range(5):
            report = opt.run_epoch(state, hp, k, eps)
            assert report.feasibility_residual <= 1e-12
            assert report.recoveries == 0
            eps = report.eps_next

    def test_epsilon_shrink_reprojects_activations(self):
        # zero risk forces the shrink branch every epoch
        state = small_state(seed=12, scatter=0.5, risk=ns.RiskKind.ZERO)
        hp = obj.HyperParams(rho=0.1, eps0=10.0)
        report = opt.run_epoch(state, hp, 0, eps=10.0)
        assert report.eps_next == 0.01
        assert ns.feasibility_residual(state, report.eps_next) == 0.0
        report = opt.run_epoch(state, hp, 1, eps=report.eps_next)
        assert report.eps_next == 0.005
        assert report.recoveries == 0

    def test_fixed_eps_skips_adaptation(self):
        state = small_state(seed=12, scatter=0.5, risk=ns.RiskKind.ZERO)
        hp = obj.HyperParams(rho=0.1)
        report = opt.run_epoch(state, hp, 0, eps=10.0, adapt=False)
        assert report.eps_next == 10.0

    def test_grad_b_identity_recorded_small(self):
        state = small_state(seed=13, scatter=0.4)
        report = opt.run_epoch(state, obj.HyperParams(rho=0.2), 0, eps=1.0)
        assert report.grad_b_err < 1e-10


class TestTrain:
    def test_zero_epochs(self, rng):
        arch = ns.Architecture((3, 4, 2))
        x = rng.uniform(0, 1, (3, 6))
        y = random_one_hot(rng, 2, 6)
        hp = obj.HyperParams(epochs=0)
        state, trace = opt.train(arch, x, y, hp)
        assert trace == []
        assert ns.feasibility_residual(state, hp.eps0) == 0.0

    def test_xor_reaches_full_accuracy(self):
        x = np.array([[0.0, 0.0, 1.0, 1.0], [0.0, 1.0, 0.0, 1.0]])
        y = one_hot(np.array([0, 1, 1, 0]), 2)
        arch = ns.Architecture((2, 8, 8, 2))
        hp = obj.HyperParams(rho=1.0, eps0=1.0, epochs=300, seed=0)
        state, trace = opt.train(arch, x, y, hp)
        logits = ns.forward_logits(arch, state.W, state.b, x)
        assert obj.accuracy_from_logits(logits, y) == 1.0

    def test_objective_nonincreasing_under_fixed_eps(self):
        state_args = dict(sizes=(4, 6, 5, 3), n=10)
        s = small_state(seed=20, **state_args)
        hp = obj.HyperParams(rho=0.01, eps0=1.0, epochs=40, seed=3)
        _, trace = opt.train(s.arch, s.x, s.y, hp, adapt=False)
        fs = [r.f_after for r in trace]
        assert all(b <= a + 1e-8 for a, b in zip(fs, fs[1:]))
        assert all(r.f_after <= r.f_before + 1e-8 for r in trace)

    @pytest.mark.parametrize("eps0", [10.0, 0.004])
    def test_adaptive_run_starts_at_floor(self, eps0):
        s = small_state(seed=21, sizes=(4, 6, 5, 3), n=10)
        hp = obj.HyperParams(rho=0.01, eps0=eps0, epochs=3, seed=3)
        _, trace = opt.train(s.arch, s.x, s.y, hp)
        assert trace[0].eps_used == min(eps0, 0.01)

    def test_adaptive_schedule_monotone_on_blobs(self):
        # the criterion-11 config; regrowing eps after a paid shrink would let
        # the activations drift, and the next shrink's re-projection raise F
        ds = synth_gaussian_blobs(classes=3, d=12, n_per_class=40, seed=11, noise=0.05)
        arch = ns.Architecture((12, 16, 16, 3))
        hp = obj.HyperParams(rho=0.01, eps0=1.0, epochs=150, seed=0)
        _, trace = opt.train(arch, ds.x, ds.y, hp)
        assert all(r.eps_next <= r.eps_used for r in trace)
        fs = [r.f_after for r in trace]
        assert all(b <= a + 1e-8 for a, b in zip(fs, fs[1:]))

    def test_same_seed_reproduces_trace_exactly(self, rng):
        arch = ns.Architecture((3, 5, 4, 2))
        x = rng.uniform(0, 1, (3, 12))
        y = random_one_hot(rng, 2, 12)
        hp = obj.HyperParams(rho=0.05, epochs=15, seed=9)
        _, t1 = opt.train(arch, x, y, hp)
        _, t2 = opt.train(arch, x, y, hp)
        for a, b in zip(t1, t2):
            assert a.f_after == b.f_after
            assert a.theta == b.theta and a.tau == b.tau
            assert a.eps_next == b.eps_next

    def test_mixed_activations_train_cleanly(self, rng):
        arch = ns.Architecture((3, 5, 4, 2),
                               activation=(ns.ActivationKind.TANH,
                                           ns.ActivationKind.SIGMOID))
        x = rng.uniform(0, 1, (3, 10))
        y = random_one_hot(rng, 2, 10)
        hp = obj.HyperParams(rho=0.1, eps0=1.0, epochs=20, seed=2)
        _, trace = opt.train(arch, x, y, hp)
        assert all(r.f_after <= r.f_before + 1e-8 for r in trace)
        assert all(r.feasibility_residual <= 1e-12 for r in trace)
        assert sum(r.recoveries for r in trace) == 0
