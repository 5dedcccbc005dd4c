import dataclasses
import inspect
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlam import baselines as bl
from dlam import network_state as ns
from dlam import objective as obj
from dlam import optimizer as opt
from dlam.data_io import one_hot, synth_gaussian_blobs
from dlam.diagnostics import descent_ledger
from conftest import (grad_b_identity_check, grid_minimize_1d, nan_before_epoch,
                      random_one_hot, small_state)


def _scalar(v):
    return np.array([[float(v)]])


def _scalar_state(W1, b1, z1, a1, W2, b2, z2, x=1.0, y=None,
                  activation=ns.ActivationKind.RELU):
    """Fully hand-specified (1,1,1) network."""
    arch = ns.Architecture((1, 1, 1), activation=activation)
    state = ns.NetworkState(arch=arch, x=_scalar(x),
                            y=_scalar(1.0) if y is None else _scalar(y))
    state.W = [_scalar(W1), _scalar(W2)]
    state.b = [_scalar(b1), _scalar(b2)]
    state.z = [_scalar(z1), _scalar(z2)]
    state.a = [_scalar(a1)]
    return state


def _empty_slab_state():
    """The (1,1,1) ReLU state whose a_0 = -5 leaves its slab empty at eps 0.1."""
    return _scalar_state(W1=1.0, b1=0.0, z1=0.5, a1=-5.0, W2=1.0, b2=0.0, z2=0.5)


def _product(state, l):
    return state.W[l] @ state.a_prev(l)


def _free(state, l):
    """Layer l's free step W a_prev + b, which its z step takes."""
    return _product(state, l) + state.b[l]


def _fresh_resid(state, l):
    return obj.coupling_residual(state.a_prev(l), state.W[l], state.b[l], state.z[l])


def _w_inputs(state, l, hp):
    """Layer l's penalty and W gradient, from a fresh residual, and its Gram matrix."""
    R = _fresh_resid(state, l)
    a_prev = state.a_prev(l)
    return obj.penalty(R, hp.rho), obj.grad_w(R, a_prev, hp.rho), a_prev @ a_prev.T


def _update_w(state, l, hp, f_before=0.0):
    """update_w on layer l's penalty, W gradient and Gram matrix, freshly formed;
    at f_before 0 only a step that moves nothing ends its inner loop."""
    return opt.update_w(state, l, hp, *_w_inputs(state, l, hp), f_before)


def _update_a(state, l, hp, eps, tau0=None):
    """update_a on layer l+1's freshly formed residual; tau0 defaults to ALPHA0."""
    return opt.update_a(state, l, hp, eps, opt.ALPHA0 if tau0 is None else tau0,
                        _fresh_resid(state, l + 1))


def _w_steps(state, l, hp):
    """_update_w with each step's inputs as _majorized_step got them:
    (steps, [(W, phi0, grad, param0), ...]). Each step starts from the W the
    one before it accepted; the last accepted W is state.W[l]."""
    starts, accepted = [], []
    step = opt._majorized_step

    def spy(block, layer, rho, current, phi0, grad, param0, *rest):
        assert not accepted or current is accepted[-1]
        starts.append((current, phi0, grad, param0))
        cand, record = step(block, layer, rho, current, phi0, grad, param0, *rest)
        accepted.append(cand)
        return cand, record

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(opt, "_majorized_step", spy)
        steps = _update_w(state, l, hp)
    assert len(steps) == len(starts) and state.W[l] is accepted[-1]
    return steps, starts


def _w_direction(arch, W, grad):
    """The direction v a W step moves along: the gradient, plus 2 lam W under l2."""
    if arch.regularizer is ns.RegKind.L2:
        return grad + 2.0 * arch.reg_weight * W
    return grad


def _w_start(state, l, hp, W, grad):
    """The curvature a W step at (W, grad) starts at, from a G formed afresh:
    rho <v G, v>/<v, v> (1 + RQ_SLACK), 0 for a zero v."""
    v = _w_direction(state.arch, W, grad)
    vv = float(np.sum(v * v))
    if vv == 0.0:
        return 0.0
    a_prev = state.a_prev(l)
    return hp.rho * float(np.sum((v @ a_prev) ** 2)) / vv * (1.0 + opt.RQ_SLACK)


def _assert_w_steps_fresh(state, l, hp, steps, starts):
    """Every step of _w_steps against the penalty formed afresh from the batch.

    Each step starts at the curvature _w_start recomputes from its W and
    gradient, and without an l1 term that first trial is accepted, unless
    the step moves so little that the rounding of W_i, a relative 1e-16 of
    it, can bend its direction by RQ_SLACK / 100; its move_sq is
    ||W_i - W_{i-1}||^2; its phi is the penalty at W_i and its model the
    majorizer at W_i, both built from a fresh residual, within the rounding
    of the block's starting penalty; and the loop ends after W_STEPS steps
    or a step that moves nothing.
    """
    a_prev, b, z, rho = state.a_prev(l), state.b[l], state.z[l], hp.rho
    ends = [W for W, *_ in starts[1:]] + [state.W[l]]
    tol = 1e-12 * max(obj.penalty_phi(a_prev, starts[0][0], b, z, rho), np.finfo(float).tiny)
    l1 = state.arch.regularizer is ns.RegKind.L1 and state.arch.reg_weight != 0.0
    bent = 100 * np.finfo(float).eps / opt.RQ_SLACK     # relative moves the rounding bends
    for s, (W, phi0, grad, p0), W_new in zip(steps, starts, ends):
        assert p0 == pytest.approx(_w_start(state, l, hp, W, grad), rel=1e-12, abs=0.0)
        assert l1 or s.trials == 1 or math.sqrt(s.move_sq) < bent * np.linalg.norm(W_new)
        d = W_new - W
        assert s.move_sq == obj.inner(d, d)
        phi_start = obj.penalty_phi(a_prev, W, b, z, rho)
        assert abs(phi0 - phi_start) <= tol
        model = (phi_start + obj.inner(obj.grad_phi_w(a_prev, W, b, z, rho), d)
                 + 0.5 * s.curvature * s.move_sq)
        assert abs(s.phi - obj.penalty_phi(a_prev, W_new, b, z, rho)) <= tol
        assert abs(s.model - model) <= tol
        assert s.phi <= s.model
    assert len(steps) == opt.W_STEPS or steps[-1].move_sq == 0.0
    assert all(s.move_sq > 0.0 for s in steps[:-1])


class TestUpdateW:
    def test_stationary_block_unchanged(self):
        # a zero gradient: the one step moves nothing and ends the loop
        state = small_state(seed=1)
        before = state.W[0]
        steps = _update_w(state, 0, obj.HyperParams())
        assert [(s.trials, s.move_sq) for s in steps] == [(1, 0.0)]
        assert np.array_equal(state.W[0], before)

    def test_scalar_matches_grid_minimizer(self):
        # rho=1, a=1, b=0, z=0, W=1; the curvature of phi in W is rho*a^2 = 1,
        # so every step starts at 1 + RQ_SLACK, the Rayleigh quotient of any
        # gradient, and accepts its first trial. The first lands within
        # RQ_SLACK of the minimizer W = 0 (move 1), the second within
        # RQ_SLACK^2, and its decrease is below the rounding of f_before
        state = _scalar_state(W1=1.0, b1=0.0, z1=0.0, a1=0.0, W2=1.0, b2=0.0, z2=0.0)
        hp = obj.HyperParams(rho=1.0)
        steps = _update_w(state, 0, hp, f_before=0.5)
        def phi(w):
            return 0.5 * (0.0 - w * 1.0 - 0.0) ** 2
        expect = grid_minimize_1d(phi, -2.0, 2.0)
        assert [(s.trials, s.curvature) for s in steps] == [(1, 1.0 + opt.RQ_SLACK)] * 2
        assert steps[0].move_sq == pytest.approx(1.0, rel=4 * opt.RQ_SLACK)
        assert steps[1].move_sq <= 4 * opt.RQ_SLACK ** 2
        assert abs(state.W[0][0, 0]) <= 2 * opt.RQ_SLACK ** 2
        assert state.W[0][0, 0] == pytest.approx(expect, abs=1e-6)

    def test_majorization_holds_at_acceptance(self, rng):
        regs = [(ns.RegKind.NONE, 0.0), (ns.RegKind.L2, 0.3), (ns.RegKind.L1, 0.1)]
        for seed in range(24):
            reg, lam = regs[seed % 3]
            state = small_state(seed=seed, scatter=0.5, reg=reg, lam=lam)
            hp = obj.HyperParams(rho=0.3)
            l = int(rng.integers(0, state.num_layers))
            steps, starts = _w_steps(state, l, hp)
            assert len(steps) > 1
            _assert_w_steps_fresh(state, l, hp, steps, starts)

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
            _update_w(state, l, hp)
            after = (obj.penalty_phi(a_prev, state.W[l], b, z, hp.rho)
                     + obj.regularizer_value(reg, lam, state.W[l]))
            assert after <= before + 1e-10

    def test_budget_exhaustion_raises_with_param(self, monkeypatch):
        # an l1 threshold bends the step off -grad, so its Rayleigh-quotient
        # start may not majorize: here the first trial does not
        monkeypatch.setattr(opt, "MAX_BACKTRACK", 1)
        state = small_state(seed=2, scatter=0.5, reg=ns.RegKind.L1, lam=0.05)
        hp = obj.HyperParams(rho=1.0)
        W, grad = state.W[0], obj.grad_phi_w(state.x, state.W[0], state.b[0], state.z[0], hp.rho)
        with pytest.raises(opt.BacktrackError,
                           match="^W update at layer 0 did not majorize after 1 trials$") as err:
            _update_w(state, 0, hp)
        assert err.value.last_param == pytest.approx(_w_start(state, 0, hp, W, grad), rel=1e-12)

    def test_stop_rule_reads_f_before(self):
        # the loop ends after the first step whose guaranteed decrease
        # (theta/2)||d||^2 is at most NEWTON_DECREMENT |f_before|; at f_before 0
        # only a step that moves nothing ends it
        hp = obj.HyperParams(rho=0.3)

        def decreases(f_before):
            state = small_state(seed=4, scatter=0.5)
            steps = _update_w(state, 2, hp, f_before=f_before)
            return [0.5 * s.curvature * s.move_sq for s in steps]

        full = decreases(0.0)
        assert len(full) > 3 and all(d > 0.0 for d in full[:-1])
        for k in range(len(full)):
            f_before = -full[k] / opt.NEWTON_DECREMENT
            bound = opt.NEWTON_DECREMENT * abs(f_before)
            stop = next(i for i, d in enumerate(full) if d <= bound)
            assert decreases(f_before) == full[:stop + 1]

    def test_later_steps_form_no_batch_sized_array(self):
        # steps 2.. read only G: with a batch of N columns, nothing they
        # allocate reaches the 8N bytes of one batch-sized row
        n = 200_000
        state = small_state(seed=6, scatter=0.5, n=n)
        hp = obj.HyperParams(rho=0.3)
        base = []
        step = opt._majorized_step

        def spy(*args):
            out = step(*args)
            if not base:            # measure from the end of the first step on
                tracemalloc.reset_peak()
                base.append(tracemalloc.get_traced_memory()[0])
            return out

        inputs = _w_inputs(state, 1, hp)
        tracemalloc.start()
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(opt, "_majorized_step", spy)
                steps = opt.update_w(state, 1, hp, *inputs, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(steps) > 2
        assert peak - base[0] < 8 * n


class TestUpdateB:
    def test_zero_residual_unchanged(self):
        state = small_state(seed=3)
        before = state.b[1]
        opt.update_b(state, 1, 1.0, _product(state, 1))
        assert np.array_equal(state.b[1], before)

    def test_scalar_hand_case(self):
        # b=1, W*a=1, z=4: the mean residual is 1+1-4 = -2, so b <- 1 - (-2) = 3,
        # which equals the closed form z - W*a for one sample
        state = _scalar_state(W1=1.0, b1=1.0, z1=4.0, a1=4.0, W2=1.0, b2=0.0, z2=4.0)
        opt.update_b(state, 0, 1.0, _product(state, 0))
        assert state.b[0][0, 0] == pytest.approx(3.0, abs=1e-14)

    def test_penalty_never_increases(self):
        for seed in range(10):
            state = small_state(seed=seed, scatter=0.7)
            hp = obj.HyperParams(rho=0.8)
            l = seed % state.num_layers
            a_prev, W, z = state.a_prev(l), state.W[l], state.z[l]
            before = obj.penalty_phi(a_prev, W, state.b[l], z, hp.rho)
            opt.update_b(state, l, hp.rho, _product(state, l))
            after = obj.penalty_phi(a_prev, W, state.b[l], z, hp.rho)
            assert after <= before + 1e-12

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 200), scatter=st.floats(0.05, 2.0), rho=st.floats(1e-4, 4.0),
           layer=st.integers(0, 2), activation=st.sampled_from(list(ns.ActivationKind)))
    def test_step_is_the_exact_minimizer(self, seed, scatter, rho, layer, activation):
        state = small_state(seed=seed, scatter=scatter, activation=activation)
        product, z = _product(state, layer), state.z[layer]
        opt.update_b(state, layer, rho, product)
        b = state.b[layer]
        R = obj.residual(product + b, z)
        # the row sums of R vanish up to the rounding of its entries
        scale = rho * (np.abs(product) + np.abs(z) + np.abs(b)).sum(axis=1, keepdims=True)
        assert np.all(np.abs(obj.grad_b(R, rho)) <= 1e-14 * scale)
        best = obj.penalty(R, rho)
        r2 = np.random.default_rng(seed)
        for size in np.logspace(-6, 1, 50):
            shift = r2.normal(0.0, size, b.shape)
            assert obj.penalty(obj.residual(product + (b + shift), z), rho) >= best * (1 - 1e-12)


class TestUpdateZHidden:
    def test_interior_step_is_free_minimizer(self):
        state = small_state(seed=4, scatter=0.2)
        hp = obj.HyperParams(rho=0.5)
        expect = state.z[0] - obj.grad_phi_z(state.x, state.W[0], state.b[0],
                                             state.z[0], hp.rho) / hp.rho
        step = opt.update_z_hidden(state, 0, 50.0, hp.rho, _free(state, 0))
        assert step.held == 0
        assert np.allclose(state.z[0], expect, atol=1e-12)

    def test_relu_clip_hand_case(self):
        # slab around a=0.5 with eps=0.1 inverts to [0.4, 0.6]; the free step
        # lands at 1.0 and is clipped to 0.6
        state = _scalar_state(W1=1.0, b1=0.0, z1=0.45, a1=0.5, W2=1.0, b2=0.0, z2=0.5,
                              x=1.0)
        # free step goes to W*x + b = 1.0
        step = opt.update_z_hidden(state, 0, 0.1, 1.0, _free(state, 0))
        assert step.held == 0
        assert state.z[0][0, 0] == pytest.approx(0.6, abs=1e-12)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from(list(ns.ActivationKind)),
           shape=st.tuples(st.integers(1, 4), st.integers(1, 6)), seed=st.integers(0, 200),
           a_range=st.sampled_from([(-0.5, 1.5), (-1.5, 3.0)]),
           m_scale=st.floats(0.1, 40.0), eps=st.floats(1e-3, 1.0))
    def test_beats_random_feasible_perturbations(self, kind, shape, seed, a_range,
                                                 m_scale, eps):
        """The clip of the free step m onto the slab's z-interval [lo, hi] is
        feasible and no farther from m, entry by entry, than any z' in [lo, hi]:
        with test_interval_holds_exactly_the_feasible_z, which shows [lo, hi] is
        the feasible set, the clip is the constrained minimizer of (rho/2)||z - m||^2.
        An entry whose slab is empty keeps its z, and a is never touched."""
        rows, cols = shape
        r2 = np.random.default_rng(seed)
        state = small_state(seed=seed, sizes=(3, rows, 2), n=cols, activation=kind)
        state.a[0] = a = r2.uniform(*a_range, shape)    # the wider range empties some slabs
        z0 = state.z[0]
        m = r2.normal(0.0, m_scale, shape)
        lo, hi, empty = ns.slab_z_bounds(kind, a, eps)
        assert opt.update_z_hidden(state, 0, eps, 1.0, m).held == int(empty.sum())
        assert state.a[0] is a
        z = state.z[0]
        assert np.array_equal(z[empty], z0[empty])
        z, m, lo, hi = z[~empty], m[~empty], lo[~empty], hi[~empty]
        assert np.all(np.abs(ns.activation_apply(kind, z) - a[~empty]) <= eps + 1e-12)
        lo_s = np.where(np.isfinite(lo), lo, np.minimum(z, m) - 10.0)
        hi_s = np.where(np.isfinite(hi), hi, np.maximum(z, m) + 10.0)
        for _ in range(200):
            other = np.clip(r2.uniform(lo_s, hi_s), lo, hi)
            assert np.all(np.abs(other - m) >= np.abs(z - m))

    def test_empty_interval_holds_z(self):
        # a sits far below zero so no z satisfies the ReLU slab; the entry keeps
        # its z, a is left to its own step, and the held entry is counted
        state = _empty_slab_state()
        a = state.a[0]
        held = opt.update_z_hidden(state, 0, 0.1, 1.0, _free(state, 0)).held
        assert held == 1
        assert state.z[0][0, 0] == 0.5
        assert state.a[0] is a and a[0, 0] == -5.0

    @pytest.mark.parametrize("kind,z_sat", [(ns.ActivationKind.SIGMOID, 40.0),
                                            (ns.ActivationKind.TANH, 20.0)])
    def test_saturated_slab_edge_is_held(self, kind, z_sat):
        # h(z_sat) rounds to 1.0, and a at the upper slab edge puts a - eps at
        # 1.0 too: the slab reads as empty although |a - h(z)| exceeds eps only
        # by rounding. The entry is held, and sweeps at that eps stay feasible
        # and keep the descent ledger
        eps = 0.01
        state = small_state(seed=3, activation=kind)
        hp = obj.HyperParams(rho=0.1)
        z, a = state.z[0].copy(), state.a[0].copy()
        z[0, 0] = z_sat
        a[0, 0] = ns.activation_apply(kind, z)[0, 0] + eps
        state.z[0], state.a[0] = z, a
        assert a[0, 0] == 1.0 + eps and 0.0 < (a[0, 0] - 1.0) - eps < 1e-16
        assert ns.slab_z_bounds(kind, a, eps)[2][0, 0]
        assert ns.feasibility_residual(state, eps) <= 1e-12
        assert opt.update_z_hidden(state, 0, eps, hp.rho, _free(state, 0)).held == 1
        assert state.z[0][0, 0] == z_sat and state.a[0] is a
        state.z[0] = z
        warm = opt.WarmStart.fresh(state.num_layers)
        f_last = math.inf
        for k in range(3):
            report = opt.run_epoch(state, hp, k, eps, warm)
            assert report.feasibility_residual <= 1e-12
            assert ns.feasibility_residual(state, eps) <= 1e-12
            assert report.f_after <= report.f_before <= f_last
            margin = descent_ledger(report, hp.rho)[2]
            assert margin >= -1e-6 * max(1.0, abs(report.f_before))
            f_last = report.f_after


class TestUpdateZOutput:
    def test_inner_objective_nonincreasing_cross_entropy(self, monkeypatch):
        # the k-iteration run is the k-step prefix of any longer one, so the end
        # values of fresh runs with budgets 1..K are the iterates' objectives
        for seed in range(50):
            rho = float(np.random.default_rng(seed).uniform(1e-4, 1.0))
            ends = []
            for k in range(1, 41):
                monkeypatch.setattr(opt, "NEWTON_ITERS", k)
                state = small_state(seed=seed, scatter=1.0)
                free = _free(state, state.num_layers - 1)
                start = (obj.penalty(state.z[-1] - free, rho)
                         + obj.risk_cross_entropy(state.z[-1], state.y))
                res = opt.update_z_output(state, obj.HyperParams(rho=rho), free)
                assert res.phi <= start
                ends.append(res.phi)
                if res.converged:
                    break
            for prev, cur in zip(ends, ends[1:]):
                assert cur <= prev + 1e-12 * max(1.0, abs(prev))

    @staticmethod
    def _stationary_solve(seed, monkeypatch):
        """Solve a random cross-entropy problem, rho in [1e-4, 1]; returns the
        halvings taken, the sup-norm of the composite gradient at the returned
        z and its bound 2 (rho + 1/N) NEWTON_TOL.

        A solve that converged on the step test stopped at a full Newton step
        s under NEWTON_TOL, so the gradient there is H s, and every row of H
        sums to at most rho + 2/N in absolute value. The decrement test alone
        bounds the gradient only by sqrt(2 (rho + 2/N) NEWTON_DECREMENT |f|);
        on these fixtures it fires with the gradient under the same bound.
        """
        checks = []
        risk = obj.risk_cross_entropy
        monkeypatch.setattr(obj, "risk_cross_entropy", lambda *a: checks.append(1) or risk(*a))
        rho = float(10.0 ** np.random.default_rng(seed).uniform(-4.0, 0.0))
        state = small_state(seed=seed, scatter=1.0, sizes=(3, 4, 3, 4), n=7)
        hp = obj.HyperParams(rho=rho)
        m = _free(state, state.num_layers - 1)
        res = opt.update_z_output(state, hp, m)
        assert res.converged
        z, n = state.z[-1], state.n_samples
        grad = rho * (z - m) + (obj.softmax_columns(z) - state.y) / n
        # one value check at the start and one per step taken; the rest are halvings
        halvings = len(checks) - res.trials
        return halvings, np.max(np.abs(grad)), 2.0 * (rho + 1.0 / n) * opt.NEWTON_TOL

    @pytest.mark.parametrize("seed", range(8))
    def test_converged_solve_is_stationary(self, seed, monkeypatch):
        _, sup, bound = self._stationary_solve(seed, monkeypatch)
        assert sup <= bound

    def test_stationary_after_halvings(self, monkeypatch):
        # at seed 3 (rho 2.2e-4) two full Newton steps raise the value and are
        # halved before the decrement test ends the solve
        halvings, sup, bound = self._stationary_solve(3, monkeypatch)
        assert halvings > 0
        assert sup <= bound

    def test_started_at_its_optimum_converges_at_once(self):
        # at rho 1e-4 the full step amplifies the gradient's rounding by up to
        # 1e4 and never falls under NEWTON_TOL here; without the decrement test
        # both solves run out all NEWTON_ITERS iterations
        state = small_state(seed=3, scatter=1.0, sizes=(3, 4, 3, 4), n=7)
        hp = obj.HyperParams(rho=1e-4)
        free = _free(state, state.num_layers - 1)
        assert opt.update_z_output(state, hp, free).converged
        res = opt.update_z_output(state, hp, free)
        assert res.converged and res.trials <= 2

    def test_nonconverged_flagged(self, monkeypatch):
        monkeypatch.setattr(opt, "NEWTON_ITERS", 3)
        monkeypatch.setattr(opt, "NEWTON_TOL", 1e-14)
        state = small_state(seed=6, scatter=1.0, sizes=(3, 4, 3, 2), n=4)
        hp = obj.HyperParams(rho=1e-4)
        res = opt.update_z_output(state, hp, _free(state, state.num_layers - 1))
        assert not res.converged
        assert res.trials == 3

    def test_rising_values_never_report_convergence(self, monkeypatch):
        # every value check rises, so the first iteration halves NEWTON_HALVINGS
        # times and stops where it started; the tiny halved steps must not
        # count as converged
        calls = []
        monkeypatch.setattr(obj, "risk_cross_entropy",
                            lambda *a: float(len(calls.append(1) or calls)))
        monkeypatch.setattr(opt, "NEWTON_ITERS", 4)
        state = small_state(seed=2, scatter=1.0)
        z = state.z[-1]
        hp = obj.HyperParams(rho=1e-3)
        res = opt.update_z_output(state, hp, _free(state, state.num_layers - 1))
        assert not res.converged
        assert res.trials == 1
        assert len(calls) == 1 + (opt.NEWTON_HALVINGS + 1)
        assert np.array_equal(state.z[-1], z)

    def test_nan_free_step_is_not_converged(self, monkeypatch):
        # no value check passes a NaN, so the solve stops at its start; the NaN
        # reaches the objective through the residual
        monkeypatch.setattr(opt, "NEWTON_ITERS", 4)
        state = small_state(seed=2, scatter=1.0)
        z = state.z[-1].copy()
        free = _free(state, state.num_layers - 1)
        free[0, 0] = np.nan
        res = opt.update_z_output(state, obj.HyperParams(), free)
        assert not res.converged
        assert res.trials == 1
        assert np.array_equal(state.z[-1], z) and np.all(np.isfinite(state.z[-1]))
        assert math.isnan(obj.penalty(obj.residual(free, state.z[-1]), 1.0))


class TestUpdateA:
    def test_stationary_feasible_unchanged(self):
        state = small_state(seed=7)
        before = state.a[0]
        res = _update_a(state, 0, obj.HyperParams(), eps=0.5)
        assert res.trials == 1
        assert np.array_equal(state.a[0], before)

    def test_scalar_projection_hand_case(self):
        # slab [0.4, 0.6], free step lands at 0.9 -> projected to 0.6;
        # grad = rho*W2*(W2*a + b2 - z2) = 1*1*(0.5 - 0.9) = -0.4 and tau=1
        state = _scalar_state(W1=1.0, b1=0.0, z1=0.5, a1=0.5, W2=1.0, b2=0.0, z2=0.9)
        hp = obj.HyperParams(rho=1.0)
        res = _update_a(state, 0, hp, eps=0.1, tau0=1.0)
        assert state.a[0][0, 0] == pytest.approx(0.6, abs=1e-12)
        assert res.phi <= res.model

    def test_block_objective_nonincreasing(self):
        for seed in range(10):
            state = small_state(seed=seed, scatter=0.6)
            hp = obj.HyperParams(rho=0.9)
            l = seed % (state.num_layers - 1)
            W2, b2, z2 = state.W[l + 1], state.b[l + 1], state.z[l + 1]
            before = obj.penalty_phi(state.a[l], W2, b2, z2, hp.rho)
            res = _update_a(state, l, hp, eps=1.0)
            after = obj.penalty_phi(state.a[l], W2, b2, z2, hp.rho)
            assert after <= before + 1e-10
            assert res.phi <= res.model
            # accepted block is feasible by construction
            h = ns.activation_apply(state.arch.activation[l], state.z[l])
            assert np.all(state.a[l] >= h - 1.0 - 1e-12)
            assert np.all(state.a[l] <= h + 1.0 + 1e-12)


def _a_block(state, l, hp, eps):
    """update_a's backtracking inputs, formed afresh: (current, candidate, image)."""
    a_k, W_next = state.a[l], state.W[l + 1]
    grad = obj.grad_phi_a(a_k, W_next, state.b[l + 1], state.z[l + 1], hp.rho)
    h = ns.activation_apply(state.arch.activation[l], state.z[l])
    return a_k, lambda p: np.clip(a_k - grad / p, h - eps, h + eps), lambda d: W_next @ d


class TestMajorizedStep:
    """The one backtracking routine, through both blocks: the accepted curvature is
    the first of max(param0, ALPHA0) * GROWTH^k that majorizes at its own candidate,
    param0 a W step's Rayleigh-quotient start and an a step's tau0."""

    @pytest.mark.parametrize("block", ["W", "a"])
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 200), scatter=st.floats(0.05, 1.0),
           rho=st.floats(1e-3, 4.0), param0=st.floats(1e-5, 10.0),
           reg=st.sampled_from([ns.RegKind.NONE, ns.RegKind.L2, ns.RegKind.L1]),
           activation=st.sampled_from(list(ns.ActivationKind)))
    def test_accepts_first_majorizing_curvature(self, block, seed, scatter, rho, param0,
                                                reg, activation):
        state = small_state(seed=seed, scatter=scatter, reg=reg, lam=0.05,
                            activation=activation)
        hp = obj.HyperParams(rho=rho)
        eps = 1.0
        if block == "W":
            # every W step, from its own start: the W and gradient the last
            # step left and the Rayleigh quotient along its direction
            l = seed % state.num_layers
            arch, a_prev = state.arch, state.a_prev(l)
            steps, starts = _w_steps(state, l, hp)
            _assert_w_steps_fresh(state, l, hp, steps, starts)

            def w_candidate(W, grad):
                return lambda p: obj.solve_w_subproblem(arch.regularizer, arch.reg_weight,
                                                        W, grad, p)

            checks = [(s, W, w_candidate(W, g), lambda d: d @ a_prev, p0)
                      for s, (W, _, g, p0) in zip(steps, starts)]
        else:
            l = seed % (state.num_layers - 1)
            current, candidate, image = _a_block(state, l, hp, eps)
            res = _update_a(state, l, hp, eps, tau0=param0)
            checks = [(res, current, candidate, image, param0)]

        for res, current, candidate, image, p0 in checks:
            def majorizes(p):
                d = candidate(p) - current
                return (0.5 * rho * float(np.sum(image(d) ** 2))
                        <= 0.5 * p * float(np.sum(d * d)))

            param = max(p0, opt.ALPHA0)
            for _ in range(res.trials - 1):
                assert not majorizes(param)
                param *= opt.GROWTH
            assert res.curvature == param
            assert majorizes(param)

    def test_a_budget_exhaustion_raises_with_param(self, monkeypatch):
        monkeypatch.setattr(opt, "ALPHA0", 1e-12)
        monkeypatch.setattr(opt, "MAX_BACKTRACK", 2)
        state = small_state(seed=2, scatter=0.5)
        hp = obj.HyperParams(rho=1.0)
        with pytest.raises(opt.BacktrackError,
                           match="^a update at layer 0 did not majorize after 2 trials$") as err:
            _update_a(state, 0, hp, eps=1.0)
        assert err.value.last_param == 2e-12

    @staticmethod
    def _gram_trials(state, l, rho):
        """Each W trial of update_w as (image_sq(d), ||d a_prev||^2 from the batch,
        ||(|d| s)||^2 with s_i = ||a_prev row i||, the Gram form's rounding scale)."""
        a_prev = state.a_prev(l)
        s = np.sqrt(np.sum(a_prev * a_prev, axis=1))
        triples = []
        step = opt._majorized_step

        def spy(*args):
            *head, image_sq = args

            def both(d):
                triples.append((image_sq(d), float(np.sum((d @ a_prev) ** 2)),
                                float(np.sum((np.abs(d) @ s) ** 2))))
                return triples[-1][0]
            return step(*head, both)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(opt, "_majorized_step", spy)
            steps = _update_w(state, l, obj.HyperParams(rho=rho))
        assert len(triples) == sum(s.trials for s in steps)
        return triples

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 500), scatter=st.floats(0.0, 1.0),
           rho=st.floats(1e-3, 4.0),
           reg=st.sampled_from([ns.RegKind.NONE, ns.RegKind.L2, ns.RegKind.L1]),
           activation=st.sampled_from(list(ns.ActivationKind)))
    def test_w_trials_measure_the_image_through_the_gram_matrix(self, seed, scatter, rho,
                                                                reg, activation):
        # every W trial's <d G, d>, G = a_prev a_prev^T, against ||d a_prev||^2
        # formed from the batch; scatter 0 gives d = 0 without a regularizer
        state = small_state(seed=seed, scatter=scatter, reg=reg, lam=0.05,
                            activation=activation)
        for got, direct, _ in self._gram_trials(state, seed % state.num_layers, rho):
            assert abs(got - direct) <= 1e-12 * max(direct, np.finfo(float).tiny)

    def test_w_trials_that_g_nearly_annihilates_read_the_batch(self):
        # a near rank-one G (eigenvalues 5e-13, 3e-12, 0.36) and an l1 threshold
        # that moves W along its null directions: there <d G, d> is rounding
        # noise, off by up to 2e-5 relative, so those trials form d a_prev
        state = small_state(seed=296, scatter=1e-6, reg=ns.RegKind.L1, lam=0.05)
        triples = self._gram_trials(state, 2, 2.0327)
        assert sum(direct < opt.GRAM_RESOLVE * size for _, direct, size in triples) >= 2
        for got, direct, _ in triples:
            assert abs(got - direct) <= 1e-12 * max(direct, np.finfo(float).tiny)


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
            lhs, rhs, _ = descent_ledger(report, hp.rho)
            assert lhs >= rhs - 1e-6 * max(1.0, abs(report.f_before))

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
        # a caller tightens eps between sweeps; the sweep at the new eps moves
        # every a_l back into the narrower slab and hands back the eps it got
        state = small_state(seed=12, scatter=0.5)
        hp = obj.HyperParams(rho=0.1, eps0=10.0)
        opt.run_epoch(state, hp, 0, eps=10.0)
        assert ns.feasibility_residual(state, 0.01) > 0.0
        report = opt.run_epoch(state, hp, 1, eps=0.01)
        assert report.eps_used == report.eps_next == 0.01
        assert report.feasibility_residual == 0.0
        assert ns.feasibility_residual(state, 0.01) == 0.0
        report = opt.run_epoch(state, hp, 2, eps=0.01)
        assert report.recoveries == 0
        assert report.f_after <= report.f_before

    def test_epoch_hands_back_its_eps(self):
        state = small_state(seed=12, scatter=0.5)
        hp = obj.HyperParams(rho=0.1)
        report = opt.run_epoch(state, hp, 0, eps=10.0)
        assert report.eps_used == report.eps_next == 10.0
        assert ns.feasibility_residual(state, 10.0) == 0.0

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
        _, trace = opt.train(s.arch, s.x, s.y, hp)
        fs = [r.f_after for r in trace]
        assert all(b <= a + 1e-8 for a, b in zip(fs, fs[1:]))
        assert all(r.f_after <= r.f_before + 1e-8 for r in trace)

    @pytest.mark.parametrize("eps0", [10.0, 0.004])
    def test_every_epoch_runs_at_the_capped_eps(self, eps0):
        s = small_state(seed=21, sizes=(4, 6, 5, 3), n=10)
        hp = obj.HyperParams(rho=0.01, eps0=eps0, epochs=3, seed=3)
        _, trace = opt.train(s.arch, s.x, s.y, hp)
        assert all(r.eps_used == r.eps_next == min(eps0, 0.01) for r in trace)

    def test_fixed_eps_monotone_on_blobs(self):
        # the criterion-11 config; moving eps between sweeps would have to clip
        # the activations into the new slab, which is no descent step
        ds = synth_gaussian_blobs(classes=3, d=12, n_per_class=40, seed=11, noise=0.05)
        arch = ns.Architecture((12, 16, 16, 3))
        hp = obj.HyperParams(rho=0.01, eps0=1.0, epochs=150, seed=0)
        _, trace = opt.train(arch, ds.x, ds.y, hp)
        assert all(r.eps_next == r.eps_used for r in trace)
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


BLOCKS = ("update_w", "update_b", "update_z_hidden", "update_z_output", "update_a")


def _blobs_problem(epochs):
    """The criterion-11 config: 12-16-16-3 blobs, rho 0.01, eps0 1.0."""
    ds = synth_gaussian_blobs(classes=3, d=12, n_per_class=40, seed=11, noise=0.05)
    hp = obj.HyperParams(rho=0.01, eps0=1.0, epochs=epochs, seed=0)
    return ns.Architecture((12, 16, 16, 3)), ds.x, ds.y, hp


@pytest.fixture(scope="module")
def blobs_run():
    """The criterion-11 run, 150 epochs: its start state, end state and trace."""
    arch, x, y, hp = _blobs_problem(150)
    start = ns.initialize(arch, x, y, hp)
    state, trace = opt.train(arch, x, y, hp)
    return start, state, trace


def test_output_solve_takes_few_iterations(blobs_run):
    _, _, trace = blobs_run
    assert all(r.fista_converged for r in trace)
    assert np.mean([r.fista_iterations for r in trace]) <= 5.0


def test_first_hidden_layer_stalls(blobs_run):
    """Documents the ROADMAP finding that the hidden layers never train; not a gate.

    Every R_l starts at 0, and the hidden z step's slab interval always
    contains the current z, so z_0 never moves and W_0 keeps its He
    initialisation bit for bit. ROADMAP item 2B, a joint (z_l, a_l) block,
    is meant to flip both assertions; until then the test also shows that
    a change to the output solve leaves the hidden-layer dynamics alone.
    """
    start, state, trace = blobs_run
    assert state.W[0].tobytes() == start.W[0].tobytes()
    assert all(r.dz_sq[0] == 0.0 for r in trace)


def test_stalled_layer_takes_one_w_step(monkeypatch):
    """Under the stall R_0 = 0, so layer 0's W gradient is zero: its one W
    step moves nothing and ends its inner loop, while the top layer's go on."""
    seen = []
    update_w = opt.update_w

    def spy(state, layer, *args):
        steps = update_w(state, layer, *args)
        seen.append((layer, len(steps), steps[-1].move_sq))
        return steps

    monkeypatch.setattr(opt, "update_w", spy)
    arch, x, y, hp = _blobs_problem(epochs=10)
    opt.train(arch, x, y, hp)
    assert [(n, moved) for l, n, moved in seen if l == 0] == [(1, 0.0)] * hp.epochs
    assert max(n for l, n, _ in seen if l == arch.num_layers - 1) > 1


@pytest.mark.parametrize("activation", [ns.ActivationKind.RELU, ns.ActivationKind.SIGMOID])
def test_training_does_not_depend_on_the_sample_order(activation):
    """Permuting the sample columns moves only rounding: every epoch takes the
    same W steps with the same trials, and the final F agrees within 1e-10
    relative. The benchmark permutes the columns by its seed and counts on
    this. A step whose guaranteed decrease is below the rounding of F ends its
    loop and moves W by nothing or by about its rounding (61 of each run's 641
    steps, 27 of the sigmoid run's moving), which can decide whether its first
    trial majorizes on another BLAS build, so its trials are not compared;
    every other step clears that floor by a factor above 1e12 here."""
    arch, x, y, hp = _blobs_problem(epochs=30)
    arch = dataclasses.replace(arch, activation=activation)

    def trials_above_rounding(r):
        floor = opt.NEWTON_DECREMENT * abs(r.f_before)
        return [t if 0.5 * th * dw > floor else None
                for th, dw, t in zip(r.theta, r.dw_sq, r.trials_w)]

    trials, finals = [], []
    for k in range(4):
        order = np.random.default_rng(k).permutation(x.shape[1])
        _, trace = opt.train(arch, x[:, order], y[:, order], hp)
        trials.append([trials_above_rounding(r) for r in trace])
        finals.append(trace[-1].f_after)
    assert all(t == trials[0] for t in trials[1:])
    assert max(finals) - min(finals) <= 1e-10 * min(finals)


@pytest.mark.parametrize("activation,reg,lam", [
    (ns.ActivationKind.RELU, ns.RegKind.NONE, 0.0),
    (ns.ActivationKind.SIGMOID, ns.RegKind.L2, 1e-3),
    (ns.ActivationKind.TANH, ns.RegKind.L2, 0.1)])
def test_every_w_step_is_the_exact_line_search_step(activation, reg, lam, monkeypatch):
    """Without l1 every W step of a run starts at rho <v G, v>/<v, v> (1 + RQ_SLACK),
    recomputed here from a G formed afresh, takes that one trial, and moves
    the exact line-search step along -v: t = 1/(rho q + 2 lam), q the quotient."""
    _, x, y, hp = _blobs_problem(epochs=10)
    arch = ns.Architecture((12, 16, 16, 3), activation=activation, regularizer=reg,
                           reg_weight=lam)
    state = ns.initialize(arch, x, y, hp)
    seen = []
    step = opt._majorized_step

    def spy(block, layer, rho, current, phi0, grad, param0, *rest):
        cand, record = step(block, layer, rho, current, phi0, grad, param0, *rest)
        if block == "W":
            fresh = _w_start(state, layer, hp, current, grad)
            seen.append((record, param0, fresh))
            v = _w_direction(arch, current, grad)
            # the step length along -v, where rounding of W does not swamp it
            if fresh > 0.0 and record.move_sq > 1e-12 * obj.inner(current, current):
                t = math.sqrt(record.move_sq / obj.inner(v, v))
                q = fresh / (1.0 + opt.RQ_SLACK)
                assert t * (q + 2.0 * lam) == pytest.approx(1.0, abs=2 * opt.RQ_SLACK)
                assert obj.inner(cand - current, v) < 0.0
        return cand, record

    monkeypatch.setattr(opt, "_majorized_step", spy)
    warm = opt.WarmStart.fresh(arch.num_layers)
    for k in range(hp.epochs):
        opt.run_epoch(state, hp, k, min(hp.eps0, opt.EPS_MAX), warm)
    assert len(seen) > 3 * hp.epochs
    for record, param0, fresh in seen:
        assert param0 == pytest.approx(fresh, rel=1e-12, abs=0.0)
        assert record.trials == 1


def _sigmoid_problem(epochs):
    """Sigmoid blobs: a smooth activation, where _blobs_problem's is ReLU."""
    ds = synth_gaussian_blobs(classes=3, d=12, n_per_class=10, seed=11, noise=0.05)
    hp = obj.HyperParams(rho=0.01, eps0=1.0, epochs=epochs, seed=0)
    return ns.Architecture((12, 16, 16, 3), activation=ns.ActivationKind.SIGMOID), ds.x, ds.y, hp


def _calls_per_epoch(monkeypatch, targets, epochs):
    """Calls of each (module, name) in ``targets`` per epoch of a train() run on
    the blobs problem; epoch 0's include the set-up before the first sweep."""
    counts = Counter()

    def count(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in targets:
        count(module, name)
    arch, x, y, hp = _blobs_problem(epochs)
    seen = [Counter()]
    _, trace = opt.train(arch, x, y, hp, per_epoch=lambda s, r: seen.append(Counter(counts)))
    return arch, trace, [after - before for before, after in zip(seen, seen[1:])]


@pytest.fixture
def cache_watch(monkeypatch):
    """Each residual, product, free step, penalty, W gradient or Gram matrix handed
    to a block update, and after every block update and every epoch each residual and
    layer 0's (penalty, W gradient) pair the sweep holds, must equal a fresh
    one byte for byte. ``carried`` counts the W steps of layer 0 that start
    from the pair the sweep before left."""
    watch = {"warm": None, "compared": 0, "grads": 0, "grams": 0, "frees": 0, "carried": 0,
             "pair": None}

    def same(held, fresh, what):
        assert np.asarray(held).tobytes() == np.asarray(fresh).tobytes(), what
        watch["compared"] += 1

    def check(state, where):
        warm = watch["warm"]
        assert warm.resid[0] is None, f"R_0 kept after {where}"
        for l, r in enumerate(warm.resid):
            if r is not None:
                same(r, _fresh_resid(state, l), f"stale R_{l} after {where}")
        if warm.layer0 is not None:
            R0 = _fresh_resid(state, 0)
            same(warm.layer0[0], obj.penalty(R0, watch["rho"]), f"stale phi_0 after {where}")
            same(warm.layer0[1], watch["rho"] * (R0 @ state.x.T),
                 f"stale W_0 gradient after {where}")

    def wrap(name, inner):
        signature = inspect.signature(inner)

        def wrapper(state, *args, **kwargs):
            given = signature.bind(state, *args, **kwargs).arguments
            l = given.get("layer", state.num_layers - 1)
            if given.get("resid") is not None:
                l_r = l + 1 if name == "update_a" else l
                same(given["resid"], _fresh_resid(state, l_r), f"stale R_{l_r} into {name}")
            if given.get("product") is not None:
                same(given["product"], state.W[l] @ state.a_prev(l), f"stale product into {name}")
            if given.get("free") is not None:
                same(given["free"], state.W[l] @ state.a_prev(l) + state.b[l],
                     f"stale free step into {name}")
                watch["frees"] += 1
            if name == "update_w":
                R, a_prev = _fresh_resid(state, l), state.a_prev(l)
                same(given["phi"], obj.penalty(R, given["hp"].rho), f"stale penalty into {name}")
                fresh = given["hp"].rho * (R @ a_prev.T)
                same(given["grad"], fresh, f"stale W gradient into {name}")
                watch["grads"] += 1
                if l == 0 and watch["pair"] is not None:
                    assert given["grad"] is watch["pair"][1]
                    watch["carried"] += 1
                same(given["gram"], a_prev @ a_prev.T, f"stale Gram matrix into {name}")
                watch["grams"] += 1
            out = inner(state, *args, **kwargs)
            check(state, name)
            return out
        return wrapper

    for name in BLOCKS:
        monkeypatch.setattr(opt, name, wrap(name, getattr(opt, name)))
    run_epoch = opt.run_epoch

    def epoch(state, hp, k, eps, warm=None):
        watch["warm"], watch["rho"], watch["pair"] = warm, hp.rho, warm.layer0
        report = run_epoch(state, hp, k, eps, warm)
        check(state, f"epoch {k}")
        return report

    monkeypatch.setattr(opt, "run_epoch", epoch)
    return watch


class TestResidualReuse:
    def test_cache_coherent_on_blobs(self, cache_watch):
        arch, x, y, hp = _blobs_problem(epochs=20)
        opt.train(arch, x, y, hp)
        assert cache_watch["compared"] > 20 * len(BLOCKS)
        # every epoch after the first takes layer 0's penalty and W gradient from
        # the sweep before, where layer 0 closed; every layer's W steps get a
        # Gram matrix and every z step a free step
        assert cache_watch["grads"] == 20 * arch.num_layers
        assert cache_watch["carried"] == 19
        assert cache_watch["grams"] == cache_watch["frees"] == 20 * arch.num_layers

    def test_input_gram_is_formed_once_per_run(self, monkeypatch):
        grams = []
        update_w = opt.update_w

        def spy(state, layer, hp, phi, grad, gram, f_before):
            if layer == 0:
                grams.append(gram)
            return update_w(state, layer, hp, phi, grad, gram, f_before)

        monkeypatch.setattr(opt, "update_w", spy)
        arch, x, y, hp = _blobs_problem(epochs=5)
        opt.train(arch, x, y, hp)
        assert len(grams) == 5
        assert all(g is grams[0] for g in grams)
        assert grams[0].tobytes() == (x @ x.T).tobytes()

    def test_cache_coherent_through_epsilon_shrink(self, cache_watch):
        # the state of test_epsilon_shrink_reprojects_activations; the F carried
        # from the eps-10 sweep must not stand in for F at the tighter eps
        state = small_state(seed=12, scatter=0.5)
        hp = obj.HyperParams(rho=0.1, eps0=10.0)
        warm = opt.WarmStart.fresh(state.num_layers)
        report = opt.run_epoch(state, hp, 0, eps=10.0, warm=warm)
        f_tight = obj.evaluate_f(state, hp, 0.01).total
        assert f_tight != report.f_after
        report = opt.run_epoch(state, hp, 1, eps=0.01, warm=warm)
        assert report.f_before == f_tight
        f_carried = report.f_after
        report = opt.run_epoch(state, hp, 2, eps=0.01, warm=warm)
        assert report.f_before == f_carried
        assert cache_watch["compared"] > 3 * len(BLOCKS)

    def test_run_holds_eps_and_carries_f(self, cache_watch):
        # eps stays put and each epoch starts from the last F
        state = small_state(seed=12, scatter=0.5)
        hp = obj.HyperParams(rho=0.1, eps0=10.0)
        warm = opt.WarmStart.fresh(state.num_layers)
        trace = []
        for k in range(5):
            report = opt.run_epoch(state, hp, k, eps=10.0, warm=warm)
            assert report.eps_used == report.eps_next == 10.0
            assert report.f_after == obj.evaluate_f(state, hp, 10.0).total
            assert report.recoveries == 0
            trace.append(report)
        for prev, cur in zip(trace, trace[1:]):
            assert cur.f_before == prev.f_after
            assert cur.f_after <= cur.f_before + 1e-12
        assert cache_watch["compared"] > 5 * len(BLOCKS)

    def test_gradient_without_its_residual_is_dropped(self):
        # layer 0 carries no R_0, only its penalty and W gradient, as one slot:
        # a caller that drops it, or also plants an R_0, gets the sweep that
        # keeps it, the pair formed anew from the state and the R_0 never read
        arch, x, y, hp = _blobs_problem(epochs=2)
        runs = []
        for dropped, planted in ((False, False), (True, False), (True, True)):
            state = ns.initialize(arch, x, y, hp)
            warm = opt.WarmStart.fresh(arch.num_layers)
            opt.run_epoch(state, hp, 0, 0.01, warm)
            assert warm.resid[0] is None
            if dropped:
                warm.layer0 = None
            if planted:
                warm.resid[0] = np.full_like(state.z[0], np.nan)
            report = opt.run_epoch(state, hp, 1, 0.01, warm)
            runs.append((report.f_after, [W.tobytes() for W in state.W]))
        assert runs[0] == runs[1] == runs[2]

    def test_cache_coherent_through_recovery(self, cache_watch):
        # the state of test_empty_interval_holds_z, as a whole sweep: the held
        # entry moves no a, so R_1 stays cached until update_a takes it
        state = _empty_slab_state()
        hp = obj.HyperParams(rho=1.0)
        warm = opt.WarmStart.fresh(state.num_layers)
        report = opt.run_epoch(state, hp, 0, eps=0.1, warm=warm)
        assert report.recoveries == 1
        opt.run_epoch(state, hp, 1, eps=0.1, warm=warm)
        assert cache_watch["compared"] > 0

    @pytest.mark.parametrize("problem,epochs", [(_blobs_problem, 30),
                                                (_sigmoid_problem, 90)])
    def test_reuse_changes_no_bit(self, monkeypatch, problem, epochs):
        arch, x, y, hp = problem(epochs)
        state, trace = opt.train(arch, x, y, hp)
        run_epoch = opt.run_epoch

        def forgetful(state, hp, k, eps, warm=None):
            warm.resid = [None] * arch.num_layers
            warm.layer0 = None
            warm.f_end = None
            return run_epoch(state, hp, k, eps, warm)

        monkeypatch.setattr(opt, "run_epoch", forgetful)
        state2, trace2 = opt.train(arch, x, y, hp)

        def fields(report):
            d = dataclasses.asdict(report)
            del d["wall_time_s"]
            return {k: repr(v) for k, v in d.items()}

        assert [fields(r) for r in trace] == [fields(r) for r in trace2]
        for blocks, blocks2 in ((state.W, state2.W), (state.b, state2.b),
                                (state.z, state2.z), (state.a, state2.a)):
            assert [v.tobytes() for v in blocks] == [v.tobytes() for v in blocks2]
        # one eps for the whole run, and each epoch starts where the last ended
        assert all(r.eps_next == r.eps_used == trace[0].eps_used for r in trace)
        for prev, cur in zip(trace, trace[1:]):
            assert cur.f_before == prev.f_after
            assert cur.f_after <= prev.f_after

    def test_later_epochs_form_no_duplicate_products(self, monkeypatch):
        arch, trace, spent = _calls_per_epoch(monkeypatch, [
            (obj, "evaluate_f"), (ns, "feasibility_residual"), (ns, "activation_apply"),
            (obj, "coupling_residual")], epochs=30)
        assert all(r.eps_next == r.eps_used for r in trace)   # F is carried every epoch
        for k in range(1, len(trace)):
            assert spent[k]["evaluate_f"] == 0
            # the a steps measure the slab and form the only h(z_l) of the sweep
            assert spent[k]["feasibility_residual"] == 0
            assert spent[k]["activation_apply"] == arch.num_layers - 1
            # only R_l for l >= 1, after update_a(l - 1) moved a_{l-1}
            assert spent[k]["coupling_residual"] <= arch.num_layers - 1

    def test_sweep_forms_each_residual_once(self, monkeypatch):
        # a fresh start forms every R_l once, for f_before and the blocks alike,
        # and R_l for l >= 1 once more after update_a(l - 1); no block forms one
        arch, trace, spent = _calls_per_epoch(monkeypatch, [
            (obj, "evaluate_f"), (obj, "coupling_residual")], epochs=5)
        L = arch.num_layers
        assert spent[0]["evaluate_f"] == 0
        assert spent[0]["coupling_residual"] <= 2 * L - 1
        for k in range(1, len(trace)):
            assert spent[k]["evaluate_f"] == 0
            assert spent[k]["coupling_residual"] <= L - 1


class TestSweepPeak:
    """The traced heap peak of one warm sweep, counted in n x N arrays."""

    @pytest.mark.parametrize("activation", [ns.ActivationKind.RELU,
                                            ns.ActivationKind.SIGMOID])
    def test_sweep_holds_at_most_six_batch_arrays_beyond_the_state(self, activation):
        # each 64 x N array is 4 MB, so small arrays are noise. Beyond the state
        # a sweep holds R_l for l >= 1 and its largest block's temporaries: the
        # a step's h(z), gradient, candidate and step, R_{l+1} taking its image,
        # or sigmoid's slab bounds as they are built; about 5.3 here.
        # Each array the sweep keeps beyond these, such as R_0, counts one
        n, N = 64, 8000
        arch = ns.Architecture((n, n, n, 3), activation=activation)
        hp = obj.HyperParams(rho=1e-4, eps0=10.0, epochs=3, seed=0)
        peaks = []

        def per_epoch(state, report):
            if report.epoch == 1:       # two warm epochs, then one measured sweep
                tracemalloc.reset_peak()
            elif report.epoch == 2:
                peaks.append(tracemalloc.get_traced_memory()[1])

        tracemalloc.start()     # before the state is made, so its blocks are traced
        try:
            rng = np.random.default_rng(0)
            x = rng.normal(size=(n, N))
            y = random_one_hot(rng, 3, N)
            state, _ = opt.train(arch, x, y, hp, per_epoch=per_epoch)
        finally:
            tracemalloc.stop()
        blocks = sum(v.nbytes for v in (state.x, state.y, *state.W, *state.b, *state.z,
                                        *state.a))
        assert (peaks[0] - blocks) / (n * N * 8) <= 6.0


class TestZStepPeak:
    """The traced heap peak of one hidden z step in a warm sweep, counted in n x N
    arrays, on TestSweepPeak's problem."""

    @pytest.mark.parametrize("activation", [ns.ActivationKind.RELU, ns.ActivationKind.TANH])
    def test_hidden_z_step_holds_the_free_step_and_its_bounds(self, activation, monkeypatch):
        # beyond the state the layer-0 z step holds R_1, cached for the a step,
        # the free step W a + b, which the layer's close turns into R_0, and the
        # slab's two bounds, which become the new z and its move; about 4.5
        # here. A copy of the free step, or a new z beside the bounds, counts one
        n, N = 64, 8000
        arch = ns.Architecture((n, n, n, 3), activation=activation)
        hp = obj.HyperParams(rho=1e-4, eps0=10.0, epochs=3, seed=0)
        peaks = []
        update = opt.update_z_hidden

        def measured(state, layer, *args):
            tracemalloc.reset_peak()
            step = update(state, layer, *args)
            if layer == 0:
                peaks.append(tracemalloc.get_traced_memory()[1])
            return step

        monkeypatch.setattr(opt, "update_z_hidden", measured)
        tracemalloc.start()     # before the state is made, so its blocks are traced
        try:
            rng = np.random.default_rng(0)
            x = rng.normal(size=(n, N))
            y = random_one_hot(rng, 3, N)
            state, _ = opt.train(arch, x, y, hp)
        finally:
            tracemalloc.stop()
        blocks = sum(v.nbytes for v in (state.x, state.y, *state.W, *state.b, *state.z,
                                        *state.a))
        assert len(peaks) == hp.epochs
        assert (peaks[-1] - blocks) / (n * N * 8) <= 4.75


class TestBlockIsolation:
    """Each block update writes only its own block, so the descent ledger's
    one term per block covers every move and no cached residual goes stale
    behind the sweep's back."""

    OWN = {"update_w": "W", "update_b": "b", "update_z_hidden": "z",
           "update_z_output": "z", "update_a": "a"}

    @pytest.mark.parametrize("block,layer", [
        ("update_w", 0), ("update_w", 1), ("update_b", 0), ("update_b", 1),
        ("update_z_hidden", 0), ("update_z_output", 1), ("update_a", 0)])
    def test_block_update_writes_only_its_own_block(self, block, layer):
        state = _empty_slab_state()
        hp, eps = obj.HyperParams(rho=1.0), 0.1
        calls = {
            "update_w": lambda: _update_w(state, layer, hp),
            "update_b": lambda: opt.update_b(state, layer, hp.rho, _product(state, layer)),
            "update_z_hidden": lambda: opt.update_z_hidden(state, layer, eps, hp.rho,
                                                           _free(state, layer)),
            "update_z_output": lambda: opt.update_z_output(state, hp, _free(state, layer)),
            "update_a": lambda: opt.update_a(state, layer, hp, eps, opt.ALPHA0,
                                             _fresh_resid(state, layer + 1)),
        }
        before = {name: list(getattr(state, name)) for name in "Wbza"}
        out = calls[block]()
        for step in out if block == "update_w" else [out]:
            assert (step.block, step.layer) == (self.OWN[block], layer)
        for name in "Wbza":
            for l, (old, new) in enumerate(zip(before[name], getattr(state, name))):
                if (name, l) != (self.OWN[block], layer):
                    assert new is old, (name, l)

    def test_held_entry_forms_no_extra_residual(self, monkeypatch):
        # a fresh sweep forms 2L - 1 residuals and a later one L - 1, as
        # TestResidualReuse counts them, also when an entry is held
        formed = []
        coupling_residual = obj.coupling_residual
        monkeypatch.setattr(obj, "coupling_residual",
                            lambda *a: formed.append(1) or coupling_residual(*a))
        state = _empty_slab_state()
        hp = obj.HyperParams(rho=1.0)
        L = state.num_layers
        warm = opt.WarmStart.fresh(L)
        assert opt.run_epoch(state, hp, 0, 0.1, warm).recoveries == 1
        assert len(formed) == 2 * L - 1
        formed.clear()
        opt.run_epoch(state, hp, 1, 0.1, warm)
        assert len(formed) == L - 1


class TestBlockSteps:
    """run_epoch reads its report's per-block lists from the BlockSteps the block
    updates return (one per W step, one per other block), in sweep order."""

    def test_report_lists_are_the_steps_by_block(self, monkeypatch):
        steps = []

        def keep(inner):
            def wrapper(*args, **kwargs):
                out = inner(*args, **kwargs)
                steps.extend(out if isinstance(out, list) else [out])
                return out
            return wrapper

        for name in BLOCKS:
            monkeypatch.setattr(opt, name, keep(getattr(opt, name)))
        state = small_state(seed=5, scatter=0.5)
        hp = obj.HyperParams(rho=0.1)
        L = state.num_layers
        warm = opt.WarmStart.fresh(L)
        for k in range(3):
            steps.clear()
            report = opt.run_epoch(state, hp, k, 1.0, warm)
            w_steps = Counter(s.layer for s in steps if s.block == "W")
            assert max(w_steps.values()) > 1
            order = [(block, l) for l in range(L)
                     for block in ["W"] * w_steps[l] + list("bza" if l < L - 1 else "bz")]
            assert [(s.block, s.layer) for s in steps] == order
            w, b, z, a = ([s for s in steps if s.block == block] for block in "Wbza")
            assert report.theta == [s.curvature for s in w]
            assert report.tau == [s.curvature for s in a] == warm.tau
            assert all(s.curvature == hp.rho and s.trials == 1 for s in b + z[:-1])
            assert z[-1].curvature == hp.rho
            for moved, blocks in ((report.dw_sq, w), (report.db_sq, b),
                                  (report.dz_sq, z), (report.da_sq, a)):
                assert moved == [s.move_sq for s in blocks]
            assert report.trials_w == [s.trials for s in w]
            assert report.trials_a == [s.trials for s in a]
            assert report.majorization_w == [(s.phi, s.model) for s in w]
            assert report.majorization_a == [(s.phi, s.model) for s in a]
            assert (report.fista_iterations, report.fista_converged) == (z[-1].trials,
                                                                         z[-1].converged)
            assert report.recoveries == sum(s.held for s in steps)
            assert report.feasibility_residual == max(s.slab_violation for s in a)
            ledger = descent_ledger(report, hp.rho)[1]
            rhs = sum(0.5 * s.curvature * s.move_sq for s in steps)
            assert rhs > 0.0
            assert abs(ledger - rhs) <= 1e-12 * rhs


class TestSharedFormulas:
    """The sweep and the baselines build on the one copy of each formula, so a
    private copy of one cannot grow back unseen."""

    SHARED = [(obj, "residual"), (obj, "penalty"), (obj, "grad_w"), (obj, "grad_a"),
              (obj, "grad_b"), (obj, "grad_z"), (obj, "smooth_grad_w"),
              (ns, "slab_violation")]

    def test_every_epoch_calls_each_shared_formula(self, monkeypatch):
        _, trace, spent = _calls_per_epoch(monkeypatch, self.SHARED, epochs=4)
        assert len(spent) == len(trace) == 4
        for k, counts in enumerate(spent):
            for _, name in self.SHARED:
                assert counts[name] >= 1, (k, name)

    def test_backprop_runs_the_shared_forward_pass(self, monkeypatch):
        calls = []
        forward_pass = ns.forward_pass
        monkeypatch.setattr(ns, "forward_pass",
                            lambda *args: calls.append(1) or forward_pass(*args))
        arch, x, y, _ = _blobs_problem(epochs=1)
        bl.backprop_grads(arch, *ns.he_init(arch, 0), x, y)
        assert len(calls) == 1


def _proxy_oracle(state, hp):
    """EpochReport.grad_norm_proxy with every residual and gradient formed anew."""
    arch = state.arch
    L = state.num_layers
    total = 0.0
    for l in range(L):
        operands = (state.a_prev(l), state.W[l], state.b[l], state.z[l], hp.rho)
        gw = obj.grad_phi_w(*operands)
        if arch.regularizer is ns.RegKind.L2 and arch.reg_weight > 0.0:
            gw = gw + 2.0 * arch.reg_weight * state.W[l]
        gb = obj.grad_phi_b(*operands)
        total += obj.inner(gw, gw) + obj.inner(gb, gb)
    gz = (obj.grad_phi_z(*operands)
          + obj.grad_risk_cross_entropy(state.z[L - 1], state.y))
    return math.sqrt(total + obj.inner(gz, gz))


class TestCertificatesExact:
    """The certificates a sweep takes from its blocks' by-products equal the same
    quantities recomputed from the states before and after the epoch."""

    @pytest.mark.parametrize("activation,reg,lam,epochs", [
        (ns.ActivationKind.RELU, ns.RegKind.NONE, 0.0, 20),         # criterion 11
        (ns.ActivationKind.SIGMOID, ns.RegKind.L2, 1e-3, 10)])
    def test_certificates_equal_fresh_recompute(self, activation, reg, lam, epochs,
                                                monkeypatch):
        _, x, y, hp = _blobs_problem(epochs)
        arch = ns.Architecture((12, 16, 16, 3), activation=activation, regularizer=reg,
                               reg_weight=lam)
        state = ns.initialize(arch, x, y, hp)
        warm = opt.WarmStart.fresh(arch.num_layers)
        eps = min(hp.eps0, opt.EPS_MAX)
        w_moves = []        # (layer, W_{i-1}, W_i) of every W step, in sweep order
        step = opt._majorized_step

        def spy(block, layer, rho, current, *rest):
            cand, record = step(block, layer, rho, current, *rest)
            if block == "W":
                w_moves.append((layer, current, cand))
            return cand, record

        monkeypatch.setattr(opt, "_majorized_step", spy)
        for k in range(epochs):
            before = {name: list(getattr(state, name)) for name in "Wbza"}
            w_moves.clear()
            report = opt.run_epoch(state, hp, k, eps, warm)
            assert report.recoveries == 0      # no slab is empty on these runs
            # each W step moves its layer's block from where the last step left it
            for l in range(arch.num_layers):
                chain = [(old, new) for layer, old, new in w_moves if layer == l]
                assert chain[0][0] is before["W"][l] and chain[-1][1] is state.W[l]
                assert all(new is old for (_, new), (old, _) in zip(chain, chain[1:]))
            assert report.dw_sq == [obj.inner(new - old, new - old) for _, old, new in w_moves]
            for name, moved in (("b", report.db_sq), ("z", report.dz_sq), ("a", report.da_sq)):
                fresh = [obj.inner(new - old, new - old)
                         for new, old in zip(getattr(state, name), before[name])]
                assert moved == fresh, name
            assert report.grad_b_err == grad_b_identity_check(state, before["z"], hp.rho)
            assert report.feasibility_residual == ns.feasibility_residual(state, eps)
            assert report.f_after == obj.evaluate_f(state, hp, eps).total
            assert report.grad_norm_proxy == _proxy_oracle(state, hp)
            # layer 0's pair, carried into the next sweep's first W step
            operands = (state.x, state.W[0], state.b[0], state.z[0], hp.rho)
            assert warm.layer0[0] == obj.penalty_phi(*operands)
            assert warm.layer0[1].tobytes() == obj.grad_phi_w(*operands).tobytes()


class TestNonFinite:
    def test_nan_mid_run_names_epoch_layer_and_block(self, monkeypatch):
        monkeypatch.setattr(opt, "run_epoch", nan_before_epoch(opt.run_epoch, 3))
        arch, x, y, hp = _blobs_problem(epochs=6)
        done = []
        with pytest.raises(opt.NonFiniteError) as err:
            opt.train(arch, x, y, hp, per_epoch=lambda s, r: done.append(r.epoch))
        assert done == [0, 1, 2]
        assert (err.value.epoch, err.value.layer, err.value.block) == (3, 0, "W update")
        assert str(err.value) == "NaN or inf in the W update at epoch 3, layer 0"

    def test_nan_activation_fails_on_first_trial(self):
        # h(z) enters only the a step's trials; no curvature repairs a NaN there
        state = small_state(seed=7)
        z = state.z[0].copy()
        z[0, 0] = np.nan
        state.z[0] = z
        with pytest.raises(opt.NonFiniteError) as err:
            _update_a(state, 0, obj.HyperParams(), eps=0.5)
        assert (err.value.epoch, err.value.layer, err.value.block) == (None, 0, "a update")

    def test_nan_objective_ends_the_epoch(self, monkeypatch):
        update = opt.update_z_output

        def poisoned(state, hp, free):
            result = update(state, hp, free)
            z = state.z[-1].copy()
            z[0, 0] = np.nan
            state.z[-1] = z
            return result

        monkeypatch.setattr(opt, "update_z_output", poisoned)
        state = small_state(seed=13, scatter=0.4)
        with pytest.raises(opt.NonFiniteError) as err:
            opt.run_epoch(state, obj.HyperParams(rho=0.2), 4, eps=1.0)
        assert (err.value.epoch, err.value.layer, err.value.block) == (4, None, "objective")
        assert str(err.value) == "NaN or inf in the objective at epoch 4"
