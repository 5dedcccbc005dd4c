import csv
import math

import pytest

from dlam import diagnostics as diag
from dlam import network_state as ns
from dlam import objective as obj
from dlam import optimizer as opt
from dlam.data_io import synth_gaussian_blobs
from conftest import grad_b_identity_check, small_state


def _report(f_before=1.0, f_after=0.9, theta=(2.0,), dw=(0.01,), db=(0.0,),
            dz=(0.0,), tau=(), da=(), norms=None, epoch=0):
    """Minimal duck-typed epoch report for ledger unit tests."""
    class R:
        pass
    r = R()
    r.epoch = epoch
    r.f_before, r.f_after = f_before, f_after
    r.theta, r.tau = list(theta), list(tau)
    r.dw_sq, r.db_sq, r.dz_sq, r.da_sq = list(dw), list(db), list(dz), list(da)
    r.block_norms = norms or {"W": 1.0, "b": 0.1, "z": 1.0, "a": 1.0}
    r.eps_used = 1.0
    r.feasibility_residual = 0.0
    r.grad_b_err = 0.0
    r.grad_norm_proxy = 0.0
    r.wall_time_s = 0.0
    return r


class TestDescentLedger:
    def test_fixed_point_gives_zero_both_sides(self):
        r = _report(f_before=1.0, f_after=1.0, theta=(2.0, 3.0), dw=(0.0, 0.0),
                    db=(0.0, 0.0), dz=(0.0, 0.0), tau=(1.5,), da=(0.0,))
        lhs, rhs, margin = diag.descent_ledger(r, rho=0.5)
        assert lhs == 0.0 and rhs == 0.0 and margin == 0.0

    def test_scalar_toy_epoch_matches_hand_computation(self, monkeypatch):
        # every W step's scalar move, squared by hand from the W it started
        # at and the W it accepted
        w_moves = []
        step = opt._majorized_step

        def spy(block, layer, rho, current, *rest):
            cand, record = step(block, layer, rho, current, *rest)
            if block == "W":
                w_moves.append(float(cand[0, 0]) - float(current[0, 0]))
            return cand, record

        monkeypatch.setattr(opt, "_majorized_step", spy)
        state = small_state(seed=8, sizes=(1, 1, 1), n=1, scatter=0.3)
        hp = obj.HyperParams(rho=2.0)
        report = opt.run_epoch(state, hp.rho, 0, eps=1.0)
        assert len(w_moves) == len(report.theta) > 2
        hand = (sum(0.5 * theta * move * move for theta, move in zip(report.theta, w_moves))
                + 0.5 * hp.rho * (report.db_sq[0] + report.db_sq[1])
                + 0.5 * hp.rho * (report.dz_sq[0] + report.dz_sq[1])
                + 0.5 * report.tau[0] * report.da_sq[0])
        lhs, rhs, margin = diag.descent_ledger(report, hp.rho)
        assert rhs == pytest.approx(hand, abs=1e-12)
        assert lhs == report.f_before - report.f_after
        assert margin == pytest.approx(lhs - hand, abs=1e-12)

    def test_margin_on_short_run(self):
        state = small_state(seed=21, scatter=0.5, sizes=(4, 6, 5, 3), n=12)
        hp = obj.HyperParams(rho=0.05, epochs=25, seed=2)
        _, trace = opt.train(state.arch, state.x, state.y, hp)
        for r in trace:
            lhs, rhs, margin = diag.descent_ledger(r, hp.rho)
            assert margin >= -1e-6 * max(1.0, abs(r.f_before))


class TestCkSeries:
    def test_single_epoch_equals_bundle(self):
        r = _report(theta=(2.0,), dw=(0.5,), db=(0.1,), dz=(0.2,))
        series = diag.ck_series([r], rho=1.0)
        _, rhs, _ = diag.descent_ledger(r, rho=1.0)
        assert series.c == [rhs]
        assert series.k_times_c == [rhs]

    def test_nonincreasing_on_arbitrary_traces(self, rng):
        for _ in range(20):
            trace = [_report(theta=(float(rng.uniform(0.5, 4.0)),),
                             dw=(float(rng.uniform(0, 1)),),
                             db=(float(rng.uniform(0, 1)),),
                             dz=(float(rng.uniform(0, 1)),))
                     for _ in range(15)]
            series = diag.ck_series(trace, rho=0.3)
            assert all(b <= a for a, b in zip(series.c, series.c[1:]))
            assert all(c >= 0.0 for c in series.c)
            assert series.k_times_c == [(i + 1) * c for i, c in enumerate(series.c)]

    def test_trend_decays_under_fixed_eps(self):
        state = small_state(seed=22, scatter=0.5, sizes=(4, 6, 5, 3), n=12)
        hp = obj.HyperParams(rho=0.05, epochs=60, seed=2)
        _, trace = opt.train(state.arch, state.x, state.y, hp)
        series = diag.ck_series(trace, hp.rho)
        k_hi, k_lo = 59, 5
        assert (k_hi + 1) * series.c[k_hi] < (k_lo + 1) * series.c[k_lo]

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            diag.ck_series([], rho=1.0)


class TestGradBIdentity:
    def test_stationary_state_exactly_zero(self):
        state = small_state(seed=23)
        z_before = list(state.z)
        assert grad_b_identity_check(state, z_before, rho=0.5) == 0.0

    def test_clean_epochs_below_threshold(self):
        state = small_state(seed=24, scatter=0.5, sizes=(4, 6, 5, 3), n=12)
        hp = obj.HyperParams(rho=0.05, epochs=10, seed=4)
        _, trace = opt.train(state.arch, state.x, state.y, hp)
        assert all(r.grad_b_err < 1e-10 for r in trace)

    def test_perturbed_intercept_detected(self):
        state = small_state(seed=25, scatter=0.4)
        hp = obj.HyperParams(rho=0.2)
        z_before = list(state.z)
        opt.run_epoch(state, hp.rho, 0, eps=1.0)
        # rebuild the pre-update z for the check and then poison b
        z_pre = z_before
        err_clean = grad_b_identity_check(state, z_pre, hp.rho)
        state.b[1] = state.b[1] + 1e-3
        err_poisoned = grad_b_identity_check(state, z_pre, hp.rho)
        assert err_poisoned == pytest.approx(err_clean + hp.rho * 1e-3, rel=1e-6)

    @staticmethod
    def _blobs_state():
        """Criterion 11's blobs problem: 12-16-16-3 at rho = 0.01."""
        ds = synth_gaussian_blobs(classes=3, d=12, n_per_class=40, seed=11, noise=0.05)
        hp = obj.HyperParams(rho=0.01, seed=0)
        return ns.initialize(ns.Architecture((12, 16, 16, 3)), ds.x, ds.y, hp), hp

    @pytest.mark.parametrize("layer", [0, 1, 2])
    def test_recorded_error_catches_a_faulty_intercept_step(self, layer, monkeypatch):
        delta = 1e-3
        update_b = opt.update_b

        def faulty(state, l, rho, product):
            step = update_b(state, l, rho, product)
            if l == layer:
                state.b[l] = state.b[l] + delta
            return step

        monkeypatch.setattr(opt, "update_b", faulty)
        state, hp = self._blobs_state()
        report = opt.run_epoch(state, hp.rho, 0, 0.01)
        assert report.grad_b_err == pytest.approx(hp.rho * delta, rel=1e-6)

    def test_recorded_error_equals_fresh_oracle(self):
        # run_epoch takes each layer's term from the residual and move the sweep formed
        state, hp = self._blobs_state()
        warm = opt.WarmStart.fresh(state.num_layers)
        for k in range(50):
            z_before = list(state.z)
            report = opt.run_epoch(state, hp.rho, k, 0.01, warm)
            assert report.grad_b_err == grad_b_identity_check(state, z_before, hp.rho)


class TestSubgradientRatio:
    def test_logged_series_finite_on_runs(self):
        state = small_state(seed=31, scatter=0.5, sizes=(4, 6, 5, 3), n=12)
        hp = obj.HyperParams(rho=0.05, epochs=30, seed=2)
        _, trace = opt.train(state.arch, state.x, state.y, hp)
        ratios = diag.subgradient_ratio_series(trace)
        assert len(ratios) == len(trace)
        assert all(math.isfinite(r) and r >= 0.0 for r in ratios)
        # bounded by a finite running constant: the running max plateaus
        running = [max(ratios[:i + 1]) for i in range(len(ratios))]
        assert running[-1] == running[len(running) // 2]

    def test_zero_movement_zero_proxy(self):
        r = _report(dw=(0.0,), db=(0.0,), dz=(0.0,))
        assert diag.subgradient_ratio_series([r]) == [0.0]


class TestBoundedness:
    def test_zero_epoch_trace_has_no_maxima(self):
        rec = diag.boundedness_record([])
        assert rec.max_norm_per_block == {}
        assert math.isinf(rec.f_min) and rec.f_monotone

    def test_monotone_run_flagged_true(self):
        state = small_state(seed=26, scatter=0.4, sizes=(4, 5, 3), n=10)
        hp = obj.HyperParams(rho=0.05, epochs=20, seed=5)
        _, trace = opt.train(state.arch, state.x, state.y, hp)
        rec = diag.boundedness_record(trace)
        assert rec.f_monotone
        assert rec.f_min == min(r.f_after for r in trace)
        assert all(v > 0 for k, v in rec.max_norm_per_block.items() if k != "b")

    def test_synthetic_divergence_flagged_false(self):
        trace = [_report(f_before=1.0, f_after=0.9, epoch=0),
                 _report(f_before=0.9, f_after=1.5, epoch=1)]
        assert not diag.boundedness_record(trace).f_monotone
        # rising across the epoch boundary also breaks monotonicity
        trace = [_report(f_before=1.0, f_after=0.5, epoch=0),
                 _report(f_before=0.8, f_after=0.6, epoch=1)]
        assert not diag.boundedness_record(trace).f_monotone


class TestDiagnosticsCsv:
    def test_columns_and_rows(self, tmp_path):
        state = small_state(seed=27, scatter=0.4)
        hp = obj.HyperParams(rho=0.1, epochs=6, seed=6)
        _, trace = opt.train(state.arch, state.x, state.y, hp)
        path = tmp_path / "diagnostics.csv"
        diag.write_diagnostics_csv(trace, hp.rho, str(path))
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["epoch", "F", "lhs", "rhs", "margin", "c_k", "k_ck", "eps",
                           "feas_residual", "max_block_norm", "grad_b_err", "wall_time_s"]
        assert len(rows) == 1 + len(trace)
        # values round-trip as floats
        assert float(rows[1][1]) == trace[0].f_after
