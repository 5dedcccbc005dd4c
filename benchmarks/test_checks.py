"""Tests of the benchmark's own result checks.

    python3 -m pytest benchmarks -q

Each check must agree with the package on a clean result and must fail on a
deliberately corrupted one.
"""

import copy
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks                                                  # noqa: E402
from dlam import cli, data_io                                  # noqa: E402
from dlam import network_state as ns                           # noqa: E402
from dlam import objective as obj                              # noqa: E402
from dlam import optimizer as opt                              # noqa: E402


def hand_made_state(kind: ns.ActivationKind, eps: float):
    """A small state moved off its zero-residual start, still inside the slab."""
    rng = np.random.default_rng(3)
    arch = ns.Architecture((3, 4, 3, 2), activation=kind)
    x = rng.uniform(0.0, 1.0, (3, 6))
    y = np.zeros((2, 6))
    y[rng.integers(0, 2, 6), np.arange(6)] = 1.0
    state = ns.initialize(arch, x, y, seed=1)
    state.z = [z + rng.normal(0.0, 0.3, z.shape) for z in state.z]
    state.a = [np.clip(a + rng.normal(0.0, 0.3, a.shape),
                       checks.activation(kind.value, z) - eps,
                       checks.activation(kind.value, z) + eps)
               for a, z in zip(state.a, state.z)]
    return state


def own_objective(state, hp, eps):
    acts = [k.value for k in state.arch.activation]
    return checks.objective(state.W, state.b, state.z, state.a, state.x, state.y,
                            acts, hp.rho, eps)


@pytest.mark.parametrize("kind", list(ns.ActivationKind))
def test_objective_agrees_with_evaluate_f(kind):
    hp = obj.HyperParams(rho=0.5)
    state = hand_made_state(kind, eps=0.2)
    expected = obj.evaluate_f(state, hp, 0.2).total
    assert math.isfinite(expected)
    assert own_objective(state, hp, 0.2) == pytest.approx(expected, rel=1e-12)


def test_objective_is_infinite_outside_the_slab():
    hp = obj.HyperParams(rho=0.5)
    state = hand_made_state(ns.ActivationKind.SIGMOID, eps=0.2)
    state.a[1] = state.a[1].copy()
    state.a[1][0, 0] = checks.activation("sigmoid", state.z[1][0, 0]) + 0.3
    assert obj.evaluate_f(state, hp, 0.2).total == math.inf
    assert own_objective(state, hp, 0.2) == math.inf


@pytest.fixture(scope="module")
def blobs_run():
    ds = data_io.synth_gaussian_blobs(3, 12, 40, seed=11, noise=0.05)
    arch = ns.Architecture((12, 16, 16, 3))
    hp = obj.HyperParams(rho=0.01, eps0=1.0, epochs=60, seed=0)
    state, trace = opt.train(arch, ds.x, ds.y, hp)
    return state, trace, hp.rho


def run_checks(state, trace, rho, floor=0.9):
    return checks.check_dlam(state, trace, rho, ["relu", "relu"], floor)


def moved(state, block: str, layer: int, delta: float):
    """Copy of ``state`` with one entry of one block shifted by ``delta``."""
    out = copy.copy(state)
    blocks = [m.copy() for m in getattr(state, block)]
    blocks[layer][0, 0] += delta
    setattr(out, block, blocks)
    return out


def test_clean_run_passes(blobs_run):
    assert run_checks(*blobs_run) == []


def test_activation_outside_its_slab_fails_c_and_a(blobs_run):
    state, trace, rho = blobs_run
    errors = run_checks(moved(state, "a", 0, 2 * trace[-1].eps_next + 1.0), trace, rho)
    assert any(e.startswith("(c)") for e in errors)
    assert any(e.startswith("(a)") for e in errors)


def test_weight_perturbed_after_the_run_fails_a(blobs_run):
    state, trace, rho = blobs_run
    errors = run_checks(moved(state, "W", 1, 1e-3), trace, rho)
    assert [e[:3] for e in errors] == ["(a)"]


def test_rising_objective_fails_b(blobs_run):
    state, trace, rho = blobs_run
    risen = dataclasses.replace(trace[10], f_after=trace[9].f_after + 1e-6)
    errors = run_checks(state, trace[:10] + [risen] + trace[11:], rho)
    assert any(e.startswith("(b) F rose") for e in errors)


def test_broken_descent_ledger_fails_b(blobs_run):
    state, trace, rho = blobs_run
    r = trace[5]
    overclaimed = dataclasses.replace(r, dw_sq=[d + 1.0 for d in r.dw_sq])
    errors = run_checks(state, trace[:5] + [overclaimed] + trace[6:], rho)
    assert any(e.startswith("(b) descent ledger") for e in errors)


def test_accuracy_below_floor_fails_d(blobs_run):
    state, trace, rho = blobs_run
    dead = copy.copy(state)
    dead.W = state.W[:-1] + [np.zeros_like(state.W[-1])]
    errors = run_checks(dead, trace, rho)
    assert any(e.startswith("(d)") for e in errors)


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli")
    args = ["train", "--dataset", "blobs", "--hidden", "12", "--epochs", "15",
            "--optimizer", "adagrad", "--seed", "5", "--out", str(out)]
    assert cli.main(args) == 0
    return checks.read_cli_run(out)


def test_clean_cli_run_passes(cli_run):
    rows, summary = cli_run
    assert checks.check_cli(rows, summary, 15, 4, 0.9) == []


@pytest.mark.parametrize("corrupt", ["missing_row", "nan", "lr", "chance_loss", "accuracy"])
def test_corrupted_cli_run_fails_e(cli_run, corrupt):
    rows, summary = copy.deepcopy(cli_run)
    if corrupt == "missing_row":
        del rows[7]
    elif corrupt == "nan":
        rows[3]["F"] = math.nan
    elif corrupt == "lr":
        summary["config"]["lr"] = 0.5
    elif corrupt == "chance_loss":
        rows[-1]["F"] = math.log(4)
    else:
        rows[-1]["train_acc"] = 0.5
    assert any(e.startswith("(e)") for e in checks.check_cli(rows, summary, 15, 4, 0.9))
