"""The four benchmark workloads: their inputs and one training call each.

A workload is a list of operations that make up one round. An operation is
one training call through the package's public functions together with the
checks in ``checks.py``; it returns an ``OpResult`` or raises ``OpFailed``.
Every round repeats the same operations on the same inputs.

``--seed`` permutes the sample columns of each problem. Training is
invariant to that order up to float rounding, so every seed poses the same
problem: the network initialization seeds stay fixed, because moving them
changes the final objective by a factor of up to 2.6 and the epochs to the
accuracy target from 20 to never (five init seeds of repro-5k).
"""

from __future__ import annotations

import argparse
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from checks import OpFailed
from dlam import cli
from dlam import data_io
from dlam import network_state as ns
from dlam import objective as obj
from dlam import optimizer as opt

WORKLOADS = ("repro-5k", "sigmoid-net", "tiny-sweep", "adagrad-cli")

TINY_PROBLEMS = 10
ADAGRAD_EPOCHS = 50


@dataclass
class OpResult:
    train_s: float                   # training time, the benchmark's own passes excluded
    epoch_s: list[float]             # per-epoch wall time
    time_to_target_s: float
    epochs_to_target: int
    final_objective: float
    accuracy: float
    trials_w: int = 0
    trials_a: int = 0
    fista_iters: int = 0


@dataclass
class DlamProblem:
    arch: ns.Architecture
    x: np.ndarray
    y: np.ndarray
    hp: obj.HyperParams
    target: float      # training accuracy that stops the time-to-target clock
    floor: float       # accuracy the run must reach by its last epoch (check d)


def _blobs(classes, d, n_per_class, data_seed, noise, perm_seed):
    ds = data_io.synth_gaussian_blobs(classes, d, n_per_class, seed=data_seed, noise=noise)
    perm = np.random.default_rng(perm_seed).permutation(ds.n_samples)
    return np.ascontiguousarray(ds.x[:, perm]), np.ascontiguousarray(ds.y[:, perm])


def dlam_problems(name: str, seed: int) -> list[DlamProblem]:
    if name == "repro-5k":
        # the acceptance reproduction protocol on its surrogate-5k data
        x, y = _blobs(10, 196, 500, 7, 0.25, seed)
        hp = obj.HyperParams(rho=1e-4, eps0=10.0, epochs=50, seed=0)
        return [DlamProblem(ns.Architecture((196, 100, 100, 10)), x, y, hp, 0.90, 0.70)]
    if name == "sigmoid-net":
        x, y = _blobs(10, 196, 200, 7, 0.25, seed)
        hp = obj.HyperParams(rho=1e-4, eps0=10.0, epochs=50, seed=0)
        arch = ns.Architecture((196, 100, 100, 10), activation=ns.ActivationKind.SIGMOID)
        return [DlamProblem(arch, x, y, hp, 0.90, 0.70)]
    if name == "tiny-sweep":
        # problem 0 is the criterion-11 blobs run; the others reseed data and init
        problems = []
        for i in range(TINY_PROBLEMS):
            x, y = _blobs(3, 12, 40, 11 + i, 0.05, seed * TINY_PROBLEMS + i)
            hp = obj.HyperParams(rho=0.01, eps0=1.0, epochs=150, seed=i)
            problems.append(DlamProblem(ns.Architecture((12, 16, 16, 3)), x, y, hp,
                                        0.95, 0.90))
        return problems
    raise ValueError(f"not a DLAM workload: {name!r}")


def train_dlam(p: DlamProblem) -> OpResult:
    acts = [k.value for k in p.arch.activation]
    epoch_s: list[float] = []
    accs: list[float] = []
    own = 0.0                         # time in the benchmark's accuracy passes

    def per_epoch(state, report):
        nonlocal last, own
        t = time.perf_counter()
        epoch_s.append(t - last)
        accs.append(checks.accuracy(state.W, state.b, state.x, state.y, acts))
        last = time.perf_counter()
        own += last - t

    t0 = last = time.perf_counter()
    try:
        state, trace = opt.train(p.arch, p.x, p.y, p.hp, per_epoch=per_epoch)
    except Exception as exc:          # any library error is a failed operation
        raise OpFailed(f"train raised {type(exc).__name__}: {exc}") from exc
    train_s = time.perf_counter() - t0 - own
    errors = checks.check_dlam(state, trace, p.hp.rho, acts, p.floor)
    hit = next((k for k, acc in enumerate(accs) if acc >= p.target), None)
    if hit is None:
        errors.append(f"training accuracy never reached the target {p.target}")
    if errors:
        raise OpFailed("; ".join(errors))
    return OpResult(
        train_s=train_s,
        epoch_s=epoch_s,
        time_to_target_s=sum(epoch_s[:hit + 1]),
        epochs_to_target=hit + 1,
        final_objective=trace[-1].f_after,
        accuracy=accs[-1],
        trials_w=sum(sum(r.trials_w) for r in trace),
        trials_a=sum(sum(r.trials_a) for r in trace),
        fista_iters=sum(r.fista_iterations for r in trace),
    )


class AdagradCli:
    """`dlam train` in process: adagrad with the learning-rate grid search.

    The CLI derives the blobs data, the initialization and the grid probe
    from its single ``seed`` key, so the inputs are the surrogate-5k data
    whatever ``--seed`` is; ``--seed`` only names the output directory.
    """

    target = 1.0
    floor = 0.90
    classes = 10

    def __init__(self, seed: int, root: Path):
        root.mkdir(parents=True, exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(prefix=f"adagrad-cli-{seed}-", dir=root)
        self.dir = Path(self._tmp.name)
        self.config = self.dir / "adagrad.cfg"
        self.config.write_text(
            "# surrogate-5k: synth_gaussian_blobs(10, 196, 500, seed=7, noise=0.25)\n"
            "dataset = blobs\nblobs_classes = 10\nblobs_features = 196\n"
            "blobs_per_class = 500\nblobs_noise = 0.25\nseed = 7\n"
            f"hidden = 100,100\noptimizer = adagrad\nepochs = {ADAGRAD_EPOCHS}\n")
        self.runs = 0

    def load_dataset(self):
        """What the CLI does before its first epoch: parse config, build data."""
        args = argparse.Namespace(config=str(self.config))
        return cli.load_dataset(cli.build_config(args))

    def train(self) -> OpResult:
        self.runs += 1
        out = self.dir / f"run{self.runs}"
        t0 = time.perf_counter()
        try:
            code = cli.main(["train", "--config", str(self.config), "--out", str(out)])
        except Exception as exc:
            raise OpFailed(f"cli.main raised {type(exc).__name__}: {exc}") from exc
        train_s = time.perf_counter() - t0
        if code != 0:
            raise OpFailed(f"cli.main returned {code}")
        try:
            rows, summary = checks.read_cli_run(out)
        except (OSError, ValueError, KeyError) as exc:
            raise OpFailed(f"unreadable run output: {exc}") from exc
        errors = checks.check_cli(rows, summary, ADAGRAD_EPOCHS, self.classes, self.floor)
        hit = next((k for k, r in enumerate(rows) if r["train_acc"] >= self.target), None)
        if hit is None:
            errors.append(f"training accuracy never reached the target {self.target}")
        if errors:
            raise OpFailed("; ".join(errors))
        epoch_s = [r["wall_time_s"] for r in rows]
        return OpResult(
            train_s=train_s,
            epoch_s=epoch_s,
            time_to_target_s=sum(epoch_s[:hit + 1]),
            epochs_to_target=hit + 1,
            final_objective=rows[-1]["F"],
            accuracy=rows[-1]["train_acc"],
        )

    def close(self) -> None:
        self._tmp.cleanup()


class Workload:
    """Inputs of one workload and the operations of one round."""

    def __init__(self, name: str, seed: int, scratch: Path):
        self.cli = AdagradCli(seed, scratch) if name == "adagrad-cli" else None
        self.problems = [] if self.cli else dlam_problems(name, seed)

    def prepare(self) -> None:
        """The rest of the set-up before the first sweep."""
        if self.cli:
            self.cli.load_dataset()
        for p in self.problems:
            ns.initialize(p.arch, p.x, p.y, p.hp)

    def operations(self):
        if self.cli:
            return [self.cli.train]
        return [lambda p=p: train_dlam(p) for p in self.problems]

    def close(self) -> None:
        if self.cli:
            self.cli.close()
