#!/usr/bin/env python3
"""Print one SHA-256 per training run, to show that a change moves no bit.

    python scripts/fingerprint.py                      # all seven runs
    python scripts/fingerprint.py --runs tanh-l1-blobs adagrad-blobs

Each DLAM run trains from a fixed seed with ``dlam.train`` and hashes the
final W, b, z and a bytes together with every ``EpochReport`` field except
``wall_time_s``. Each baseline run trains with ``train_baseline`` and
hashes the final W and b bytes together with every per-epoch record field
except ``wall_time_s``. Run it at two commits of a source checkout (it
imports the package from that checkout's ``src/``) and compare the lines:
equal hashes mean bit-identical training. Hashes depend on the numpy build
and its BLAS, so compare them on one machine only; the BLAS pools are
pinned to one thread unless the environment already sets them.

Each line reads ``hash  name  F``: F is the run's final objective, printed
with ``repr`` so that it round-trips (F after the last epoch for a DLAM run,
the last epoch's loss for a baseline run). It tells a change that moves bits
at rounding level from one that moves the result.
"""

import argparse
import dataclasses
import hashlib
import os
import sys
from pathlib import Path

if __name__ == "__main__":
    # before numpy loads: the BLAS pool size is read once, at import
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np                   # noqa: E402

from dlam import baselines as bl       # noqa: E402
from dlam import network_state as ns   # noqa: E402
from dlam import objective as obj      # noqa: E402
from dlam import optimizer as opt      # noqa: E402
from dlam.data_io import synth_gaussian_blobs   # noqa: E402

ACT = ns.ActivationKind
BLOBS = dict(classes=3, d=12, n_per_class=40, seed=11, noise=0.05)   # criterion 11

# name -> (architecture, dataset arguments, hyperparameters)
RUNS = {
    # the acceptance protocol on its surrogate-5k data, and its sigmoid variant
    "repro-5k": (ns.Architecture((196, 100, 100, 10)),
                 dict(classes=10, d=196, n_per_class=500, seed=7, noise=0.25),
                 obj.HyperParams(rho=1e-4, eps0=10.0, epochs=30, seed=0)),
    "sigmoid-net": (ns.Architecture((196, 100, 100, 10), activation=ACT.SIGMOID),
                    dict(classes=10, d=196, n_per_class=200, seed=7, noise=0.25),
                    obj.HyperParams(rho=1e-4, eps0=10.0, epochs=30, seed=0)),
    "tanh-l1-blobs": (ns.Architecture((12, 16, 16, 3), activation=ACT.TANH,
                                      regularizer=ns.RegKind.L1, reg_weight=1e-3),
                      BLOBS, obj.HyperParams(rho=0.01, eps0=1.0, epochs=100, seed=0)),
    "sigmoid-l2-blobs": (ns.Architecture((12, 16, 16, 3), activation=ACT.SIGMOID,
                                         regularizer=ns.RegKind.L2, reg_weight=1e-3),
                         BLOBS, obj.HyperParams(rho=0.01, eps0=1.0, epochs=100, seed=0)),
}

# name -> (architecture, dataset arguments, baseline config): one per update rule
BASELINE_RUNS = {
    "adagrad-blobs": (ns.Architecture((12, 16, 16, 3)), BLOBS,
                      bl.BaselineConfig(kind=bl.BaselineKind.ADAGRAD, lr=0.1, epochs=100)),
    "sgd-sigmoid-blobs": (ns.Architecture((12, 16, 16, 3), activation=ACT.SIGMOID), BLOBS,
                          bl.BaselineConfig(kind=bl.BaselineKind.SGD, lr=0.3, epochs=100)),
    "adadelta-tanh-blobs": (ns.Architecture((12, 16, 16, 3), activation=ACT.TANH), BLOBS,
                            bl.BaselineConfig(kind=bl.BaselineKind.ADADELTA, lr=1.0,
                                              epochs=100)),
}


def _digest(records, blocks) -> str:
    """SHA-256 of every record field but wall time, then the blocks' bytes."""
    digest = hashlib.sha256()
    for fields in records:
        fields = {k: v for k, v in fields.items() if k != "wall_time_s"}
        digest.update(repr(fields).encode())     # repr round-trips every float
    for block in blocks:
        digest.update(np.ascontiguousarray(block, dtype=np.float64).tobytes())
    return digest.hexdigest()


def fingerprint(state: ns.NetworkState, trace) -> str:
    """SHA-256 of the final blocks' bytes and every report field but wall time."""
    return _digest(map(dataclasses.asdict, trace), [*state.W, *state.b, *state.z, *state.a])


def baseline_fingerprint(W, b, trace) -> str:
    """SHA-256 of the final W and b bytes and every record field but wall time."""
    return _digest(trace, [*W, *b])


def run(name: str) -> tuple[str, float]:
    """The run's hash and its final objective."""
    if name in BASELINE_RUNS:
        arch, data, cfg = BASELINE_RUNS[name]
        ds = synth_gaussian_blobs(**data)
        W, b, trace = bl.train_baseline(cfg, arch, ds.x, ds.y)
        return baseline_fingerprint(W, b, trace), trace[-1]["loss"]
    arch, data, hp = RUNS[name]
    ds = synth_gaussian_blobs(**data)
    state, trace = opt.train(arch, ds.x, ds.y, hp)
    return fingerprint(state, trace), trace[-1].f_after


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    names = [*RUNS, *BASELINE_RUNS]
    parser.add_argument("--runs", nargs="+", choices=names, default=names)
    args = parser.parse_args(argv)
    for name in args.runs:
        digest, final_f = run(name)
        print(f"{digest}  {name}  {final_f!r}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
