#!/usr/bin/env python3
"""Print one SHA-256 per training run, to show that a change moves no bit.

    python scripts/fingerprint.py                      # all seven runs
    python scripts/fingerprint.py --runs tanh-l1-blobs adagrad-blobs

Each DLAM run trains from a fixed seed with ``dlam.train`` and hashes the
final W, b, z and a bytes together with the ``EpochReport`` fields named in
``REPORT_FIELDS``, a fixed list without ``wall_time_s``, so a field the
report gains later moves no hash. Each baseline run trains with
``train_baseline`` and hashes the final W and b bytes together with every
per-epoch record field except ``wall_time_s``. Run it at two commits of a
source checkout (it imports the package from that checkout's ``src/``) and
compare the lines: equal hashes mean bit-identical training. Hashes depend on the numpy build
and its BLAS, so compare them on one machine only; the BLAS pools are
pinned to one thread unless the environment already sets them.

Each line reads ``hash  name  F``: F is the run's final objective, printed
with ``repr`` so that it round-trips (F after the last epoch for a DLAM run,
the last epoch's loss for a baseline run). It tells a change that moves bits
at rounding level from one that moves the result.

    python scripts/fingerprint.py --save runs.npz      # at one commit
    python scripts/fingerprint.py --against runs.npz   # at another

``--save FILE`` writes each run's final F and blocks (W, b, z, a; W and b
for a baseline run) into one ``.npz`` file. ``--against FILE`` reads such
a file and prints, after each line, how far the run lies from the saved
one: ``dF``, the relative difference in F, then ``dW``, ``db``, ``dz`` and
``da``, the largest entry gap |X - X_saved| over every layer of that block
over its largest saved entry (a layer whose block is rounding noise, such
as a stalled layer's b, would make a per-layer ratio large). 0.0
everywhere means equal values; a hash that moves while every distance
stays near the rounding unit is a rounding change. A saved run whose blocks
differ from this checkout's in number or shape is an error naming the run
and the block.

The hash reads each report field through its ``repr``, so a change of type
with equal values moves it: a count held as a Python int where it was an
``np.int64`` moves every DLAM hash, though no number changed. And the
tanh-l1-blobs run is rounding-chaotic: a pure reordering of its sums, such
as permuting its sample columns, moves its final F by up to a few parts in
a thousand, so for that run a moved hash with small distances says little;
the other runs tell a rounding change from a real one.
"""

import argparse
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

# the EpochReport fields a DLAM hash covers, in the report's order; wall time
# is left out because it varies from run to run
REPORT_FIELDS = ("epoch", "f_before", "f_after", "risk", "theta", "tau", "dw_sq", "db_sq",
                 "dz_sq", "da_sq", "trials_w", "trials_a", "majorization_w",
                 "majorization_a", "fista_iterations", "fista_converged", "recoveries",
                 "feasibility_residual", "grad_b_err", "grad_norm_proxy", "eps_used",
                 "eps_next", "block_norms")


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
    """SHA-256 of the final blocks' bytes and every report's REPORT_FIELDS."""
    records = ({name: getattr(report, name) for name in REPORT_FIELDS} for report in trace)
    return _digest(records, [*state.W, *state.b, *state.z, *state.a])


def baseline_fingerprint(W, b, trace) -> str:
    """SHA-256 of the final W and b bytes and every record field but wall time."""
    return _digest(trace, [*W, *b])


def run(name: str) -> tuple[str, float, dict[str, list[np.ndarray]]]:
    """The run's hash, its final objective and its final blocks by kind."""
    if name in BASELINE_RUNS:
        arch, data, cfg = BASELINE_RUNS[name]
        ds = synth_gaussian_blobs(**data)
        W, b, trace = bl.train_baseline(cfg, arch, ds.x, ds.y)
        return baseline_fingerprint(W, b, trace), trace[-1]["loss"], {"W": W, "b": b}
    arch, data, hp = RUNS[name]
    ds = synth_gaussian_blobs(**data)
    state, trace = opt.train(arch, ds.x, ds.y, hp)
    blocks = {"W": state.W, "b": state.b, "z": state.z, "a": state.a}
    return fingerprint(state, trace), trace[-1].f_after, blocks


def _saved(name: str, final_f: float, blocks) -> dict[str, np.ndarray]:
    """The arrays --save writes for one run, keyed ``name:F`` and ``name:<kind><layer>``."""
    arrays = {f"{name}:F": np.array(final_f)}
    for kind, values in blocks.items():
        arrays.update((f"{name}:{kind}{i}", v) for i, v in enumerate(values))
    return arrays


def _relative(values, saved) -> float:
    """max|x - x_saved| over the pairs, over the largest |x_saved|; 0.0 when all are
    zero, and a NaN propagates."""
    gap = scale = 0.0
    for x, x_saved in zip(values, saved):
        x, x_saved = np.asarray(x, dtype=np.float64), np.asarray(x_saved, dtype=np.float64)
        gap = np.maximum(gap, np.max(np.abs(x - x_saved), initial=0.0))    # keeps a NaN
        scale = max(scale, float(np.max(np.abs(x_saved), initial=0.0)))
    return float(gap) / max(scale, np.finfo(float).tiny)


def mismatch(name: str, blocks, saved) -> str | None:
    """Why the blocks ``saved`` for run ``name`` cannot be compared with ``blocks``: a
    block not saved, a saved one this checkout does not form, or one saved in another
    shape. None when every block matches."""
    shapes = {f"{kind}{i}": np.shape(v) for kind, values in blocks.items()
              for i, v in enumerate(values)}
    held = {key.split(":", 1)[1]: v.shape for key, v in saved.items()
            if key.startswith(f"{name}:") and key != f"{name}:F"}
    for block in sorted(shapes.keys() | held.keys()):
        if block not in held:
            return f"run {name} has no saved block {block}"
        if block not in shapes:
            return f"run {name} has a saved block {block} that this checkout does not form"
        if shapes[block] != held[block]:
            return f"run {name} block {block} has shape {shapes[block]}, saved {held[block]}"
    return None


def distances(name: str, final_f: float, blocks, saved) -> dict[str, float]:
    """The run's relative difference from ``saved`` in F and in each block kind,
    whose gap and scale are the largest over its layers."""
    out = {"F": _relative([final_f], [saved[f"{name}:F"]])}
    for kind, values in blocks.items():
        out[kind] = _relative(values, [saved[f"{name}:{kind}{i}"] for i in range(len(values))])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    names = [*RUNS, *BASELINE_RUNS]
    parser.add_argument("--runs", nargs="+", choices=names, default=names)
    parser.add_argument("--save", metavar="FILE", help="write each run's final F and blocks")
    parser.add_argument("--against", metavar="FILE",
                        help="print each run's distance from the runs saved in FILE")
    args = parser.parse_args(argv)
    against = None
    if args.against is not None:
        with np.load(args.against) as file:
            against = dict(file)
        missing = [n for n in args.runs if f"{n}:F" not in against]
        if missing:
            parser.error(f"{args.against} holds no run {', '.join(missing)}")
    arrays = {}
    for name in args.runs:
        digest, final_f, blocks = run(name)
        line = f"{digest}  {name}  {final_f!r}"
        if against is not None:
            why = mismatch(name, blocks, against)
            if why is not None:
                parser.error(f"{args.against}: {why}")
            gaps = distances(name, final_f, blocks, against)
            line += "".join(f"  d{kind} {gap!r}" for kind, gap in gaps.items())
        print(line, flush=True)
        arrays.update(_saved(name, final_f, blocks))
    if args.save is not None:
        with open(args.save, "wb") as file:      # a file object: np.savez adds no suffix
            np.savez(file, **arrays)
    return 0


if __name__ == "__main__":
    sys.exit(main())
