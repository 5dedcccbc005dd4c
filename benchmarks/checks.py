"""Checks of training results, computed apart from the dlam package.

Every function here uses only numpy and the plain arrays of a result: its
own activation formulas, its own cross-entropy, its own forward pass and its
own descent-ledger arithmetic. None of them calls into dlam, so a fault in a
package formula cannot hide itself by also being used to check it. Each
check returns a list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

# Learning-rate grid the CLI is documented to search when no rate is given.
LR_GRID = (1.0, 0.3, 0.1, 0.03, 0.01)

OBJECTIVE_RTOL = 1e-9      # (a) recomputed F against the last f_after
RISE_TOL = 1e-8            # (b) largest allowed rise of f_after
LEDGER_RTOL = 1e-6         # (b) ledger slack floor, relative to max(1, |F|)
SLAB_TOL = 1e-12           # (c) float slack on |a - h(z)| <= eps


class OpFailed(Exception):
    """A training call raised, or its result failed a check."""


def activation(name: str, z: np.ndarray) -> np.ndarray:
    """h(z), written differently from the package where a choice exists."""
    if name == "relu":
        return np.where(z > 0.0, z, 0.0)
    if name == "sigmoid":
        return 0.5 * (1.0 + np.tanh(0.5 * z))
    if name == "tanh":
        return np.tanh(z)
    raise ValueError(f"unknown activation {name!r}")


def cross_entropy(z: np.ndarray, y: np.ndarray) -> float:
    """Mean over columns of -log softmax(z) at the labelled class."""
    top = z.max(axis=0)
    log_norm = top + np.log(np.exp(z - top).sum(axis=0))
    return float(np.mean(log_norm - z[y.argmax(axis=0), np.arange(z.shape[1])]))


def accuracy(W, b, x, y, acts) -> float:
    """Training accuracy from a plain forward pass."""
    cur = x
    for l, (Wl, bl) in enumerate(zip(W, b)):
        cur = Wl @ cur + bl
        if l < len(W) - 1:
            cur = activation(acts[l], cur)
    return float(np.mean(cur.argmax(axis=0) == y.argmax(axis=0)))


def objective(W, b, z, a, x, y, acts, rho: float, eps: float) -> float:
    """F = cross-entropy + (rho/2) sum ||z - W a_prev - b||^2 + slab indicator.

    Unregularized networks only, which is what every workload trains.
    """
    penalty = 0.0
    for l in range(len(W)):
        a_prev = x if l == 0 else a[l - 1]
        r = z[l] - W[l] @ a_prev - b[l]
        penalty += float(np.einsum("ij,ij->", r, r))
    if slab_violation(z, a, acts) > eps + SLAB_TOL:
        return math.inf
    return cross_entropy(z[-1], y) + 0.5 * rho * penalty


def slab_violation(z, a, acts) -> float:
    """max over hidden layers of |a - h(z)|."""
    return max((float(np.max(np.abs(a[l] - activation(acts[l], z[l])), initial=0.0))
                for l in range(len(a))), default=0.0)


def check_dlam(state, trace, rho: float, acts, floor: float) -> list[str]:
    """Checks (a) to (d) on the final state and the epoch reports of one run.

    ``state`` needs W, b, z, a, x and y; each report needs f_before, f_after,
    theta, tau, dw_sq, db_sq, dz_sq, da_sq, fista_converged, eps_used and
    eps_next.
    """
    errors = []
    last = trace[-1]
    W, b, z, a, x, y = state.W, state.b, state.z, state.a, state.x, state.y

    # (a) F rebuilt from the final state; f_after is measured before any
    # slab re-projection, so it describes the final state only without one.
    if last.eps_next == last.eps_used:
        f = objective(W, b, z, a, x, y, acts, rho, last.eps_used)
        if not abs(f - last.f_after) <= OBJECTIVE_RTOL * max(1.0, abs(last.f_after)):
            errors.append(f"(a) recomputed F {f!r} differs from f_after {last.f_after!r}")

    # (b) descent: f_after never rises, and the ledger slack stays >= 0
    prev = math.inf
    for r in trace:
        if r.f_after > min(prev, r.f_before) + RISE_TOL:
            errors.append(f"(b) F rose at epoch {r.epoch}: {r.f_after!r}")
            break
        prev = r.f_after
    for r in trace:
        if not r.fista_converged:
            continue
        rhs = (sum(0.5 * th * d for th, d in zip(r.theta, r.dw_sq))
               + 0.5 * rho * (sum(r.db_sq) + sum(r.dz_sq))
               + sum(0.5 * ta * d for ta, d in zip(r.tau, r.da_sq)))
        slack = (r.f_before - r.f_after) - rhs
        if slack < -LEDGER_RTOL * max(1.0, abs(r.f_before)):
            errors.append(f"(b) descent ledger slack {slack!r} at epoch {r.epoch}")
            break

    # (c) every hidden activation inside the slab in force after the run
    worst = slab_violation(z, a, acts)
    if worst > last.eps_next + SLAB_TOL:
        errors.append(f"(c) max|a - h(z)| = {worst!r} exceeds eps {last.eps_next!r}")

    # (d) accuracy floor
    acc = accuracy(W, b, x, y, acts)
    if acc < floor:
        errors.append(f"(d) training accuracy {acc} below the floor {floor}")
    return errors


def read_cli_run(out_dir: Path) -> tuple[list[dict], dict]:
    """trace.csv rows (as floats) and summary.json of one `dlam train` run."""
    with open(out_dir / "trace.csv", newline="") as f:
        rows = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(f)]
    with open(out_dir / "summary.json") as f:
        summary = json.load(f)
    return rows, summary


def check_cli(rows: list[dict], summary: dict, epochs: int, classes: int,
              floor: float) -> list[str]:
    """Check (e) on the files a baseline `dlam train` run wrote."""
    errors = []
    if [r["epoch"] for r in rows] != list(range(epochs)):
        errors.append(f"(e) trace.csv has {len(rows)} rows, expected epochs 0..{epochs - 1}")
    if not all(math.isfinite(v) for r in rows for v in r.values()):
        errors.append("(e) trace.csv holds a non-finite value")
    if summary["config"]["lr"] not in LR_GRID:
        errors.append(f"(e) learning rate {summary['config']['lr']} is not in the grid")
    if not rows:
        return errors
    if not rows[-1]["F"] < math.log(classes):
        errors.append(f"(e) final cross-entropy {rows[-1]['F']} is not below ln({classes})")
    if rows[-1]["train_acc"] < floor:
        errors.append(f"(e) training accuracy {rows[-1]['train_acc']} below the floor {floor}")
    return errors
