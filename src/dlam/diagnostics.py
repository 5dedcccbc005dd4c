"""Convergence certificates computed from the per-epoch trace.

Nothing here proves anything; these functions turn the trace into numbers
that either match the theory's guarantees (descent ledger, b-gradient
identity) or expose its predicted trends (running-minimum descent series,
boundedness), so a run can be audited after the fact. Reports are consumed
duck-typed: any object with the EpochReport attributes works.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np


@dataclass
class CkSeries:
    """Running minimum of the per-epoch descent bound and its k-scaled version.

    c is nonincreasing and nonnegative by construction; k_times_c trending
    down is the observable signature of the faster-than-1/k decay.
    """

    c: list[float]
    k_times_c: list[float]


@dataclass
class BoundednessRecord:
    max_norm_per_block: dict
    f_min: float
    f_monotone: bool


def descent_ledger(report, rho: float) -> tuple[float, float, float]:
    """(lhs, rhs, margin) for one epoch: measured drop vs. guaranteed drop.

    lhs is the actual objective decrease, rhs the four-term movement bound,
    margin their difference; the theory promises margin >= 0 up to float
    noise whenever the output-layer solve ran to convergence.
    """
    lhs = report.f_before - report.f_after
    rhs = sum(0.5 * th * d for th, d in zip(report.theta, report.dw_sq))
    rhs += 0.5 * rho * sum(report.db_sq)
    rhs += 0.5 * rho * sum(report.dz_sq)
    rhs += sum(0.5 * ta * d for ta, d in zip(report.tau, report.da_sq))
    return lhs, rhs, lhs - rhs


def ck_series(trace, rho: float) -> CkSeries:
    """Running minimum over epochs of the descent bound, plus k * c_k."""
    if not trace:
        raise ValueError("trace must contain at least one epoch")
    c: list[float] = []
    best = np.inf
    for report in trace:
        _, rhs, _ = descent_ledger(report, rho)
        best = min(best, rhs)
        c.append(best)
    k_times_c = [(i + 1) * v for i, v in enumerate(c)]
    return CkSeries(c=c, k_times_c=k_times_c)


def grad_b_layer_error(grad_b: np.ndarray, mean_move: np.ndarray, n: int, rho: float) -> float:
    """Max deviation of one layer's intercept gradient from rho * mean(z_old - z_new).

    The intercept step is an exact minimizer, so the post-step penalty
    gradient with respect to b collapses to the mean pre-activation
    movement; the returned value is zero up to rounding on a clean epoch.
    ``grad_b`` is the b gradient rho rowsum(R) of the layer's coupling
    residual R after the step, ``mean_move`` the row means of the
    pre-activation's movement z_new - z_old and ``n`` the batch size. Uses
    the per-sample mean convention on both sides.
    """
    return float(np.max(np.abs(grad_b / n + rho * mean_move)))


def subgradient_ratio_series(trace) -> list[float]:
    """Per-epoch ratio of the smooth gradient-norm proxy to block movement.

    The theory bounds the objective subgradient at each new iterate by a
    constant times the total block movement; the constant has no formula, so
    this series is logged for inspection rather than asserted against a
    bound. The movement sums the step lengths ||d|| of every block step, so
    a W block contributes each of its inner steps, not the length of its net
    move. A zero-movement epoch with a zero proxy reports 0.
    """
    out = []
    for report in trace:
        moved = (sum(math.sqrt(v) for v in report.dw_sq)
                 + sum(math.sqrt(v) for v in report.db_sq)
                 + sum(math.sqrt(v) for v in report.dz_sq)
                 + sum(math.sqrt(v) for v in report.da_sq))
        if moved == 0.0:
            out.append(0.0 if report.grad_norm_proxy == 0.0 else math.inf)
        else:
            out.append(report.grad_norm_proxy / moved)
    return out


def boundedness_record(trace) -> BoundednessRecord:
    """Running block-norm maxima, the objective floor, and a monotonicity flag.

    f_monotone checks both that the objective never rose across an epoch and
    that the epoch-end values never increased, with 1e-8 absolute slack. A
    zero-epoch trace gives no maxima and an infinite floor.
    """
    maxima: dict = {}
    f_values: list[float] = []
    monotone = True
    for report in trace:
        for key, val in report.block_norms.items():
            maxima[key] = max(maxima.get(key, 0.0), val)
        if report.f_after > report.f_before + 1e-8:
            monotone = False
        f_values.append(report.f_after)
    for prev, cur in zip(f_values, f_values[1:]):
        if cur > prev + 1e-8:
            monotone = False
    f_min = min(f_values) if f_values else np.inf
    return BoundednessRecord(max_norm_per_block=maxima, f_min=f_min, f_monotone=monotone)


def write_diagnostics_csv(trace, rho: float, path: str) -> None:
    """Emit the per-epoch certificate table."""
    series = ck_series(trace, rho) if trace else CkSeries([], [])
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["epoch", "F", "lhs", "rhs", "margin", "c_k", "k_ck", "eps",
                         "feas_residual", "max_block_norm", "grad_b_err", "wall_time_s"])
        for i, report in enumerate(trace):
            lhs, rhs, margin = descent_ledger(report, rho)
            writer.writerow([
                report.epoch,
                repr(report.f_after),
                repr(lhs),
                repr(rhs),
                repr(margin),
                repr(series.c[i]),
                repr(series.k_times_c[i]),
                repr(report.eps_used),
                repr(report.feasibility_residual),
                repr(max(report.block_norms.values())),
                repr(report.grad_b_err),
                repr(report.wall_time_s),
            ])
