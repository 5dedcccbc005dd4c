#!/usr/bin/env python3
"""Render ``trace.csv`` files from ``dlam train`` as SVG line charts.

    python scripts/plot_traces.py --in runs/mnist5k/trace.csv runs/ag/trace.csv \\
        --labels dlam adagrad --out runs/plots

Writes ``objective.svg`` (log10 objective vs epoch, one line per trace) and
``accuracy.svg`` (train accuracy solid, test accuracy dashed) into ``--out``
and prints both paths. Labels default to each trace's directory name and
are escaped, so any text is valid in the SVG. The output is deterministic
and the script needs only the standard library. A trace without the
``epoch``, ``F``, ``train_acc`` and ``test_acc`` columns (such as
``diagnostics.csv``) ends in ``error: ...`` on stderr and exit code 2, and
no chart is written.
"""

from __future__ import annotations

import argparse
import csv
import html
import math
import sys
from pathlib import Path

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def svg_chart(series, title: str, ylabel: str, path: Path) -> None:
    """One chart of ``(label, xs, ys, dashed)`` series; non-finite ys are skipped."""
    width, height, pad = 800, 500, 60
    xs_all = [x for _, xs, _, _ in series for x in xs]
    ys_all = [y for _, _, ys, _ in series for y in ys if math.isfinite(y)]
    if not xs_all or not ys_all:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1
    if y_hi == y_lo:
        y_hi = y_lo + 1

    def px(x):
        return pad + (x - x_lo) / (x_hi - x_lo) * (width - 2 * pad)

    def py(y):
        return height - pad - (y - y_lo) / (y_hi - y_lo) * (height - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" font-size="16">{title}</text>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 12}" text-anchor="middle" font-size="12">epoch</text>',
        f'<text x="16" y="{height / 2:.1f}" font-size="12" '
        f'transform="rotate(-90 16 {height / 2:.1f})" text-anchor="middle">{ylabel}</text>',
    ]
    for i in range(5):
        xv = x_lo + i * (x_hi - x_lo) / 4
        yv = y_lo + i * (y_hi - y_lo) / 4
        parts.append(f'<text x="{px(xv):.1f}" y="{height - pad + 16}" text-anchor="middle" '
                     f'font-size="10">{xv:.4g}</text>')
        parts.append(f'<text x="{pad - 6}" y="{py(yv) + 3:.1f}" text-anchor="end" '
                     f'font-size="10">{yv:.4g}</text>')
        parts.append(f'<line x1="{pad}" y1="{py(yv):.1f}" x2="{width - pad}" '
                     f'y2="{py(yv):.1f}" stroke="#dddddd"/>')
    for idx, (label, xs, ys, dashed) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        points = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in zip(xs, ys)
                          if math.isfinite(y))
        dash = ' stroke-dasharray="6,4"' if dashed else ""
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5"'
                     f'{dash} points="{points}"/>')
        ly = pad + 16 * idx
        parts.append(f'<line x1="{width - pad - 150}" y1="{ly}" x2="{width - pad - 120}" '
                     f'y2="{ly}" stroke="{color}" stroke-width="1.5"{dash}/>')
        parts.append(f'<text x="{width - pad - 114}" y="{ly + 4}" font-size="11">'
                     f'{html.escape(label)}</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts))


def read_trace(path: str) -> dict:
    """The plotted columns of one trace CSV, parsed; ValueError if any is missing."""
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        rows = list(reader)
    if not rows:
        raise ValueError(f"{path}: trace is empty")
    columns = {"epoch": int, "F": float, "train_acc": float, "test_acc": float}
    for name in columns:
        if name not in reader.fieldnames:
            raise ValueError(f"{path}: missing column {name!r}")
    return {name: [kind(r[name]) for r in rows] for name, kind in columns.items()}


def plot_traces(trace_paths: list[str], labels: list[str], out_dir: str) -> list[Path]:
    """Write objective.svg (log10 objective) and accuracy.svg from trace CSVs."""
    traces = [read_trace(p) for p in trace_paths]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    obj_series = []
    acc_series = []
    for label, tr in zip(labels, traces):
        logf = [math.log10(max(v, 1e-300)) for v in tr["F"]]
        obj_series.append((label, tr["epoch"], logf, False))
        acc_series.append((f"{label} train", tr["epoch"], tr["train_acc"], False))
        if any(math.isfinite(v) for v in tr["test_acc"]):
            acc_series.append((f"{label} test", tr["epoch"], tr["test_acc"], True))
    obj_path = out / "objective.svg"
    acc_path = out / "accuracy.svg"
    svg_chart(obj_series, "objective vs epoch", "log10 objective", obj_path)
    svg_chart(acc_series, "accuracy vs epoch", "accuracy", acc_path)
    return [obj_path, acc_path]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--in", dest="traces", required=True, nargs="+")
    parser.add_argument("--labels", nargs="+")
    parser.add_argument("--out", dest="out_dir", required=True)
    args = parser.parse_args(argv)
    labels = args.labels or [Path(p).parent.name for p in args.traces]
    try:
        if len(labels) != len(args.traces):
            raise ValueError("--labels must match the number of traces")
        for path in plot_traces(args.traces, labels, args.out_dir):
            print(path)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
