"""Experiment runner: train/scale/plot subcommands over a flat config format.

``train`` runs one optimizer on one dataset and writes trace.csv,
diagnostics.csv (alternating trainer only), and summary.json into the output
directory. ``scale`` times the trainer over a sample-size x rho grid.
``plot`` renders trace CSVs into self-contained SVG line charts. Config
files are flat ``key = value`` lines; command-line flags override them.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from . import baselines, data_io, diagnostics, network_state as ns, objective as obj
from . import optimizer as opt

DATASETS = ("mnist", "fashion", "blobs")
OPTIMIZERS = ("dlam", "sgd", "adagrad", "adadelta")


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    dataset: str = "mnist"
    data_dir: str = ""
    hidden: str = "100,100"
    activation: str = "relu"
    optimizer: str = "dlam"
    rho: float = 1e-4
    eps0: float = 10.0
    gamma: float = 2.0
    eta: float = 2.0
    alpha0: float = 1e-3
    fista_iters: int = 50
    fista_tol: float = 1e-8
    max_backtrack: int = 60
    epochs: int = 150
    reg: str = "none"
    reg_weight: float = 0.0
    lr: float = 0.0            # 0 means grid-search per baseline
    adagrad_eps: float = 1e-8
    adadelta_rho: float = 0.95
    adadelta_eps: float = 1e-6
    subset_size: int = 0       # 0 means the full split
    train_count: int = 55000   # cap applied to the mnist train split
    blobs_classes: int = 4
    blobs_features: int = 30
    blobs_per_class: int = 50
    blobs_noise: float = 0.08
    seed: int = 0
    out_dir: str = "runs/out"

    def validate(self) -> None:
        if self.dataset not in DATASETS:
            raise ConfigError(f"unknown dataset {self.dataset!r}; choose from {', '.join(DATASETS)}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(
                f"unknown optimizer {self.optimizer!r}; choose from {', '.join(OPTIMIZERS)}"
            )
        if self.dataset in ("mnist", "fashion") and not self.data_dir:
            raise ConfigError(f"dataset {self.dataset!r} needs --data-dir with IDX files")
        for size in self.hidden_sizes():
            if size < 1:
                raise ConfigError("hidden sizes must be >= 1")
        try:
            ns.ActivationKind(self.activation)
            ns.RegKind(self.reg)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def hidden_sizes(self) -> list[int]:
        try:
            return [int(part) for part in self.hidden.split(",") if part.strip()]
        except ValueError:
            raise ConfigError(f"bad hidden spec {self.hidden!r}; expected e.g. 100,100") from None

    def _build(self, cls, **given):
        """``cls`` from this config's fields of the same names, then ``given``."""
        shared = {f.name: getattr(self, f.name) for f in fields(cls) if f.name in FIELD_TYPES}
        return cls(**{**shared, **given})

    def hyper_params(self) -> obj.HyperParams:
        return self._build(obj.HyperParams)

    def baseline_config(self) -> baselines.BaselineConfig:
        return self._build(baselines.BaselineConfig,
                           kind=baselines.BaselineKind(self.optimizer))

    def architecture(self, features: int, classes: int) -> ns.Architecture:
        return self._build(ns.Architecture,
                           layer_sizes=(features, *self.hidden_sizes(), classes),
                           activation=ns.ActivationKind(self.activation),
                           regularizer=ns.RegKind(self.reg))


# every config key, with the type its value is parsed to (that of its default)
FIELD_TYPES = {f.name: type(f.default) for f in fields(RunConfig)}
# spellings kept from before the flags were generated from the keys
FLAG_ALIASES = {"subset_size": "--subset", "out_dir": "--out"}


def parse_config_file(path: str) -> dict:
    """Flat ``key = value`` lines; '#' starts a comment."""
    values: dict = {}
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def _coerce(values: dict) -> dict:
    out = {}
    for key, raw in values.items():
        try:
            out[key] = FIELD_TYPES[key](raw)
        except ValueError:
            raise ConfigError(f"bad value {raw!r} for {key}") from None
    return out


def build_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if getattr(args, "config", None):
        values.update(_coerce(parse_config_file(args.config)))
    for key in FIELD_TYPES:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg


def load_dataset(cfg: RunConfig) -> tuple[data_io.Dataset, data_io.Dataset | None]:
    """Train split (subset applied) plus the test split when one exists."""
    if cfg.dataset == "blobs":
        train = data_io.synth_gaussian_blobs(cfg.blobs_classes, cfg.blobs_features,
                                             cfg.blobs_per_class, cfg.seed,
                                             noise=cfg.blobs_noise)
        test = data_io.synth_gaussian_blobs(cfg.blobs_classes, cfg.blobs_features,
                                            max(cfg.blobs_per_class // 4, 1),
                                            cfg.seed, noise=cfg.blobs_noise,
                                            split="test")
        if cfg.subset_size:
            train = data_io.take_subset(train, cfg.subset_size, cfg.seed)
        return train, test
    root = Path(cfg.data_dir)
    names = {
        "train_images": "train-images-idx3-ubyte",
        "train_labels": "train-labels-idx1-ubyte",
        "test_images": "t10k-images-idx3-ubyte",
        "test_labels": "t10k-labels-idx1-ubyte",
    }

    def find(stem: str) -> str:
        for suffix in ("", ".gz"):
            candidate = root / (stem + suffix)
            if candidate.exists():
                return str(candidate)
        raise ConfigError(f"missing {stem}[.gz] under {root}")

    train = data_io.load_idx(find(names["train_images"]), find(names["train_labels"]),
                             name=cfg.dataset, split="train")
    test = data_io.load_idx(find(names["test_images"]), find(names["test_labels"]),
                            name=cfg.dataset, split="test")
    if cfg.dataset == "mnist":
        if cfg.train_count and cfg.train_count < train.n_samples:
            train = data_io.take_subset(train, cfg.train_count, cfg.seed)
        train = data_io.downsample_196(train)
        test = data_io.downsample_196(test)
    if cfg.subset_size:
        train = data_io.take_subset(train, cfg.subset_size, cfg.seed)
    return train, test


def _git_describe() -> str:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def _write_trace(path: Path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["epoch", "F", "train_acc", "test_acc", "wall_time_s"])
        for row in rows:
            writer.writerow([row["epoch"], repr(row["F"]), repr(row["train_acc"]),
                             repr(row["test_acc"]), repr(row["wall_time_s"])])


def run(cfg: RunConfig) -> int:
    """Execute one training run and write trace/diagnostics/summary files."""
    cfg.validate()
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    train_ds, test_ds = load_dataset(cfg)
    arch = cfg.architecture(train_ds.features, train_ds.classes)
    rows: list[dict] = []

    if cfg.optimizer == "dlam":
        hp = cfg.hyper_params()

        def per_epoch(state, report):
            logits = ns.forward_logits(arch, state.W, state.b, train_ds.x)
            train_acc = obj.accuracy_from_logits(logits, train_ds.y)
            test_acc = math.nan
            if test_ds is not None:
                test_logits = ns.forward_logits(arch, state.W, state.b, test_ds.x)
                test_acc = obj.accuracy_from_logits(test_logits, test_ds.y)
            rows.append({"epoch": report.epoch, "F": report.f_after,
                         "train_acc": train_acc, "test_acc": test_acc,
                         "wall_time_s": report.wall_time_s})

        state, trace = opt.train(arch, train_ds.x, train_ds.y, hp, per_epoch=per_epoch)
        diagnostics.write_diagnostics_csv(trace, hp.rho, str(out_dir / "diagnostics.csv"))
    else:
        if cfg.lr == 0.0:
            probe = train_ds
            if probe.n_samples > 5000:
                probe = data_io.take_subset(probe, 5000, cfg.seed)
            cfg.lr = baselines.select_learning_rate(baselines.BaselineKind(cfg.optimizer),
                                                    arch, probe.x, probe.y, seed=cfg.seed)
        bcfg = cfg.baseline_config()

        def per_epoch(W, b, record):
            test_acc = math.nan
            if test_ds is not None:
                logits = ns.forward_logits(arch, W, b, test_ds.x)
                test_acc = obj.accuracy_from_logits(logits, test_ds.y)
            rows.append({"epoch": record["epoch"], "F": record["loss"],
                         "train_acc": record["train_acc"], "test_acc": test_acc,
                         "wall_time_s": record["wall_time_s"]})

        baselines.train_baseline(bcfg, arch, train_ds.x, train_ds.y, per_epoch=per_epoch)

    _write_trace(out_dir / "trace.csv", rows)
    summary = {
        "config": asdict(cfg),
        "seed": cfg.seed,
        "git_describe": _git_describe(),
        "dataset": {"name": train_ds.name, "train_samples": train_ds.n_samples,
                    "features": train_ds.features, "classes": train_ds.classes},
        "final": rows[-1] if rows else None,
    }
    with open(out_dir / "summary.json", "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
    return 0


def scaling_table(cfg: RunConfig, sizes: list[int], rhos: list[float]) -> Path:
    """Mean per-epoch wall time over a sample-size x rho grid; writes a CSV."""
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    base = load_dataset(cfg)[0]
    if max(sizes) > base.n_samples:
        raise ConfigError(f"largest size {max(sizes)} exceeds dataset ({base.n_samples})")
    arch = cfg.architecture(base.features, base.classes)
    table: list[list[float]] = []
    for rho in rhos:
        hp = replace(cfg.hyper_params(), rho=rho)
        row = []
        for size in sizes:
            sub = data_io.take_subset(base, size, cfg.seed)
            t0 = time.perf_counter()
            opt.train(arch, sub.x, sub.y, hp)
            row.append((time.perf_counter() - t0) / max(hp.epochs, 1))
        table.append(row)
    path = out_dir / "scaling.csv"
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["rho"] + [str(s) for s in sizes])
        for rho, row in zip(rhos, table):
            writer.writerow([repr(rho)] + [f"{v:.6f}" for v in row])
    return path


# minimal SVG line charts; deterministic output, no plotting dependency

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _svg_chart(series, title: str, ylabel: str, path: Path) -> None:
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
        color = _PALETTE[idx % len(_PALETTE)]
        points = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in zip(xs, ys)
                          if math.isfinite(y))
        dash = ' stroke-dasharray="6,4"' if dashed else ""
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5"'
                     f'{dash} points="{points}"/>')
        ly = pad + 16 * idx
        parts.append(f'<line x1="{width - pad - 150}" y1="{ly}" x2="{width - pad - 120}" '
                     f'y2="{ly}" stroke="{color}" stroke-width="1.5"{dash}/>')
        parts.append(f'<text x="{width - pad - 114}" y="{ly + 4}" font-size="11">{label}</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts))


def _read_trace(path: str) -> dict:
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        rows = list(reader)
    if not rows:
        raise ValueError(f"{path}: trace is empty")
    return {
        "epoch": [int(r["epoch"]) for r in rows],
        "F": [float(r["F"]) for r in rows],
        "train_acc": [float(r["train_acc"]) for r in rows],
        "test_acc": [float(r["test_acc"]) for r in rows],
    }


def plot_traces(trace_paths: list[str], labels: list[str], out_dir: str) -> list[Path]:
    """Write objective.svg (log10 objective) and accuracy.svg from trace CSVs."""
    traces = [_read_trace(p) for p in trace_paths]
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
    _svg_chart(obj_series, "objective vs epoch", "log10 objective", obj_path)
    _svg_chart(acc_series, "accuracy vs epoch", "accuracy", acc_path)
    return [obj_path, acc_path]


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per config key: ``--key-name``, parsed like the key's default."""
    parser.add_argument("--config", help="flat key = value config file")
    for f in fields(RunConfig):
        names = ["--" + f.name.replace("_", "-")]
        if f.name in FLAG_ALIASES:
            names.append(FLAG_ALIASES[f.name])
        parser.add_argument(*names, dest=f.name, type=FIELD_TYPES[f.name],
                            help=f"default {f.default!r}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="dlam", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one optimizer on one dataset")
    _add_config_flags(p_train)

    p_scale = sub.add_parser("scale", help="time training over a size x rho grid")
    _add_config_flags(p_scale)
    p_scale.add_argument("--sizes", required=True, help="comma-separated sample counts")
    p_scale.add_argument("--rhos", required=True, help="comma-separated rho values")

    p_plot = sub.add_parser("plot", help="render trace CSVs to SVG charts")
    p_plot.add_argument("--in", dest="traces", required=True, nargs="+")
    p_plot.add_argument("--labels", nargs="+")
    p_plot.add_argument("--out", dest="out_dir", required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "train":
            return run(build_config(args))
        if args.command == "scale":
            cfg = build_config(args)
            sizes = [int(s) for s in args.sizes.split(",")]
            rhos = [float(r) for r in args.rhos.split(",")]
            path = scaling_table(cfg, sizes, rhos)
            print(path)
            return 0
        if args.command == "plot":
            labels = args.labels or [Path(p).parent.name for p in args.traces]
            if len(labels) != len(args.traces):
                raise ConfigError("--labels must match the number of traces")
            for path in plot_traces(args.traces, labels, args.out_dir):
                print(path)
            return 0
    except (ValueError, OSError, opt.BacktrackError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
