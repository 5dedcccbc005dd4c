"""Experiment runner: train and scale subcommands over a flat config format.

``train`` runs one optimizer on one dataset and writes trace.csv,
diagnostics.csv (alternating trainer only), and summary.json into the output
directory; trace.csv's ``train_risk`` is the cross-entropy of the network's
forward pass on the training split, which for a baseline is its loss F.
``scale`` times the trainer over a sample-size x rho grid. Config
files are flat ``key = value`` lines; command-line flags override them.
"""

from __future__ import annotations

import argparse
import csv
import json
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from . import baselines, data_io, diagnostics, network_state as ns, objective as obj
from . import optimizer as opt

DATASETS = ("mnist", "fashion", "blobs")
MNIST_TRAIN = 55_000       # the paper's mnist train split, a seeded subset of the file's
OPTIMIZERS = ("dlam", *(k.value for k in baselines.BaselineKind))


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    dataset: str = "mnist"
    data_dir: str = ""
    hidden: str = "100,100"
    activation: str = "relu"
    optimizer: str = "dlam"
    rho: float = obj.HyperParams.rho
    eps0: float = obj.HyperParams.eps0
    epochs: int = obj.HyperParams.epochs
    reg: str = "none"
    reg_weight: float = ns.Architecture.reg_weight
    lr: float = 0.0            # 0 means grid-search per baseline
    subset_size: int = 0       # 0 means the full split
    blobs_classes: int = 4
    blobs_features: int = 30
    blobs_per_class: int = 50
    blobs_noise: float = 0.08
    seed: int = obj.HyperParams.seed
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
        if self.subset_size < 0:
            raise ConfigError("subset_size must be >= 0")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        # the dataclasses check their own fields; build them before any data loads
        self.architecture(1, 1)
        if self.optimizer == "dlam":
            self.hyper_params()
        else:
            self.baseline_config()
        if self.reg_weight and self.reg == "none":
            raise ConfigError("reg_weight needs reg l1 or l2")
        # a key the chosen optimizer or dataset never reads must keep its default
        blobs = ("blobs_classes", "blobs_features", "blobs_per_class", "blobs_noise")
        by_dataset = ("data_dir",) if self.dataset == "blobs" else blobs
        by_optimizer = ("lr",) if self.optimizer == "dlam" else ("rho", "eps0", "reg", "reg_weight")
        for ignored, reader in ((by_optimizer, f"{self.optimizer} optimizer"),
                                (by_dataset, f"{self.dataset} dataset")):
            unread = [f.name for f in fields(self)
                      if f.name in ignored and getattr(self, f.name) != f.default]
            if unread:
                raise ConfigError(f"{', '.join(unread)} not read by the {reader}")

    def hidden_sizes(self) -> list[int]:
        try:
            return [int(part) for part in self.hidden.split(",")]
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
                           activation=self.activation, regularizer=self.reg)


# every config key, with the type its value is parsed to (that of its default)
FIELD_TYPES = {f.name: type(f.default) for f in fields(RunConfig)}
# spellings kept from before the flags were generated from the keys
FLAG_ALIASES = {"subset_size": "--subset", "out_dir": "--out"}


def parse_config_file(path: str) -> dict:
    """Flat ``key = value`` lines, each value parsed to its key's type (FIELD_TYPES);
    '#' starts a comment; a key may appear once."""
    values, first_line = {}, {}
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
        if key in first_line:
            raise ConfigError(f"{path}:{lineno}: key {key!r} already set on line {first_line[key]}")
        value = value.strip()
        try:
            values[key] = FIELD_TYPES[key](value)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad value {value!r} for {key}") from None
        first_line[key] = lineno
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if getattr(args, "config", None):
        values.update(parse_config_file(args.config))
    for key in FIELD_TYPES:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg


def load_dataset(cfg: RunConfig) -> tuple[data_io.Dataset, data_io.Dataset]:
    """Train split (subset applied) and test split."""
    if cfg.dataset == "blobs":
        train, test = (data_io.synth_gaussian_blobs(cfg.blobs_classes, cfg.blobs_features,
                                                    per_class, cfg.seed, noise=cfg.blobs_noise,
                                                    split=split)
                       for per_class, split in ((cfg.blobs_per_class, "train"),
                                                (max(cfg.blobs_per_class // 4, 1), "test")))
    else:
        root = Path(cfg.data_dir)

        def find(stem: str) -> str:
            for suffix in ("", ".gz"):
                candidate = root / (stem + suffix)
                if candidate.exists():
                    return str(candidate)
            raise ConfigError(f"missing {stem}[.gz] under {root}")

        train, test = (data_io.load_idx(find(f"{prefix}-images-idx3-ubyte"),
                                        find(f"{prefix}-labels-idx1-ubyte"),
                                        name=cfg.dataset, split=split)
                       for prefix, split in (("train", "train"), ("t10k", "test")))
        if cfg.dataset == "mnist":
            if train.n_samples > MNIST_TRAIN:
                train = data_io.take_subset(train, MNIST_TRAIN, cfg.seed)
            train = data_io.downsample_196(train)
            test = data_io.downsample_196(test)
    if cfg.subset_size:
        train = data_io.take_subset(train, cfg.subset_size, cfg.seed)
    return train, test


def _git_describe() -> str:
    """``git describe`` of the checkout this package is imported from, not of the cwd."""
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=Path(__file__).resolve().parent,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):     # no git, or a hung one
        pass
    return "unknown"


def _output(cfg: RunConfig, name: str) -> Path:
    """``name`` under the run's output directory, made here: a failed run makes none."""
    Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
    return Path(cfg.out_dir) / name


def _write_trace(path: Path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["epoch", "F", "train_acc", "test_acc", "wall_time_s", "train_risk"])
        for row in rows:
            writer.writerow([row["epoch"], repr(row["F"]), repr(row["train_acc"]),
                             repr(row["test_acc"]), repr(row["wall_time_s"]),
                             repr(row["train_risk"])])


def run(cfg: RunConfig) -> int:
    """Execute one training run and write trace/diagnostics/summary files."""
    cfg.validate()
    train_ds, test_ds = load_dataset(cfg)
    arch = cfg.architecture(train_ds.features, train_ds.classes)
    rows: list[dict] = []

    def test_acc(W, b):
        return obj.accuracy_from_logits(ns.forward_logits(arch, W, b, test_ds.x), test_ds.y)

    if cfg.optimizer == "dlam":
        hp = cfg.hyper_params()

        def per_epoch(state, report):
            logits = ns.forward_logits(arch, state.W, state.b, train_ds.x)
            rows.append({"epoch": report.epoch, "F": report.f_after,
                         "train_acc": obj.accuracy_from_logits(logits, train_ds.y),
                         "test_acc": test_acc(state.W, state.b),
                         "wall_time_s": report.wall_time_s,
                         "train_risk": obj.risk_cross_entropy(logits, train_ds.y)})

        state, trace = opt.train(arch, train_ds.x, train_ds.y, hp, per_epoch=per_epoch)
        diagnostics.write_diagnostics_csv(trace, hp.rho, str(_output(cfg, "diagnostics.csv")))
    else:
        if cfg.lr == 0.0:
            probe = train_ds
            if probe.n_samples > 5000:
                probe = data_io.take_subset(probe, 5000, cfg.seed)
            # the chosen rate goes into a copy: the caller's config still asks for the search
            cfg = replace(cfg, lr=baselines.select_learning_rate(
                baselines.BaselineKind(cfg.optimizer), arch, probe.x, probe.y, seed=cfg.seed))

        def per_epoch(W, b, record):
            rows.append({"epoch": record["epoch"], "F": record["loss"],
                         "train_acc": record["train_acc"], "test_acc": test_acc(W, b),
                         "wall_time_s": record["wall_time_s"], "train_risk": record["loss"]})

        baselines.train_baseline(cfg.baseline_config(), arch, train_ds.x, train_ds.y,
                                 per_epoch=per_epoch)

    _write_trace(_output(cfg, "trace.csv"), rows)
    summary = {
        "config": asdict(cfg),
        "git_describe": _git_describe(),
        "dataset": {"name": train_ds.name, "train_samples": train_ds.n_samples,
                    "features": train_ds.features, "classes": train_ds.classes},
        "final": rows[-1],
    }
    with open(_output(cfg, "summary.json"), "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
    return 0


def scaling_table(cfg: RunConfig, sizes: list[int], rhos: list[float]) -> Path:
    """Mean per-epoch wall time of the dlam trainer over a size x rho grid; writes a CSV."""
    cfg.validate()
    if cfg.optimizer != "dlam":
        raise ConfigError(f"scale times the dlam trainer only, not {cfg.optimizer!r}")
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
            row.append((time.perf_counter() - t0) / hp.epochs)
        table.append(row)
    path = _output(cfg, "scaling.csv")
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["rho"] + [str(s) for s in sizes])
        for rho, row in zip(rhos, table):
            writer.writerow([repr(rho)] + [f"{v:.6f}" for v in row])
    return path


def _parse_list(flag: str, text: str, kind) -> list:
    """A comma-separated flag value as a list of ``kind``; a bad item names the flag."""
    try:
        return [kind(item) for item in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


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

    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
        if args.command == "train":
            return run(cfg)
        sizes = _parse_list("--sizes", args.sizes, int)
        rhos = _parse_list("--rhos", args.rhos, float)
        print(scaling_table(cfg, sizes, rhos))
        return 0
    except (ValueError, OSError, opt.BacktrackError, ns.NonFiniteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
