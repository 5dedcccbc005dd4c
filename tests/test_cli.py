import csv
import dataclasses
import gzip
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dlam import baselines as bl
from dlam import cli
from dlam import network_state as ns
from dlam import objective as obj
from dlam import optimizer as opt
from dlam import data_io
from conftest import damaged_gzip, nan_before_epoch


def _read_rows(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def _strip_wall_time(path):
    rows = _read_rows(path)
    drop = rows[0].index("wall_time_s")
    return [tuple(v for i, v in enumerate(r) if i != drop) for r in rows]


BLOBS_ARGS = ["--dataset", "blobs", "--hidden", "8", "--epochs", "6",
              "--rho", "0.01", "--seed", "3"]


class TestConfigParsing:
    def test_file_plus_overrides(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("dataset = blobs\nepochs = 9   # comment\nrho = 0.5\n")
        parsed = cli.parse_config_file(str(cfg_file))
        assert parsed == {"dataset": "blobs", "epochs": 9, "rho": 0.5}
        assert type(parsed["epochs"]) is int

    def test_unknown_key_rejected(self, tmp_path):
        # solver constants are not config keys, nor is the mnist cap MNIST_TRAIN
        cfg_file = tmp_path / "run.cfg"
        for key in ("nonsense", "gamma", "fista_iters", "train_count"):
            cfg_file.write_text(f"dataset = blobs\n{key} = 10\n")
            with pytest.raises(cli.ConfigError) as err:
                cli.parse_config_file(str(cfg_file))
            assert str(err.value) == f"{cfg_file}:2: unknown key '{key}'"

    def test_repeated_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("epochs = 2\n# more\nepochs = 3\n")
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config_file(str(cfg_file))
        assert str(err.value) == f"{cfg_file}:3: key 'epochs' already set on line 1"

    def test_repeated_key_fails_a_run(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("dataset = blobs\nepochs = 2\nepochs = 3\n")
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(cfg_file), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {cfg_file}:3: key 'epochs' already set on line 2\n"
        assert not (out / "trace.csv").exists()

    def test_bad_value_names_its_line(self, tmp_path, capsys):
        # a value that does not parse to its key's type is a config-file error
        # like any other, named by file and line
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("dataset = blobs\nepochs = two\n")
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(cfg_file), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {cfg_file}:2: bad value 'two' for epochs\n"
        assert not (out / "trace.csv").exists()

    def test_validation_messages(self):
        cfg = cli.RunConfig(dataset="blobs", optimizer="sgdx")
        with pytest.raises(cli.ConfigError) as err:
            cfg.validate()
        assert "dlam" in str(err.value) and "adadelta" in str(err.value)

    def test_mnist_requires_data_dir(self):
        cfg = cli.RunConfig(dataset="mnist", data_dir="")
        with pytest.raises(cli.ConfigError, match="data-dir"):
            cfg.validate()

    def test_bad_hidden_spec(self):
        cfg = cli.RunConfig(dataset="blobs", hidden="10,x")
        with pytest.raises(cli.ConfigError, match="hidden"):
            cfg.hidden_sizes()

    @pytest.mark.parametrize("spec", ["8,,8", "8,", ","])
    def test_empty_hidden_item_fails_a_run(self, tmp_path, capsys, spec):
        out = tmp_path / "run"
        code = cli.main(["train", "--dataset", "blobs", "--hidden", spec, "--epochs", "1",
                         "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: bad hidden spec {spec!r}; expected e.g. 100,100\n"
        assert not (out / "trace.csv").exists()

    def test_negative_subset_size_rejected(self):
        cfg = cli.RunConfig(dataset="blobs", subset_size=-5)
        with pytest.raises(cli.ConfigError, match="^subset_size must be >= 0$"):
            cfg.validate()

    @pytest.mark.parametrize("optimizer,given,unread", [
        ("dlam", {"lr": 0.1}, "lr"),
        *[(kind, given, unread) for kind in ("sgd", "adagrad", "adadelta")
          for given, unread in (({"rho": 0.01}, "rho"), ({"eps0": 1.0}, "eps0"),
                                ({"reg": "l2"}, "reg"),
                                ({"reg": "l1", "reg_weight": 0.5}, "reg, reg_weight"))]])
    def test_unread_key_rejected(self, optimizer, given, unread):
        cfg = cli.RunConfig(dataset="blobs", optimizer=optimizer, **given)
        with pytest.raises(cli.ConfigError,
                           match=f"^{unread} not read by the {optimizer} optimizer$"):
            cfg.validate()

    @pytest.mark.parametrize("dataset,given,unread", [
        ("blobs", {"data_dir": "idx"}, "data_dir"),
        ("mnist", {"blobs_classes": 3}, "blobs_classes"),
        ("mnist", {"blobs_features": 5}, "blobs_features"),
        ("fashion", {"blobs_per_class": 7}, "blobs_per_class"),
        ("mnist", {"blobs_noise": 0.5}, "blobs_noise")])
    def test_unread_dataset_key_rejected(self, dataset, given, unread):
        idx = {} if dataset == "blobs" else {"data_dir": "idx"}
        cfg = cli.RunConfig(dataset=dataset, **{**idx, **given})
        with pytest.raises(cli.ConfigError, match=f"^{unread} not read by the {dataset} dataset$"):
            cfg.validate()

    @pytest.mark.parametrize("dataset,given", [
        ("blobs", {"blobs_classes": 3, "blobs_features": 5, "blobs_per_class": 7,
                   "blobs_noise": 0.5}),
        ("mnist", {"data_dir": "idx"}),
        ("fashion", {"data_dir": "idx"})])
    def test_read_dataset_keys_accepted(self, dataset, given):
        cli.RunConfig(dataset=dataset, **given).validate()

    @pytest.mark.parametrize("optimizer,given", [
        ("dlam", {"rho": 0.01, "eps0": 1.0, "reg": "l2", "reg_weight": 0.5}),
        ("sgd", {"lr": 0.1}), ("adagrad", {"lr": 0.1}), ("adadelta", {"lr": 0.1})])
    def test_read_keys_accepted(self, optimizer, given):
        cli.RunConfig(dataset="blobs", optimizer=optimizer, **given).validate()

    @pytest.mark.parametrize("key", ["gamma", "eta", "alpha0", "fista_iters", "fista_tol",
                                     "max_backtrack", "adagrad_eps", "adadelta_rho",
                                     "adadelta_eps"])
    def test_solver_constant_is_not_a_setting(self, key, tmp_path, capsys):
        # the update rules' constants live in optimizer.py and baselines.py
        assert key not in cli.FIELD_TYPES
        flag = "--" + key.replace("_", "-")
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--dataset", "blobs", flag, "1", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    def test_defaults_match_the_dataclasses(self):
        assert cli.RunConfig().hyper_params() == obj.HyperParams()
        # the config's lr 0 asks for the grid search; every other default is shared
        bcfg = cli.RunConfig(optimizer="sgd").baseline_config()
        assert dataclasses.replace(bcfg, lr=bl.BaselineConfig.lr) == bl.BaselineConfig()


class TestLoadDataset:
    def test_blobs_test_split_shares_training_clusters(self):
        train, test = cli.load_dataset(cli.RunConfig(dataset="blobs"))
        classes = train.classes

        def class_means(ds):
            return np.stack([ds.x[:, ds.y[c] == 1.0].mean(axis=1) for c in range(classes)])

        dist = np.linalg.norm(class_means(test)[:, None, :] - class_means(train)[None],
                              axis=2)
        assert np.array_equal(dist.argmin(axis=1), np.arange(classes))

    def test_blobs_has_a_test_split(self):
        cfg = cli.RunConfig(dataset="blobs", blobs_per_class=20, subset_size=30)
        train, test = cli.load_dataset(cfg)
        assert (train.split, train.n_samples) == ("train", 30)
        assert (test.split, test.n_samples) == ("test", cfg.blobs_classes * 5)
        assert test.features == train.features and test.classes == train.classes

    def test_idx_fixture_has_a_test_split(self, tmp_path):
        # a 3x3 IDX pair per split, the t10k one with its own sample count
        data = tmp_path / "fashion"
        data.mkdir()
        for prefix, n in (("train", 6), ("t10k", 4)):
            images = struct.pack(">IIII", data_io.IMAGE_MAGIC, n, 3, 3) + bytes(range(9 * n))
            labels = struct.pack(">II", data_io.LABEL_MAGIC, n) + bytes(i % 10 for i in range(n))
            (data / f"{prefix}-images-idx3-ubyte").write_bytes(images)
            (data / f"{prefix}-labels-idx1-ubyte.gz").write_bytes(gzip.compress(labels))
        train, test = cli.load_dataset(cli.RunConfig(dataset="fashion", data_dir=str(data)))
        assert (train.split, train.n_samples, train.name) == ("train", 6, "fashion")
        assert (test.split, test.n_samples, test.name) == ("test", 4, "fashion")
        assert test.features == 9 and np.array_equal(test.y.argmax(axis=0), [0, 1, 2, 3])

    def test_mnist_train_split_is_capped_and_pooled(self, tmp_path, monkeypatch):
        # the same 28x28 IDX files, 6 train and 5 test images, under both names
        rng = np.random.default_rng(0)
        for name in ("mnist", "fashion"):
            (tmp_path / name).mkdir()
        for prefix, n in (("train", 6), ("t10k", 5)):
            images = (struct.pack(">IIII", data_io.IMAGE_MAGIC, n, 28, 28)
                      + rng.integers(0, 256, n * 784, dtype=np.uint8).tobytes())
            labels = struct.pack(">II", data_io.LABEL_MAGIC, n) + bytes(range(n))
            for name in ("mnist", "fashion"):
                (tmp_path / name / f"{prefix}-images-idx3-ubyte").write_bytes(images)
                (tmp_path / name / f"{prefix}-labels-idx1-ubyte").write_bytes(labels)
        full = {split: data_io.load_idx(str(tmp_path / "mnist" / f"{prefix}-images-idx3-ubyte"),
                                        str(tmp_path / "mnist" / f"{prefix}-labels-idx1-ubyte"))
                for prefix, split in (("train", "train"), ("t10k", "test"))}
        monkeypatch.setattr(cli, "MNIST_TRAIN", 4)

        def load(name):
            return cli.load_dataset(cli.RunConfig(dataset=name, data_dir=str(tmp_path / name),
                                                  seed=3))

        train, test = load("mnist")
        capped = data_io.downsample_196(data_io.take_subset(full["train"], 4, 3))
        assert (train.n_samples, train.features) == (4, 196)
        assert np.array_equal(train.x, capped.x) and np.array_equal(train.y, capped.y)
        pooled = data_io.downsample_196(full["test"])
        assert (test.n_samples, test.features) == (5, 196)
        assert np.array_equal(test.x, pooled.x) and np.array_equal(test.y, pooled.y)
        for ds in load("fashion"):
            assert np.array_equal(ds.x, full[ds.split].x)
            assert np.array_equal(ds.y, full[ds.split].y)


class TestTrainCommand:
    def test_blobs_dlam_run_outputs(self, tmp_path):
        out = tmp_path / "run"
        code = cli.main(["train", *BLOBS_ARGS, "--out", str(out)])
        assert code == 0
        rows = _read_rows(out / "trace.csv")
        assert rows[0] == ["epoch", "F", "train_acc", "test_acc", "wall_time_s", "train_risk"]
        assert len(rows) == 1 + 6
        assert (out / "diagnostics.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["dataset"] == "blobs"
        assert summary["config"]["seed"] == 3 and "seed" not in summary
        assert "git_describe" in summary
        assert summary["final"]["epoch"] == 5

    def test_git_describe_names_the_package_checkout(self, tmp_path, monkeypatch):
        package = Path(cli.__file__).resolve().parent
        try:
            inside = subprocess.run(["git", "rev-parse", "--is-inside-work-tree"],
                                    cwd=package, capture_output=True, text=True)
        except OSError:
            pytest.skip("git is not installed")
        if inside.returncode != 0:
            pytest.skip("the package is not in a git checkout")
        monkeypatch.chdir(package)
        from_checkout = cli._git_describe()
        monkeypatch.chdir(tmp_path)
        assert cli._git_describe() == from_checkout != "unknown"

    def test_hung_git_still_writes_the_summary(self, tmp_path, monkeypatch):
        def hung(cmd, **kwargs):
            raise subprocess.TimeoutExpired(cmd, kwargs.get("timeout"))

        monkeypatch.setattr(cli.subprocess, "run", hung)
        out = tmp_path / "run"
        assert cli.main(["train", *BLOBS_ARGS, "--epochs", "1", "--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["git_describe"] == "unknown"

    def test_unknown_optimizer_exits_nonzero(self, tmp_path, capsys):
        code = cli.main(["train", "--dataset", "blobs", "--optimizer", "sgd2",
                         "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "sgd2" in err
        for name in cli.OPTIMIZERS:
            assert name in err

    def test_unknown_dataset_exits_nonzero(self, tmp_path, capsys):
        code = cli.main(["train", "--dataset", "nope", "--out", str(tmp_path)])
        assert code == 2
        assert "nope" in capsys.readouterr().err

    def test_baseline_run_shares_schema(self, tmp_path):
        out = tmp_path / "sgd"
        code = cli.main(["train", "--dataset", "blobs", "--optimizer", "sgd",
                         "--hidden", "8", "--epochs", "4", "--lr", "0.1",
                         "--seed", "1", "--out", str(out)])
        assert code == 0
        rows = _read_rows(out / "trace.csv")
        assert rows[0] == ["epoch", "F", "train_acc", "test_acc", "wall_time_s", "train_risk"]
        assert len(rows) == 5
        assert all(row[5] == row[1] for row in rows[1:])     # a baseline's loss is its risk
        assert not (out / "diagnostics.csv").exists()

    def test_train_risk_is_the_forward_pass_risk(self, tmp_path, monkeypatch):
        expected = []
        train = cli.opt.train

        def spy(arch, x, y, hp, per_epoch):
            def both(state, report):
                logits = ns.forward_logits(arch, state.W, state.b, x)
                expected.append(obj.risk_cross_entropy(logits, y))
                per_epoch(state, report)
            return train(arch, x, y, hp, per_epoch=both)

        monkeypatch.setattr(cli.opt, "train", spy)
        out = tmp_path / "run"
        assert cli.main(["train", *BLOBS_ARGS, "--out", str(out)]) == 0
        with open(out / "trace.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert [float(row["train_risk"]) for row in rows] == expected
        assert json.loads((out / "summary.json").read_text())["final"]["train_risk"] == expected[-1]
        assert float(rows[-1]["train_risk"]) != float(rows[-1]["F"])

    def test_backtrack_failure_is_an_error_message(self, tmp_path, capsys, monkeypatch):
        # an l1 threshold bends a W step off the direction its curvature
        # start was measured along, so one trial need not majorize
        monkeypatch.setattr(cli.opt, "MAX_BACKTRACK", 1)
        code = cli.main(["train", "--dataset", "blobs", "--epochs", "2", "--reg", "l1",
                         "--reg-weight", "0.001", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: W update at layer 0 did not majorize after 1 trials\n"

    def test_non_finite_input_is_an_error_message(self, tmp_path, capsys):
        code = cli.main(["train", "--dataset", "blobs", "--blobs-noise", "nan",
                         "--epochs", "2", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: blobs noise must be finite and >= 0, got nan\n"

    @pytest.mark.parametrize("noise,shown", [("nan", "nan"), ("inf", "inf"), ("-1", "-1.0")])
    def test_bad_blobs_noise_fails_a_baseline_run(self, tmp_path, capsys, noise, shown):
        out = tmp_path / "run"
        code = cli.main(["train", "--dataset", "blobs", "--optimizer", "sgd", "--lr", "0.1",
                         "--hidden", "8", "--epochs", "2", "--blobs-noise", noise,
                         "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: blobs noise must be finite and >= 0, got {shown}\n"
        assert not (out / "trace.csv").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_baseline_is_an_error_message(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = cli.main(["train", "--dataset", "blobs", "--hidden", "8", "--epochs", "3",
                         "--optimizer", "sgd", "--lr", "1e308", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: NaN or inf in the sgd loss at epoch 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["train", "--dataset", "mnist", "--data-dir", "{tmp}/nonexistent"],
         "missing train-images-idx3-ubyte[.gz] under {tmp}/nonexistent"),
        (["train", "--dataset", "blobs", "--blobs-classes", "0"],
         "classes, d and n_per_class must all be >= 1"),
        (["scale", "--dataset", "blobs", "--sizes", "5000", "--rhos", "0.1"],
         "largest size 5000 exceeds dataset (200)")],
        ids=["missing-idx", "no-blobs-classes", "scale-too-large"])
    def test_failed_run_makes_no_output_directory(self, tmp_path, capsys, argv, message):
        # as a diverging baseline does (test_diverging_baseline_is_an_error_message)
        out = tmp_path / "run"
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        assert cli.main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message.format(tmp=tmp_path)}\n"
        assert not out.exists()

    def test_diverging_baseline_prints_only_its_error_line(self, tmp_path):
        # in a fresh process, where no test harness catches numpy's warnings
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
        out = tmp_path / "run"
        done = subprocess.run(
            [sys.executable, "-m", "dlam.cli", "train", "--dataset", "blobs", "--hidden", "8",
             "--epochs", "3", "--optimizer", "sgd", "--lr", "1e308", "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 2
        assert done.stderr == "error: NaN or inf in the sgd loss at epoch 0\n"

    @pytest.mark.parametrize("optimizer", ["dlam", "sgd"])
    def test_zero_epochs_is_an_error_message(self, tmp_path, capsys, optimizer):
        out = tmp_path / "run"
        code = cli.main(["train", "--dataset", "blobs", "--hidden", "8", "--epochs", "0",
                         "--optimizer", optimizer, "--lr", "0.1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: epochs must be >= 1, got 0\n"
        assert not (out / "trace.csv").exists()

    @pytest.mark.parametrize("flags,message", [
        (["--optimizer", "sgd", "--lr", "nan"], "lr must be finite and >= 0"),
        (["--reg-weight", "0.5"], "reg_weight needs reg l1 or l2"),
        (["--rho", "nan"], "rho must be finite and > 0"),
        (["--reg-weight", "inf"], "reg_weight must be finite and >= 0"),
        (["--subset", "-5"], "subset_size must be >= 0"),
        (["--seed", "-1"], "seed must be >= 0"),
        (["--optimizer", "sgd", "--lr", "0.1", "--seed", "-1"], "seed must be >= 0"),
        (["--lr", "0.1"], "lr not read by the dlam optimizer"),
        (["--optimizer", "sgd", "--lr", "0.1", "--reg", "l2", "--reg-weight", "10"],
         "reg, reg_weight not read by the sgd optimizer"),
        (["--optimizer", "adagrad", "--rho", "0.01", "--eps0", "1"],
         "rho, eps0 not read by the adagrad optimizer"),
        (["--data-dir", "/nonexistent"], "data_dir not read by the blobs dataset"),
        (["--hidden", "8,0"], "every layer size must be >= 1")])
    def test_bad_value_is_an_error_before_data_loads(self, tmp_path, capsys, monkeypatch,
                                                      flags, message):
        monkeypatch.setattr(cli, "load_dataset", lambda cfg: pytest.fail("data loaded"))
        code = cli.main(["train", "--dataset", "blobs", "--hidden", "8", "--epochs", "3",
                         *flags, "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("how", ["truncated", "corrupt"])
    def test_damaged_gzip_is_an_error_message(self, tmp_path, capsys, how):
        # a 28x28 IDX pair under each of the four names, the train images damaged
        images = struct.pack(">IIII", data_io.IMAGE_MAGIC, 4, 28, 28) + bytes(4 * 784)
        labels = struct.pack(">II", data_io.LABEL_MAGIC, 4) + bytes(range(4))
        data = tmp_path / "mnist"
        data.mkdir()
        for split in ("train", "t10k"):
            (data / f"{split}-images-idx3-ubyte.gz").write_bytes(gzip.compress(images))
            (data / f"{split}-labels-idx1-ubyte.gz").write_bytes(gzip.compress(labels))
        damaged = data / "train-images-idx3-ubyte.gz"
        damaged.write_bytes(damaged_gzip(images, how))
        code = cli.main(["train", "--dataset", "mnist", "--data-dir", str(data),
                         "--epochs", "1", "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {damaged}: unreadable gzip stream (")
        assert err.count("\n") == 1

    def test_label_out_of_range_is_an_error_message(self, tmp_path, capsys):
        # an IDX pair under each of the four names, one train label past the classes
        images = struct.pack(">IIII", data_io.IMAGE_MAGIC, 4, 28, 28) + bytes(4 * 784)
        data = tmp_path / "mnist"
        data.mkdir()
        for split, last in (("train", 12), ("t10k", 3)):
            labels = struct.pack(">II", data_io.LABEL_MAGIC, 4) + bytes([0, 1, 2, last])
            (data / f"{split}-images-idx3-ubyte.gz").write_bytes(gzip.compress(images))
            (data / f"{split}-labels-idx1-ubyte.gz").write_bytes(gzip.compress(labels))
        code = cli.main(["train", "--dataset", "mnist", "--data-dir", str(data),
                         "--epochs", "1", "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err
        bad = data / "train-labels-idx1-ubyte.gz"
        assert err == f"error: {bad}: label 12 at offset 11 outside [0, 10)\n"

    def test_nan_mid_run_is_an_error_message(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(opt, "run_epoch", nan_before_epoch(opt.run_epoch, 3))
        code = cli.main(["train", *BLOBS_ARGS, "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: NaN or inf in the W update at epoch 3, layer 0\n"

    def test_every_config_key_is_a_flag(self, tmp_path):
        out = tmp_path / "run"
        code = cli.main(["train", "--dataset", "blobs", "--hidden", "6", "--epochs", "2",
                         "--blobs-classes", "3", "--blobs-per-class", "10",
                         "--blobs-noise", "0.05", "--rho", "0.01", "--eps0", "0.5",
                         "--seed", "4", "--subset-size", "20", "--out-dir", str(out)])
        assert code == 0
        config = json.loads((out / "summary.json").read_text())["config"]
        assert config["rho"] == 0.01 and config["eps0"] == 0.5
        assert config["epochs"] == 2 and config["seed"] == 4
        assert config["blobs_classes"] == 3 and config["subset_size"] == 20

    def test_run_leaves_the_callers_config_unchanged(self, tmp_path, monkeypatch):
        searches = []
        search = bl.select_learning_rate

        def counted(*args, **kwargs):
            searches.append(args[0])
            return search(*args, **kwargs)

        monkeypatch.setattr(cli.baselines, "select_learning_rate", counted)
        cfg = cli.RunConfig(dataset="blobs", hidden="8", optimizer="adagrad", epochs=2,
                            out_dir=str(tmp_path))
        rates = []
        for _ in range(2):
            assert cli.run(cfg) == 0
            rates.append(json.loads((tmp_path / "summary.json").read_text())["config"]["lr"])
        assert cfg.lr == 0.0
        assert searches == [bl.BaselineKind.ADAGRAD] * 2
        assert rates[0] == rates[1] and rates[0] in bl.LR_GRID

    def test_determinism_excluding_wall_time(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["train", *BLOBS_ARGS, "--out", str(out1)]) == 0
        assert cli.main(["train", *BLOBS_ARGS, "--out", str(out2)]) == 0
        assert _strip_wall_time(out1 / "trace.csv") == _strip_wall_time(out2 / "trace.csv")


class TestScaleCommand:
    def test_table_layout_and_trend(self, tmp_path):
        out = tmp_path / "scale"
        cfg = cli.RunConfig(dataset="blobs", hidden="8", epochs=2, seed=0,
                            out_dir=str(out), blobs_classes=3, blobs_per_class=80,
                            blobs_features=20)
        path = cli.scaling_table(cfg, sizes=[60, 120, 240], rhos=[1e-4, 1e-2])
        rows = _read_rows(path)
        assert rows[0] == ["rho", "60", "120", "240"]
        assert len(rows) == 3
        for row in rows[1:]:
            times = [float(v) for v in row[1:]]
            assert all(t > 0 for t in times)

    @pytest.mark.parametrize("optimizer", ["sgd", "adagrad", "adadelta"])
    def test_baseline_optimizer_rejected(self, tmp_path, capsys, optimizer):
        out = tmp_path / "scale"
        code = cli.main(["scale", "--dataset", "blobs", "--optimizer", optimizer,
                         "--sizes", "50,100", "--rhos", "0.01", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: scale times the dlam trainer only, not {optimizer!r}\n")
        assert not (out / "scaling.csv").exists()

    @pytest.mark.parametrize("flag, sizes, rhos, detail", [
        ("--sizes", "", "0.01", "invalid literal for int() with base 10: ''"),
        ("--sizes", "50,x", "0.01", "invalid literal for int() with base 10: 'x'"),
        ("--rhos", "50", "", "could not convert string to float: ''"),
        ("--rhos", "50", "0.1,,1", "could not convert string to float: ''"),
    ])
    def test_bad_list_names_its_flag(self, tmp_path, capsys, flag, sizes, rhos, detail):
        out = tmp_path / "scale"
        code = cli.main(["scale", "--dataset", "blobs", "--sizes", sizes, "--rhos", rhos,
                         "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {flag}: {detail}\n"
        assert not (out / "scaling.csv").exists()

    def test_config_is_checked_as_a_run_checks_it(self, tmp_path):
        cfg = cli.RunConfig(dataset="blobs", hidden="8", epochs=1, reg_weight=0.1,
                            out_dir=str(tmp_path / "scale"))
        with pytest.raises(cli.ConfigError, match="^reg_weight needs reg l1 or l2$"):
            cli.run(cfg)
        with pytest.raises(cli.ConfigError, match="^reg_weight needs reg l1 or l2$"):
            cli.scaling_table(cfg, [50], [1e-2])
        assert not (tmp_path / "scale").exists()

    def test_size_exceeding_dataset_rejected(self, tmp_path):
        cfg = cli.RunConfig(dataset="blobs", out_dir=str(tmp_path),
                            blobs_classes=2, blobs_per_class=10)
        with pytest.raises(cli.ConfigError):
            cli.scaling_table(cfg, sizes=[1000], rhos=[0.1])

    def test_repetitions_agree_within_noise(self, tmp_path):
        # timing bound measured on this class of machine; cells must be
        # compute-dominated (12-epoch means) for the 30% band to be stable, and
        # each side keeps a cell's fastest of three grids, since load on a
        # shared host only ever adds time
        cfg = cli.RunConfig(dataset="blobs", hidden="32", epochs=12, seed=0,
                            out_dir=str(tmp_path), blobs_classes=10,
                            blobs_features=196, blobs_per_class=400)

        def grid():
            path = cli.scaling_table(cfg, sizes=[2000, 4000], rhos=[1e-3])
            return [float(v) for v in _read_rows(path)[1][1:]]

        grid()   # warm-up: first-touch BLAS and allocator effects
        a, b = (np.min([grid() for _ in range(3)], axis=0) for _ in range(2))
        for x, y in zip(a, b):
            assert abs(x - y) / max(x, y) < 0.30

    def test_config_reaches_every_cell(self, tmp_path, monkeypatch):
        calls = []

        def fake_train(arch, x, y, hp):
            calls.append((arch, x.shape[1], hp))

        monkeypatch.setattr(cli.opt, "train", fake_train)
        cfg = cli.RunConfig(dataset="blobs", hidden="5", epochs=3, seed=2,
                            out_dir=str(tmp_path), blobs_classes=2, blobs_per_class=20,
                            reg="l1", reg_weight=0.1, activation="tanh", eps0=0.5)
        cli.scaling_table(cfg, sizes=[10, 40], rhos=[1e-3, 0.5])
        assert [(n, hp.rho) for _, n, hp in calls] == [(10, 1e-3), (40, 1e-3),
                                                       (10, 0.5), (40, 0.5)]
        expect = cfg.hyper_params()
        for arch, _, hp in calls:
            assert arch.regularizer is cli.ns.RegKind.L1 and arch.reg_weight == 0.1
            assert arch.activation == (cli.ns.ActivationKind.TANH,)
            assert arch.layer_sizes == (cfg.blobs_features, 5, 2)
            assert dataclasses.replace(hp, rho=expect.rho) == expect
            assert hp.eps0 == 0.5 and hp.epochs == 3 and hp.seed == 2

    def test_readme_example_flags(self, tmp_path, capsys):
        # the README's `dlam scale` example, at small sizes
        code = cli.main(["scale", "--dataset", "blobs", "--blobs-classes", "3",
                         "--blobs-per-class", "30", "--blobs-features", "12",
                         "--hidden", "4", "--epochs", "1", "--sizes", "15,30,60",
                         "--rhos", "1e-4,1e-2,1", "--out", str(tmp_path)])
        assert code == 0
        rows = _read_rows(capsys.readouterr().out.strip())
        assert rows[0] == ["rho", "15", "30", "60"] and len(rows) == 4

    def test_scale_via_main(self, tmp_path, capsys):
        code = cli.main(["scale", "--dataset", "blobs", "--hidden", "6",
                         "--epochs", "1", "--seed", "0", "--out", str(tmp_path),
                         "--sizes", "40,80", "--rhos", "0.1"])
        assert code == 0
        printed = capsys.readouterr().out.strip()
        assert printed.endswith("scaling.csv")
        assert len(_read_rows(printed)) == 2


class TestCommandSurface:
    def test_plot_is_not_a_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["plot", "--in", "trace.csv", "--out", "plots"])
        assert exc.value.code == 2
        assert "invalid choice: 'plot'" in capsys.readouterr().err

    def test_help_lists_train_and_scale_only(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        assert "{train,scale}" in capsys.readouterr().out
