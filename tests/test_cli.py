import csv
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from dlam import cli


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
        assert parsed == {"dataset": "blobs", "epochs": "9", "rho": "0.5"}

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("nonsense = 1\n")
        with pytest.raises(cli.ConfigError, match="nonsense"):
            cli.parse_config_file(str(cfg_file))

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


class TestLoadDataset:
    def test_blobs_test_split_shares_training_clusters(self):
        train, test = cli.load_dataset(cli.RunConfig(dataset="blobs"))
        classes = train.classes

        def class_means(ds):
            return np.stack([ds.x[:, ds.y[c] == 1.0].mean(axis=1) for c in range(classes)])

        dist = np.linalg.norm(class_means(test)[:, None, :] - class_means(train)[None],
                              axis=2)
        assert np.array_equal(dist.argmin(axis=1), np.arange(classes))


class TestTrainCommand:
    def test_blobs_dlam_run_outputs(self, tmp_path):
        out = tmp_path / "run"
        code = cli.main(["train", *BLOBS_ARGS, "--out", str(out)])
        assert code == 0
        rows = _read_rows(out / "trace.csv")
        assert rows[0] == ["epoch", "F", "train_acc", "test_acc", "wall_time_s"]
        assert len(rows) == 1 + 6
        assert (out / "diagnostics.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["dataset"] == "blobs"
        assert summary["config"]["seed"] == 3
        assert "git_describe" in summary
        assert summary["final"]["epoch"] == 5

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
        assert rows[0] == ["epoch", "F", "train_acc", "test_acc", "wall_time_s"]
        assert len(rows) == 5
        assert not (out / "diagnostics.csv").exists()

    def test_backtrack_failure_is_an_error_message(self, tmp_path, capsys):
        code = cli.main(["train", "--dataset", "blobs", "--max-backtrack", "1",
                         "--epochs", "2", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "did not majorize after 1 trials" in err

    def test_every_config_key_is_a_flag(self, tmp_path):
        out = tmp_path / "run"
        code = cli.main(["train", "--dataset", "blobs", "--hidden", "6", "--epochs", "2",
                         "--blobs-classes", "3", "--blobs-per-class", "10",
                         "--blobs-noise", "0.05", "--gamma", "3.0", "--alpha0", "0.01",
                         "--subset-size", "20", "--out-dir", str(out)])
        assert code == 0
        config = json.loads((out / "summary.json").read_text())["config"]
        assert config["gamma"] == 3.0 and config["alpha0"] == 0.01
        assert config["blobs_classes"] == 3 and config["subset_size"] == 20

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

    def test_size_exceeding_dataset_rejected(self, tmp_path):
        cfg = cli.RunConfig(dataset="blobs", out_dir=str(tmp_path),
                            blobs_classes=2, blobs_per_class=10)
        with pytest.raises(cli.ConfigError):
            cli.scaling_table(cfg, sizes=[1000], rhos=[0.1])

    def test_repetitions_agree_within_noise(self, tmp_path):
        # timing bound measured on this class of machine; cells must be
        # compute-dominated (12-epoch means) for the 30% band to be stable
        cfg = cli.RunConfig(dataset="blobs", hidden="32", epochs=12, seed=0,
                            out_dir=str(tmp_path), blobs_classes=10,
                            blobs_features=196, blobs_per_class=400)

        def grid():
            path = cli.scaling_table(cfg, sizes=[2000, 4000], rhos=[1e-3])
            return [float(v) for v in _read_rows(path)[1][1:]]

        grid()   # warm-up: first-touch BLAS and allocator effects
        a, b = grid(), grid()
        for x, y in zip(a, b):
            assert abs(x - y) / max(x, y) < 0.30

    def test_config_reaches_every_cell(self, tmp_path, monkeypatch):
        calls = []

        def fake_train(arch, x, y, hp):
            calls.append((arch, x.shape[1], hp))

        monkeypatch.setattr(cli.opt, "train", fake_train)
        cfg = cli.RunConfig(dataset="blobs", hidden="5", epochs=3, seed=2,
                            out_dir=str(tmp_path), blobs_classes=2, blobs_per_class=20,
                            reg="l1", reg_weight=0.1, gamma=3.5, max_backtrack=7,
                            activation="tanh", eps0=0.5)
        cli.scaling_table(cfg, sizes=[10, 40], rhos=[1e-3, 0.5])
        assert [(n, hp.rho) for _, n, hp in calls] == [(10, 1e-3), (40, 1e-3),
                                                       (10, 0.5), (40, 0.5)]
        expect = cfg.hyper_params()
        for arch, _, hp in calls:
            assert arch.regularizer is cli.ns.RegKind.L1 and arch.reg_weight == 0.1
            assert arch.activation == (cli.ns.ActivationKind.TANH,)
            assert arch.layer_sizes == (cfg.blobs_features, 5, 2)
            assert dataclasses.replace(hp, rho=expect.rho) == expect
            assert hp.gamma == 3.5 and hp.max_backtrack == 7 and hp.eps0 == 0.5

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


class TestPlotCommand:
    def _trace(self, path, rows):
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["epoch", "F", "train_acc", "test_acc", "wall_time_s"])
            writer.writerows(rows)

    def test_single_trace_produces_charts(self, tmp_path):
        trace = tmp_path / "trace.csv"
        self._trace(trace, [[0, 2.0, 0.3, 0.25, 0.1], [1, 1.0, 0.5, 0.45, 0.1]])
        paths = cli.plot_traces([str(trace)], ["run"], str(tmp_path / "plots"))
        assert len(paths) == 2
        for p in paths:
            text = Path(p).read_text()
            assert text.startswith("<svg") and "polyline" in text

    def test_multiple_traces_all_labeled(self, tmp_path):
        t1, t2 = tmp_path / "a.csv", tmp_path / "b.csv"
        self._trace(t1, [[0, 2.0, 0.3, 0.2, 0.1], [1, 1.5, 0.4, 0.3, 0.1]])
        self._trace(t2, [[0, 3.0, 0.2, 0.2, 0.1], [1, 2.0, 0.3, 0.3, 0.1]])
        paths = cli.plot_traces([str(t1), str(t2)], ["one", "two"], str(tmp_path / "p"))
        text = Path(paths[1]).read_text()
        assert "one train" in text and "two train" in text

    def test_empty_trace_errors_without_output(self, tmp_path):
        trace = tmp_path / "empty.csv"
        self._trace(trace, [])
        out = tmp_path / "plots"
        with pytest.raises(ValueError):
            cli.plot_traces([str(trace)], ["x"], str(out))
        assert not (out / "objective.svg").exists()

    def test_plot_via_main(self, tmp_path):
        trace = tmp_path / "trace.csv"
        self._trace(trace, [[0, 2.0, 0.3, 0.25, 0.1], [1, 1.0, 0.5, 0.45, 0.1]])
        code = cli.main(["plot", "--in", str(trace), "--labels", "run",
                         "--out", str(tmp_path / "plots")])
        assert code == 0
