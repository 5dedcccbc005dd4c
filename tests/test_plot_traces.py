import csv
import hashlib
import importlib.util
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from dlam import cli

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "plot_traces.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("plot_traces", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


plot = _load_script()
BLOBS_ARGS = ["--dataset", "blobs", "--hidden", "8", "--epochs", "6",
              "--rho", "0.01", "--seed", "3"]


def _trace(path, rows):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["epoch", "F", "train_acc", "test_acc", "wall_time_s"])
        writer.writerows(rows)


class TestPlotCommand:
    def test_single_trace_produces_charts(self, tmp_path):
        trace = tmp_path / "trace.csv"
        _trace(trace, [[0, 2.0, 0.3, 0.25, 0.1], [1, 1.0, 0.5, 0.45, 0.1]])
        paths = plot.plot_traces([str(trace)], ["run"], str(tmp_path / "plots"))
        assert len(paths) == 2
        for p in paths:
            text = Path(p).read_text()
            assert text.startswith("<svg") and "polyline" in text

    def test_multiple_traces_all_labeled(self, tmp_path):
        t1, t2 = tmp_path / "a.csv", tmp_path / "b.csv"
        _trace(t1, [[0, 2.0, 0.3, 0.2, 0.1], [1, 1.5, 0.4, 0.3, 0.1]])
        _trace(t2, [[0, 3.0, 0.2, 0.2, 0.1], [1, 2.0, 0.3, 0.3, 0.1]])
        paths = plot.plot_traces([str(t1), str(t2)], ["one", "two"], str(tmp_path / "p"))
        text = Path(paths[1]).read_text()
        assert "one train" in text and "two train" in text

    def test_empty_trace_errors_without_output(self, tmp_path):
        trace = tmp_path / "empty.csv"
        _trace(trace, [])
        out = tmp_path / "plots"
        with pytest.raises(ValueError):
            plot.plot_traces([str(trace)], ["x"], str(out))
        assert not (out / "objective.svg").exists()

    def test_plot_via_main(self, tmp_path):
        trace = tmp_path / "trace.csv"
        _trace(trace, [[0, 2.0, 0.3, 0.25, 0.1], [1, 1.0, 0.5, 0.45, 0.1]])
        code = plot.main(["--in", str(trace), "--labels", "run",
                          "--out", str(tmp_path / "plots")])
        assert code == 0

    def test_markup_in_labels_is_escaped(self, tmp_path):
        # the default label is a directory name, which may hold any character
        trace = tmp_path / "trace.csv"
        _trace(trace, [[0, 2.0, 0.3, 0.25, 0.1], [1, 1.0, 0.5, 0.45, 0.1]])
        out = tmp_path / "plots"
        assert plot.main(["--in", str(trace), "--labels", "R&D <v2>", "--out", str(out)]) == 0
        for name, label in (("objective.svg", "R&D <v2>"), ("accuracy.svg", "R&D <v2> train")):
            texts = [t.text for t in ET.parse(out / name).iter("{http://www.w3.org/2000/svg}text")]
            assert label in texts, name

    def test_missing_column_is_an_error_message(self, tmp_path, capsys):
        # diagnostics.csv is a per-epoch table too, but holds no accuracies
        assert cli.main(["train", *BLOBS_ARGS, "--out", str(tmp_path / "run")]) == 0
        diagnostics = tmp_path / "run" / "diagnostics.csv"
        capsys.readouterr()
        code = plot.main(["--in", str(diagnostics), "--out", str(tmp_path / "p")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {diagnostics}: missing column 'train_acc'\n"
        assert not (tmp_path / "p" / "objective.svg").exists()


# sha256 of each chart, as written by ``dlam plot`` before the feature became
# this script; the second trace has no test accuracy, so it draws no dashed line
PINNED_ROWS = {
    "dlam": [[0, 5.0, 0.3, 0.25, 0.1], [1, 0.5, 0.6, 0.55, 0.1],
             [2, 0.05, 0.8, 0.7, 0.1], [3, 0.004, 0.9, 0.8, 0.1]],
    "adagrad": [[0, 2.3, 0.1, "nan", 0.1], [1, 1.9, 0.2, "nan", 0.1],
                [2, 1.2, 0.45, "nan", 0.1]],
}
PINNED_SHA256 = {
    "objective.svg": "0458e28b237b516d524e93b5a2bbd5c649a81f5a53abf6ab6f9e5a60e99f93bf",
    "accuracy.svg": "996cc5229b5300e0487db92018dc2f938a5004a887ebb31167abd33e8a550216",
}


def test_charts_are_byte_identical_to_the_pinned_output(tmp_path, capsys):
    paths = []
    for name, rows in PINNED_ROWS.items():
        paths.append(str(tmp_path / f"{name}.csv"))
        _trace(paths[-1], rows)
    out = tmp_path / "plots"
    assert plot.main(["--in", *paths, "--labels", *PINNED_ROWS, "--out", str(out)]) == 0
    assert capsys.readouterr().out.split() == [str(out / name) for name in PINNED_SHA256]
    for name, digest in PINNED_SHA256.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
