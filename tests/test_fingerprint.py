import dataclasses
import importlib.util
from pathlib import Path

import numpy as np

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "fingerprint.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("fingerprint", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_calls_give_the_same_hash(capsys):
    fp = _load_script()
    for _ in range(2):
        assert fp.main(["--runs", "tanh-l1-blobs"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[0] == lines[1]
    digest, name, final_f = lines[0].split()
    assert name == "tanh-l1-blobs" and len(digest) == 64
    assert float(final_f) > 0.0


def test_hash_covers_state_and_reports_but_not_wall_time():
    fp = _load_script()
    arch, data, hp = fp.RUNS["tanh-l1-blobs"]
    ds = fp.synth_gaussian_blobs(**data)
    state, trace = fp.opt.train(arch, ds.x, ds.y, dataclasses.replace(hp, epochs=3))
    base = fp.fingerprint(state, trace)
    trace[1].wall_time_s += 1.0
    assert fp.fingerprint(state, trace) == base
    kept = trace[1].grad_b_err
    trace[1].grad_b_err = float(np.nextafter(kept, 1.0))
    assert fp.fingerprint(state, trace) != base
    trace[1].grad_b_err = kept
    assert fp.fingerprint(state, trace) == base
    a = state.a[0].copy()
    a[0, 0] = np.nextafter(a[0, 0], np.inf)
    state.a[0] = a
    assert fp.fingerprint(state, trace) != base


def test_baseline_hash_is_stable_and_covers_weights_and_records_but_not_wall_time(capsys):
    fp = _load_script()
    for _ in range(2):
        assert fp.main(["--runs", "adagrad-blobs"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[0] == lines[1]
    arch, data, cfg = fp.BASELINE_RUNS["adagrad-blobs"]
    ds = fp.synth_gaussian_blobs(**data)
    W, b, trace = fp.bl.train_baseline(dataclasses.replace(cfg, epochs=3), arch, ds.x, ds.y)
    base = fp.baseline_fingerprint(W, b, trace)
    trace[1]["wall_time_s"] += 1.0
    assert fp.baseline_fingerprint(W, b, trace) == base
    trace[1]["loss"] = float(np.nextafter(trace[1]["loss"], np.inf))
    assert fp.baseline_fingerprint(W, b, trace) != base
    trace[1]["loss"] = float(np.nextafter(trace[1]["loss"], -np.inf))
    assert fp.baseline_fingerprint(W, b, trace) == base
    b[0] = b[0].copy()
    b[0][0, 0] = np.nextafter(b[0][0, 0], np.inf)
    assert fp.baseline_fingerprint(W, b, trace) != base


def test_each_line_is_hash_name_and_final_objective(capsys):
    fp = _load_script()
    assert fp.main(["--runs", "tanh-l1-blobs", "adagrad-blobs"]) == 0
    lines = [line.split("  ") for line in capsys.readouterr().out.splitlines()]
    arch, data, hp = fp.RUNS["tanh-l1-blobs"]
    ds = fp.synth_gaussian_blobs(**data)
    state, trace = fp.opt.train(arch, ds.x, ds.y, hp)
    dlam_line = [fp.fingerprint(state, trace), "tanh-l1-blobs", repr(trace[-1].f_after)]
    arch, data, cfg = fp.BASELINE_RUNS["adagrad-blobs"]
    ds = fp.synth_gaussian_blobs(**data)
    W, b, trace = fp.bl.train_baseline(cfg, arch, ds.x, ds.y)
    baseline_line = [fp.baseline_fingerprint(W, b, trace), "adagrad-blobs",
                     repr(trace[-1]["loss"])]
    assert lines == [dlam_line, baseline_line]
