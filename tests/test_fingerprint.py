import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

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


def test_hash_reads_a_fixed_list_of_report_fields():
    fp = _load_script()
    names = [f.name for f in dataclasses.fields(fp.opt.EpochReport)]
    assert [n for n in names if n in fp.REPORT_FIELDS] == list(fp.REPORT_FIELDS)
    arch, data, hp = fp.RUNS["tanh-l1-blobs"]
    ds = fp.synth_gaussian_blobs(**data)
    state, trace = fp.opt.train(arch, ds.x, ds.y, dataclasses.replace(hp, epochs=3))
    base = fp.fingerprint(state, trace)
    # a field the report gains later moves no hash
    grown = dataclasses.make_dataclass("GrownReport", [("certificate", float, 0.0)],
                                       bases=(fp.opt.EpochReport,))
    assert fp.fingerprint(state, [grown(**vars(r), certificate=1.0) for r in trace]) == base
    # a listed field does
    moved = dataclasses.replace(trace[1], grad_b_err=trace[1].grad_b_err + 1.0)
    assert fp.fingerprint(state, [trace[0], moved, *trace[2:]]) != base


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


def test_against_a_saved_run_prints_its_distances(tmp_path, capsys):
    fp = _load_script()
    saved = tmp_path / "runs.npz"
    runs = ["--runs", "tanh-l1-blobs", "adagrad-blobs"]
    assert fp.main([*runs, "--save", str(saved)]) == 0
    assert saved.exists()
    plain = capsys.readouterr().out.splitlines()

    def distances():
        assert fp.main([*runs, "--against", str(saved)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(plain)
        out = []
        for line, head in zip(lines, plain):
            # the hash line as before, then the distances
            assert line.startswith(head + "  ")
            fields = [f.split(" ") for f in line[len(head) + 2:].split("  ")]
            out.append({k: float(v) for k, v in fields})
        return out

    # a run against itself is 0.0 everywhere
    dlam, baseline = distances()
    assert dlam == dict.fromkeys(["dF", "dW", "db", "dz", "da"], 0.0)
    assert baseline == dict.fromkeys(["dF", "dW", "db"], 0.0)
    # a perturbed block is reported in its own column, relative to its kind's
    # largest saved entry
    with np.load(saved) as file:
        arrays = dict(file)
    a = arrays["tanh-l1-blobs:a1"]
    scale = max(np.max(np.abs(arrays["tanh-l1-blobs:a0"])), np.max(np.abs(a)))
    a.flat[np.argmin(np.abs(a))] += 1e-3 * scale     # an entry that stays below the scale
    arrays["adagrad-blobs:F"] = arrays["adagrad-blobs:F"] * 2.0
    np.savez(saved, **arrays)
    dlam, baseline = distances()
    assert dlam["da"] == pytest.approx(1e-3, rel=1e-6)
    assert dlam["dF"] == dlam["dW"] == dlam["db"] == dlam["dz"] == 0.0
    assert baseline == {"dF": 0.5, "dW": 0.0, "db": 0.0}


def test_against_a_file_without_the_run_is_an_error(tmp_path, capsys):
    fp = _load_script()
    saved = tmp_path / "runs.npz"
    np.savez(saved, **{"adagrad-blobs:F": np.array(1.0)})
    with pytest.raises(SystemExit) as err:
        fp.main(["--runs", "tanh-l1-blobs", "--against", str(saved)])
    assert err.value.code == 2
    assert "holds no run tanh-l1-blobs" in capsys.readouterr().err


@pytest.mark.parametrize("doctor,says", [
    (lambda arrays: arrays.pop("adagrad-blobs:W0"), "has no saved block W0"),
    (lambda arrays: arrays.update({"adagrad-blobs:W0": arrays["adagrad-blobs:W0"][:, :3]}),
     "block W0 has shape (16, 12), saved (16, 3)"),
    (lambda arrays: arrays.update({"adagrad-blobs:b9": np.zeros((3, 1))}),
     "has a saved block b9 that this checkout does not form"),
])
def test_against_a_run_whose_blocks_differ_is_an_error(tmp_path, capsys, doctor, says):
    # a saved block missing, reshaped or extra: exit code 2 and one line naming
    # the file, the run and the block, not a traceback
    fp = _load_script()
    saved = tmp_path / "runs.npz"
    assert fp.main(["--runs", "adagrad-blobs", "--save", str(saved)]) == 0
    with np.load(saved) as file:
        arrays = dict(file)
    doctor(arrays)
    np.savez(saved, **arrays)
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        fp.main(["--runs", "adagrad-blobs", "--against", str(saved)])
    assert err.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.endswith(f"error: {saved}: run adagrad-blobs {says}")
