"""Smoke test of the per-layer tracer behind ``benchmarks/run.py --trace 1``.

The tracer is loaded from its file, as the benchmark loads it, so a module it
imports or a function it is expected to see going missing fails here rather
than leaving a per-layer run silently empty.
"""

import dataclasses
import importlib
import importlib.util
import types
from pathlib import Path

from dlam import optimizer as opt
from test_optimizer import BLOCKS, _blobs_problem

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"

SHARED = ("objective.residual", "objective.penalty", "objective.grad_w",
          "objective.grad_a", "objective.grad_b", "objective.grad_z",
          "network_state.slab_violation", "network_state.forward_pass")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("dlam_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bound_functions(tracer):
    """Every function bound in the modules the tracer patches, by (module, name)."""
    names = [tracer.PACKAGE] + [f"{tracer.PACKAGE}.{m}" for m in tracer.MODULES]
    return {(name, attr): value
            for name in names
            for attr, value in vars(importlib.import_module(name)).items()
            if isinstance(value, types.FunctionType)}


def _run(epochs):
    arch, x, y, hp = _blobs_problem(epochs)
    state, trace = opt.train(arch, x, y, hp)
    reports = [{k: repr(v) for k, v in dataclasses.asdict(r).items() if k != "wall_time_s"}
               for r in trace]
    blocks = [v.tobytes() for blocks in (state.W, state.b, state.z, state.a) for v in blocks]
    return reports, blocks


def test_traced_run_has_spans_changes_no_bit_and_uninstalls():
    tracer_module = _load_tracer()
    original = _bound_functions(tracer_module)
    untraced = _run(epochs=2)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert opt.run_epoch is not original["dlam.optimizer", "run_epoch"]
        traced = _run(epochs=2)
    finally:
        tracer.uninstall()
    assert _bound_functions(tracer_module) == original
    assert traced == untraced

    assert tracer.calls["optimizer.run_epoch"] == 2
    for name in BLOCKS:
        assert tracer.calls[f"optimizer.{name}"] >= 2, name
    for name in SHARED:
        assert tracer.calls[name] >= 1, name
    run_epoch = "optimizer.run_epoch"
    assert 0 < tracer.self_time[run_epoch] < tracer.inclusive[run_epoch]
    assert tracer.child_time[run_epoch, "optimizer.update_w"] > 0
