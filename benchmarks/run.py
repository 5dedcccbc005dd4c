"""DLAM benchmark: one workload per process, in a closed loop, for a fixed time.

    python3 benchmarks/run.py --workload repro-5k --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. The loop trains one job at a time and starts the next when the
last ends, in whole rounds, until ``--seconds`` have passed and at least
100 epochs were timed. With ``--trace 0`` it prints the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced run (see README.md).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import time

T0 = time.perf_counter()             # set-up is timed from here, before numpy loads

import argparse                      # noqa: E402
import json                          # noqa: E402
import os                            # noqa: E402
import resource                      # noqa: E402
import statistics                    # noqa: E402
import subprocess                    # noqa: E402
import sys                           # noqa: E402
from pathlib import Path             # noqa: E402

# The BLAS pool size is read once, when numpy loads, so it is pinned here.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "DLAM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

from checks import OpFailed          # noqa: E402  (numpy loads here)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# `dlam train` runs `git describe`; keep git from searching above the checkout.
os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
SCRATCH = HERE / "_runs"
SETUP_PROBES = 4          # fresh processes that time the set-up, besides this one
MIN_EPOCHS = 100          # so that ten epochs lie beyond the p90
MAX_LOOP_S = 120.0        # never start a round after this, whatever --seconds says

BLOCKS = ("update_w", "update_b", "update_z_hidden", "update_z_output", "update_a")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time the set-up only and print it (used internally)")
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open("/proc/self/status") as f:
        threads = next(int(line.split()[1]) for line in f if line.startswith("Threads:"))
    return {"blas_threads": BLAS_THREADS, "os_threads": threads,
            "numpy": np.__version__, "blas": f"{blas['name']} {blas.get('version', '?')}",
            "nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0]}


def probe_setup(args) -> list[float]:
    """Set-up times of fresh processes: import, inputs, initialize."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        times.append(float(out.stdout.split()[-1]))
    return times


def run_round(ops, counts) -> list:
    results = []
    for op in ops:
        counts["attempted"] += 1
        try:
            results.append(op())
        except OpFailed as exc:
            counts["failed"] += 1
            print(f"operation failed: {exc}", file=sys.stderr)
    return results


def closed_loop(ops, seconds: float, counts, min_epochs: int = MIN_EPOCHS) -> list[list]:
    rounds, epochs = [], 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if rounds and (elapsed >= MAX_LOOP_S or elapsed >= seconds and (
                epochs >= min_epochs or counts["failed"] == counts["attempted"])):
            return rounds
        rounds.append(run_round(ops, counts))
        epochs += sum(len(r.epoch_s) for r in rounds[-1])


def traced_loop(ops, seconds: float, counts, tracer) -> tuple[list, list]:
    """Traced and untraced rounds in alternating pairs, the order swapped
    each pair, so that drift of the host weighs on both sides alike."""
    traced, untraced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        for on in (False, True) if len(traced) % 2 == 0 else (True, False):
            if on:
                tracer.install()
                traced.append(run_round(ops, counts))
                tracer.uninstall()
            else:
                untraced.append(run_round(ops, counts))
    return traced, untraced


def median_train_s(rounds) -> float:
    return statistics.median(sum(r.train_s for r in rnd) for rnd in rounds)


def whole(rounds, n_ops) -> list[list]:
    return [r for r in rounds if len(r) == n_ops]


def repeatable(rounds) -> bool:
    """Every round trained the same inputs, so every round must agree exactly."""
    first = [(r.final_objective, r.accuracy) for r in rounds[0]]
    return all([(r.final_objective, r.accuracy) for r in rnd] == first for rnd in rounds)


def end_to_end(rounds, setup_times) -> dict:
    epochs_ms = [1e3 * e for rnd in rounds for r in rnd for e in r.epoch_s]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "train_s": (median_train_s(rounds), "s"),
        "epoch_ms_p50": (statistics.median(epochs_ms), "ms"),
        "epoch_ms_p90": (statistics.quantiles(epochs_ms, n=10)[8], "ms"),
        "time_to_target_s": (statistics.median(
            sum(r.time_to_target_s for r in rnd) for rnd in rounds), "s"),
        "final_objective": (sum(r.final_objective for r in rounds[0]), "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def per_layer(tracer, setup, rounds, untraced) -> dict:
    ops = [r for rnd in rounds for r in rnd]
    epochs = sum(len(r.epoch_s) for r in ops)
    calls, incl = tracer.calls, tracer.inclusive

    def per_epoch_ms(*names):
        return 1e3 * sum(incl[n] for n in names) / epochs

    def per_epoch_calls(*names):
        return sum(calls[n] for n in names) / epochs

    def per_call_ms(name):           # set-up calls included
        n = calls[name] + setup[0].get(name, 0)
        return 1e3 * (incl[name] + setup[1].get(name, 0.0)) / n if n else 0.0

    blocks = [f"optimizer.{b}" for b in BLOCKS]
    run_epoch = "optimizer.run_epoch"
    out = {
        "epoch.ms": (1e3 * sum(sum(r.epoch_s) for r in ops) / epochs, "ms/epoch"),
        "run_epoch.ms": (per_epoch_ms(run_epoch), "ms/epoch"),
        "run_epoch.self_ms": (1e3 * (incl[run_epoch] - sum(
            tracer.child_time[run_epoch, b] for b in blocks)) / epochs, "ms/epoch"),
    }
    out.update({f"{b}.ms": (per_epoch_ms(f"optimizer.{b}"), "ms/epoch") for b in BLOCKS})
    out.update({
        "fista_iters": (sum(r.fista_iters for r in ops) / epochs, "count/epoch"),
        "trials_w": (sum(r.trials_w for r in ops) / epochs, "count/epoch"),
        "trials_a": (sum(r.trials_a for r in ops) / epochs, "count/epoch"),
        "epochs_to_target": (statistics.mean(r.epochs_to_target for r in ops), "epochs"),
        "evaluate_f.ms": (per_epoch_ms("objective.evaluate_f"), "ms/epoch"),
        "evaluate_f.calls": (per_epoch_calls("objective.evaluate_f"), "calls/epoch"),
        "penalty_phi.calls": (per_epoch_calls("objective.penalty_phi"), "calls/epoch"),
        "grad_phi.calls": (per_epoch_calls(*(f"objective.grad_phi_{v}" for v in "wbza")),
                           "calls/epoch"),
        "risk.calls": (per_epoch_calls("objective.risk_value", "objective.risk_grad"),
                       "calls/epoch"),
        "check_one_hot.calls": (per_epoch_calls("objective.check_one_hot"), "calls/epoch"),
        "check_one_hot.ms": (per_epoch_ms("objective.check_one_hot"), "ms/epoch"),
        "activation_apply.ms": (per_epoch_ms("network_state.activation_apply"), "ms/epoch"),
        "activation_apply.calls": (per_epoch_calls("network_state.activation_apply"),
                                   "calls/epoch"),
        "slab_z_bounds.ms": (per_epoch_ms("network_state.slab_z_bounds"), "ms/epoch"),
        "feasibility_residual.ms": (per_epoch_ms("network_state.feasibility_residual"),
                                    "ms/epoch"),
        "initialize.ms": (per_call_ms("network_state.initialize"), "ms/call"),
        "forward_logits.ms": (per_epoch_ms("network_state.forward_logits"), "ms/epoch"),
        "grad_b_identity_check.ms": (per_epoch_ms("diagnostics.grad_b_identity_check"),
                                     "ms/epoch"),
        "matmul.calls": (per_epoch_calls("tensor_core.matmul"), "calls/epoch"),
        "clamp.calls": (per_epoch_calls("tensor_core.clamp"), "calls/epoch"),
        "add_col.calls": (per_epoch_calls("tensor_core.add_col"), "calls/epoch"),
        "backprop_grads.ms": (per_epoch_ms("baselines.backprop_grads"), "ms/epoch"),
        "backprop_grads.calls": (per_epoch_calls("baselines.backprop_grads"), "calls/epoch"),
        "select_learning_rate.s": (incl["baselines.select_learning_rate"] / len(ops), "s/op"),
        "cli.main.self_s": (tracer.layer_self("cli") / len(ops), "s/op"),
        "synth_gaussian_blobs.ms": (per_call_ms("data_io.synth_gaussian_blobs"), "ms/call"),
        "trace.overhead_s": (median_train_s(rounds) - median_train_s(untraced), "s"),
    })
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "dlam" / "__init__.py").is_file():
        print(f"error: no dlam sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, Workload
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    workload = Workload(args.workload, args.seed, SCRATCH)
    try:
        workload.prepare()
        own_setup_s = time.perf_counter() - T0
        if args.setup_probe:
            print(repr(own_setup_s))
            return 0

        counts = {"attempted": 0, "failed": 0}
        ops = workload.operations()
        if tracer is None:
            setup_times = [own_setup_s] + probe_setup(args)
            rounds = closed_loop(ops, args.seconds, counts)
        else:
            setup = (dict(tracer.calls), dict(tracer.inclusive))
            tracer.uninstall()
            tracer.reset()
            rounds, untraced = traced_loop(ops, args.seconds, counts, tracer)
    finally:
        workload.close()

    complete = whole(rounds, len(ops))
    if not complete or (tracer is not None and not whole(untraced, len(ops))):
        print("error: no round completed without a failed operation", file=sys.stderr)
        return 1
    if tracer is None:
        metrics = end_to_end(complete, setup_times)
    else:
        metrics = per_layer(tracer, setup, complete, whole(untraced, len(ops)))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:12s} {name:26s} {value:14.6g} {unit}")
    print(f"{args.workload:12s} rounds {len(rounds)}, operations attempted "
          f"{counts['attempted']}, failed {counts['failed']}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({
        "correct": repeatable(complete),
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
