"""Run one workload once per seed and summarize each metric across the runs.

    python3 benchmarks/spread.py --workload repro-5k --seeds 1-10 --seconds 15

Runs ``run.py`` one seed after another (never two at once, so they do not
share the cores), then prints, per metric, the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and their distance as a
share of the median. ``--jsonl FILE`` also appends each run's result line.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(spec: str) -> list[int]:
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jsonl", help="append every result line to this file")
    args = parser.parse_args(argv)

    results = []
    for seed in seeds(args.seeds):
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if out.returncode != 0:
            print(out.stderr, file=sys.stderr)
            return out.returncode
        result = json.loads(out.stdout.splitlines()[-1])
        results.append(result)
        if args.jsonl:
            with open(args.jsonl, "a") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        print(f"seed {seed}: correct {result['correct']}, attempted {result['attempted']}, "
              f"failed {result['failed']}", file=sys.stderr)

    print(f"{args.workload}: {len(results)} runs, failed share "
          f"{sorted({r['failed'] / r['attempted'] for r in results})}")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
        share = (q3 - q1) / med if med else float("nan")
        print(f"  {name:26s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
              f"spread {share:7.4f}  {first['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
