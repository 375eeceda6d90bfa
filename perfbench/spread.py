"""Run the benchmark once per seed and report each metric's median and spread.

    python3 perfbench/spread.py --workload heat_2d --seeds 1-10 --seconds 20

Runs are made one after another, each in a fresh process.  The spread of a
metric is its interquartile range (``statistics.quantiles(values, n=4)``) as
a share of its median; BENCHMARK.json bounds it for the end-to-end metrics.
``--record FILE`` adds the summary under the workload's name to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(spec: str):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in declared["end_to_end"]}
    values, failed = {}, 0
    for seed in seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if proc.returncode != 0 or result is None or not result["correct"]:
            failed += 1
            print(f"seed {seed}: exit {proc.returncode}, "
                  f"{lines[-1] if lines else proc.stderr.strip()[-300:]}")
            continue
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(f"{k} {v['value']:.5g}"
                                          for k, v in result["metrics"].items()
                                          if k in bounds))

    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "n": len(vals)}
        bound = bounds.get(name)
        flag = "" if bound is None else (f"  bound {bound}" + ("  OVER A THIRD" if spread > bound / 3 else ""))
        print(f"{name:<36} median {med:<12.6g} spread {spread:7.2%}{flag}")
    print(f"failed runs: {failed}")
    if args.record:
        data = json.loads(args.record.read_text()) if args.record.exists() else {}
        data.setdefault(args.workload, {})[f"trace_{args.trace}"] = summary
        args.record.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
