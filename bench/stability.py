"""Run one workload over several seeds and report the spread of each metric.

    python3 bench/stability.py --workload ml100k-perbatch --seeds 1-10 [--label set1]

Runs ``bench/run.py`` once per seed, one after another, from the repository
root. For every end-to-end metric it prints the median and the distance
between the first and third quartiles (``statistics.quantiles(n=4)``) as a
share of the median, for a timing also those of the plain wall-clock
medians, and it prints the range of the host-speed probe over the runs.
The raw results are saved to ``bench/_out/<label>-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / abs(med) if med else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--label", default="set")
    args = ap.parse_args()

    runs = []
    for seed in args.seeds:
        t = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        wall = time.perf_counter() - t
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.exit(f"seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
        probe, result = json.loads(lines[-2]), json.loads(lines[-1])
        runs.append({"seed": seed, "wall_s": wall, **probe, **result})
        print(f"seed {seed}: {wall:.1f}s correct={result['correct']} "
              f"spmm_ms={probe['host_probe']['spmm_ms_median']:.1f}", file=sys.stderr)

    print(f"{args.workload}: {len(runs)} runs, all correct: {all(r['correct'] for r in runs)}, "
          f"failed/attempted: {sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}, "
          f"max wall {max(r['wall_s'] for r in runs):.1f}s")
    for name in runs[0]["metrics"]:
        med, iqr = spread([r["metrics"][name]["value"] for r in runs])
        line = (f"  {name:12s} median {med:10.4f} {runs[0]['metrics'][name]['unit']:6s} "
                f"IQR/median {100 * iqr:5.2f}%")
        if name in runs[0]["samples"]:
            raw_med, raw_iqr = spread([statistics.median(r["samples"][name]) for r in runs])
            line += f"   wall clock: median {raw_med:10.4f} IQR/median {100 * raw_iqr:5.2f}%"
        print(line)
    for key in ("spmm", "pyloop"):
        meds = [r["host_probe"][f"{key}_ms_median"] for r in runs]
        print(f"  probe {key:6s} ms: per-run medians {min(meds):6.1f} to {max(meds):6.1f}, "
              f"samples {min(r['host_probe'][f'{key}_ms_min'] for r in runs):6.1f} to "
              f"{max(r['host_probe'][f'{key}_ms_max'] for r in runs):6.1f}")
    os.makedirs(os.path.join(HERE, "_out"), exist_ok=True)
    with open(os.path.join(HERE, "_out", f"{args.label}-{args.workload}.json"), "w") as fh:
        json.dump(runs, fh, indent=1)


if __name__ == "__main__":
    main()
