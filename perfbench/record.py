"""Run the benchmark over several seeds and summarise each metric's spread.

Run from the root of a checkout:

    python3 perfbench/record.py --seeds 1 2 3 4 5 --trace 0 1 --out perfbench/BASELINE.json

Every run is a fresh ``run.py`` process (peak RSS is per process); seeds go
round-robin over the workloads so that a slow spell of the machine is shared
out.  For each workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
inter-quartile distance as a share of the median, next to the metric's bound
from BENCHMARK.json.  A spread above the bound is marked ``WIDE``; above a
third of it, ``wide``.  The exit code is 1 when any run fails its gates or
any end-to-end spread (set-up time aside) exceeds its bound.

``--out`` writes the summary, the environment, every run's metrics and, for
the first traced run of each workload, every per-layer metric (including the
self times left out of the result line) and the self-time table, as JSON.
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
RUN = HERE / "run.py"


def summarise(values: list[float], bound: float | None) -> dict:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / abs(median) if median else 0.0
    entry = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}
    if bound is not None:
        entry["bound"] = bound
    return entry


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    record_file = HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    record_file.unlink(missing_ok=True)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    env = json.loads(lines[0])["env"] if lines and lines[0].startswith('{"env"') else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.stderr.write(proc.stderr[-2000:])
    record = json.loads(record_file.read_text()) if record_file.is_file() else {}
    return {"seed": seed, "trace": trace, "exit": proc.returncode, "result": result,
            "env": env, "layers": record.get("per_layer"), "self_times": record.get("self_times")}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", nargs="+", type=int, choices=(0, 1), default=[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs: dict[str, list[dict]] = {w: [] for w in args.workloads}
    for seed in args.seeds:
        for workload in args.workloads:
            for trace in args.trace:
                run = run_once(workload, seed, args.seconds, trace)
                runs[workload].append(run)
                status = "ok" if run["exit"] == 0 else f"exit {run['exit']}"
                print(f"{workload} seed {seed} trace {trace}: {status}", flush=True)

    ok = True
    summary = {}
    for workload, done in runs.items():
        ok = ok and all(r["exit"] == 0 and r["result"] and r["result"]["correct"] for r in done)
        entry = summary[workload] = {"seeds": args.seeds}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            results = [r["result"] for r in done if r["trace"] == trace and r["result"]]
            if not results:
                continue
            entry[key] = {}
            print(f"{workload} {key} over {len(results)} runs:")
            for name, first in results[0]["metrics"].items():
                values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
                stats = summarise(values, bounds.get(name) if trace == 0 else None)
                stats["unit"] = first["unit"]
                entry[key][name] = stats
                flag = ""
                if "bound" in stats:
                    if stats["spread"] > stats["bound"]:
                        flag = "WIDE"
                        ok = ok and name == "setup_s"
                    elif stats["spread"] > stats["bound"] / 3:
                        flag = "wide"
                print(f"  {name:28s} median {stats['median']:>14.6g} {stats['unit']:6s} "
                      f"spread {stats['spread']:7.2%}"
                      + (f" bound {stats['bound']:.0%} {flag}" if "bound" in stats else ""))
        traced = [r for r in done if r["trace"] == 1 and r["self_times"]]
        if traced:
            entry["traced_seed"] = traced[0]["seed"]
            entry["layers"] = traced[0]["layers"]
            entry["self_times"] = traced[0]["self_times"]
        entry["runs"] = [{k: r[k] for k in ("seed", "trace", "exit", "result")} for r in done]

    if args.out:
        env = next((r["env"] for done in runs.values() for r in done if r["env"]), None)
        document = {"command": "python3 perfbench/record.py " + " ".join(argv or sys.argv[1:]),
                    "seconds": args.seconds, "env": env, "workloads": summary}
        args.out.write_text(json.dumps(document, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
