"""Benchmark of the hddcrp command line, end to end and layer by layer.

    python3 perfbench/run.py --workload hddcrp-topics --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
`src` directory.  The inputs are generated from --seed.  With --trace 0 the
last line of standard output is a JSON object with the end-to-end metrics;
with --trace 1 it holds the per-layer metrics of a traced run.  Every time
is in reference seconds (see clock.py); raw wall seconds are printed above
the JSON line for comparison.  `--workload all` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from gen import save_inputs, write_inputs
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_RUNS = 5
CHILD_TIMEOUT_S = 170


def _child(args):
    cmd = [sys.executable, str(HERE / "worker.py"), *map(str, args)]
    # a fixed string hash seed keeps dict layouts, and so their speed, alike
    # from one process to the next
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:4])} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric_units():
    """(end-to-end, per-layer) metric name -> unit maps from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def run_workload(name, seed, seconds, trace):
    """(result object for the JSON line, rows of name, value, unit, raw)."""
    workload = WORKLOADS[name]
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    inputs_json = work / "inputs.json"
    save_inputs(write_inputs(workload.shape, seed, work / "inputs"), inputs_json)

    src = ROOT / "src"
    setups = [_child(["setup", src, inputs_json]) for _ in range(SETUP_RUNS)]
    res = _child(["run", src, inputs_json, name, seed, seconds, int(trace)])

    def med(key):
        return statistics.median(s[key] for s in setups)

    raw = {"setup_s": med("setup_raw_s"), "pipeline_s": res["pipeline_raw_s"],
           "sample_s": res["sample_raw_s"]}
    end_to_end, per_layer = _metric_units()
    if trace:
        values = dict(res["layers"], **{"cli.import_s": med("import_s"),
                                        "corpus.load_s": med("load_s")})
        units = per_layer
    else:
        values = dict(res, setup_s=med("setup_s"))
        units = end_to_end
    for err in res["errors"]:
        print(f"{name}: check failed: {err}", file=sys.stderr)
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    result = {"correct": not res["errors"], "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    rows = [(k, values[k], u, raw.get(k)) for k, u in units.items()]
    print(f"{name}: seed {seed}, {workload.shape.n_mentions} mentions, {res['rounds']} rounds, "
          f"{res['attempted']} commands attempted, {res['failed']} failed")
    return result, rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hddcrp" / "__init__.py").is_file():
        print(f"error: no hddcrp sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, rows = run_workload(name, args.seed, args.seconds, args.trace)
        for metric, value, unit, raw in rows:
            extra = f"   (raw wall {raw:.4f} s)" if raw is not None else ""
            print(f"  {name:<15} {metric:<26} {value:>14.6f} {unit}{extra}")
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
