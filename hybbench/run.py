"""Benchmark of ``hybnet``: seeded workloads, checked outputs, one JSON line.

    python3 hybbench/run.py --workload aaf-mid --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The inputs are generated from the seed by
the benchmark's own generator; the operations run serially in one fresh
process; every output is checked by code that shares nothing with
``hybnet``.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics when --trace is 0 and the per-layer metrics when it is 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402

OUT = HERE / "out"
SETUP_SAMPLES = 11  # six before the rounds and five after, so that they meet different host load
CHILD_TIMEOUT_S = 150
REFERENCES = HERE / "references.json"


def shape_key(shape) -> str:
    return ":".join(str(x) for x in shape)


def child_env() -> dict:
    """No worker pool (HYBNET_THREADS unset); bytecode written, so that imports
    after the first read it as a user's would; and one fixed hash seed: the
    iteration order of sets otherwise moves a solve's time by a tenth from
    process to process."""
    drop = ("HYBNET_THREADS", "PYTHONDONTWRITEBYTECODE")
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, env) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "worker.py"), *args], env=env,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)


def in_units(seconds: float, after: int, yards: list) -> float:
    """A timed sample in yardstick units: over the mean of the units nearest
    it, up to three right before it and three from `after` on.  Six units
    average out the yardstick's own noise, and being near they ran in the
    same stretch of host speed as the sample."""
    return seconds / statistics.mean(yards[max(0, after - 3):after + 3])


def setup_times(count: int, ops_path: Path, env) -> list:
    """Import plus input-building time of `count` fresh processes, each as
    (wall seconds, yardstick units)."""
    out = []
    for _ in range(count):
        got = json.loads(run_child(["setup", str(ops_path)], env).stdout)
        wall = got["import_s"] + got["build_s"]
        out.append((wall, in_units(wall, 1, got["yards"])))
    return out


def check_outputs(workload: str, ops, outputs) -> dict:
    """Problems per operation, and the operations whose k beat the
    reference (their networks passed every check)."""
    refs = json.loads(REFERENCES.read_text()).get(workload, {})
    problems, below = [], []
    bounds: dict = {}
    for i, (op, outs) in enumerate(zip(ops, outputs)):
        if op["kind"] == "displays":
            if any(verdict != op["expected"] for verdict in outs):
                problems.append(f"op {i}: verdicts {outs}, expected {op['expected']}")
            continue
        shape = workloads.CATALOGUE[workload][op["entry"]]
        ref = refs[shape_key(shape)]
        for k, net in outs:
            for p in check.check_network(net, k, op["newicks"]):
                problems.append(f"op {i} ({shape_key(shape)}): {p}")
            if k > ref:
                problems.append(f"op {i} ({shape_key(shape)}): k={k} above the reference {ref}")
            elif k < ref:
                below.append(f"{shape_key(shape)}: k={k} < reference {ref}")
            key = (op["entry"], k)
            if key not in bounds:
                a, b, c = op["newicks"]
                pairs = [(a, b), (a, c), (b, c)]
                bounds[key] = all(check.pair_hybridization(x, y, k) is not None for x, y in pairs)
            if not bounds[key]:
                problems.append(f"op {i} ({shape_key(shape)}): k={k} below a two-tree bound")
    return {"problems": problems, "below_reference": sorted(set(below))}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(workloads.CATALOGUE))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (HERE.parent / "src" / "hybnet" / "__init__.py").is_file():
        print("hybbench: no hybnet sources under src/; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.seed}-{args.trace}"
    ops = workloads.build(args.workload, args.seed)
    ops_path = OUT / f"ops-{tag}.json"
    ops_path.write_text(json.dumps(ops))
    env = child_env()

    try:
        # the first import compiles the bytecode cache; it is not a sample
        run_child(["setup", str(ops_path)], env)
        before = 0 if args.trace else SETUP_SAMPLES // 2 + 1
        samples = setup_times(before, ops_path, env)
        result_path = OUT / f"result-{tag}.json"
        run_child(["work", str(ops_path), str(result_path), str(args.seconds), str(args.trace),
                   str(OUT / f"spans-{tag}.bin")], env)
        if not args.trace:
            samples += setup_times(SETUP_SAMPLES - before, ops_path, env)
    except subprocess.CalledProcessError as exc:
        print(exc.stderr, file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired:
        print(f"hybbench: a worker ran past {CHILD_TIMEOUT_S}s", file=sys.stderr)
        return 1
    result = json.loads(result_path.read_text())
    verdict = check_outputs(args.workload, ops, result["outputs"])
    for line in result["errors"] + verdict["problems"]:
        print(f"hybbench: {line}", file=sys.stderr)
    for line in verdict["below_reference"]:
        print(f"hybbench: below reference (network verified): {line}", file=sys.stderr)

    rounds = result["rounds"]
    # one round's work, each operation at its median over the rounds
    wall_s = sum(statistics.median(times) for times in result["op_seconds"] if times)
    print(f"hybbench: {args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"wall work per round {wall_s:.4f}s", file=sys.stderr)
    if args.trace:
        units = dict(layers.PER_LAYER)
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in result["layers"].items()}
    else:
        # as wall_s, each operation in yardstick units before its median
        yards = result["yards"]
        work_units = sum(statistics.median(in_units(t, j, yards) for t, j in zip(times, after))
                         for times, after in zip(result["op_seconds"], result["op_yards"]) if times)
        setup_units = statistics.median(units for _, units in samples)
        print(f"hybbench: yardstick unit {statistics.median(yards):.4f}s (median of {len(yards)}); "
              f"wall set-up {statistics.median(wall for wall, _ in samples):.4f}s", file=sys.stderr)
        metrics = {
            "work_s": {"value": work_units * yardstick.REFERENCE_S, "unit": "s"},
            "setup_s": {"value": setup_units * yardstick.REFERENCE_S, "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024, "unit": "MB"},
        }
    print(json.dumps({"correct": not verdict["problems"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
