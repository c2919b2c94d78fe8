"""One benchmark process: import ``hybnet``, build the inputs, run rounds.

    python3 hybbench/worker.py setup OPS.json
    python3 hybbench/worker.py work OPS.json RESULT.json SECONDS TRACE SPANS

``setup`` prints the import and input-building times of a fresh process,
and the times of the yardstick units (``yardstick.py``) run right before
and right after them.  ``work`` also runs whole rounds of the operations
until SECONDS have passed and writes the timings, the distinct outputs of
each operation and the peak resident memory to RESULT.json.  Untraced, it
times a yardstick unit between every two operations.  With TRACE=1 the
spans go to SPANS and the per-layer metrics into the result.
"""

from __future__ import annotations

import contextlib
import gc
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import yardstick  # noqa: E402


def import_hybnet():
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import hybnet

    return hybnet, time.perf_counter() - started


def build_inputs(hybnet, ops):
    """Program objects for each operation, built from its text."""
    built = []
    for op in ops:
        if op["kind"] == "solve":
            built.append(hybnet.Instance.from_newicks(op["newicks"]))
        else:
            built.append((hybnet.network_from_json(op["network"]), hybnet.parse_newick(op["tree"])))
    return built


def run_rounds(hybnet, ops, built, seconds, tracer=None):
    """Whole rounds of every operation until `seconds` have passed.  Only the
    `solve` and `displays` calls are timed.  Untraced, a yardstick unit is
    timed before the first operation and after each one, and each timed
    operation keeps the index of the unit right after it."""
    rounds, outputs, errors = [], [[] for _ in ops], []
    op_seconds = [[] for _ in ops]
    op_yards = [[] for _ in ops]
    yards = [] if tracer else [yardstick.measure()]
    attempted = failed = 0
    events: Counter = Counter()
    started = time.perf_counter()
    while True:
        busy = 0.0
        with tracer.span("round") if tracer else contextlib.nullcontext():
            for i, (op, obj) in enumerate(zip(ops, built)):
                attempted += 1
                log = [] if tracer else None
                gc.collect()  # each operation starts from a collected heap
                try:
                    t0 = time.perf_counter()
                    if op["kind"] == "solve":
                        sol = hybnet.solve(obj, trace=log)
                        took = time.perf_counter() - t0
                        out = [sol.k, hybnet.emit(sol.network, "json")]
                    else:
                        out = hybnet.displays(*obj)
                        took = time.perf_counter() - t0
                except Exception as exc:  # a failed operation is counted, not fatal
                    failed += 1
                    errors.append(f"op {i}: {type(exc).__name__}: {exc}")
                    continue
                finally:
                    if not tracer:
                        yards.append(yardstick.measure())
                busy += took
                op_seconds[i].append(took)
                if not tracer:
                    op_yards[i].append(len(yards) - 1)
                if out not in outputs[i]:
                    outputs[i].append(out)
                if log:
                    events.update(ev["event"] for ev in log)
        rounds.append(busy)
        if time.perf_counter() - started >= seconds:
            break
    return {"rounds": rounds, "op_seconds": op_seconds, "op_yards": op_yards, "yards": yards,
            "attempted": attempted, "failed": failed,
            "errors": errors, "outputs": outputs, "events": dict(events)}


def main(argv) -> int:
    mode, ops_path = argv[0], argv[1]
    ops = json.loads(Path(ops_path).read_text())
    yard_before = yardstick.measure() if mode == "setup" else None
    hybnet, import_s = import_hybnet()
    tracer = None
    if mode == "work" and argv[4] == "1":
        import layers
        from spans import Tracer

        tracer = Tracer()
        layers.install(tracer)
    started = time.perf_counter()
    with tracer.span("setup") if tracer else contextlib.nullcontext():
        built = build_inputs(hybnet, ops)
    build_s = time.perf_counter() - started
    result = {"import_s": import_s, "build_s": build_s}
    if mode == "setup":
        result["yards"] = [yard_before, yardstick.measure()]
        print(json.dumps(result))
        return 0
    result.update(run_rounds(hybnet, ops, built, float(argv[3]), tracer))
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
        tracer.write(argv[5])
        result["layers"] = layers.layer_metrics(tracer, len(result["rounds"]), 1, result["events"])
    Path(argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
