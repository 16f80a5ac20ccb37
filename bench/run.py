"""folkit benchmark: run one workload for a while, check every output, print the metrics.

    python3 bench/run.py --workload refute|mus|sweep|models
                         [--seed N] [--seconds S] [--trace 0|1] [--out FILE]

Run it from the root of a folkit checkout; it imports folkit from ./src and
from nowhere else.  Set-up imports folkit and builds the workload's inputs.
Then whole passes over the workload's operations run until --seconds have
gone by.  Set-up is then repeated, SETUP_REPEATS times in all, and its median
reported.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 passes
alternate between untraced and traced by bench/tracing.py, and the metrics
are the per-layer ones plus the tracing overhead; the spans are written to
bench/results/.  --out appends the result, with its workload and seed, to a
JSON-lines file that bench/compare.py reads.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "bench" / "results"
SETUP_REPEATS = 11
DEFAULT_SEED = 2025  # the seed of acceptance criterion 5


def load(name: str, seed: int):
    """Import folkit afresh and build the workload's inputs."""
    from workloads import BUILDERS

    for module in [m for m in sys.modules if m == "folkit" or m.startswith("folkit.")]:
        del sys.modules[module]
    fk = importlib.import_module("folkit")
    importlib.import_module("folkit.cli")
    if not Path(fk.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"folkit was imported from {fk.__file__}, not from {SRC}")
    return fk, BUILDERS[name](fk, seed, ROOT)


def timed_load(name: str, seed: int):
    start = time.perf_counter()
    fk, workload = load(name, seed)
    return time.perf_counter() - start, fk, workload


def one_pass(workload, tracer=None):
    """Run every operation once; returns their times, failures and check errors."""
    done, times = [], []
    for op in workload.ops:
        if tracer is not None:
            tracer.begin_op(op.name)
        t0 = time.perf_counter()
        outcome = op.run()
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.end_op()
        done.append((op, outcome))
    # outputs are checked outside the timed region
    failed, errors = 0, []
    for op, outcome in done:
        if op.failed(outcome):
            failed += 1
        else:
            errors += [f"{op.name}: {e}" for e in op.check(outcome)]
    return times, failed, errors + workload.check_pass(done)


def run_passes(workload, seconds: float, tracer=None):
    """Whole passes until `seconds` have gone by, at least one of each kind.

    With a tracer, passes alternate between untraced and traced, so that
    both kinds see the same stretches of the machine's drifting speed.
    """
    plain, traced, failed, errors = [], [], 0, []
    start = time.perf_counter()
    while (not plain or (tracer is not None and not traced)
           or time.perf_counter() - start < seconds):
        if tracer is not None and len(traced) < len(plain):
            with tracer:
                times, f, e = one_pass(workload, tracer)
            traced.append(times)
        else:
            times, f, e = one_pass(workload)
            plain.append(times)
        failed += f
        errors += e
    return plain, traced, failed, errors


def typical_times(passes: list[list[float]]) -> list[float]:
    """Each operation's median time across the run's passes.

    The machine's speed drifts by tens of percent over seconds; a median
    per operation discards a slow stretch that hit one pass.
    """
    return [statistics.median(times) for times in zip(*passes)]


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("refute", "mus", "sweep", "models"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append the result to this JSON-lines file")
    args = parser.parse_args(argv)

    if not (SRC / "folkit" / "__init__.py").is_file():
        print(f"error: no folkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    first_setup, fk, workload = timed_load(args.workload, args.seed)
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(fk)
        plain, traced, failed, errors = run_passes(workload, args.seconds, tracer)
        base = sum(typical_times(plain))
        overhead = sum(typical_times(traced)) - base
        values = tracer.metrics(len(traced))
        values["trace.overhead_s"] = overhead
        values["trace.overhead_share"] = overhead / base
        tracer.dump(
            RESULTS / f"trace-{args.workload}-{args.seed}.json",
            {"workload": args.workload, "seed": args.seed, "passes": len(traced)},
        )
        units = {m["name"]: m["unit"] for m in declared("per_layer")}
    else:
        plain, traced, failed, errors = run_passes(workload, args.seconds)
        typical = typical_times(plain)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # the repeats come last, so that old copies of folkit do not count
        # in the peak memory of the workload
        setups = [first_setup] + [
            timed_load(args.workload, args.seed)[0] for _ in range(SETUP_REPEATS - 1)
        ]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": sum(typical),
            "op_p50_s": statistics.median(typical),
            "op_p95_s": percentile(typical, 0.95),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {m["name"]: m["unit"] for m in declared("end_to_end")}

    for error in errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": sum(len(times) for times in plain + traced),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    if args.out is not None:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "result": result}
        with args.out.open("a", encoding="utf-8") as f:
            f.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


def declared(kind: str) -> list[dict]:
    """The metrics BENCHMARK.json declares, so the two never drift apart."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec[kind]


if __name__ == "__main__":
    sys.exit(main())
