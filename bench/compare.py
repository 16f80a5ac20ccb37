"""Compare two sets of benchmark results, metric by metric and workload by workload.

    python3 bench/compare.py BASE.jsonl NEW.jsonl

Each file holds the records that ``bench/run.py --out FILE`` appends, one
run per line.  For every workload and metric the table gives each side's
median and quartiles (``statistics.quantiles(values, n=4)``) and the change
of the median.  End-to-end metrics are judged against their bound in
BENCHMARK.json: "ok" when NEW's median is no worse than BASE's by more than
the bound, "WORSE" otherwise, and "unresolved" when BASE's own spread (the
distance between its quartiles, as a share of its median) is wider than the
bound.  Per-layer metrics have no bound and are listed for reading.  The
share of failed operations must be the same on both sides.  The exit status
is 1 if any end-to-end metric is WORSE or the failed shares differ.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def read(path: Path):
    values = defaultdict(list)  # (workload, metric) -> values
    failed = defaultdict(lambda: [0, 0])  # workload -> [failed, attempted]
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        result = record["result"]
        failed[record["workload"]][0] += result["failed"]
        failed[record["workload"]][1] += result["attempted"]
        for name, metric in result["metrics"].items():
            values[record["workload"], name].append(metric["value"])
    return values, failed


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    metrics = [(m, True) for m in spec["end_to_end"]] + [(m, False) for m in spec["per_layer"]]
    (base, base_failed), (new, new_failed) = (read(Path(p)) for p in argv)
    bad = False
    print(f"{'workload':8} {'metric':30} {'base q1/median/q3':>32} {'new q1/median/q3':>32}"
          f" {'change':>8}  verdict")
    for workload in sorted({w for w, _ in base} & {w for w, _ in new}):
        for metric, bounded in metrics:
            key = (workload, metric["name"])
            if key not in base or key not in new:
                continue
            b1, bm, b3 = summary(base[key])
            n1, nm, n3 = summary(new[key])
            change = (nm - bm) / bm if bm else 0.0
            verdict = ""
            if bounded:
                worse = change if metric["better"] == "lower" else -change
                if bm and (b3 - b1) / bm > metric["bound"]:
                    verdict = "unresolved"
                elif worse > metric["bound"]:
                    verdict, bad = "WORSE", True
                else:
                    verdict = "ok"
            print(f"{workload:8} {metric['name']:30} {b1:10.4g} {bm:10.4g} {b3:10.4g}"
                  f" {n1:10.4g} {nm:10.4g} {n3:10.4g} {change:+8.1%}  {verdict}")
        bf, ba = base_failed[workload]
        nf, na = new_failed[workload]
        same = bf * na == nf * ba
        bad = bad or not same
        print(f"{workload:8} failed share: base {bf}/{ba}, new {nf}/{na}"
              f" {'same' if same else 'DIFFERENT'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
