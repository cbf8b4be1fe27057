"""Print one table of every workload's metrics, each with its unit.

    python3 bench/report.py [--seed N] [--seconds S] [--trace]

Each workload runs in its own `bench/run.py` process, so peak RSS is the
workload's own.  Without `--trace` the table holds the end-to-end metrics
plus `query_n` and `failed_ratio`; with it, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    trace = int(args.trace)

    results = {}
    for workload in gen.WORKLOADS:
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
        ]
        done = subprocess.run(command, capture_output=True, text=True)
        if done.returncode:
            sys.stderr.write(done.stderr)
            return done.returncode
        path = HERE / ".work" / f"{workload}-{args.seed}-trace{trace}" / "result.json"
        results[workload] = json.loads(path.read_text())

    first = next(iter(results.values()))
    rows = [(name, m["unit"]) for name, m in first["metrics"].items()]
    if not trace:
        rows += [("query_n", "count"), ("failed_ratio", "ratio")]
    print(f"{'metric':34s} {'unit':12s}" + "".join(f"{w:>16s}" for w in results))
    for name, unit in rows:
        cells = []
        for result in results.values():
            if name in result["metrics"]:
                value = result["metrics"][name]["value"]
            elif name == "query_n":
                value = result["environment"]["query_n"]
            else:
                value = result[name]
            cells.append(f"{value:16.6g}")
        print(f"{name:34s} {unit:12s}" + "".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
