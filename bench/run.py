"""Benchmark for `smeared run` and `smeared verify`.

    python3 bench/run.py --workload {gb_cold,query_stream,certify} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout: the package is imported from
`src/`.  The workload's problem files are generated from the seed (see
`gen.py`, which also records why each workload exists and its expected
answers).  One closed-loop client runs the public CLI entry points in this
process, one query at a time: each pass reloads every problem file through
`run_command`, so every Groebner cache starts cold as in a fresh
`smeared run`, then re-checks each emitted document with `verify_command`.
Passes repeat for `--seconds`, and at least MIN_PASSES times.

Every pass is checked: each query must succeed, its canonical fields must
equal the generator's answers, and every verify line must pass.  Failures
are counted against attempted operations (queries plus verify lines).

Times are corrected for the host's speed.  On a 2-vCPU Xeon KVM guest the
speed switched between two levels about 2x apart every few seconds and
drifted by 10% over minutes, which moved medians over passes by 20-40%
between runs.  A side thread (`HostSpeed`) times a fixed 0.13 ms Fraction
loop every 20 ms; each measured interval is scaled by a fixed reference
time over the mean probe time around it.  Over ten seeds the spread of
each metric fell to 2-6%, 12% on the shortest.  The process is pinned to
one CPU so the probe shares the passes' core.  `result.json` keeps the
uncorrected times too.

`setup_s` is a file's `run_command` time up to its first query (loading plus
the validation gate): run time minus the queries' `elapsed_us`.  `run_s`,
`setup_s` and `verify_s` are medians over passes of the sum over files;
query percentiles are over every query of every pass.

With `--trace 0` the last line reports the end-to-end metrics.  With
`--trace 1` traced and untraced passes alternate and the last line reports
the per-layer metrics of `tracer.py`.  Everything the run writes goes under
`bench/.work/`.
"""

from __future__ import annotations

import argparse
import bisect
import io
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from tracer import Tracer, unit  # noqa: E402


MIN_PASSES = 3
MIN_LATENCIES = 110  # pooled over passes: 10 beyond the 90th percentile


def _import_engine():
    """Import `smeared` from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "smeared" / "__init__.py").is_file():
        raise SystemExit(f"error: no smeared sources under {src}")
    sys.path.insert(0, str(src))
    import smeared
    import smeared.groebner

    if Path(smeared.__file__).resolve().parent != (src / "smeared").resolve():
        raise SystemExit(f"error: imported smeared from {smeared.__file__}, not {src}")
    if smeared.groebner.VERIFY_DIVISION:
        raise SystemExit("error: VERIFY_DIVISION must be off, as users run it")
    return smeared


def _commit():
    """HEAD commit read from .git without running git, or None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------------
# correctness


def _terms(smeared_ring, text):
    poly = smeared_ring.parse(text)
    return sorted([list(m), str(c)] for m, c in poly.terms.items())


def check_document(lines, expected, ring):
    """Problems with one emitted document: query errors and every canonical
    field that differs from the generator's answer."""
    results = [e for e in lines if e.get("type") == "result"]
    problems = []
    if len(results) != len(expected):
        problems.append(f"{len(results)} results for {len(expected)} queries")
    for entry, want in zip(results, expected):
        where = f"query {entry.get('index')} {entry.get('query')!r}"
        if entry.get("status") != "ok":
            problems.append(f"{where}: {entry.get('error')}")
            continue
        payload = entry["payload"]
        for field, value in want.items():
            got = payload.get(field)
            if field == "basis":
                got = [_terms(ring, text) for text in got]
            if got != value:
                problems.append(f"{where}: {field} is {got!r}, expected {value!r}")
    return problems


def check_verify(text, count):
    lines = [json.loads(line) for line in text.splitlines() if line.strip()]
    checks = [e for e in lines if e.get("type") == "verify"]
    problems = [f"verify {e.get('index')}: {e.get('problem')}" for e in checks if not e.get("ok")]
    if len(checks) != count:
        problems.append(f"verify checked {len(checks)} of {count} results")
    return problems, max(len(checks), count)


# ---------------------------------------------------------------------------
# host speed


def _probe():
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(i % 7 + 1, i % 11 + 1)
    return total


class HostSpeed:
    """Samples the host's speed from a side thread while passes run.

    Every INTERVAL seconds the thread times `_probe()`, a fixed loop of
    Fraction arithmetic of the kind the engine does (under 1% of the run).
    `slowdown(t0, t1)` is the mean probe time in that window (widened to at
    least WINDOW seconds) over REFERENCE_S, so dividing a measured interval
    by it gives the interval on a host where the probe takes REFERENCE_S,
    about its time on a 2-vCPU Xeon KVM guest at its faster speed.
    """

    INTERVAL = 0.02
    WINDOW = 0.1
    REFERENCE_S = 130e-6

    def __init__(self):
        self.starts: list = []
        self.seconds: list = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self):
        while not self._stop.wait(self.INTERVAL):
            t0 = time.perf_counter()
            _probe()
            self.seconds.append(time.perf_counter() - t0)
            self.starts.append(t0)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def slowdown(self, t0, t1):
        # widen short intervals to WINDOW so that several probes average out
        pad = max(0.0, self.WINDOW - (t1 - t0)) / 2
        lo = bisect.bisect_left(self.starts, t0 - pad)
        hi = bisect.bisect_right(self.starts, t1 + pad)
        if hi == lo:  # no sample inside: use the nearest one
            lo = min(max(lo - 1, 0), len(self.starts) - 1)
            hi = lo + 1
        return statistics.fmean(self.seconds[lo:hi]) / self.REFERENCE_S


# ---------------------------------------------------------------------------
# passes


class Pass:
    """One pass over the workload's problem files: run, then verify each.

    Records, per file, when `run_command` and `verify_command` started and
    ended and the queries' `elapsed_us`.  The emitted documents are kept for
    `check()`, which a traced pass calls only after the tracer is removed.
    """

    def __init__(self, cli, files, workdir):
        self.files = files
        self.runs = []  # per file: (start, end)
        self.verifies = []
        self.query_us = []  # per file, in query order
        self.outputs = []
        for problem, _ in files:
            out = workdir / (problem.stem + ".jsonl")
            with redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                cli.run_command(str(problem), str(out), False)
                self.runs.append((t0, time.perf_counter()))
            document = out.read_text()
            sink = io.StringIO()
            with redirect_stdout(sink):
                t0 = time.perf_counter()
                cli.verify_command(str(out), str(problem))
                self.verifies.append((t0, time.perf_counter()))
            self.outputs.append((document, sink.getvalue()))
            results = [json.loads(line) for line in document.splitlines()]
            self.query_us.append([e["elapsed_us"] for e in results if "elapsed_us" in e])

    def check(self, poly_ring):
        """(attempted operations, problems found)."""
        attempted, problems = 0, []
        for (_, spec), (document, verified) in zip(self.files, self.outputs):
            expected = spec["expected"]
            ring = poly_ring(tuple(spec["problem"]["ring"]["variables"]))
            lines = [json.loads(line) for line in document.splitlines()]
            problems += check_document(lines, expected, ring)
            verify_problems, verify_lines = check_verify(verified, len(expected))
            problems += verify_problems
            attempted += len(expected) + verify_lines
        return attempted, problems

    def timings(self, speed):
        """(run_s, setup_s, verify_s, [query seconds]) at the reference speed.

        Set-up is the start of `run_command` up to its first query; the
        queries follow it back to back.
        """
        run_s = setup_s = verify_s = 0.0
        queries = []
        for (r0, r1), (v0, v1), elapsed in zip(self.runs, self.verifies, self.query_us):
            setup = (r1 - r0) - sum(elapsed) / 1e6
            run_s += (r1 - r0) / speed.slowdown(r0, r1)
            setup_s += setup / speed.slowdown(r0, r0 + setup)
            verify_s += (v1 - v0) / speed.slowdown(v0, v1)
            t = r0 + setup
            for us in elapsed:
                queries.append(us / 1e6 / speed.slowdown(t, t + us / 1e6))
                t += us / 1e6
        return run_s, setup_s, verify_s, queries

    def raw_timings(self):
        """Measured seconds of run, set-up and verify, without correction."""
        run_s = sum(r1 - r0 for r0, r1 in self.runs)
        query_s = sum(sum(e) for e in self.query_us) / 1e6
        return run_s, run_s - query_s, sum(v1 - v0 for v0, v1 in self.verifies)


def percentile(samples, q):
    """q-th percentile (0 < q < 100) by linear interpolation between ranks."""
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def measure(cli, files, workdir, seconds, poly_ring, tracer=None):
    """Repeat passes for `seconds`; with a tracer, alternate plain and
    traced passes.  Each pass is checked as soon as it ends, outside the
    timings, and its documents dropped.

    Returns (plain passes, traced passes, host speed, attempted, problems).
    """
    plain, traced = [], []
    attempted, problems = 0, []

    def checked(done):
        nonlocal attempted
        a, found = done.check(poly_ring)
        attempted += a
        problems.extend(found)
        done.outputs = None
        return done

    deadline = time.perf_counter() + seconds
    with HostSpeed() as speed:
        while True:
            plain.append(checked(Pass(cli, files, workdir)))
            if tracer is not None:
                tracer.install()
                try:
                    done = Pass(cli, files, workdir)
                finally:
                    tracer.restore()
                traced.append(checked(done))
            latencies = sum(len(q) for p in plain for q in p.query_us)
            if (
                len(plain) >= MIN_PASSES
                and latencies >= MIN_LATENCIES
                and time.perf_counter() >= deadline
            ):
                break
    return plain, traced, speed, attempted, problems


END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "verify_s": "s",
    "peak_rss_mb": "MB",
}


def end_to_end(passes, speed):
    runs, setups, verifies, latencies = [], [], [], []
    for p in passes:
        run_s, setup_s, verify_s, queries = p.timings(speed)
        runs.append(run_s)
        setups.append(setup_s)
        verifies.append(verify_s)
        latencies += queries
    values = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(runs),
        "query_p50_ms": percentile(latencies, 50) * 1e3,
        "query_p90_ms": percentile(latencies, 90) * 1e3,
        "verify_s": statistics.median(verifies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    smeared = _import_engine()
    from smeared import cli

    # One CPU for the passes and the speed probe, so that both see the same
    # core; this affects only this process.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-trace{args.trace}"
    manifest, paths = gen.write(args.workload, args.seed, workdir)
    files = list(zip(paths, manifest["files"]))

    tracer = Tracer() if args.trace else None
    plain, traced, speed, attempted, problems = measure(
        cli, files, workdir, args.seconds, smeared.PolyRing, tracer
    )
    failed = len(problems)
    query_n = sum(len(q) for p in plain for q in p.query_us)

    if tracer is None:
        metrics = end_to_end(plain, speed)
    else:
        metrics = {k: (v, unit(k)) for k, v in tracer.summarize(len(traced)).items()}
        overhead = statistics.median(p.timings(speed)[0] for p in traced) / statistics.median(
            p.timings(speed)[0] for p in plain
        )
        metrics["trace.overhead_ratio"] = (overhead, "ratio")
        tracer.dump(workdir / "spans.jsonl")

    environment = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "seed": args.seed,
        "workload": args.workload,
        "why": manifest["why"],
        "verify_division": smeared.groebner.VERIFY_DIVISION,
        "query_n": query_n,
        "passes": len(plain),
        "traced_passes": len(traced),
        "probe_median_s": statistics.median(speed.seconds),
    }
    report = {
        "environment": environment,
        "failed_ratio": failed / attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "problems": problems[:20],
        "passes": [
            {
                "measured_run_setup_verify_s": p.raw_timings(),
                "corrected_run_setup_verify_s": p.timings(speed)[:3],
                "query_us": p.query_us,
            }
            for p in plain
        ],
    }
    (workdir / "result.json").write_text(json.dumps(report, indent=1) + "\n")

    for msg in problems[:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    print(json.dumps(environment, sort_keys=True))
    for name, (value, u) in metrics.items():
        print(f"{name:36s} {value:14.6f} {u}")
    print(f"{'query_n':36s} {query_n:14d} count")
    print(f"{'failed_ratio':36s} {failed / attempted:14.6f} {failed}/{attempted}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": report["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
