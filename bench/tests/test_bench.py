"""Tests of the benchmark itself: run with `python3 -m pytest bench/tests`."""

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from tracer import Tracer  # noqa: E402

smeared = run._import_engine()
from smeared import cli, groebner, ideals, linalg, poly, ring  # noqa: E402

WORK = BENCH / ".work" / "tests"


def _dir(name):
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _files(workload, seed, workdir, queries=None):
    """Generated files, optionally cut to their first `queries` queries."""
    manifest, paths = gen.write(workload, seed, workdir)
    files = list(zip(paths, manifest["files"]))
    if queries is not None:
        for path, spec in files:
            spec["problem"]["queries"] = spec["problem"]["queries"][:queries]
            spec["expected"] = spec["expected"][:queries]
            path.write_text(json.dumps(spec["problem"]))
    return files


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_same_seed_gives_identical_files(workload):
    a, b = _dir("seed_a"), _dir("seed_b")
    gen.write(workload, 11, a)
    gen.write(workload, 11, b)
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()
    # certify's seed only orders three lines, so look a few seeds further
    others = [_dir(f"seed_{s}") for s in range(12, 16)]
    for seed, other in zip(range(12, 16), others):
        gen.write(workload, seed, other)
    assert any(
        (a / name).read_bytes() != (other / name).read_bytes()
        for other in others
        for name in names
    )


def test_companion_constants_keep_families_coprime():
    for names, system in (gen.katsura(4), gen.cyclic(5)):
        r = poly.PolyRing(tuple(names))
        gens = tuple(r.parse(g.fmt(names)) for g in system)
        v0 = r.var(names[0])
        for c in gen.COMPANIONS[:2]:
            assert ideals.Ideal(r, gens + (v0 - c,)).contains_one(), (names[0], c)


def _snapshot():
    owners = [poly, groebner, ideals, linalg, ring, cli]
    owners += [poly.Polynomial, ideals.Ideal, linalg.IncrementalRank, cli._Verifier]
    return {(o.__name__, k): v for o in owners for k, v in vars(o).items()}


def test_tracer_restores_every_attribute():
    before = _snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        during = _snapshot()
    finally:
        tracer.restore()
    assert during.keys() == before.keys()
    assert sum(during[k] is not before[k] for k in before) >= 30
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _traced_pass(workdir, files):
    tracer = Tracer()
    tracer.install()
    try:
        done = run.Pass(cli, files, workdir)
    finally:
        tracer.restore()
    assert done.check(poly.PolyRing)[1] == []
    return tracer.summarize(1)


def test_engine_counters_repeat_exactly():
    workdir = _dir("counters")
    files = _files("gb_cold", 3, workdir)
    first = _traced_pass(workdir, files)
    second = _traced_pass(workdir, files)
    for name in (
        "groebner.divide_steps",
        "groebner.spair_reductions",
        "groebner.basis_size_max",
        "groebner.coeff_bits_max",
        "ideals.gb_cache_hit_ratio",
    ):
        assert first[name] == second[name], name
    assert first["groebner.spair_reductions"] > 0
    assert 0 < first["ideals.gb_cache_hit_ratio"] < 1


def _reverify(workdir, problem, document):
    out = workdir / "tampered.jsonl"
    out.write_text(document)
    sink = io.StringIO()
    with redirect_stdout(sink):
        cli.verify_command(str(out), str(problem))
    return document, sink.getvalue()


def test_tampered_document_is_counted_as_failed():
    workdir = _dir("tamper")
    files = _files("query_stream", 5, workdir, queries=30)
    done = run.Pass(cli, files, workdir)
    attempted, problems = done.check(poly.PolyRing)
    assert attempted == 60 and problems == []
    document, _ = done.outputs[0]
    lines = [json.loads(line) for line in document.splitlines()]
    member = next(e for e in lines if e.get("payload", {}).get("member"))

    # a cofactor is a witness: only verify can object to it
    member["payload"]["cofactors"][0][0] += " + 1"
    tampered = "\n".join(json.dumps(e) for e in lines) + "\n"
    done.outputs[0] = _reverify(workdir, files[0][0], tampered)
    attempted, problems = done.check(poly.PolyRing)
    assert len(problems) == 1 and problems[0].startswith("verify")
    assert len(problems) / attempted > 0

    # a constant is canonical: the expected answers object as well
    member["payload"]["constants"][0] = "12345"
    tampered = "\n".join(json.dumps(e) for e in lines) + "\n"
    done.outputs[0] = _reverify(workdir, files[0][0], tampered)
    problems = done.check(poly.PolyRing)[1]
    assert any("constants" in p for p in problems)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == set(run.END_TO_END.items())
    per_layer = list(Tracer().summarize(1)) + ["trace.overhead_ratio"]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, tracer.unit(name)) for name in per_layer
    ]
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)


def test_refuses_to_run_without_sources():
    bare = _dir("bare")
    (bare / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        shutil.copy(path, bare / "bench" / path.name)
    shutil.copy(BENCH.parent / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "gb_cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
