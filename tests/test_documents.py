"""Golden result documents: `run` and `verify` output must not change.

Each problem file `tests/data/<name>.json` has its `run` document in
`<name>.run.jsonl` (every `elapsed_us` set to 0) and its `verify` output in
`<name>.verify.jsonl`.  Engine changes must keep both byte for byte, with
division re-checking switched on and off.

The problems are the README example, Katsura-3 with a linear companion
(member cofactors over a non-monic tracked basis, partitions through a unit
ideal found late in Buchberger), the four curves in QQ[x,y,z] (every
partition, chains, `basis 0..4`, members and non-members, one query error),
three ideals in QQ[x,y] whose queries fail with every engine refusal that
names an ideal or a point, numbered from 1 as documents are, the curves'
ideals and queries under lex order, the one golden run of the lex path, and
the benchmark's seed-1 Katsura-4 file (`bench/gen.py`), whose member
cofactors come from a 13-element tracked basis, so a changed divisor choice
in Buchberger's loop changes them, and two ideals of QQ[x,y] whose zero sets
meet, so `run` aborts at the validation gate and exits 2.

Each golden run document of the first three, cut short or edited in one
certificate, echo, header or line field, must fail `verify`; so must each
of the seven under a drawn mutation of one field, with a failed line that
names a field or a check.

To regenerate after a deliberate format change, run
`PYTHONPATH=src python tests/test_documents.py` and say so in CHANGES.md.
It writes nothing, and exits 1, if a `run` exits other than `RUN_EXIT`
says or a `verify` line fails, so a faulty engine cannot pin its output.
"""

import contextlib
import copy
import io
import json
import re
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import smeared.groebner as groebner
import smeared.poly as poly
from smeared.cli import load_problem, main

DATA = Path(__file__).parent / "data"
PROBLEMS = ("readme", "katsura3", "curves")
# every golden problem; `errors` has no certificate line to tamper with,
# `lex` has the same lines as `curves`, `katsura4` the kinds of `katsura3`,
# and `abort` only the gate's report
GOLDEN = PROBLEMS + ("errors", "lex", "katsura4", "abort")
_ELAPSED = re.compile(r'"elapsed_us":\d+')


# `run`'s exit code on each golden problem, as CI's golden step expects it:
# curves and lex hold one deliberate query error and errors three, and abort
# fails the validation gate
RUN_EXIT = {"readme": 0, "katsura3": 0, "curves": 1, "errors": 1, "lex": 1, "katsura4": 0, "abort": 2}


def _documents(name: str, out: Path) -> tuple:
    """(run exit code, run document with elapsed_us zeroed, verify output)
    for one problem."""
    problem = str(DATA / f"{name}.json")
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(["run", problem, "--out", str(out)])
    run_text = _ELAPSED.sub('"elapsed_us":0', out.read_text())
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        main(["verify", str(out), problem])
    return rc, run_text, captured.getvalue()


@pytest.mark.parametrize("verify_division", [True, False], ids=["checked", "unchecked"])
@pytest.mark.parametrize("name", GOLDEN)
def test_documents_match_golden(name, verify_division, tmp_path, monkeypatch):
    monkeypatch.setattr(groebner, "VERIFY_DIVISION", verify_division)
    rc, run_text, verify_text = _documents(name, tmp_path / "out.jsonl")
    assert rc == RUN_EXIT[name]
    assert run_text == (DATA / f"{name}.run.jsonl").read_text()
    assert verify_text == (DATA / f"{name}.verify.jsonl").read_text()


def test_flat_reader_reads_every_written_text(tmp_path, monkeypatch):
    # run and verify of every golden problem: the grammar parser reads only
    # texts with a parenthesis (queries in the problem files); every other
    # problem text and every text of the documents takes the flat reader
    read, fell_back = [], []
    reader = poly._read_flat

    def recording(text, ring):
        form = reader(text, ring)
        (read if form is not None else fell_back).append(text)
        return form

    monkeypatch.setattr(poly, "_read_flat", recording)
    for name in GOLDEN:
        _documents(name, tmp_path / "out.jsonl")
    assert [text for text in fell_back if "(" not in text] == []
    assert len(read) > 300


# payload fields that hold polynomial texts, alone or in (nested) lists
_POLYNOMIAL_FIELDS = (
    "poly", "a", "b", "g", "h", "remainder", "basis", "evidence",
    "cofactors", "a_cofactors", "b_cofactors",
)


def _strings(value):
    if isinstance(value, str):
        yield value
    elif isinstance(value, list):
        for item in value:
            yield from _strings(item)


@pytest.mark.parametrize("name", PROBLEMS)
def test_golden_polynomial_texts_round_trip(name):
    # every polynomial the engine wrote reads back to the same text
    ring = load_problem(str(DATA / f"{name}.json"))[0].ring
    texts = []
    for line in (DATA / f"{name}.run.jsonl").read_text().splitlines():
        payload = json.loads(line).get("payload") or {}
        for field in _POLYNOMIAL_FIELDS:
            texts += _strings(payload.get(field))
    assert len(texts) > 10
    for text in texts:
        assert str(ring.parse(text)) == text


def _first_payload(entries: list, has) -> dict:
    return next(e["payload"] for e in entries if has(e.get("payload", {})))


def _cut(entries: list) -> None:
    # the header, the first result and the summary no longer answer the problem
    del entries[2:-1]


def _flip(entries: list) -> None:
    summary = entries[-1]
    summary.update(errors=int(not summary["errors"]), ok=not summary["ok"])


def _err(entries: list) -> None:
    result = next(e for e in entries if e.get("status") == "ok")
    result.pop("payload")
    result.update(status="error", error="made up")


def _paren(entries: list) -> None:
    # an echoed argument must be the query's canonical text
    payload = _first_payload(entries, lambda p: p.get("member") is True)
    payload["poly"] = "(" + payload["poly"] + ")"


def _cof(entries: list) -> None:
    # the cofactor identity must fail
    cofactors = _first_payload(entries, lambda p: p.get("member") is True)["cofactors"]
    cofactors[0][0] = "(" + cofactors[0][0] + ") + 1"


def _base(entries: list) -> None:
    # the slice must match its re-derivation
    _first_payload(entries, lambda p: "basis" in p)["basis"][0] += " + x"


def _chain(entries: list) -> None:
    # the evidence must be the normal forms of the powers of h
    _first_payload(entries, lambda p: "h" in p)["evidence"][-1] += " + 1"


def _partition(entries: list) -> None:
    # b's cofactor identity must fail
    payload = _first_payload(entries, lambda p: "b_cofactors" in p)
    cofactors = next(c for c in payload["b_cofactors"] if c is not None)
    cofactors[0] = "(" + cofactors[0] + ") + 1"


def _unparsable(entries: list) -> None:
    # a cofactor text that does not parse fails naming its field
    _first_payload(entries, lambda p: p.get("member") is True)["cofactors"][0][0] = "1 +* 1"


def _float_constants(entries: list) -> None:
    # `0.0 == 0`, but `run` writes each rational as canonical text
    payload = _first_payload(entries, lambda p: "a_constants" in p)
    payload["a_constants"] = [float(c) for c in payload["a_constants"]]


def _noted(entries: list) -> None:
    # a result line holds exactly the fields `run` writes
    next(e for e in entries if e.get("status") == "ok")["note"] = "made up"


def _header(**fields):
    # a header from another engine or format: `True == 1`, but it is no 1
    def edit(entries: list) -> None:
        entries[0].update(fields)

    return edit


def _float_count(entries: list) -> None:
    # `10.0 == 10`, but a count is a JSON integer
    entries[0]["query_count"] = float(entries[0]["query_count"])


def _unversioned(entries: list) -> None:
    # the header holds exactly the fields `run` writes, `version` among them
    del entries[0]["version"]


def _insert(line: dict):
    # a line among the results that is no result
    def edit(entries: list) -> None:
        entries.insert(2, line)

    return edit


# edits of a golden run document that verify must reject, each with a text
# its verify output must hold
TAMPERED = {
    "cut": (_cut, "no result for query 2"),
    "flipped": (_flip, "does not match the result lines"),
    "erred": (_err, "the query succeeds when re-run"),
    "parened": (_paren, "does not match the query"),
    "cofed": (_cof, "cofactor identity fails for ideal 1"),
    "based": (_base, "basis disagrees"),
    "chained": (_chain, "evidence disagrees"),
    "partitioned": (_partition, "cofactors for b do not reproduce b"),
    "format2": (_header(format=2), "header format 2 is not 1"),
    "format_true": (_header(format=True), "header format True is not 1"),
    "engine": (_header(engine="other"), "header engine 'other' is not 'smeared'"),
    "count_float": (_float_count, "header query_count"),
    "unparsable": (_unparsable, "cofactors for ideal 1 entry 1: expected a number"),
    "float_constants": (_float_constants, "a_constants entry 1 0.0 is not a rational in canonical text"),
    "noted": (_noted, "unexpected field 'note'"),
    "header_noted": (_header(note="made up"), "header unexpected field 'note'"),
    "version_int": (_header(version=7), "header version 7 is not a string"),
    "version_null": (_header(version=None), "header version None is not a string"),
    "version_list": (_header(version=[1]), "header version [1] is not a string"),
    "version_true": (_header(version=True), "header version True is not a string"),
    "unversioned": (_unversioned, "header version None is not a string"),
    "junk_line": (_insert({"type": "junk"}), "type 'junk' is not header, result or summary"),
    "second_header": (_insert({"type": "header", "format": 2}), "the header is not the single first line"),
}


@pytest.mark.parametrize("edit", TAMPERED)
@pytest.mark.parametrize("name", PROBLEMS)
def test_tampered_golden_documents_fail_verify(name, edit, tmp_path):
    tamper, text = TAMPERED[edit]
    entries = [json.loads(line) for line in (DATA / f"{name}.run.jsonl").read_text().splitlines()]
    tamper(entries)
    doc = tmp_path / "tampered.jsonl"
    doc.write_text("".join(json.dumps(e) + "\n" for e in entries))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["verify", str(doc), str(DATA / f"{name}.json")]) == 1
    assert text in out.getvalue()


def _paths(value, path=()):
    """The path to every field and list entry under `value`, outer first."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield path + (key,)
        yield from _paths(item, path + (key,))


# one value of each JSON type a swap may put in a field's place
_SWAPS = ("x", 7, ["0"], None, True)


def _swap_type(container, key, draw) -> None:
    container[key] = draw(st.sampled_from([v for v in _SWAPS if type(v) is not type(container[key])]))


def _drop(container, key, draw) -> None:
    del container[key]


def _add(container, key, draw) -> None:
    # a field beside the one drawn, or a second copy of a list entry
    if isinstance(container, dict):
        container["note"] = copy.deepcopy(container[key])
    else:
        container.insert(key, copy.deepcopy(container[key]))


def _plus_x(container, key, draw) -> None:
    assume(isinstance(container[key], str))
    container[key] += " + x"


def _increment(container, key, draw) -> None:
    # an index or count (a JSON integer) or a constant (a rational text)
    value = container[key]
    assume(type(value) is int or isinstance(value, str) and re.fullmatch(r"-?\d+(/\d+)?", value))
    container[key] = value + 1 if type(value) is int else str(Fraction(value) + 1)


def _swap_entries(container, key, draw) -> None:
    assume(isinstance(container, list) and len(container) > 1)
    other = draw(st.sampled_from([k for k in range(len(container)) if k != key]))
    container[key], container[other] = container[other], container[key]


# each changes `container[key]`, or `assume` passes over a field it does not apply to
MUTATIONS = (_swap_type, _drop, _add, _plus_x, _increment, _swap_entries)


def _exempt_text(entries: list) -> list:
    """The lines as canonical text, less what verify may not check: a valid
    `elapsed_us` and the header's `version` string."""
    lines = copy.deepcopy(entries)
    for line in lines:
        if type(line.get("elapsed_us")) is int and line["elapsed_us"] >= 0:
            line["elapsed_us"] = 0
        if line.get("type") == "header" and isinstance(line.get("version"), str):
            line["version"] = ""
    return [json.dumps(line, sort_keys=True) for line in lines]


# the checks a failed verify line may name in place of a field
_CHECKS = re.compile(r"header|summary|result|cofactor|constant vectors|generator")


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.data())
def test_mutated_golden_documents_fail_verify_naming_the_fault(data):
    # one mutation of one field of one line of a golden run document: verify
    # raises nothing and names a field or a check on every failed line, and
    # it fails the document unless the mutation changed nothing but a valid
    # `elapsed_us` or the `version` string (or nothing at all, as a swap of
    # two equal entries does)
    name = data.draw(st.sampled_from(GOLDEN), label="golden")
    original = [json.loads(t) for t in (DATA / f"{name}.run.jsonl").read_text().splitlines()]
    entries = copy.deepcopy(original)
    line = data.draw(st.integers(0, len(entries) - 1), label="line")
    path = data.draw(st.sampled_from(list(_paths(entries[line]))), label="path")
    mutation = data.draw(st.sampled_from(MUTATIONS), label="mutation")
    container = entries[line]
    for key in path[:-1]:
        container = container[key]
    mutation(container, path[-1], data.draw)
    with tempfile.TemporaryDirectory() as tmp:
        doc = Path(tmp) / "mutated.jsonl"
        doc.write_text("".join(json.dumps(e) + "\n" for e in entries))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main(["verify", str(doc), str(DATA / f"{name}.json")])
    verified = [json.loads(t) for t in out.getvalue().splitlines()]
    fields = {k for lines in (original, entries) for p in _paths(lines) for k in p if isinstance(k, str)}
    for problem in (v["problem"] for v in verified if v.get("ok") is False):
        words = set(re.findall(r"\w+", problem))
        assert not problem.startswith("verification crashed"), problem
        assert words & fields or _CHECKS.search(problem), problem
    if _exempt_text(entries) != _exempt_text(original):
        assert rc == 1


def _drop_line(entries: list, k: int, draw) -> None:
    del entries[k]


def _duplicate_line(entries: list, k: int, draw) -> None:
    entries.insert(k, copy.deepcopy(entries[k]))


def _swap_results(entries: list, k: int, draw) -> None:
    results = [j for j, e in enumerate(entries) if e.get("type") == "result" and j != k]
    assume(entries[k].get("type") == "result" and results)
    other = draw(st.sampled_from(results))
    entries[k], entries[other] = entries[other], entries[k]


def _cut_after(entries: list, k: int, draw) -> None:
    # as a run stopped after line k ends: a summary counting the results kept
    del entries[k + 1 :]
    if entries[-1].get("type") == "summary":
        entries.pop()
    errors = sum(e.get("status") == "error" for e in entries)
    results = sum(e.get("type") == "result" for e in entries)
    entries.append({"type": "summary", "ok": errors == 0, "errors": errors, "results": results})


# each changes the lines at line k, or `assume` passes over a line it does not apply to
LINE_MUTATIONS = (_drop_line, _duplicate_line, _swap_results, _cut_after)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.data())
def test_line_mutated_golden_documents_fail_verify_naming_the_fault(data):
    # one line of a golden run document dropped, duplicated, swapped with
    # another result line, or the document cut after it: verify raises
    # nothing and names a field or a check on every failed line, and it
    # fails the document unless the mutation left it as it was, or cut it
    # just after its first error line, which is a valid `--strict` document
    name = data.draw(st.sampled_from(GOLDEN), label="golden")
    original = [json.loads(t) for t in (DATA / f"{name}.run.jsonl").read_text().splitlines()]
    entries = copy.deepcopy(original)
    line = data.draw(st.integers(0, len(entries) - 1), label="line")
    mutation = data.draw(st.sampled_from(LINE_MUTATIONS), label="mutation")
    mutation(entries, line, data.draw)
    with tempfile.TemporaryDirectory() as tmp:
        doc = Path(tmp) / "mutated.jsonl"
        doc.write_text("".join(json.dumps(e) + "\n" for e in entries))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main(["verify", str(doc), str(DATA / f"{name}.json")])
    verified = [json.loads(t) for t in out.getvalue().splitlines()]
    fields = {k for p in _paths(original) for k in p if isinstance(k, str)}
    for problem in (v["problem"] for v in verified if v.get("ok") is False):
        assert not problem.startswith("verification crashed"), problem
        assert set(re.findall(r"\w+", problem)) & fields or _CHECKS.search(problem), problem
    first_error = next((j for j, e in enumerate(original) if e.get("status") == "error"), None)
    if mutation is _cut_after and line == first_error:
        assert rc == 0
    elif _exempt_text(entries) != _exempt_text(original):
        assert rc == 1


@pytest.mark.parametrize("kept, rc", [(2, 0), (3, 1)], ids=["one_error", "two_errors"])
def test_a_stopped_document_ends_at_its_one_error_line(kept, rc, tmp_path):
    # `--strict` stops at the first error: the errors golden cut after its
    # first error line (result 2) is a strict document, cut after its second
    # (result 3) it misses query 4, whatever its recounted summary says
    def cut(entries: list) -> None:
        del entries[1 + kept : -1]
        entries[-1].update(errors=kept - 1, results=kept)

    entries = [json.loads(line) for line in (DATA / "errors.run.jsonl").read_text().splitlines()]
    cut(entries)
    doc = tmp_path / "stopped.jsonl"
    doc.write_text("".join(json.dumps(e) + "\n" for e in entries))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["verify", str(doc), str(DATA / "errors.json")]) == rc
    lines = [json.loads(line) for line in out.getvalue().splitlines()]
    failed = [(e["index"], e["problem"]) for e in lines if not e.get("ok", True)]
    assert failed == ([] if rc == 0 else [(4, "no result for query 4")])
    assert lines[-1] == {"checked": kept + rc, "failures": rc, "type": "verify-summary"}


def _regenerate() -> int:
    """Write every golden document afresh, or none: a run that exits other
    than `RUN_EXIT` says, or a verify line that fails, refuses them all."""
    with tempfile.TemporaryDirectory() as tmp:
        documents = {name: _documents(name, Path(tmp) / "out.jsonl") for name in GOLDEN}
    refused = 0
    for name, (rc, _, verify_text) in documents.items():
        failed = [line for line in verify_text.splitlines() if json.loads(line).get("ok") is False]
        if rc != RUN_EXIT[name] or failed:
            print(f"{name}: run exited {rc}, expected {RUN_EXIT[name]}; {len(failed)} failed verify line(s)")
            refused += 1
    if refused:
        print("golden documents left as they were")
        return 1
    for name, (_, run_text, verify_text) in documents.items():
        (DATA / f"{name}.run.jsonl").write_text(run_text)
        (DATA / f"{name}.verify.jsonl").write_text(verify_text)
    return 0


@pytest.mark.parametrize("fault", [None, "verify", "exit"])
def test_regeneration_writes_no_failing_document(fault, tmp_path, monkeypatch):
    # one failed verify line, or one run exit other than `RUN_EXIT`, leaves
    # every golden file unwritten
    module = sys.modules[__name__]

    def documents(name, out):
        rc = RUN_EXIT[name] + (fault == "exit" and name == "errors")
        ok = not (fault == "verify" and name == "readme")
        return rc, "run\n", json.dumps({"index": 1, "ok": ok, "type": "verify"}) + "\n"

    monkeypatch.setattr(module, "DATA", tmp_path)
    monkeypatch.setattr(module, "_documents", documents)
    assert _regenerate() == (fault is not None)
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == ([] if fault else sorted(f"{n}.{k}.jsonl" for n in GOLDEN for k in ("run", "verify")))


if __name__ == "__main__":
    sys.exit(_regenerate())
