"""The batch interface: problem files, result documents, exit codes, verify."""

import json
import re
import sys
from pathlib import Path

import pytest

import smeared.cli as cli
import smeared.groebner as groebner
import smeared.ideals as ideals
from smeared.cli import main
from smeared.poly import sum_of_products
from test_ring import THREE_CONFIGS, curves_config, lines_config

DATA = Path(__file__).parent / "data"

THREE_LINES = {
    "format": 1,
    "ring": {"variables": ["x", "y"], "order": "grevlex"},
    "ideals": [["x"], ["x - 1"], ["x - 2"]],
    "radical": [True, True, True],
    "queries": [
        "validate",
        "verdict",
        "dims",
        "member x*(x - 1)*(x - 2)*y",
        "member y",
        ["eval", "x", 2],
        "partition 1",
        "chain 1 4",
        "locus 3 5",
        "locus 0 7",
        "basis 3",
        ["constancy", "x*(x - 1)*(x - 2)*y + 7", 1, ["0", "0"], ["0", "1"]],
    ],
}


def write_problem(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def run_to_file(tmp_path, doc, name="out.jsonl"):
    problem = write_problem(tmp_path, doc)
    out = tmp_path / name
    rc = main(["run", str(problem), "--out", str(out)])
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    return rc, lines, problem, out


def payload_of(lines, query_index):
    for entry in lines:
        if entry.get("type") == "result" and entry.get("index") == query_index:
            return entry
    raise AssertionError(f"no result with index {query_index}")


def test_run_three_lines(tmp_path):
    rc, lines, _, _ = run_to_file(tmp_path, THREE_LINES)
    assert rc == 0
    assert lines[0]["type"] == "header" and lines[0]["format"] == 1
    assert lines[-1] == {
        "errors": 0,
        "ok": True,
        "results": 12,
        "type": "summary",
    }

    assert payload_of(lines, 1)["payload"]["ok"] is True
    verdict = payload_of(lines, 2)["payload"]
    assert verdict["noetherian"] is False
    assert verdict["depicted_by_S"] is True
    assert verdict["dims"] == [1, 1, 1]
    assert payload_of(lines, 3)["payload"] == {"dims": [1, 1, 1]}

    member = payload_of(lines, 4)["payload"]
    assert member["member"] is True
    assert member["constants"] == ["0", "0", "0"]
    nonmember = payload_of(lines, 5)["payload"]
    assert nonmember == {
        "member": False,
        "poly": "y",
        "remainder": "y",
        "witness_index": 1,
    }
    assert payload_of(lines, 6)["payload"]["value"] == "1"

    partition = payload_of(lines, 7)["payload"]
    assert partition["a_constants"] == ["0", "1", "1"]
    assert partition["b_cofactors"][0] is None

    chain = payload_of(lines, 8)["payload"]
    assert chain["h"] == "y" and chain["g"] == "x"
    assert chain["evidence"] == ["1", "y", "y^2", "y^3", "y^4"]

    assert payload_of(lines, 9)["payload"]["in_locus"] is True
    assert payload_of(lines, 10)["payload"]["in_locus"] is False
    basis = payload_of(lines, 11)["payload"]
    assert basis["dimension"] == 4
    constancy = payload_of(lines, 12)["payload"]
    assert constancy["expected"] == "7" and constancy["ok"] is True


def test_document_is_deterministic_modulo_timing(tmp_path):
    rc1, lines1, _, _ = run_to_file(tmp_path, THREE_LINES, name="a.jsonl")
    rc2, lines2, _, _ = run_to_file(tmp_path, THREE_LINES, name="b.jsonl")
    assert rc1 == rc2 == 0
    for entry in lines1 + lines2:
        entry.pop("elapsed_us", None)
    assert [json.dumps(e, sort_keys=True) for e in lines1] == [
        json.dumps(e, sort_keys=True) for e in lines2
    ]


def test_validation_failure_exits_2(tmp_path, capsys):
    doc = {
        "format": 1,
        "ring": {"variables": ["x", "y"]},
        "ideals": [["x"], ["y"]],
        "queries": ["verdict"],
    }
    problem = write_problem(tmp_path, doc)
    rc = main(["run", str(problem)])
    assert rc == 2
    out = capsys.readouterr().out
    lines = [json.loads(line) for line in out.splitlines()]
    violations = lines[1]["payload"]["violations"]
    assert violations == [
        {
            "ideals": [1, 2],
            "kind": "not_coprime",
            "message": "ideals 1 and 2 are not coprime (their zero sets meet)",
        }
    ]
    assert lines[-1]["aborted"] == "validation"


def test_non_reduced_ideal_fails_the_gate(tmp_path, capsys):
    # (x + y)^2 has no monomial witness; the Jacobian criterion refutes it
    doc = dict(THREE_LINES, ideals=[["x^2 + 2*x*y + y^2"], ["x + y - 1"]], radical=[True, True])
    rc, lines, problem, out = run_to_file(tmp_path, dict(doc, check_radicality=True))
    assert rc == 2
    assert lines[1]["payload"] == {
        "ok": False,
        "radicality_checked": True,
        "violations": [
            {
                "ideals": [1],
                "kind": "not_radical",
                "message": "ideal 1 asserted radical, but its quotient is not reduced (Jacobian criterion)",
            }
        ],
    }
    rc, verified = _verify_lines(out, problem, capsys)
    assert rc == 0 and verified[-1]["failures"] == 0


def test_failing_gate_validates_once(tmp_path, monkeypatch):
    # the abort line writes the gate's own payload
    calls = []
    real = cli.validate
    monkeypatch.setattr(cli, "validate", lambda config: calls.append(config) or real(config))
    doc = dict(THREE_LINES, ideals=[["x"], ["y"]], radical=[True, True])
    rc, lines, _, _ = run_to_file(tmp_path, doc)
    assert rc == 2 and len(calls) == 1
    assert lines[1]["payload"]["ok"] is False
    assert lines[-1] == {"aborted": "validation", "ok": False, "type": "summary"}


def test_malformed_file_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    assert main(["run", str(path)]) == 2

    missing_format = write_problem(tmp_path, {"ring": {"variables": ["x"]}}, "f.json")
    assert main(["run", str(missing_format)]) == 2

    bad_poly = write_problem(
        tmp_path,
        {
            "format": 1,
            "ring": {"variables": ["x", "y"]},
            "ideals": [["x +"]],
            "queries": [],
        },
        "g.json",
    )
    assert main(["run", str(bad_poly)]) == 2
    err = capsys.readouterr().err
    assert "ideal 1, generator 1" in err
    assert "position" in err

    zero_den = write_problem(
        tmp_path,
        {
            "format": 1,
            "ring": {"variables": ["x", "y"]},
            "ideals": [["x", "y*1/0"]],
            "queries": [],
        },
        "h.json",
    )
    assert main(["run", str(zero_den)]) == 2
    err = capsys.readouterr().err
    assert "ideal 1, generator 2" in err
    assert "zero denominator (at position 2)" in err

    long_literal = write_problem(
        tmp_path,
        {
            "format": 1,
            "ring": {"variables": ["x", "y"]},
            "ideals": [["x", "y", "x^" + "1" * 5000]],
            "queries": [],
        },
        "i.json",
    )
    assert main(["run", str(long_literal)]) == 2
    err = capsys.readouterr().err
    assert "ideal 1, generator 3" in err
    assert "too many digits (at position 2)" in err

    # `json` refuses an integer literal over int()'s 4,300 digits with a
    # plain ValueError, arrays nested past the recursion limit with a
    # RecursionError, and would read NaN and the infinities as floats; both
    # a problem file and a result document holding one exit 2
    problem = write_problem(tmp_path, THREE_LINES, "valid.json")
    for k, arg in enumerate(("1" * 5000, "NaN", "-Infinity", "[" * 100_000 + "]" * 100_000)):
        path = tmp_path / f"j{k}.json"
        path.write_text(
            '{"format": 1, "ring": {"variables": ["x", "y"]}, "ideals": [["x"], ["x - 1"]],'
            f' "queries": [["locus", {arg}, 1]]}}'
        )
        assert main(["run", str(path)]) == 2
        assert f"{path} is not valid JSON" in capsys.readouterr().err
        path.write_text(f'{{"type": "header", "query_count": {arg}}}\n')
        assert main(["verify", str(path), str(problem)]) == 2
        assert f"{path} line is not valid JSON" in capsys.readouterr().err
    # a byte that is no UTF-8 raises UnicodeDecodeError, a ValueError too
    path.write_bytes(b'{"format": 1, "ring": {"variables": ["x"]}, "ideals": [["x \xff"]]}')
    assert main(["run", str(path)]) == 2


def test_problem_file_with_a_repeated_name_exits_2(tmp_path, capsys):
    # `json` would keep the last of two values silently and run on it
    path = tmp_path / "twice.json"
    path.write_text(
        '{"format": 1, "ring": {"variables": ["x", "y"]}, "ideals": [["x"], ["x - 1"]],'
        ' "ideals": [["y"], ["y - 1"]], "queries": []}'
    )
    assert main(["run", str(path)]) == 2
    assert f"{path} is not valid JSON: repeated name 'ideals'" in capsys.readouterr().err


def test_document_with_a_repeated_name_exits_2(tmp_path, capsys):
    # a payload that says "member": false and then true is no document
    text = (DATA / "readme.run.jsonl").read_text()
    assert text.count('"payload":{"cofactors":') == 1  # the member line, with "member":true
    out = tmp_path / "readme.jsonl"
    out.write_text(text.replace('"payload":{"cofactors":', '"payload":{"member":false,"cofactors":'))
    assert main(["verify", str(out), str(DATA / "readme.json")]) == 2
    assert f"{out} line is not valid JSON: repeated name 'member'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("radical", True, '"radical" must list one boolean per ideal'),
        ("ideals", [[1], ["x - 1"]], "ideal 1, generator 1 must be a polynomial string"),
        ("ring", {"variables": "xy"}, '"variables" must be a list of names'),
        # `True == 1` and `1.0 == 1`, but neither is the format number
        ("format", True, 'problem file must carry "format": 1'),
        ("format", 1.0, 'problem file must carry "format": 1'),
        ("check_radicality", "false", '"check_radicality" must be a boolean'),
    ],
)
def test_problem_field_of_wrong_type_exits_2(tmp_path, capsys, field, value, message):
    doc = dict(THREE_LINES, ideals=[["x"], ["x - 1"]], radical=[True, True])
    doc[field] = value
    assert main(["run", str(write_problem(tmp_path, doc))]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, name",
    [
        (lambda doc: doc.update(check_radicallity=True), "'check_radicallity' in the problem file"),
        (lambda doc: doc["ring"].update(ordr="lex"), "'ordr' in \"ring\""),
    ],
    ids=["top", "ring"],
)
def test_problem_file_with_an_unknown_field_exits_2(tmp_path, capsys, edit, name):
    # a misspelled field was read as missing: (x^2) ran as radical unchecked,
    # and the ring as grevlex
    doc = {"format": 1, "ring": {"variables": ["x", "y"]}, "ideals": [["x^2"], ["x - 1"]], "queries": ["verdict"]}
    edit(doc)
    assert main(["run", str(write_problem(tmp_path, doc))]) == 2
    assert f"unknown field {name}" in capsys.readouterr().err


def test_numbers_no_float_holds_exit_2(tmp_path, capsys):
    # `json` read 0.10000000000000000001 as 0.1, so (10*x - 1) and (x - 1)
    # answered the locus query at x = 1/10; as a string it stays exact
    doc = {"format": 1, "ring": {"variables": ["x", "y"]}, "ideals": [["10*x - 1"], ["x - 1"]]}
    for number, value in [
        ("0.10000000000000000001", "0.1"),
        ("1e-999999999", "0.0"),
        ("1e-9999999999999999999999", "0.0"),  # past Decimal's exponents
        ("1e999", "inf"),
    ]:
        path = tmp_path / "lossy.json"
        path.write_text(json.dumps(doc)[:-1] + f', "queries": [["locus", {number}, 0]]}}')
        assert main(["run", str(path)]) == 2
        assert f"the number {number} would read as {value}; write it as a string" in capsys.readouterr().err
    rc, lines, _, _ = run_to_file(tmp_path, dict(doc, queries=[["locus", "0.10000000000000000001", "0"]]))
    assert rc == 0 and payload_of(lines, 1)["payload"]["in_locus"] is True


def test_unwritable_out_exits_2(tmp_path, capsys):
    # a directory or a missing parent raised a traceback, exit 1, after every query had run
    problem = str(write_problem(tmp_path, THREE_LINES))
    for out in (tmp_path, tmp_path / "missing" / "out.jsonl"):
        assert main(["run", problem, "--out", str(out)]) == 2
        assert f"error: cannot write {out}: " in capsys.readouterr().err


def test_query_error_exits_1_and_batch_continues(tmp_path):
    doc = dict(THREE_LINES)
    doc["queries"] = [
        "member y", "eval y 1", "frobnicate", "dims", ["member", "x + 1/0"],
        ["member", "x + " + "1" * 5000],
    ]
    rc, lines, _, _ = run_to_file(tmp_path, doc)
    assert rc == 1
    assert payload_of(lines, 1)["status"] == "ok"
    assert payload_of(lines, 2)["status"] == "error"
    assert "unknown query" in payload_of(lines, 3)["error"]
    assert payload_of(lines, 4)["status"] == "ok"
    assert payload_of(lines, 5)["status"] == "error"
    assert "zero denominator (at position 4)" in payload_of(lines, 5)["error"]
    assert payload_of(lines, 6)["status"] == "error"
    assert "too many digits (at position 4)" in payload_of(lines, 6)["error"]
    assert lines[-1]["errors"] == 4


@pytest.fixture
def digit_limit_1000():
    """int's digit limit for text pinned at 1,000, restored afterwards."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(1000)
    yield
    sys.set_int_max_str_digits(saved)


def test_numbers_past_the_digit_limit_are_query_errors(tmp_path, capsys, digit_limit_1000):
    doc = dict(THREE_LINES)
    doc["queries"] = [
        # the echoed argument holds 123456789^150, of 1,214 digits
        ["member", "(123456789*y)^150"],
        "dims",
        # the value 2^3400 at x = 2, of 1,024 digits, where the echo is small
        ["eval", "x^3400*(x - 1)", 3],
        ["eval", "x^3300*(x - 1)", 3],
    ]
    rc, lines, problem, out = run_to_file(tmp_path, doc)
    assert rc == 1
    message = "the result holds a number of over 1000 digits, the limit for integer text"
    assert [payload_of(lines, k).get("error") for k in (1, 2, 3, 4)] == [message, None, message, None]
    assert payload_of(lines, 4)["payload"]["value"] == str(2**3300)
    assert lines[-1] == {"errors": 2, "ok": False, "results": 4, "type": "summary"}
    # verify re-runs each error line into the same check and the same text
    rc, verified = _verify_lines(out, problem, capsys)
    assert rc == 0 and verified[-1] == {"checked": 4, "failures": 0, "type": "verify-summary"}

    # an integer argument with more digits than the limit in force fails on
    # its own bound, read before int() runs, so the lines written at the
    # default limit are the same, and verify under the limit agrees with them
    doc = json.loads((DATA / "readme.json").read_text())
    doc["queries"] = ["chain 1 " + "9" * 2000, ["basis", "9" * 2000], ["eval", "x", "-1" + "0" * 2000]]
    rc, lines, problem, out = run_to_file(tmp_path, doc)
    assert rc == 1
    assert [payload_of(lines, k)["error"] for k in (1, 2, 3)] == [
        "chain: the length is over the limit of 1000",
        "basis: the slice holds over 20000 monomials, C(2 + d, 2)",
        "ideal index -1" + "0" * 2000 + " out of range 1..3",
    ]
    written = out.read_text()
    rc, verified = _verify_lines(out, problem, capsys)
    assert rc == 0 and verified[-1] == {"checked": 3, "failures": 0, "type": "verify-summary"}
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    assert main(["run", str(problem), "--out", str(out)]) == 1
    sys.set_int_max_str_digits(1000)
    assert re.sub('"elapsed_us":[0-9]+', "", out.read_text()) == re.sub('"elapsed_us":[0-9]+', "", written)
    rc, verified = _verify_lines(out, problem, capsys)
    assert rc == 0 and verified[-1] == {"checked": 3, "failures": 0, "type": "verify-summary"}


def test_integer_and_rational_arguments_are_read_strictly(tmp_path, capsys):
    # an integer is a JSON int that is no bool, or a string -?[0-9]+, and a
    # rational string has the README's syntax; int() and Fraction() read more
    errors = {
        ("basis", 1.9): "bad degree bound 1.9",
        ("eval", "x", 2.5): "bad ideal index 2.5",
        ("chain", True, 3): "bad ideal index True",
        ("basis", "1_0"): "bad degree bound '1_0'",
        ("partition", "\u0663"): "bad ideal index '\u0663'",
        ("locus", "1_0", "0"): "bad rational '1_0': not of the form 3, -5/3 or 2.5",
        ("locus", "\u0663", "0"): "bad rational '\u0663': not of the form 3, -5/3 or 2.5",
    }
    queries = [list(q) for q in errors] + ["basis 1_0", "partition \u0663", ["basis", "1"]]
    rc, lines, problem, out = run_to_file(tmp_path, dict(THREE_LINES, queries=queries))
    assert rc == 1
    for k, error in enumerate(errors.values(), start=1):
        assert payload_of(lines, k)["error"] == error
    assert payload_of(lines, 8)["error"] == errors["basis", "1_0"]
    assert payload_of(lines, 9)["error"] == errors["partition", "\u0663"]
    assert payload_of(lines, 10)["payload"]["dimension"] == 2
    assert main(["verify", str(out), str(problem)]) == 0
    capsys.readouterr()


def test_string_coordinates_follow_the_readme_syntax(tmp_path, capsys):
    # Fraction() would read " 3", "+2" and "1e3" as 3, 2 and 1000
    queries = [["locus", bad, "0"] for bad in (" 3", "+2", "1e3")]
    queries += [["locus", good, "0"] for good in ("3", "-5/3", "2.5")] + [["locus", 2.5, 1e20]]
    rc, lines, problem, out = run_to_file(tmp_path, dict(THREE_LINES, queries=queries))
    assert rc == 1
    for k, bad in enumerate((" 3", "+2", "1e3"), start=1):
        assert payload_of(lines, k)["error"] == f"bad rational {bad!r}: not of the form 3, -5/3 or 2.5"
    points = [payload_of(lines, k)["payload"]["point"] for k in range(4, 8)]
    assert points == [["3", "0"], ["-5/3", "0"], ["5/2", "0"], ["5/2", str(10**20)]]
    assert main(["verify", str(out), str(problem)]) == 0
    capsys.readouterr()


def test_json_literals_arrays_and_objects_are_no_argument_text(tmp_path, capsys):
    # str() would read true and null as the variables True and None, and an
    # array or an object as its Python text, which Fraction() refuses in its
    # own words
    rational = "not of the form 3, -5/3 or 2.5"
    errors = [
        (["member", True], "bad polynomial True"),
        (["member", None], "bad polynomial None"),
        (["member", ["x"]], "bad polynomial ['x']"),
        (["eval", {"x": 1}, 1], "bad polynomial {'x': 1}"),
        (["locus", True, 0, 0], f"bad rational True: {rational}"),
        (["locus", 0, [0], 0], f"bad rational [0]: {rational}"),
        (["constancy", "x", 1, None], "bad point None"),
        (["constancy", "x", 1, [False, 0, 0]], f"bad rational False: {rational}"),
    ]
    # JSON numbers are still read as text
    queries = [q for q, _ in errors] + [["member", "x", "*", 2], ["locus", 0.5, 0, 1]]
    doc = {"format": 1, "ring": {"variables": ["True", "None", "x"]}, "ideals": [["x", "True"], ["x - 1", "True"]]}
    rc, lines, problem, out = run_to_file(tmp_path, dict(doc, queries=queries))
    assert rc == 1
    assert [payload_of(lines, k).get("error") for k in range(1, len(queries) + 1)] == [e for _, e in errors] + [None, None]
    assert payload_of(lines, 9)["payload"]["poly"] == "2*x"
    assert payload_of(lines, 10)["payload"]["point"] == ["1/2", "0", "1"]
    assert main(["verify", str(out), str(problem)]) == 0
    capsys.readouterr()


def test_basis_and_chain_sizes_are_bounded(tmp_path, capsys):
    # C(2 + d, 2) monomials of degree at most d in x, y: 19,900 at d = 198
    config = cli.load_problem(str(write_problem(tmp_path, THREE_LINES)))[0]
    assert cli._query_args("basis", ["198"], config) == {"degree": 198}
    assert cli._query_args("chain", [1, cli.MAX_CHAIN_LENGTH], config)["length"] == 1000
    too_big = {
        ("basis", "199"): "basis: the slice holds over 20000 monomials, C(2 + d, 2)",
        ("basis", "9" * 4000): "basis: the slice holds over 20000 monomials, C(2 + d, 2)",
        ("chain", "1", "1001"): "chain: the length is over the limit of 1000",
        ("chain", "1", "9" * 4000): "chain: the length is over the limit of 1000",
        ("partition", "0" + "9" * 4000): "ideal index " + "9" * 4000 + " out of range 1..3",
    }
    rc, lines, problem, out = run_to_file(tmp_path, dict(THREE_LINES, queries=list(map(list, too_big))))
    assert rc == 1
    for k, error in enumerate(too_big.values(), start=1):
        assert payload_of(lines, k)["error"] == error
        assert payload_of(lines, k)["elapsed_us"] < 1_000_000
    assert main(["verify", str(out), str(problem)]) == 0
    capsys.readouterr()


def test_query_splits_on_ascii_whitespace_only(tmp_path, capsys):
    # an ideographic space is no separator, so it reaches the parser
    doc = dict(THREE_LINES, queries=["member x\u3000+ 1", "member\tx *\r\n(x - 1)"])
    rc, lines, problem, out = run_to_file(tmp_path, doc)
    assert rc == 1
    assert payload_of(lines, 1)["error"] == "unexpected character '\\u3000' (at position 1)"
    assert payload_of(lines, 2)["payload"]["poly"] == "x^2 - x"
    assert main(["verify", str(out), str(problem)]) == 0
    capsys.readouterr()


def test_deep_nesting_is_a_query_error(tmp_path, capsys):
    doc = dict(THREE_LINES)
    doc["queries"] = ["member " + "(" * 3000 + "x" + ")" * 3000, "dims"]
    rc, lines, problem, out = run_to_file(tmp_path, doc)
    assert rc == 1
    assert payload_of(lines, 1)["error"] == (
        "parentheses nested more than 100 deep (at position 100)"
    )
    assert payload_of(lines, 2)["status"] == "ok"
    assert lines[-1] == {"errors": 1, "ok": False, "results": 2, "type": "summary"}
    assert main(["verify", str(out), str(problem)]) == 0
    capsys.readouterr()


def test_strict_stops_at_first_error(tmp_path):
    doc = dict(THREE_LINES)
    doc["queries"] = ["eval y 1", "dims"]
    problem = write_problem(tmp_path, doc)
    out = tmp_path / "strict.jsonl"
    rc = main(["run", str(problem), "--out", str(out), "--strict"])
    assert rc == 1
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    results = [e for e in lines if e["type"] == "result"]
    assert len(results) == 1
    assert results[0]["status"] == "error"


def test_string_and_array_queries_agree(tmp_path):
    doc = dict(THREE_LINES)
    doc["queries"] = ["eval x 2", ["eval", "x", "2"], "member x*(x - 1)"]
    rc, lines, _, _ = run_to_file(tmp_path, doc)
    assert rc == 0
    assert payload_of(lines, 1)["payload"] == payload_of(lines, 2)["payload"]
    assert payload_of(lines, 3)["payload"]["member"] is True


def test_verify_accepts_emitted_document(tmp_path, capsys):
    rc, _, problem, out = run_to_file(tmp_path, THREE_LINES)
    assert rc == 0
    capsys.readouterr()
    assert main(["verify", str(out), str(problem)]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert lines[-1] == {"checked": 12, "failures": 0, "type": "verify-summary"}


def _forge_non_member(payload):
    # `member y` rewritten as a claim about another polynomial
    payload.update(poly="0", member=True, constants=["0"] * 3, cofactors=[["0"]] * 3)


def _replace_locus_evidence(payload):
    # an ideal-0 entry that passes for the last ideal under [-1] indexing
    payload["evidence"][0] = {
        "ideal": 0, "on_variety": False, "generator_index": 1, "value": "1"
    }


# result index -> (tampering, text the failed verify line must contain); the
# queries from 13 on repeat earlier ones, one tampered line per defect
TAMPERING = {
    4: (lambda p: p["cofactors"].__setitem__(0, ["1/0"]), "zero denominator"),
    6: (lambda p: p.update(value="2"), "value disagrees"),
    7: (lambda p: p.update(a_constants=["1", "1", "1"]), "forced pattern"),
    13: (_forge_non_member, "poly '0' does not match the query"),
    14: (lambda p: p.update(cofactors=[]), "cofactors needs one entry per ideal"),
    15: (
        lambda p: p.update(a="x", b="1 - x", a_cofactors=["1"], b_cofactors=[None]),
        "b_cofactors needs one entry per ideal",
    ),
    16: (lambda p: p.update(evidence=p["evidence"][1:], in_locus=True), "evidence needs"),
    17: (lambda p: p.update(index=9), "index 9 does not match the query"),
    18: (lambda p: p.update(index=9), "index 9 does not match the query"),
    19: (_replace_locus_evidence, "evidence entry 1 names ideal 0"),
    20: (lambda p: p.pop("dims"), "missing field 'dims'"),
    21: (lambda p: p["a_cofactors"].append("0"), "need one cofactor per generator (1)"),
    22: (
        lambda p: p["evidence"][0].update(generator_index=0),
        "generator index 0 of ideal 1 out of range",
    ),
    # certificate lines carry exactly the fields `run` writes
    23: (lambda p: p.update(remainder="x"), "unexpected field 'remainder'"),
    24: (lambda p: p.update(note="made up"), "unexpected field 'note'"),
    25: (lambda p: p.update(reason="made up"), "unexpected field 'reason'"),
    26: (lambda p: p["evidence"][0].update(generator_index=1), "unexpected field 'generator_index'"),
    # and their flags are JSON booleans
    27: (lambda p: p.update(member=1), "member 1 is not a JSON boolean"),
    28: (lambda p: p.update(in_locus=1), "in_locus 1 is not a JSON boolean"),
    29: (lambda p: p["evidence"][0].update(on_variety=1), "on_variety 1 is not a JSON boolean"),
    30: (lambda p: p["evidence"][0].update(on_variety="yes"), "on_variety 'yes' is not a JSON boolean"),
    # a polynomial text that is no string, and evidence that is no object,
    # fail naming the field
    31: (lambda p: p.update(a=1), "a is not a string"),
    32: (lambda p: p["a_cofactors"].__setitem__(0, 0), "a_cofactors entry 1 is not a string"),
    33: (
        lambda p: p["cofactors"][0].__setitem__(0, 5),
        "cofactors for ideal 1 entry 1 is not a string",
    ),
    34: (
        lambda p: p["evidence"].__setitem__(0, [1, False]),
        "evidence entry 1 is not a JSON object",
    ),
    # lines with no certificate: the query is re-run and the texts compared
    1: (lambda p: p.update(ok=False), "ok disagrees with the re-derived validate result"),
    2: (lambda p: p.update(noetherian=True), "noetherian disagrees"),
    3: (lambda p: p.update(extra=[]), "unexpected field 'extra'"),
    5: (lambda p: p.update(remainder="2*y"), "remainder disagrees"),
    8: (lambda p: p["evidence"].__setitem__(2, "y^3"), "evidence disagrees"),
    11: (lambda p: p["basis"].__setitem__(0, "x^4"), "basis disagrees"),
    12: (lambda p: p["values"].__setitem__(1, "8"), "values disagrees"),
}


def test_verify_catches_tampering(tmp_path, capsys):
    doc = dict(THREE_LINES)
    doc["queries"] = THREE_LINES["queries"] + [
        "member y",
        "member x*(x - 1)*(x - 2)*y",
        "partition 1",
        "locus 0 7",
        "chain 1 4",
        ["eval", "x", 2],
        "locus 3 5",
        "dims",
        "partition 2",
        "locus 3 5",
        "member x*(x - 1)*(x - 2)*y",
        "partition 1",
        "locus 3 5",
        "locus 0 7",
        "member x*(x - 1)*(x - 2)*y",
        "locus 3 5",
        "locus 0 7",
        "locus 0 7",
        "partition 1",
        "partition 1",
        "member x*(x - 1)*(x - 2)*y",
        "locus 3 5",
    ]
    rc, _, problem, out = run_to_file(tmp_path, doc)
    assert rc == 0
    tampered = []
    for line in out.read_text().splitlines():
        entry = json.loads(line)
        if entry.get("type") == "result" and entry["index"] in TAMPERING:
            TAMPERING[entry["index"]][0](entry["payload"])
        tampered.append(json.dumps(entry, sort_keys=True))
    out.write_text("\n".join(tampered) + "\n")
    capsys.readouterr()
    assert main(["verify", str(out), str(problem)]) == 1
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    bad = {e["index"]: e["problem"] for e in lines if e["type"] == "verify" and not e["ok"]}
    assert set(bad) == set(TAMPERING)
    for index, (_, text) in TAMPERING.items():
        assert text in bad[index], (index, bad[index])
    assert lines[-1] == {"checked": 34, "failures": len(TAMPERING), "type": "verify-summary"}


def test_verify_binds_echoes_by_canonical_text(tmp_path, capsys):
    # each echo is re-spelled to an equal value; the certificate lines (a
    # positive member, a locus) fail like the re-derived one (member y)
    doc = dict(THREE_LINES, queries=["member x*(x - 1)*(x - 2)*y", "locus 3 5", "member y"])
    respell = {
        1: lambda p: p.update(poly=f"({p['poly']})"),
        2: lambda p: p["point"].__setitem__(0, "3/1"),
        3: lambda p: p.update(poly=f"({p['poly']})"),
    }
    rc, _, problem, out = run_to_file(tmp_path, doc)
    assert rc == 0
    entries = [json.loads(line) for line in out.read_text().splitlines()]
    assert entries[1]["payload"]["member"] is True
    for e in entries:
        if e["type"] == "result":
            respell[e["index"]](e["payload"])
    out.write_text("".join(json.dumps(e) + "\n" for e in entries))
    rc, verified = _verify_lines(out, problem, capsys)
    assert rc == 1
    assert _failures(verified) == [
        (1, "poly '(x^3*y - 3*x^2*y + 2*x*y)' does not match the query"),
        (2, "point ['3/1', '5'] does not match the query"),
        (3, "poly '(y)' does not match the query"),
    ]


def test_verify_rejects_a_payload_that_is_no_object(tmp_path, capsys):
    doc = dict(THREE_LINES, queries=["dims", "member y", "member x*(x - 1)*(x - 2)*y"])
    rc, _, problem, out = run_to_file(tmp_path, doc)
    entries = [json.loads(line) for line in out.read_text().splitlines()]
    for e, payload in zip(entries[1:4], ([], "y", ["0"])):
        e["payload"] = payload
    out.write_text("".join(json.dumps(e) + "\n" for e in entries))
    rc, verified = _verify_lines(out, problem, capsys)
    assert rc == 1
    assert _failures(verified) == [(k, "payload is not a JSON object") for k in (1, 2, 3)]


def test_verify_checks_cofactor_identities(tmp_path, capsys):
    rc, _, problem, out = run_to_file(tmp_path, THREE_LINES)
    tampered = []
    for line in out.read_text().splitlines():
        entry = json.loads(line)
        if entry.get("type") == "result" and entry.get("index") == 4:
            entry["payload"]["cofactors"][0] = ["x"]
        tampered.append(json.dumps(entry, sort_keys=True))
    out.write_text("\n".join(tampered) + "\n")
    capsys.readouterr()
    assert main(["verify", str(out), str(problem)]) == 1
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert any("cofactor" in e.get("problem", "") for e in lines if e["type"] == "verify")


def test_error_entries_verify_trivially(tmp_path, capsys):
    doc = dict(THREE_LINES)
    doc["queries"] = ["eval y 1"]
    problem = write_problem(tmp_path, doc)
    out = tmp_path / "err.jsonl"
    assert main(["run", str(problem), "--out", str(out)]) == 1
    assert main(["verify", str(out), str(problem)]) == 0
    capsys.readouterr()


def _verify_lines(out, problem, capsys):
    capsys.readouterr()
    rc = main(["verify", str(out), str(problem)])
    return rc, [json.loads(line) for line in capsys.readouterr().out.splitlines()]


def test_verify_binds_lines_to_the_problem_file(tmp_path, capsys):
    rc, lines, problem, out = run_to_file(tmp_path, THREE_LINES)
    assert rc == 0
    texts = out.read_text().splitlines()

    # header, first result, summary: every later query is unanswered, and the
    # summary no longer counts the result lines
    out.write_text("\n".join([texts[0], texts[1], texts[-1]]) + "\n")
    rc, verified = _verify_lines(out, problem, capsys)
    assert rc == 1
    assert verified[-2] == {
        "index": 2, "ok": False, "problem": "no result for query 2", "type": "verify"
    }
    assert [(e["index"], e["problem"]) for e in verified if not e.get("ok", True)] == [
        (None, "summary results 12 does not match the result lines"),
        (2, "no result for query 2"),
    ]
    assert verified[-1] == {"checked": 3, "failures": 2, "type": "verify-summary"}

    # `member y` replaced by the line before it, renumbered
    swapped = dict(lines[4], index=5)
    out.write_text("\n".join(texts[:5] + [json.dumps(swapped)] + texts[6:]) + "\n")
    rc, verified = _verify_lines(out, problem, capsys)
    assert rc == 1
    assert [(e["index"], e["problem"]) for e in verified if not e.get("ok", True)] == [
        (5, "query does not match query 5 of the problem file")
    ]

    # results out of order, and a header from another problem
    header = dict(lines[0], query_count=11)
    out.write_text("\n".join([json.dumps(header), texts[2], texts[1]] + texts[3:]) + "\n")
    rc, verified = _verify_lines(out, problem, capsys)
    assert rc == 1
    assert [(e["index"], e["problem"]) for e in verified if not e.get("ok", True)] == [
        (None, "header query_count 11 does not match the problem file's 12 queries"),
        (2, "result index 2 where 1 was expected"),
        (1, "result index 1 where 2 was expected"),
    ]

    # a result the problem file never asked for
    extra = dict(lines[-2], index=13)
    out.write_text("\n".join(texts[:-1] + [json.dumps(extra), texts[-1]]) + "\n")
    rc, verified = _verify_lines(out, problem, capsys)
    assert rc == 1
    assert verified[-2]["problem"] == "result 13 beyond the 12 the problem file asks for"

    # a line that is JSON but no object is a broken document, not a traceback
    out.write_text("\n".join(texts[:-1] + ["[1]", texts[-1]]) + "\n")
    assert main(["verify", str(out), str(problem)]) == 2
    assert "not a JSON object" in capsys.readouterr().err


def test_verify_needs_an_integer_query_count(tmp_path, capsys):
    # `True == 1` and `1.0 == 1`, but a count is a JSON integer
    rc, lines, problem, out = run_to_file(tmp_path, {**THREE_LINES, "queries": ["verdict"]})
    assert rc == 0
    texts = out.read_text().splitlines()
    for count in (True, 1.0):
        out.write_text("\n".join([json.dumps(dict(lines[0], query_count=count)), *texts[1:]]) + "\n")
        rc, verified = _verify_lines(out, problem, capsys)
        assert rc == 1
        assert [(e["index"], e["problem"]) for e in verified if not e.get("ok", True)] == [
            (None, f"header query_count {count!r} does not match the problem file's 1 queries")
        ]


def test_verify_catches_a_slice_non_member(tmp_path, capsys, monkeypatch):
    # run and verify both append y, which is no constant on the line x = 0,
    # so the canonical texts agree and only the membership check by the
    # tabled normal forms can refuse the element
    real = cli.r_basis
    monkeypatch.setattr(cli, "r_basis", lambda d, config: real(d, config) + [config.ring.var("y")])
    rc, lines, problem, out = run_to_file(tmp_path, dict(THREE_LINES, queries=["basis 2"]))
    assert rc == 0 and lines[1]["payload"]["basis"][-1] == "y"
    rc, verified = _verify_lines(out, problem, capsys)
    assert rc == 1
    assert _failures(verified) == [(1, "basis element y is not a member")]


def test_verify_accepts_strict_and_aborted_documents(tmp_path, capsys):
    doc = dict(THREE_LINES, queries=["dims", "eval y 1", "dims"])
    problem = write_problem(tmp_path, doc)
    out = tmp_path / "strict.jsonl"
    assert main(["run", str(problem), "--out", str(out), "--strict"]) == 1
    rc, verified = _verify_lines(out, problem, capsys)
    assert rc == 0 and verified[-1]["checked"] == 2

    doc = {"format": 1, "ring": {"variables": ["x", "y"]}, "ideals": [["x"], ["y"]],
           "queries": ["dims", "verdict"]}
    problem = write_problem(tmp_path, doc)
    assert main(["run", str(problem), "--out", str(out)]) == 2
    rc, verified = _verify_lines(out, problem, capsys)
    assert rc == 0
    assert verified == [
        {"index": 0, "ok": True, "type": "verify"},
        {"checked": 1, "failures": 0, "type": "verify-summary"},
    ]
    # `run` times no validation abort, so its line holds no elapsed_us
    entries = [json.loads(t) for t in out.read_text().splitlines()]
    entries[1]["elapsed_us"] = 0
    out.write_text("".join(json.dumps(e) + "\n" for e in entries))
    rc, verified = _verify_lines(out, problem, capsys)
    assert rc == 1 and _failures(verified) == [(0, "unexpected field 'elapsed_us'")]


def _write_lines(path, entries):
    path.write_text("".join(json.dumps(e, sort_keys=True) + "\n" for e in entries))
    return path


def test_verify_runs_the_validation_gate(tmp_path, capsys):
    # (x) and (x - y^2) meet at the origin, so `run` aborts at the gate: the
    # lines `_run_query` gives for the queries, under a matching summary, are
    # no document of that problem
    problem = DATA / "abort.json"
    config, queries = cli.load_problem(str(problem))
    entries = [{"type": "header", **cli._FORMAT, "version": "", "query_count": len(queries)}]
    for index, raw in enumerate(queries, start=1):
        entry = {"elapsed_us": 0, "index": index, "query": raw, "type": "result"}
        try:
            entry.update(status="ok", payload=json.loads(cli._dump(cli._run_query(*cli._normalize_query(raw), config))))
        except cli.QueryError as e:
            entry.update(status="error", error=str(e))
        entries.append(entry)
    entries.append(cli._summary(1, len(queries)))
    assert entries[2]["error"] == (
        "ideals 1 and 2 are not coprime (their zero sets meet), so no partition of unity separates ideal 1 from the rest"
    )
    rc, verified = _verify_lines(_write_lines(tmp_path / "ungated.jsonl", entries), problem, capsys)
    assert rc == 1 and [e["index"] for e in verified[:-1]] == [None, 1, 2, 3]
    assert _failures(verified) == [(None, "the validation gate fails, but the summary is no abort")]

    # (x) and (x - 1) pass the gate: an abort that writes their passing report is no document of theirs
    doc = {"format": 1, "ring": {"variables": ["x", "y"]}, "ideals": [["x"], ["x - 1"]], "queries": ["verdict"]}
    problem = write_problem(tmp_path, doc)
    report = json.loads(cli._dump(cli._derive("validate", {}, cli.load_problem(str(problem))[0])))
    assert report["ok"] is True
    entries = [
        {"type": "header", **cli._FORMAT, "version": "", "query_count": 1},
        {"index": 0, "payload": report, "query": "validate", "status": "ok", "type": "result"},
        cli._summary(aborted=True),
    ]
    rc, verified = _verify_lines(_write_lines(tmp_path / "aborted.jsonl", entries), problem, capsys)
    assert rc == 1 and [e["index"] for e in verified[:-1]] == [None, 0]
    assert _failures(verified) == [(None, "the validation gate passes, but the summary is a validation abort")]


def _golden_copy(tmp_path, name, edit):
    """The golden run document of `name` with `edit` applied to its parsed
    lines, written next to a copy of its problem file."""
    entries = [json.loads(t) for t in (DATA / f"{name}.run.jsonl").read_text().splitlines()]
    edit(entries)
    out = tmp_path / f"{name}.jsonl"
    out.write_text("".join(json.dumps(e, sort_keys=True) + "\n" for e in entries))
    return out, DATA / f"{name}.json"


def _failures(verified):
    return [(e["index"], e["problem"]) for e in verified if not e.get("ok", True)]


def test_verify_reruns_error_lines(tmp_path, capsys):
    def made_up(entries):
        e = entries[4]
        assert e["index"] == 4 and e["query"].startswith("member")
        entries[4] = {k: e[k] for k in ("elapsed_us", "index", "query", "type")}
        entries[4].update(status="error", error="made up")
        entries[-1].update(errors=1, ok=False)

    out, problem = _golden_copy(tmp_path, "readme", made_up)
    rc, verified = _verify_lines(out, problem, capsys)
    assert rc == 1
    assert _failures(verified) == [(4, "the query succeeds when re-run")]

    # the genuine error line of the curves document verifies; another text does not
    out, problem = _golden_copy(tmp_path, "curves", lambda entries: None)
    rc, verified = _verify_lines(out, problem, capsys)
    assert rc == 0 and _failures(verified) == []

    def other_text(entries):
        assert entries[21]["status"] == "error"
        entries[21]["error"] = "made up"

    out, problem = _golden_copy(tmp_path, "curves", other_text)
    rc, verified = _verify_lines(out, problem, capsys)
    assert rc == 1
    assert _failures(verified) == [(21, "error text disagrees with the re-run query")]

    def other_status(entries):
        entries[21]["status"] = "skipped"
        entries[-1].update(errors=0, ok=True)

    out, problem = _golden_copy(tmp_path, "curves", other_status)
    rc, verified = _verify_lines(out, problem, capsys)
    assert rc == 1
    assert _failures(verified) == [(21, "status 'skipped' is neither 'ok' nor 'error'")]


def _payload(edit):
    return lambda line: edit(line["payload"])


# (golden, result index, edit of that line, the problem verify reports):
# polynomial texts that do not parse, rationals that are no canonical text,
# and result lines whose own fields are not those `run` writes
STRICT_FIELDS = {
    "unparsable_cofactor": (
        "readme", 4, _payload(lambda p: p["cofactors"][0].__setitem__(0, "x +* 1")),
        "cofactors for ideal 1 entry 1: expected a number, variable or parenthesized expression (at position 3)",
    ),
    "unparsable_a": (
        "readme", 6, _payload(lambda p: p.update(a="x^")),
        "a: expected a non-negative integer exponent (at position 2)",
    ),
    "number_constants": (
        "readme", 4, _payload(lambda p: p.update(constants=[0, 0, 0])),
        "constants for ideal 1 0 is not a rational in canonical text",
    ),
    "decimal_constant": (
        "readme", 4, _payload(lambda p: p.update(constants=["0.0", "0", "0"])),
        "constants for ideal 1 '0.0' is not a rational in canonical text",
    ),
    "number_a_constants": (
        "readme", 6, _payload(lambda p: p.update(a_constants=["0", 1.0, "1"])),
        "a_constants entry 2 1.0 is not a rational in canonical text",
    ),
    "unreduced_b_constant": (
        "readme", 6, _payload(lambda p: p.update(b_constants=["1", "0/2", "0"])),
        "b_constants entry 2 '0/2' is not a rational in canonical text",
    ),
    "number_value": (
        "readme", 8, _payload(lambda p: p["evidence"][0].update(value=3)),
        "evidence entry 1 value 3 is not a rational in canonical text",
    ),
    "line_note": ("readme", 4, lambda e: e.update(note="made up"), "unexpected field 'note'"),
    "ok_line_error": ("readme", 4, lambda e: e.update(error="made up"), "unexpected field 'error'"),
    "untimed": ("readme", 4, lambda e: e.pop("elapsed_us"), "missing field 'elapsed_us'"),
    "error_line_payload": ("errors", 2, lambda e: e.update(payload={}), "unexpected field 'payload'"),
    "text_elapsed": (
        "errors", 2, lambda e: e.update(elapsed_us="soon"), "elapsed_us 'soon' is not a non-negative integer"
    ),
    "negative_elapsed": (
        "readme", 3, lambda e: e.update(elapsed_us=-1), "elapsed_us -1 is not a non-negative integer"
    ),
    "bool_elapsed": (
        "readme", 3, lambda e: e.update(elapsed_us=True), "elapsed_us True is not a non-negative integer"
    ),
}


@pytest.mark.parametrize("case", STRICT_FIELDS)
def test_verify_reads_every_field_as_run_writes_it(tmp_path, capsys, case):
    name, index, edit, problem_text = STRICT_FIELDS[case]
    out, problem = _golden_copy(tmp_path, name, lambda entries: edit(entries[index]))
    rc, verified = _verify_lines(out, problem, capsys)
    assert rc == 1 and _failures(verified) == [(index, problem_text)]


def _bad_constant_and_cofactor(payload):
    payload.update(constants=["0.0", "0", "0"])
    payload["cofactors"][0][0] = "x +* 1"


@pytest.mark.parametrize(
    "edit,problem_text",
    [
        # the constant is added to the cofactor sum: moving it alone breaks the identity
        (lambda p: p.update(constants=["0", "1", "0"]), "cofactor identity fails for ideal 2"),
        # each ideal's constant is read before its cofactors
        (_bad_constant_and_cofactor, "constants for ideal 1 '0.0' is not a rational in canonical text"),
    ],
    ids=["moved_constant", "constant_first"],
)
def test_verify_checks_member_constants_with_their_cofactors(tmp_path, capsys, edit, problem_text):
    out, problem = _golden_copy(tmp_path, "readme", lambda entries: edit(entries[4]["payload"]))
    rc, verified = _verify_lines(out, problem, capsys)
    assert rc == 1 and _failures(verified) == [(4, problem_text)]


@pytest.mark.parametrize(
    "edit,problem_text",
    [
        (lambda s: s.update(errors=0, ok=True), "summary errors 0 does not match the result lines"),
        (lambda s: s.update(ok=True), "summary ok True does not match the result lines"),
        (lambda s: s.update(results=23), "summary results 23 does not match the result lines"),
        (lambda s: s.update(errors=True), "summary errors True does not match the result lines"),
        (lambda s: s.update(note=None), "summary note None does not match the result lines"),
        (lambda s: s.pop("results"), "summary results None does not match the result lines"),
    ],
    ids=["flipped", "ok", "results", "bool-errors", "extra", "missing"],
)
def test_verify_checks_the_summary(tmp_path, capsys, edit, problem_text):
    out, problem = _golden_copy(tmp_path, "curves", lambda entries: edit(entries[-1]))
    rc, verified = _verify_lines(out, problem, capsys)
    assert rc == 1
    failures = _failures(verified)
    assert len(failures) == 1 and failures[0][0] is None
    assert failures[0][1].startswith(problem_text)


def test_verify_needs_one_summary_line_last(tmp_path, capsys):
    for edit in (
        lambda entries: entries.pop(),
        lambda entries: entries.insert(1, entries.pop()),
        lambda entries: entries.append(dict(entries[-1])),
    ):
        out, problem = _golden_copy(tmp_path, "readme", edit)
        rc, verified = _verify_lines(out, problem, capsys)
        assert rc == 1
        assert _failures(verified) == [(None, "the summary is not the single last line")]

    # a validation abort must say so and nothing else
    doc = {"format": 1, "ring": {"variables": ["x", "y"]}, "ideals": [["x"], ["y"]],
           "queries": ["dims"]}
    problem = write_problem(tmp_path, doc)
    out = tmp_path / "aborted.jsonl"
    assert main(["run", str(problem), "--out", str(out)]) == 2
    entries = [json.loads(t) for t in out.read_text().splitlines()]
    entries[-1]["errors"] = 0
    out.write_text("".join(json.dumps(e) + "\n" for e in entries))
    rc, verified = _verify_lines(out, problem, capsys)
    assert rc == 1
    assert _failures(verified) == [(None, "summary errors 0 does not match the result lines")]


@pytest.mark.parametrize("make", [lines_config, curves_config], ids=["lines", "curves"])
def test_cofactors_reuse_membership_quotients(make, monkeypatch):
    """Member cofactors lifted from the membership quotients equal the
    replaced path, a division of f - alpha whose quotients q are summed
    against the transform rows, sum(q[k] * T[k][t]); partition cofactors
    combine the generators to the pieces they certify."""
    config = make()
    ring = config.ring

    def reference(ideal, f):
        gb = ideal.groebner()
        res = gb.divide(f)
        assert res.remainder.is_zero()
        rows = list(zip(res.quotients, gb.transform))
        return tuple(sum_of_products(ring, [(1, q, row[t]) for q, row in rows]) for t in range(len(gb.generators)))

    def combine(cofactors, ideal):
        return sum_of_products(ring, [(1, c, g) for c, g in zip(cofactors, ideal.generators)])

    members = [ring.one(), ring.parse("x^2 + 3")]
    for i in range(config.n):
        w = cli._derive("partition", {"index": i}, config)
        assert combine(w["a_cofactors"], config.ideals[i]) == w["a"]
        for j, ideal in enumerate(config.ideals):
            if j == i:
                assert w["b_cofactors"][j] is None
            else:
                assert combine(w["b_cofactors"][j], ideal) == w["b"]
        members += [w["a"], w["b"] + 5]
    checked = 0
    for f in members:
        payload = cli._derive("member", {"poly": f}, config)
        if not payload["member"]:
            continue
        checked += 1
        for ideal, alpha, cof in zip(config.ideals, payload["constants"], payload["cofactors"]):
            assert cof == reference(ideal, f - ring.const(alpha))
    # 1 and every partition piece are members
    assert checked >= 1 + 2 * config.n


# the first member query of curves.json
CURVES_MEMBER = (
    "(x + 1)*x*(y - x^2 - 1)*(z - 5)*(x^2 + y^2 - 1)"
    " - (y - 1)*y*(z - x^3)*(x*y - 1)*(z + 3) + 2"
)


def test_one_basis_per_ideal_and_order(monkeypatch):
    # member cofactors and partition unit certificates reuse the bases the
    # validation gate and the membership division computed
    config, _ = cli.load_problem(str(DATA / "curves.json"))
    calls = []  # (generators, order) of every basis computation
    real = ideals.groebner_basis

    def counting(gens, **kwargs):
        calls.append((tuple(gens), kwargs.get("order")))
        return real(gens, **kwargs)

    monkeypatch.setattr(ideals, "groebner_basis", counting)
    assert cli._derive("validate", {}, config)["ok"]
    f = config.ring.parse(CURVES_MEMBER)
    assert cli._derive("member", {"poly": f}, config)["cofactors"]
    assert cli._derive("partition", {"index": 0}, config)["a_cofactors"]
    assert calls and len(calls) == len(set(calls))


@THREE_CONFIGS
def test_partitions_read_only_the_pair_sums_certificates(make, monkeypatch):
    # after the validation gate, partitions divide nothing: the first pass
    # replays each pair sum's transform once, for its unit certificate, and
    # no other transform (on the curves 0 divisions and 6 replays, where
    # dividing and lifting made 32 and 10); the second pass finds every
    # transform built, and divides, decodes and replays nothing
    config = make()
    logs = {name: [] for name in ("divide", "_decode_quotients", "_replay")}
    for name, log in logs.items():
        real = getattr(groebner, name)
        monkeypatch.setattr(groebner, name, lambda *a, real=real, log=log: log.append(a) or real(*a))
    assert cli._derive("validate", {}, config)["ok"]

    def partitions():
        for log in logs.values():
            log.clear()
        for i in range(config.n):
            assert cli._derive("partition", {"index": i}, config)["b_cofactors"][i] is None
        return sorted(id(gb) for (gb,) in logs["_replay"])

    pair_sums = sorted(id(pair.groebner()) for pair in config.pair_sums.values())
    assert partitions() == pair_sums and logs["divide"] == []
    assert len(pair_sums) == config.n * (config.n - 1) // 2
    assert partitions() == [] and logs["divide"] == [] and logs["_decode_quotients"] == []


@pytest.mark.parametrize("name", ["curves", "katsura3"])
def test_memberships_decode_no_quotient(name, monkeypatch):
    # the lift reads each membership division's packed quotients: with the
    # division checks (which read every quotient) off, and the bases and
    # their rows built by a first pass, the first member query of curves and
    # the member queries of katsura3 read no division's quotients (the lift
    # decodes only the cofactors it sums)
    monkeypatch.setattr(groebner, "VERIFY_DIVISION", False)
    config, queries = cli.load_problem(str(DATA / f"{name}.json"))
    members = [q.split(" ", 1)[1] for q in queries if isinstance(q, str) and q.startswith("member ")]
    members = [config.ring.parse(text) for text in (members[:1] if name == "curves" else members)]
    assert cli._derive("validate", {}, config)["ok"]
    payloads = [cli._derive("member", {"poly": f}, config) for f in members]
    assert [p["member"] for p in payloads].count(True) >= 1
    read = []
    real = groebner.DivisionResult.quotients
    monkeypatch.setattr(groebner.DivisionResult, "quotients", property(lambda res: read.append(res) or real.fget(res)))
    assert [cli._derive("member", {"poly": f}, config) for f in members] == payloads
    assert read == []


def test_transform_rows_are_built_on_first_use(monkeypatch):
    config, _ = cli.load_problem(str(DATA / "curves.json"))
    replays = []
    real = groebner._replay
    monkeypatch.setattr(groebner, "_replay", lambda gb: replays.append(gb) or real(gb))
    assert cli._derive("validate", {}, config)["ok"]
    y = config.ring.parse("y")
    assert not cli._derive("member", {"poly": y}, config)["member"]
    assert replays == []
    # a member's cofactors build each ideal's rows once
    f = config.ring.parse(CURVES_MEMBER)
    for _ in range(2):
        cli._derive("member", {"poly": f}, config)
    assert sorted(map(id, replays)) == sorted(id(ideal.groebner()) for ideal in config.ideals)
