"""Batch command line interface.

`smeared run problem.json` reads a JSON problem file describing the ambient
ring, the ideal family, and a list of queries, executes the queries in
order, and emits a line-oriented JSON result document (one object per line:
header, one result per query, summary).  `smeared verify results.jsonl
problem.json` re-checks a previously emitted document against the problem
file's query list, one result line per query in order.  The query
arguments a payload echoes must be written as `run` writes them, in
canonical text.  Certificate lines are checked by arithmetic (cofactor
identities of memberships and partitions, summed by `poly.sum_of_products`)
or by evaluation (locus evidence); every other line is checked by re-running
its query and comparing canonical text.  A `basis` line is re-derived and
compared so too; then each element's membership is checked from the tabled
monomial normal forms, by linearity, with no division.

Problem file layout::

    {
      "format": 1,
      "ring": {"variables": ["x", "y"], "order": "grevlex"},
      "ideals": [["x"], ["x - 1"], ["x - 2"]],
      "radical": [true, true, true],
      "check_radicality": false,
      "queries": ["verdict", "member x*(x - 1)*(x - 2)*y", ["eval", "x", 2]]
    }

Queries may be strings (split at spaces, tabs, CR and LF, the parser's
whitespace; the polynomial argument may itself contain spaces where it is
the only free-form argument) or arrays.  `format` must be the number 1 and
`check_radicality`, if given, a JSON boolean.
All ideal indices, generator indices and point positions in files and result
documents are 1-based; the Python API is 0-based.

Rationals are serialized as exact "p/q" strings, polynomials as strings in
the parser grammar; no floats appear anywhere.  Apart from the elapsed_us
timing fields, the result document is byte-deterministic for a given
problem file.

Exit codes: 0 success, 1 query error (or failed verification), 2 problem
file or validation failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import re
import sys
import time
from fractions import Fraction
from math import comb
from typing import Optional, Sequence

from . import __version__
from .ideals import Ideal
from .poly import GREVLEX, LEX, ParseError, Polynomial, PolyRing, sum_of_products
from .ring import (
    NoChainError,
    NotCoprimeError,
    NotMemberError,
    OffZeroSetError,
    SmearedRingConfig,
    chain_witness,
    evaluate_at_smeared_point,
    locus_member,
    member,
    partition_of_unity,
    r_basis,
    scaled_normal_forms,
    smeared_constancy_check,
    validate,
    verdicts,
)


class ProblemFileError(ValueError):
    """The problem file cannot be turned into a runnable configuration."""


class QueryError(ValueError):
    """A single query is malformed or failed; the batch can continue."""


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+|\.[0-9]+)?")


def _parse_frac(text) -> Fraction:
    """A JSON number, or a string of the form 3, -5/3 or 2.5 (Fraction would
    also read spaces, "+", "_", exponents and other scripts' digits)."""
    try:
        if isinstance(text, str) and not _RATIONAL.fullmatch(text):
            raise ValueError("not of the form 3, -5/3 or 2.5")
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as e:
        raise QueryError(f"bad rational {text!r}: {e}") from None


# ---------------------------------------------------------------------------
# problem loading


def _no_constant(name: str):
    """`parse_constant` for `json`: NaN and the infinities are no JSON numbers."""
    raise ValueError(f"{name} is not a JSON number")


def _unique_names(pairs: list) -> dict:
    """`object_pairs_hook` for `json`: an object may give a name once only."""
    obj = {}
    for name, value in pairs:
        if name in obj:
            raise ValueError(f"repeated name {name!r}")
        obj[name] = value
    return obj


def _json(text: str):
    """The JSON value of `text`, read by the rules of `_no_constant` and
    `_unique_names`; problem files and result documents both read so."""
    return json.loads(text, parse_constant=_no_constant, object_pairs_hook=_unique_names)


def load_problem(path: str):
    """(config, queries) from a problem file."""
    try:
        with open(path) as fh:
            doc = _json(fh.read())
    except OSError as e:
        raise ProblemFileError(f"cannot read {path}: {e}") from None
    # besides syntax errors: an integer literal over int()'s digit limit, NaN
    # or an infinity (`_no_constant`), a repeated name (`_unique_names`),
    # undecodable bytes, or too deep nesting
    except (ValueError, RecursionError) as e:
        raise ProblemFileError(f"{path} is not valid JSON: {e}") from None
    # `True == 1` and `1.0 == 1`, so the type is checked first
    if not isinstance(doc, dict) or type(doc.get("format")) is not int or doc["format"] != 1:
        raise ProblemFileError('problem file must carry "format": 1')

    ring_doc = doc.get("ring")
    if not isinstance(ring_doc, dict) or not ring_doc.get("variables"):
        raise ProblemFileError('missing ring description {"variables": [...]}')
    variables = ring_doc["variables"]
    # an ASCII identifier is a name of the grammar, [A-Za-z_][A-Za-z_0-9]*
    if not isinstance(variables, list) or not all(
        isinstance(v, str) and v.isascii() and v.isidentifier() for v in variables
    ):
        raise ProblemFileError('"variables" must be a list of names [A-Za-z_][A-Za-z_0-9]*')
    order = ring_doc.get("order", GREVLEX)
    if order not in (GREVLEX, LEX):
        raise ProblemFileError(f"unknown monomial order {order!r}")
    try:
        ring = PolyRing(tuple(variables), order)
    except ValueError as e:
        raise ProblemFileError(str(e)) from None

    raw_ideals = doc.get("ideals")
    if not isinstance(raw_ideals, list) or not raw_ideals:
        raise ProblemFileError("need a nonempty ideal list")
    ideals = []
    for i, gens in enumerate(raw_ideals, start=1):
        if not isinstance(gens, list):
            raise ProblemFileError(f"ideal {i} must be a list of polynomial strings")
        parsed = []
        for j, text in enumerate(gens, start=1):
            if not isinstance(text, str):
                raise ProblemFileError(f"ideal {i}, generator {j} must be a polynomial string")
            try:
                parsed.append(ring.parse(text))
            except ParseError as e:
                raise ProblemFileError(f"ideal {i}, generator {j}: {e}") from None
        ideals.append(Ideal(ring, tuple(parsed)))

    radical = doc.get("radical", [True] * len(ideals))
    if not isinstance(radical, list) or [type(b) for b in radical] != [bool] * len(ideals):
        raise ProblemFileError('"radical" must list one boolean per ideal')

    queries = doc.get("queries", [])
    if not isinstance(queries, list):
        raise ProblemFileError('"queries" must be a list')

    check_radicality = doc.get("check_radicality", False)
    if type(check_radicality) is not bool:
        raise ProblemFileError('"check_radicality" must be a boolean')

    return SmearedRingConfig(ring, tuple(ideals), tuple(radical), check_radicality), queries


def _normalize_query(raw):
    """(name, argument list) from either the string or the array form."""
    if isinstance(raw, str):
        parts = re.findall("[^ \t\r\n]+", raw)  # the parser's whitespace
        if not parts:
            raise QueryError("empty query")
        return parts[0], parts[1:]
    if isinstance(raw, list) and raw and isinstance(raw[0], str):
        return raw[0], list(raw[1:])
    raise QueryError(f"query must be a string or a nonempty array: {raw!r}")


def _want(args: Sequence, low: int, high: Optional[int], usage: str):
    if len(args) < low or (high is not None and len(args) > high):
        raise QueryError(f"usage: {usage}")


def _arg_poly(config: SmearedRingConfig, parts: Sequence) -> Polynomial:
    text = " ".join(str(p) for p in parts)
    try:
        return config.ring.parse(text)
    except ParseError as e:
        raise QueryError(str(e)) from None


def _arg_index(config: SmearedRingConfig, token) -> int:
    i = _arg_int(token, "ideal index", config.n)
    if not 1 <= i <= config.n:  # i may stand in for a longer index (`_arg_int`): name it as written
        name = re.sub("^(-?)0*", r"\1", token) if i and type(token) is str else i
        raise QueryError(f"ideal index {name} out of range 1..{config.n}")
    return i - 1


def _arg_int(token, what: str, bound: int) -> int:
    """A JSON int that is no bool, or a string -?[0-9]+, read as bound + 1
    with its sign if it has more significant digits than `bound`: past the
    bound either way, so the caller's bound error names it before int() could
    refuse it at the interpreter's digit limit for integer text."""
    if type(token) is int:
        return token
    m = re.fullmatch("(-?)0*([0-9]+)", token) if isinstance(token, str) else None
    if m is None:
        raise QueryError(f"bad {what} {token!r}")
    return int(m[1] + (m[2] if len(m[2]) <= len(str(bound)) else str(bound + 1)))


def _arg_point(config: SmearedRingConfig, tokens) -> list:
    coords = [_parse_frac(t) for t in tokens]
    if len(coords) != config.ring.nvars:
        raise QueryError(
            f"point needs {config.ring.nvars} coordinates, got {len(coords)}"
        )
    return coords


# ---------------------------------------------------------------------------
# query payloads


# the most monomials of degree <= d a `basis` slice spans, and the longest `chain`
MAX_SLICE_MONOMIALS = 20_000
MAX_CHAIN_LENGTH = 1_000


def _query_args(name: str, args: Sequence, config: SmearedRingConfig) -> dict:
    """A query's arguments, parsed and range-checked, under the names its
    payload echoes them by (`index` is 0-based here); `run` and `verify`
    both read queries through this."""
    if name in ("validate", "dims", "verdict"):
        _want(args, 0, 0, name)
        return {}
    if name == "member":
        _want(args, 1, None, "member <poly>")
        return {"poly": _arg_poly(config, args)}
    if name == "eval":
        _want(args, 2, None, "eval <poly> <i>")
        i = _arg_index(config, args[-1])
        return {"poly": _arg_poly(config, args[:-1]), "index": i}
    if name == "partition":
        _want(args, 1, 1, "partition <i>")
        return {"index": _arg_index(config, args[0])}
    if name == "chain":
        _want(args, 2, 2, "chain <i> <L>")
        i, length = _arg_index(config, args[0]), _arg_int(args[1], "chain length", MAX_CHAIN_LENGTH)
        if length > MAX_CHAIN_LENGTH:
            raise QueryError(f"chain: the length is over the limit of {MAX_CHAIN_LENGTH}")
        return {"index": i, "length": length}
    if name == "locus":
        _want(args, 1, None, "locus <coordinates>")
        return {"point": _arg_point(config, args)}
    if name == "basis":
        _want(args, 1, 1, "basis <d>")
        d = _arg_int(args[0], "degree bound", MAX_SLICE_MONOMIALS)
        if d < 0:
            raise QueryError("degree bound must be non-negative")
        n = config.ring.nvars
        if d > MAX_SLICE_MONOMIALS or comb(n + d, n) > MAX_SLICE_MONOMIALS:
            raise QueryError(f"basis: the slice holds over {MAX_SLICE_MONOMIALS} monomials, C({n} + d, {n})")
        return {"degree": d}
    if name == "constancy":
        _want(args, 3, None, "constancy <poly> <i> <points>")
        f = _arg_poly(config, args[:1])
        i = _arg_index(config, args[1])
        # each point is a JSON array of rationals or one "a,b" token
        points = [
            _arg_point(config, t if isinstance(t, list) else str(t).split(","))
            for t in args[2:]
        ]
        return {"poly": f, "index": i, "points": points}
    raise QueryError(f"unknown query {name!r}")


def _echo(q: dict) -> dict:
    """The parsed query arguments a payload repeats: all but `points`, with
    `index` 1-based as in documents."""
    return {k: v + 1 if k == "index" else v for k, v in q.items() if k != "points"}


def _run_query(name: str, args: Sequence, config: SmearedRingConfig) -> dict:
    """One query's payload from its raw arguments: `_derive`'s fields and the echo."""
    q = _query_args(name, args, config)
    return {**_derive(name, q, config), **_echo(q)}


def _derive(name: str, q: dict, config: SmearedRingConfig) -> dict:
    """A payload's fields besides `_echo(q)`, as engine values that `_dump`
    writes as text; `run` and `verify` read each format from here only."""
    f, i = q.get("poly"), q.get("index")
    try:
        if name == "validate":
            report = validate(config)
            return {
                "ok": report.ok,
                "radicality_checked": report.radicality_checked,
                "violations": [
                    {
                        "kind": v.kind,
                        "ideals": [i + 1 for i in v.ideals],
                        "message": v.render(1),
                    }
                    for v in report.violations
                ],
            }

        if name == "member":
            cert = member(f, config)
            if not cert.member:
                return {
                    "member": False,
                    "witness_index": cert.witness_index + 1,
                    "remainder": cert.nonconstant_remainder,
                }
            return {
                "member": True,
                "constants": cert.constants,
                "cofactors": [ideal.cofactors(d) for ideal, d in zip(config.ideals, cert.divisions)],
            }

        if name == "eval":
            return {"value": evaluate_at_smeared_point(f, i, config)}

        if name == "partition":
            w = partition_of_unity(i, config)
            return {
                "a": w.a,
                "b": w.b,
                "a_constants": [Fraction(int(j != i)) for j in range(config.n)],
                "b_constants": [Fraction(int(j == i)) for j in range(config.n)],
                "a_cofactors": w.a_cofactors,
                "b_cofactors": w.b_cofactors,
            }

        if name == "chain":
            w = chain_witness(i, q["length"], config)
            return {"g": w.g, "h": w.h, "evidence": w.evidence}

        if name == "dims":
            return {"dims": verdicts(config).per_ideal_dims}

        if name == "verdict":
            v = verdicts(config)
            return {
                "noetherian": v.noetherian,
                "depicted_by_S": v.depicted_by_S,
                "dims": v.per_ideal_dims,
            }

        if name == "locus":
            report = locus_member(q["point"], config)
            evidence = []
            for e in report.evidence:
                entry = {"ideal": e.index + 1, "on_variety": e.on_variety}
                if not e.on_variety:
                    entry["generator_index"] = e.generator_index + 1
                    entry["value"] = e.value
                evidence.append(entry)
            return {"in_locus": report.in_locus, "evidence": evidence}

        if name == "basis":
            basis = r_basis(q["degree"], config)
            return {"dimension": len(basis), "basis": basis}

        # constancy: `_query_args` has rejected every other name
        report = smeared_constancy_check(f, i, q["points"], config)
        return {
            "expected": report.expected,
            "values": report.values,
            "ok": report.ok,
            "mismatches": [p + 1 for p in report.mismatches],
        }
    except (NoChainError, NotCoprimeError, NotMemberError, OffZeroSetError) as e:
        # refusals that name an ideal or a point number it from 1, as documents do
        raise QueryError(e.render(1)) from None
    except ValueError as e:
        # the engine's other refusals (a partition of one ideal, say) are query errors too
        raise QueryError(str(e)) from None


# ---------------------------------------------------------------------------
# run


def _text(value) -> str:
    if isinstance(value, (Polynomial, Fraction)):
        try:
            return str(value)
        except ValueError:  # past int's digit limit for text, a query error
            n = sys.get_int_max_str_digits()
            raise QueryError(f"the result holds a number of over {n} digits, the limit for integer text") from None
    raise TypeError(f"{type(value).__name__} has no document form")


def _dump(obj) -> str:
    """Canonical JSON text: sorted keys, no spaces, engine values as text."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_text)


def _summary(errors: int = 0, results: int = 0, aborted: bool = False) -> dict:
    """The last line of a result document: a validation abort, or the count
    of result lines and of error lines among them."""
    if aborted:
        return {"type": "summary", "ok": False, "aborted": "validation"}
    return {"type": "summary", "ok": errors == 0, "errors": errors, "results": results}


def _emit(lines, out_path: Optional[str], human: str) -> None:
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
        print(human)
    else:
        sys.stdout.write(text)
        print(human, file=sys.stderr)


# the header fields a document must carry to verify; `version` need only be a
# string, so a document from another release of format 1 still verifies
_FORMAT = {"format": 1, "engine": "smeared"}


def run_command(problem_path: str, out_path: Optional[str], strict: bool) -> int:
    try:
        config, queries = load_problem(problem_path)
    except ProblemFileError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    lines = [_dump({"type": "header", **_FORMAT, "version": __version__, "query_count": len(queries)})]

    gate = _derive("validate", {}, config)
    if not gate["ok"]:
        abort = {"type": "result", "index": 0, "query": "validate", "status": "ok", "payload": gate}
        lines += [_dump(abort), _dump(_summary(aborted=True))]
        _emit(lines, out_path, f"validation failed: {len(gate['violations'])} violation(s)")
        return 2

    errors = 0
    for qi, raw in enumerate(queries, start=1):
        started = time.perf_counter_ns()
        entry = {"type": "result", "index": qi, "query": raw}
        # the timing covers writing the payload's engine values as text;
        # "elapsed_us" sorts before every other key, so it leads the line
        try:
            name, args = _normalize_query(raw)
            text = _dump({**entry, "status": "ok", "payload": _run_query(name, args, config)})
        except QueryError as e:
            errors += 1
            text = _dump({**entry, "status": "error", "error": str(e)})
        elapsed = (time.perf_counter_ns() - started) // 1000
        lines.append(f'{{"elapsed_us":{elapsed},{text[1:]}')
        if errors and strict:
            break

    ran = len(lines) - 1
    lines.append(_dump(_summary(errors, ran)))
    _emit(lines, out_path, f"{ran} result(s), {errors} error(s)")
    return 0 if errors == 0 else 1


# ---------------------------------------------------------------------------
# verify


def _parse_document(path: str) -> list:
    try:
        with open(path) as fh:
            entries = [_json(line) for line in fh if line.strip()]
    except OSError as e:
        raise ProblemFileError(f"cannot read {path}: {e}") from None
    except (ValueError, RecursionError) as e:
        raise ProblemFileError(f"{path} line is not valid JSON: {e}") from None
    if not all(isinstance(e, dict) for e in entries):
        raise ProblemFileError(f"{path} has a line that is not a JSON object")
    return entries


def _fields(obj: dict, names) -> None:
    """Fail an object whose fields are not exactly `names`, those `run` writes."""
    odd = sorted(set(obj) ^ set(names))
    if odd:
        raise QueryError(f"{'unexpected' if odd[0] in obj else 'missing'} field {odd[0]!r}")


def _flag(obj: dict, name: str) -> bool:
    """obj[name], which must be a JSON boolean (`1 == True`); missing, it reads as None."""
    if type(obj.get(name)) is not bool:
        raise QueryError(f"{name} {obj.get(name)!r} is not a JSON boolean")
    return obj[name]


def _poly(ring, text, field: str) -> Polynomial:
    """The polynomial a document writes as `text` in `field`; every
    polynomial text verify reads comes through here, and fails naming it."""
    if not isinstance(text, str):
        raise QueryError(f"{field} is not a string")
    try:
        return ring.parse(text)
    except ParseError as e:
        raise QueryError(f"{field}: {e}") from None


def _frac(text, field: str) -> Fraction:
    """The rational a document writes as `text` in `field`: a JSON string in
    canonical text, `str(Fraction)`, as `run` writes it; `_poly`'s twin."""
    with contextlib.suppress(QueryError):
        if isinstance(text, str) and str(value := _parse_frac(text)) == text:
            return value
    raise QueryError(f"{field} {text!r} is not a rational in canonical text")


def _combine(cofactor_texts, generators, ring, field: str, constant: Fraction = 0) -> Polynomial:
    """sum(c[k] * generators[k]) + constant over the cofactor texts, in one sum."""
    if not isinstance(cofactor_texts, list) or len(cofactor_texts) != len(generators):
        raise QueryError(f"{field}: need one cofactor per generator ({len(generators)})")
    cofactors = [_poly(ring, t, f"{field} entry {k}") for k, t in enumerate(cofactor_texts, start=1)]
    one = ring.one()
    return sum_of_products(ring, [(1, c, g) for c, g in zip(cofactors, generators)] + [(constant, one, one)])


class _Verifier:
    """Re-checks one emitted result line against the problem file.

    `_bind` has already bound the lines to the problem's query list, one
    line per query in order.  Each line is also bound to its own query: every
    field the payload echoes (`_echo`: `poly`, `index`, `length`, `degree`,
    `point`) must be the query's argument written as canonical text, as
    `run` writes it, every per-ideal list must hold one entry per ideal in
    order, and the checks then use the query's arguments.  A line, and a
    certificate payload, holds exactly the fields `run` writes: JSON booleans
    for flags, a non-negative integer `elapsed_us` (none on a validation
    abort), polynomials that `_poly` reads and rationals that `_frac` reads.
    Certificate lines are checked by arithmetic on their cofactors (positive
    memberships, partitions) or by evaluation (locus evidence).  Every other
    line has no finite certificate: `_rederive` re-runs its query and
    compares the canonical text of the fields that are not echoed; an error
    line must fail again with its text.  A `basis` line is re-derived so,
    and then each element's membership is checked from the tabled monomial
    normal forms by linearity (`scaled_normal_forms`), with no division.
    A malformed or wrong claim alike raises `QueryError` naming the field or
    check at fault, the only way a line fails; every check returns None.
    """

    def __init__(self, config: SmearedRingConfig):
        self.config = config

    def check(self, entry: dict) -> None:
        status = entry.get("status")
        if status not in ("ok", "error"):
            raise QueryError(f"status {status!r} is neither 'ok' nor 'error'")
        timed = ("elapsed_us",) if entry["index"] else ()  # `run` times no validation abort
        _fields(entry, ("index", "query", "status", "type", "payload" if status == "ok" else "error", *timed))
        if timed and (type(entry["elapsed_us"]) is not int or entry["elapsed_us"] < 0):
            raise QueryError(f"elapsed_us {entry['elapsed_us']!r} is not a non-negative integer")
        if status == "error":
            self._check_error(entry)
            return
        name, args = _normalize_query(entry["query"])
        q = _query_args(name, args, self.config)
        payload = entry["payload"]
        if not isinstance(payload, dict):
            raise QueryError("payload is not a JSON object")
        for k, v in _echo(q).items():
            got = payload.get(k)  # no echo is None
            if _dump(got) != _dump(v):
                raise QueryError(f"{k} {got!r} does not match the query")
        checker = getattr(self, "_check_" + name, None)
        if checker is None:
            self._rederive(name, q, payload)
        else:
            checker(q, payload)

    def _check_error(self, entry: dict) -> None:
        try:
            _dump(_run_query(*_normalize_query(entry["query"]), self.config))
        except QueryError as e:
            if str(e) != entry["error"]:
                raise QueryError("error text disagrees with the re-run query") from None
            return
        raise QueryError("the query succeeds when re-run")

    def _per_ideal(self, payload: dict, field: str) -> list:
        entries = payload[field]
        if not isinstance(entries, list) or len(entries) != self.config.n:
            raise QueryError(f"{field} needs one entry per ideal ({self.config.n})")
        return entries

    def _rederive(self, name: str, q: dict, payload: dict) -> dict:
        """Re-run the query and require the canonical text of each field
        that `check` has not bound as an echo; the re-derived fields are
        returned for further checks."""
        derived = _derive(name, q, self.config)
        _fields(payload, [*derived, *_echo(q)])
        for field in sorted(derived):
            if _dump(payload[field]) != _dump(derived[field]):
                raise QueryError(f"{field} disagrees with the re-derived {name} result")
        return derived

    def _check_member(self, q, payload) -> None:
        if not _flag(payload, "member"):
            self._rederive("member", q, payload)
            return
        _fields(payload, ("member", "constants", "cofactors", *_echo(q)))
        ring = self.config.ring
        constants = self._per_ideal(payload, "constants")
        cofactors = self._per_ideal(payload, "cofactors")
        for i, (ideal, alpha, cof) in enumerate(zip(self.config.ideals, constants, cofactors), start=1):
            alpha = _frac(alpha, f"constants for ideal {i}")  # read before the cofactors
            if _combine(cof, ideal.generators, ring, f"cofactors for ideal {i}", alpha) != q["poly"]:
                raise QueryError(f"cofactor identity fails for ideal {i}")

    def _check_partition(self, q, payload) -> None:
        _fields(payload, ("a", "b", "a_constants", "b_constants", "a_cofactors", "b_cofactors", *_echo(q)))
        ring = self.config.ring
        i = q["index"]
        a, b = _poly(ring, payload["a"], "a"), _poly(ring, payload["b"], "b")
        if a + b != ring.one():
            raise QueryError("a + b is not 1")
        if _combine(payload["a_cofactors"], self.config.ideals[i].generators, ring, "a_cofactors") != a:
            raise QueryError("cofactors for a do not reproduce a")
        b_cofactors = self._per_ideal(payload, "b_cofactors")
        for j, (ideal, cof) in enumerate(zip(self.config.ideals, b_cofactors)):
            if j == i:
                if cof is not None:
                    raise QueryError("unexpected cofactors for the distinguished ideal")
                continue
            if _combine(cof, ideal.generators, ring, f"b_cofactors for ideal {j + 1}") != b:
                raise QueryError(f"cofactors for b do not reproduce b in ideal {j + 1}")
        # the identities force the constants: a is 0 on Z(I_i), 1 elsewhere
        want_a = [Fraction(int(j != i)) for j in range(self.config.n)]
        got_a = [_frac(c, f"a_constants entry {j}") for j, c in enumerate(self._per_ideal(payload, "a_constants"), 1)]
        got_b = [_frac(c, f"b_constants entry {j}") for j, c in enumerate(self._per_ideal(payload, "b_constants"), 1)]
        if got_a != want_a or got_b != [1 - c for c in want_a]:
            raise QueryError("constant vectors do not match the forced pattern")

    def _check_locus(self, q, payload) -> None:
        point = q["point"]
        _fields(payload, ("in_locus", "evidence", *_echo(q)))
        evidence = self._per_ideal(payload, "evidence")
        for k, (ideal, e) in enumerate(zip(self.config.ideals, evidence), start=1):
            if not isinstance(e, dict):
                raise QueryError(f"evidence entry {k} is not a JSON object")
            on_variety = _flag(e, "on_variety")
            _fields(e, ("ideal", "on_variety") + (() if on_variety else ("generator_index", "value")))
            if type(e["ideal"]) is not int or e["ideal"] != k:
                raise QueryError(f"evidence entry {k} names ideal {e['ideal']!r}")
            if on_variety:
                for g in ideal.generators:
                    if g.evaluate(point):
                        raise QueryError(f"generator {g} does not vanish as claimed")
                continue
            gi = e["generator_index"]
            if type(gi) is not int or not 1 <= gi <= len(ideal.generators):
                raise QueryError(f"generator index {gi!r} of ideal {k} out of range")
            value = ideal.generators[gi - 1].evaluate(point)
            if not value:
                raise QueryError("claimed nonvanishing generator vanishes")
            if _frac(e["value"], f"evidence entry {k} value") != value:
                raise QueryError("claimed nonvanishing value disagrees")
        claimed = all(not e["on_variety"] for e in evidence)
        if claimed != _flag(payload, "in_locus"):
            raise QueryError("in_locus flag contradicts its own evidence")

    def _check_basis(self, q, payload) -> None:
        # NF is linear: for p = c * sum(v_m * x^m), sum(v_m * row m) is den / c
        # times NF(p) less its constant, so p is a member when it is 0
        basis = self._rederive("basis", q, payload)["basis"]
        support = list({m for p in basis for m in p.integer_form()[0]})
        tables = [dict(zip(support, scaled_normal_forms(ideal, support))) for ideal in self.config.ideals]
        for p in basis:
            for table in tables:
                nf = {}
                for m, v in p.integer_form()[0].items():
                    for mu, w in table[m].items():
                        nf[mu] = nf.get(mu, 0) + v * w
                if any(nf.values()):
                    raise QueryError(f"basis element {p} is not a member")


def _bind(entries: list, queries: list, gate_ok: bool):
    """(index, result entry, binding problem) per verify line.

    Result lines bind to the problem file's queries in order: a complete
    document holds results 1..n for its n queries, a `--strict` one may stop
    at its first error (its one error line, and its last), and a validation
    abort holds one index-0 `validate` line and a summary saying so.  The
    header is the single first line, of exactly the fields `run` writes, the
    summary the single last line, counting results and errors.  A document
    is a validation abort exactly when the problem fails the gate (`gate_ok`
    is `validate`'s verdict).  A breach of any of these, another line type,
    or a missing tail gets a line with no entry.
    """
    for e in entries:
        if e.get("type") not in ("header", "result", "summary"):
            yield None, None, f"type {e.get('type')!r} is not header, result or summary"
    header = entries[0] if entries else {}
    extra = sorted(set(header) - {"type", "version", "query_count", *_FORMAT})
    if [e for e in entries if e.get("type") == "header"] != [header]:
        yield None, None, "the header is not the single first line"
    elif extra:
        yield None, None, f"header unexpected field {extra[0]!r}"
    else:
        for k, want in _FORMAT.items():
            if type(header.get(k)) is not type(want) or header[k] != want:
                yield None, None, f"header {k} {header.get(k)!r} is not {want!r}"
        if type(header.get("version")) is not str:
            yield None, None, f"header version {header.get('version')!r} is not a string"
        if type(header.get("query_count")) is not int or header["query_count"] != len(queries):
            yield None, None, (
                f"header query_count {header.get('query_count')!r} does not match "
                f"the problem file's {len(queries)} queries"
            )
    results = [e for e in entries if e.get("type") == "result"]
    summaries = [e for e in entries if e.get("type") == "summary"]
    aborted = any(e.get("aborted") == "validation" for e in summaries)
    if len(summaries) != 1 or entries[-1] is not summaries[0]:
        yield None, None, "the summary is not the single last line"
    else:
        errors = sum(e.get("status") == "error" for e in results)
        want = _summary(errors, len(results), aborted)
        got = summaries[0]
        for k in sorted(set(want) | set(got)):
            if k not in got or k not in want or _dump(got[k]) != _dump(want[k]):
                yield None, None, f"summary {k} {got.get(k)!r} does not match the result lines"
                break
    if aborted == gate_ok:
        gate = "passes, but the summary is a validation abort" if gate_ok else "fails, but the summary is no abort"
        yield None, None, f"the validation gate {gate}"
    expected = [(0, "validate")] if aborted else list(enumerate(queries, start=1))
    for pos, entry in enumerate(results):
        index = entry.get("index")
        problem = None
        if pos >= len(expected):
            problem = f"result {index!r} beyond the {len(expected)} the problem file asks for"
        elif type(index) is not int or index != expected[pos][0]:
            problem = f"result index {index!r} where {expected[pos][0]} was expected"
        elif entry.get("query") != expected[pos][1]:
            problem = f"query does not match query {index} of the problem file"
        yield index, entry, problem
    stopped = not aborted and [e.get("status") == "error" for e in results] == [False] * (len(results) - 1) + [True]
    if len(results) < len(expected) and not stopped:
        missing = expected[len(results)][0]
        yield missing, None, f"no result for query {missing}"


def verify_command(result_path: str, problem_path: str) -> int:
    try:
        config, queries = load_problem(problem_path)
        entries = _parse_document(result_path)
    except ProblemFileError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    verifier = _Verifier(config)
    failures = 0
    checked = 0
    for index, entry, problem in _bind(entries, queries, validate(config).ok):
        checked += 1
        if problem is None:
            try:
                verifier.check(entry)
            except QueryError as e:
                problem = str(e)
        line = {"type": "verify", "index": index, "ok": problem is None}
        if problem is not None:
            failures += 1
            line["problem"] = problem
        print(_dump(line))
    print(_dump({"type": "verify-summary", "checked": checked, "failures": failures}))
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# entry point


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="smeared",
        description="Exact computations in subrings of polynomial rings whose "
        "elements are constant on configured subvarieties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute the queries in a problem file")
    p_run.add_argument("problem", help="path to the JSON problem file")
    p_run.add_argument("--out", help="write the result document here instead of stdout")
    p_run.add_argument(
        "--strict", action="store_true", help="stop at the first failing query"
    )

    p_verify = sub.add_parser("verify", help="re-check an emitted result document")
    p_verify.add_argument("results", help="path to a result document")
    p_verify.add_argument("problem", help="path to the problem file it came from")

    ns = parser.parse_args(argv)
    if ns.command == "run":
        return run_command(ns.problem, ns.out, ns.strict)
    return verify_command(ns.results, ns.problem)


if __name__ == "__main__":
    sys.exit(main())
