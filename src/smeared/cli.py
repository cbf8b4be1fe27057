"""Batch command line interface.

`smeared run problem.json` reads a JSON problem file describing the ambient
ring, the ideal family, and a list of queries, executes the queries in
order, and emits a line-oriented JSON result document (one object per line:
header, one result per query, summary).  `smeared verify results.jsonl
problem.json` re-checks every witness embedded in a previously emitted
document: identities that come with cofactors (memberships, partitions) are
re-checked by plain polynomial arithmetic; negative claims, dimensions and
verdicts are re-derived.

Problem file layout::

    {
      "format": 1,
      "ring": {"variables": ["x", "y"], "order": "grevlex"},
      "ideals": [["x"], ["x - 1"], ["x - 2"]],
      "radical": [true, true, true],
      "check_radicality": false,
      "queries": ["verdict", "member x*(x - 1)*(x - 2)*y", ["eval", "x", 2]]
    }

Queries may be strings (whitespace-separated; the polynomial argument may
itself contain spaces where it is the only free-form argument) or arrays.
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
import json
import sys
import time
from fractions import Fraction
from typing import Optional, Sequence

from . import __version__
from .ideals import Ideal
from .linalg import IncrementalRank
from .poly import GREVLEX, LEX, ParseError, Polynomial, PolyRing
from .ring import (
    ChainSelectionError,
    NoChainError,
    SmearedRingConfig,
    chain_witness,
    evaluate_at_smeared_point,
    locus_member,
    member,
    partition_of_unity,
    r_basis,
    smeared_constancy_check,
    validate,
    verdicts,
)


class ProblemFileError(ValueError):
    """The problem file cannot be turned into a runnable configuration."""


class QueryError(ValueError):
    """A single query is malformed or failed; the batch can continue."""


def _frac(x: Fraction) -> str:
    return str(x)


def _parse_frac(text: str) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as e:
        raise QueryError(f"bad rational {text!r}: {e}") from None


# ---------------------------------------------------------------------------
# problem loading


def load_problem(path: str):
    """(config, queries, check_radicality) from a problem file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ProblemFileError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ProblemFileError(f"{path} is not valid JSON: {e}") from None
    if not isinstance(doc, dict) or doc.get("format") != 1:
        raise ProblemFileError('problem file must carry "format": 1')

    ring_doc = doc.get("ring")
    if not isinstance(ring_doc, dict) or not ring_doc.get("variables"):
        raise ProblemFileError('missing ring description {"variables": [...]}')
    order = ring_doc.get("order", GREVLEX)
    if order not in (GREVLEX, LEX):
        raise ProblemFileError(f"unknown monomial order {order!r}")
    try:
        ring = PolyRing(tuple(ring_doc["variables"]), order)
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
            try:
                parsed.append(ring.parse(text))
            except ParseError as e:
                raise ProblemFileError(f"ideal {i}, generator {j}: {e}") from None
        ideals.append(Ideal(ring, tuple(parsed)))

    radical = doc.get("radical", [True] * len(ideals))
    if len(radical) != len(ideals) or not all(isinstance(b, bool) for b in radical):
        raise ProblemFileError('"radical" must list one boolean per ideal')

    queries = doc.get("queries", [])
    if not isinstance(queries, list):
        raise ProblemFileError('"queries" must be a list')

    config = SmearedRingConfig(ring, tuple(ideals), tuple(radical))
    return config, queries, bool(doc.get("check_radicality", False))


def _normalize_query(raw):
    """(name, argument list) from either the string or the array form."""
    if isinstance(raw, str):
        parts = raw.split()
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
    try:
        i = int(token)
    except (TypeError, ValueError):
        raise QueryError(f"bad ideal index {token!r}") from None
    if not 1 <= i <= config.n:
        raise QueryError(f"ideal index {i} out of range 1..{config.n}")
    return i - 1


def _arg_int(token, what: str) -> int:
    try:
        return int(token)
    except (TypeError, ValueError):
        raise QueryError(f"bad {what} {token!r}") from None


def _arg_point(config: SmearedRingConfig, tokens) -> list:
    coords = [_parse_frac(t) for t in tokens]
    if len(coords) != config.ring.nvars:
        raise QueryError(
            f"point needs {config.ring.nvars} coordinates, got {len(coords)}"
        )
    return coords


def _arg_points(config: SmearedRingConfig, tokens) -> list:
    """Point list: JSON arrays of rationals, or "a,b" comma-joined tokens."""
    points = []
    for tok in tokens:
        if isinstance(tok, list):
            points.append(_arg_point(config, tok))
        else:
            points.append(_arg_point(config, str(tok).split(",")))
    return points


# ---------------------------------------------------------------------------
# query payloads


def _membership_payload(cert) -> dict:
    if cert.member:
        return {"member": True, "constants": [_frac(c) for c in cert.constants]}
    return {
        "member": False,
        "witness_index": cert.witness_index + 1,
        "remainder": str(cert.nonconstant_remainder),
    }


def _cofactors(ideal: Ideal, f: Polynomial) -> list:
    cof, rem = ideal.membership_certificate(f)
    if not rem.is_zero():
        raise RuntimeError("cofactor extraction for a non-member")
    return [str(c) for c in cof]


def _violation_message(v) -> str:
    """1-based phrasing for CLI output; the library message is 0-based."""
    shown = tuple(i + 1 for i in v.ideals)
    if v.kind == "not_coprime":
        return f"not coprime: pair {shown}"
    if v.kind == "not_proper":
        return f"ideal {shown[0]} is the unit ideal"
    if v.kind == "zero":
        return f"ideal {shown[0]} is the zero ideal"
    if v.kind == "maximal":
        return (
            f"ideal {shown[0]} is maximal (residue dimension 1); the constants "
            "together with a maximal ideal already fill the whole ring, so "
            "drop this ideal from the configuration"
        )
    if v.kind == "not_radical":
        return f"ideal {shown[0]} asserted radical, but a spot check refuted it"
    return v.message


def _run_query(name: str, args: Sequence, config: SmearedRingConfig, check_radicality: bool) -> dict:
    if name == "validate":
        _want(args, 0, 0, "validate")
        report = validate(config, check_radicality=check_radicality)
        return {
            "ok": report.ok,
            "radicality_checked": report.radicality_checked,
            "violations": [
                {
                    "kind": v.kind,
                    "ideals": [i + 1 for i in v.ideals],
                    "message": _violation_message(v),
                }
                for v in report.violations
            ],
        }

    if name == "member":
        _want(args, 1, None, "member <poly>")
        f = _arg_poly(config, args)
        cert = member(f, config)
        payload = {"poly": str(f)}
        payload.update(_membership_payload(cert))
        if cert.member:
            payload["cofactors"] = [
                _cofactors(ideal, f - config.ring.const(alpha))
                for ideal, alpha in zip(config.ideals, cert.constants)
            ]
        return payload

    if name == "eval":
        _want(args, 2, None, "eval <poly> <i>")
        i = _arg_index(config, args[-1])
        f = _arg_poly(config, args[:-1])
        try:
            value = evaluate_at_smeared_point(f, i, config)
        except ValueError as e:
            raise QueryError(str(e)) from None
        return {"poly": str(f), "index": i + 1, "value": _frac(value)}

    if name == "partition":
        _want(args, 1, 1, "partition <i>")
        i = _arg_index(config, args[0])
        try:
            w = partition_of_unity(i, config)
        except ValueError as e:
            raise QueryError(str(e)) from None
        b_cof = []
        for j, ideal in enumerate(config.ideals):
            b_cof.append(None if j == i else _cofactors(ideal, w.b))
        return {
            "index": i + 1,
            "a": str(w.a),
            "b": str(w.b),
            "a_constants": [_frac(c) for c in w.a_membership.constants],
            "b_constants": [_frac(c) for c in w.b_membership.constants],
            "a_cofactors": _cofactors(config.ideals[i], w.a),
            "b_cofactors": b_cof,
        }

    if name == "chain":
        _want(args, 2, 2, "chain <i> <L>")
        i = _arg_index(config, args[0])
        length = _arg_int(args[1], "chain length")
        try:
            w = chain_witness(i, length, config)
        except (NoChainError, ChainSelectionError, ValueError) as e:
            raise QueryError(str(e)) from None
        return {
            "index": i + 1,
            "g": str(w.g),
            "h": str(w.h),
            "length": w.length,
            "evidence": [str(nf) for nf in w.evidence],
        }

    if name == "dims":
        _want(args, 0, 0, "dims")
        return {"dims": list(verdicts(config).per_ideal_dims)}

    if name == "verdict":
        _want(args, 0, 0, "verdict")
        v = verdicts(config)
        return {
            "noetherian": v.noetherian,
            "depicted_by_S": v.depicted_by_S,
            "dims": list(v.per_ideal_dims),
            "gdim_lower_bounds": list(v.gdim_lower_bounds),
        }

    if name == "locus":
        _want(args, 1, None, "locus <coordinates>")
        point = _arg_point(config, args)
        report = locus_member(point, config)
        evidence = []
        for e in report.evidence:
            entry = {"ideal": e.index + 1, "on_variety": e.on_variety}
            if not e.on_variety:
                entry["generator_index"] = e.generator_index + 1
                entry["value"] = _frac(e.value)
            evidence.append(entry)
        return {
            "point": [_frac(c) for c in point],
            "in_locus": report.in_locus,
            "evidence": evidence,
        }

    if name == "basis":
        _want(args, 1, 1, "basis <d>")
        d = _arg_int(args[0], "degree bound")
        if d < 0:
            raise QueryError("degree bound must be non-negative")
        basis = r_basis(d, config)
        return {
            "degree": d,
            "dimension": len(basis),
            "basis": [str(p) for p in basis],
        }

    if name == "constancy":
        _want(args, 3, None, "constancy <poly> <i> <points>")
        f = _arg_poly(config, args[:1])
        i = _arg_index(config, args[1])
        points = _arg_points(config, args[2:])
        if not points:
            raise QueryError("constancy needs at least one point")
        try:
            report = smeared_constancy_check(f, i, points, config)
        except ValueError as e:
            raise QueryError(str(e)) from None
        return {
            "poly": str(f),
            "index": i + 1,
            "expected": _frac(report.expected),
            "values": [_frac(v) for v in report.values],
            "ok": report.ok,
            "mismatches": [p + 1 for p in report.mismatches],
        }

    raise QueryError(f"unknown query {name!r}")


# ---------------------------------------------------------------------------
# run


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit(lines, out_path: Optional[str], human: str) -> None:
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
        print(human)
    else:
        sys.stdout.write(text)
        print(human, file=sys.stderr)


def run_command(problem_path: str, out_path: Optional[str], strict: bool) -> int:
    try:
        config, queries, check_radicality = load_problem(problem_path)
    except ProblemFileError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    lines = [
        _dump(
            {
                "type": "header",
                "format": 1,
                "engine": "smeared",
                "version": __version__,
                "query_count": len(queries),
            }
        )
    ]

    gate = validate(config, check_radicality=check_radicality)
    if not gate.ok:
        lines.append(
            _dump(
                {
                    "type": "result",
                    "index": 0,
                    "query": "validate",
                    "status": "ok",
                    "payload": _run_query("validate", [], config, check_radicality),
                }
            )
        )
        lines.append(_dump({"type": "summary", "ok": False, "aborted": "validation"}))
        _emit(lines, out_path, f"validation failed: {len(gate.violations)} violation(s)")
        return 2

    errors = 0
    for qi, raw in enumerate(queries, start=1):
        started = time.perf_counter_ns()
        try:
            name, args = _normalize_query(raw)
            payload = _run_query(name, args, config, check_radicality)
            entry = {
                "type": "result",
                "index": qi,
                "query": raw,
                "status": "ok",
                "payload": payload,
            }
        except QueryError as e:
            errors += 1
            entry = {
                "type": "result",
                "index": qi,
                "query": raw,
                "status": "error",
                "error": str(e),
            }
        entry["elapsed_us"] = (time.perf_counter_ns() - started) // 1000
        lines.append(_dump(entry))
        if errors and strict:
            break

    ran = len(lines) - 1
    lines.append(_dump({"type": "summary", "ok": errors == 0, "errors": errors, "results": ran}))
    _emit(lines, out_path, f"{ran} result(s), {errors} error(s)")
    return 0 if errors == 0 else 1


# ---------------------------------------------------------------------------
# verify


def _parse_document(path: str) -> list:
    try:
        with open(path) as fh:
            return [json.loads(line) for line in fh if line.strip()]
    except OSError as e:
        raise ProblemFileError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ProblemFileError(f"{path} line is not valid JSON: {e}") from None


def _combine(cofactor_texts, generators, ring) -> Polynomial:
    total = ring.zero()
    for text, g in zip(cofactor_texts, generators):
        total = total + ring.parse(text) * g
    return total


class _Verifier:
    """Re-checks one emitted result payload against the problem file."""

    def __init__(self, config: SmearedRingConfig, check_radicality: bool):
        self.config = config
        self.check_radicality = check_radicality

    def check(self, entry: dict) -> Optional[str]:
        if entry.get("status") != "ok":
            return None  # an error entry carries no witness
        name, args = _normalize_query(entry["query"])
        payload = entry["payload"]
        handler = getattr(self, "_check_" + name, None)
        if handler is None:
            return f"unknown query {name!r}"
        return handler(args, payload)

    # Positive memberships and partitions verify by pure arithmetic on the
    # embedded cofactors.  Negative claims, dimensions, verdicts and bases
    # have no finite certificate, so they are re-derived with the engine.

    def _check_validate(self, args, payload) -> Optional[str]:
        report = validate(self.config, check_radicality=payload.get("radicality_checked", False))
        if report.ok != payload["ok"]:
            return f"validate disagrees: recomputed ok={report.ok}"
        got = sorted((v["kind"], tuple(v["ideals"])) for v in payload["violations"])
        want = sorted((v.kind, tuple(i + 1 for i in v.ideals)) for v in report.violations)
        if got != want:
            return f"violation list disagrees: {got} vs {want}"
        return None

    def _check_member(self, args, payload) -> Optional[str]:
        ring = self.config.ring
        f = ring.parse(payload["poly"])
        if payload["member"]:
            for i, (ideal, alpha, cof) in enumerate(
                zip(self.config.ideals, payload["constants"], payload["cofactors"])
            ):
                target = f - ring.const(_parse_frac(alpha))
                if _combine(cof, ideal.generators, ring) != target:
                    return f"cofactor identity fails for ideal {i + 1}"
            return None
        cert = member(f, self.config)
        if cert.member:
            return "claimed non-member but membership holds"
        if cert.witness_index + 1 != payload["witness_index"]:
            return "witness index disagrees"
        if str(cert.nonconstant_remainder) != payload["remainder"]:
            return "nonconstant remainder disagrees"
        return None

    def _check_eval(self, args, payload) -> Optional[str]:
        f = self.config.ring.parse(payload["poly"])
        value = evaluate_at_smeared_point(f, payload["index"] - 1, self.config)
        if _frac(value) != payload["value"]:
            return f"value disagrees: {value} vs {payload['value']}"
        return None

    def _check_partition(self, args, payload) -> Optional[str]:
        ring = self.config.ring
        i = payload["index"] - 1
        a = ring.parse(payload["a"])
        b = ring.parse(payload["b"])
        if a + b != ring.one():
            return "a + b is not 1"
        if _combine(payload["a_cofactors"], self.config.ideals[i].generators, ring) != a:
            return "cofactors for a do not reproduce a"
        for j, cof in enumerate(payload["b_cofactors"]):
            if j == i:
                if cof is not None:
                    return "unexpected cofactors for the distinguished ideal"
                continue
            if _combine(cof, self.config.ideals[j].generators, ring) != b:
                return f"cofactors for b do not reproduce b in ideal {j + 1}"
        # the identities force the constants: a is 0 on Z(I_i), 1 elsewhere
        n = self.config.n
        want_a = [_frac(Fraction(1))] * n
        want_a[i] = _frac(Fraction(0))
        want_b = [_frac(Fraction(0))] * n
        want_b[i] = _frac(Fraction(1))
        if payload["a_constants"] != want_a or payload["b_constants"] != want_b:
            return "constant vectors do not match the forced pattern"
        return None

    def _check_chain(self, args, payload) -> Optional[str]:
        ring = self.config.ring
        i = payload["index"] - 1
        w = chain_witness(i, payload["length"], self.config)
        if str(w.h) != payload["h"] or str(w.g) != payload["g"]:
            return "selected g or h disagrees"
        if [str(nf) for nf in w.evidence] != payload["evidence"]:
            return "evidence normal forms disagree"
        maps = [ring.parse(t).integer_form()[0] for t in payload["evidence"]]
        monos = sorted({m for ints in maps for m in ints})
        tracker = IncrementalRank()
        for ints in maps:
            if not tracker.add([ints.get(m, 0) for m in monos]):
                return "embedded evidence is linearly dependent"
        return None

    def _check_dims(self, args, payload) -> Optional[str]:
        dims = list(verdicts(self.config).per_ideal_dims)
        return None if dims == payload["dims"] else f"dims disagree: {dims}"

    def _check_verdict(self, args, payload) -> Optional[str]:
        v = verdicts(self.config)
        if v.noetherian != payload["noetherian"] or v.depicted_by_S != payload["depicted_by_S"]:
            return "verdict disagrees"
        if list(v.per_ideal_dims) != payload["dims"]:
            return "dims disagree"
        return None

    def _check_locus(self, args, payload) -> Optional[str]:
        point = [_parse_frac(c) for c in payload["point"]]
        for e in payload["evidence"]:
            ideal = self.config.ideals[e["ideal"] - 1]
            if e["on_variety"]:
                for g in ideal.generators:
                    if g.evaluate(point):
                        return f"generator {g} does not vanish as claimed"
            else:
                g = ideal.generators[e["generator_index"] - 1]
                if _frac(g.evaluate(point)) != e["value"]:
                    return "claimed nonvanishing value disagrees"
                if not g.evaluate(point):
                    return "claimed nonvanishing generator vanishes"
        claimed = all(not e["on_variety"] for e in payload["evidence"])
        if claimed != payload["in_locus"]:
            return "in_locus flag contradicts its own evidence"
        return None

    def _check_basis(self, args, payload) -> Optional[str]:
        basis = r_basis(payload["degree"], self.config)
        if len(basis) != payload["dimension"]:
            return f"dimension disagrees: {len(basis)}"
        if [str(p) for p in basis] != payload["basis"]:
            return "basis elements disagree"
        for p in basis:
            if not member(p, self.config).member:
                return f"basis element {p} is not a member"
        return None

    def _check_constancy(self, args, payload) -> Optional[str]:
        ring = self.config.ring
        f = ring.parse(payload["poly"])
        i = payload["index"] - 1
        expected = _parse_frac(payload["expected"])
        if evaluate_at_smeared_point(f, i, self.config) != expected:
            return "expected value disagrees with recomputation"
        points = _arg_points(self.config, args[2:])
        for pos, point in enumerate(points, start=1):
            for g in self.config.ideals[i].generators:
                if g.evaluate(point):
                    return f"point {pos} is not on the zero set"
        values = [_frac(f.evaluate(p)) for p in points]
        if values != payload["values"]:
            return "evaluations disagree"
        if payload["ok"] != all(v == payload["expected"] for v in values):
            return "ok flag contradicts the values"
        return None


def verify_command(result_path: str, problem_path: str) -> int:
    try:
        config, _, check_radicality = load_problem(problem_path)
        entries = _parse_document(result_path)
    except ProblemFileError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    verifier = _Verifier(config, check_radicality)
    failures = 0
    checked = 0
    for entry in entries:
        if entry.get("type") != "result":
            continue
        checked += 1
        try:
            problem = verifier.check(entry)
        except (ParseError, QueryError, ValueError, RuntimeError) as e:
            problem = f"verification crashed: {e}"
        line = {"type": "verify", "index": entry.get("index"), "ok": problem is None}
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
