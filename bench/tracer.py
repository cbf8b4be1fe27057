"""Outside-in span tracer for the benchmark's traced runs.

`Tracer.install()` replaces public functions and methods of `smeared` at every
binding site the engine calls them through with thin wrappers that record a
span (name, start, end, parent span, query id).  Spans stay in memory, in
flat arrays, until `dump()`; `restore()` puts back every original attribute.
Nothing in `smeared` is edited.  `summarize()` turns the spans into the
per-layer metrics.

A layer's self time is the duration of its spans minus the durations of
their child spans, so time a wrapper spends on its own bookkeeping lands in
the parent's self time; `trace.overhead_ratio` reports the total cost.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter, defaultdict

LAYERS = ("poly", "groebner", "ideals", "linalg", "ring", "cli")

# ring function -> metric stem; each is bound in both smeared.ring and smeared.cli
RING_FUNCTIONS = {
    "validate": "validate",
    "member": "member",
    "partition_of_unity": "partition",
    "chain_witness": "chain",
    "r_basis": "basis",
    "verdicts": "verdicts",
    "locus_member": "locus",
    "evaluate_at_smeared_point": "eval",
    "smeared_constancy_check": "constancy",
}

POLY_ARITH = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
    "__mul__", "__rmul__", "__pow__", "scale", "mul_term",
)
IDEAL_METHODS = (
    "groebner", "is_coprime", "intersect", "eliminate",
    "krull_dim", "quotient_vdim", "radical_member",
)


def unit(metric):
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "share")):
        return "ratio"
    if metric.endswith("bits_max"):
        return "bits"
    if metric.endswith("per_chain"):
        return "count/chain"
    return "count"


def _bits(c):
    return max(c.numerator.bit_length(), c.denominator.bit_length())


def _divide_note(args, kwargs, result):
    steps = sum(len(q.terms) for q in result.quotients)
    rem = result.remainder.terms
    return steps, not rem, max((_bits(c) for c in rem.values()), default=0)


def _basis_name(args, kwargs):
    return "groebner.basis_tracked" if kwargs.get("track") else "groebner.basis"


class Tracer:
    """Spans of every wrapped call, in parallel arrays indexed by span."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.name = array("l")
        self.query = array("l")
        self.failed: set = set()
        self.notes: dict = {}
        self._stack: list = []
        self._query = -1
        self._queries = 0
        self._saved: list = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- wrapping

    def wrap(self, owners, attr, name, note=None, opens_query=False):
        """Replace `attr` on every owner (modules or classes holding the same
        object) with one recording wrapper."""
        original = owners[0].__dict__[attr]
        for owner in owners:
            if owner.__dict__[attr] is not original:
                raise RuntimeError(f"{attr} is bound to different objects")
        fixed = self._id(name) if isinstance(name, str) else None
        start, end, parent, names, query, stack = (
            self.start, self.end, self.parent, self.name, self.query, self._stack,
        )
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(start)
            start.append(0)
            end.append(0)
            parent.append(stack[-1] if stack else -1)
            names.append(fixed if fixed is not None else self._id(name(args, kwargs)))
            if opens_query:
                outer = self._query
                self._queries += 1
                self._query = self._queries
            query.append(self._query)
            stack.append(idx)
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                self.failed.add(idx)
                raise
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
                if opens_query:
                    self._query = outer
            if note is not None:
                self.notes[idx] = note(args, kwargs, result)
            return result

        for owner in owners:
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def install(self):
        from smeared import cli, groebner, ideals, linalg, poly, ring

        for attr in POLY_ARITH:
            self.wrap([poly.Polynomial], attr, "poly.arith")
        self.wrap([poly.Polynomial], "__str__", "poly.str")
        self.wrap([poly], "parse_poly", "poly.parse")
        self.wrap([groebner], "divide", "groebner.divide", note=_divide_note)
        self.wrap([ideals], "groebner_basis", _basis_name, note=lambda a, k, r: len(r.elements))
        for attr in IDEAL_METHODS:
            self.wrap([ideals.Ideal], attr, f"ideals.{attr}")
        self.wrap([linalg], "rref", "linalg.rref")
        self.wrap([ring], "kernel_basis", "linalg.kernel", note=lambda a, k, r: len(a[0]) * a[1])
        self.wrap([linalg.IncrementalRank], "add", "linalg.rank_add")
        for attr, stem in RING_FUNCTIONS.items():
            self.wrap([ring, cli], attr, f"ring.{stem}")
        self.wrap([cli], "load_problem", "cli.load")
        self.wrap([cli], "run_command", "cli.run")
        self.wrap([cli], "verify_command", "cli.verify")
        # one query id per run query and per verify check
        self.wrap([cli], "_run_query", "cli.query", opens_query=True)
        self.wrap([cli._Verifier], "check", "cli.verify_check", opens_query=True)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- output

    def dump(self, path):
        """Write every span as one JSON line: name, start and end (ns),
        parent span index (-1 for a root), query id (-1 outside queries)."""
        with open(path, "w") as fh:
            for i in range(len(self.start)):
                fh.write(
                    f'["{self.names[self.name[i]]}",{self.start[i]},{self.end[i]},'
                    f"{self.parent[i]},{self.query[i]}]\n"
                )

    def summarize(self, passes: int) -> dict:
        """Per-layer metrics, counts and times averaged per pass."""
        n = len(self.start)
        names = [self.names[i] for i in self.name]
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        kids = defaultdict(list)
        roots = 0
        for i in range(n):
            p = self.parent[i]
            if p < 0:
                roots += dur[i]
            else:
                child[p] += dur[i]
                kids[p].append(i)
        calls, total, own = Counter(), Counter(), Counter()
        layer_self = Counter()
        for i, nm in enumerate(names):
            calls[nm] += 1
            total[nm] += dur[i]
            own[nm] += dur[i] - child[i]
            layer_self[nm.split(".")[0]] += dur[i] - child[i]

        basis_names = ("groebner.basis", "groebner.basis_tracked")
        spair_divides = spair_zero = steps = bits = final_sizes = 0
        for i, nm in enumerate(names):
            if nm == "groebner.divide":
                s, zero, b = self.notes[i]
                steps += s
                bits = max(bits, b)
                if self.parent[i] >= 0 and names[self.parent[i]] in basis_names:
                    spair_divides += 1
                    spair_zero += zero
            elif nm in basis_names:
                final_sizes += self.notes[i]
        spairs = spair_divides - final_sizes
        misses = sum(
            1
            for i, nm in enumerate(names)
            if nm == "ideals.groebner" and any(names[k] in basis_names for k in kids[i])
        )
        chain_eliminates = 0
        for i, nm in enumerate(names):
            if nm == "ideals.eliminate":
                p = self.parent[i]
                while p >= 0 and names[p] != "ring.chain":
                    p = self.parent[p]
                chain_eliminates += p >= 0
        rederiving = {
            self.query[i] for i, nm in enumerate(names) if nm.split(".")[0] in ("groebner", "ring")
        }
        checks = [self.query[i] for i, nm in enumerate(names) if nm == "cli.verify_check"]

        def per_pass(v):
            return v / passes

        def secs(v):
            return v / 1e9 / passes

        def ratio(a, b):
            return a / b if b else 0.0

        m = {
            "groebner.basis_calls": per_pass(calls["groebner.basis"]),
            "groebner.basis_self_s": secs(own["groebner.basis"]),
            "groebner.basis_tracked_calls": per_pass(calls["groebner.basis_tracked"]),
            "groebner.basis_tracked_self_s": secs(own["groebner.basis_tracked"]),
            "groebner.spair_reductions": per_pass(spairs),
            "groebner.spair_zero_ratio": ratio(spair_zero, spairs),
            "groebner.basis_size_max": max(
                (self.notes[i] for i, nm in enumerate(names) if nm in basis_names), default=0
            ),
            "groebner.divide_calls": per_pass(calls["groebner.divide"]),
            "groebner.divide_self_s": secs(own["groebner.divide"]),
            "groebner.divide_steps": per_pass(steps),
            "groebner.coeff_bits_max": bits,
            "poly.arith_calls": per_pass(calls["poly.arith"]),
            "poly.arith_self_s": secs(own["poly.arith"]),
            "poly.parse_calls": per_pass(calls["poly.parse"]),
            "poly.parse_self_s": secs(own["poly.parse"]),
            "poly.str_calls": per_pass(calls["poly.str"]),
            "poly.str_self_s": secs(own["poly.str"]),
            "ideals.gb_requests": per_pass(calls["ideals.groebner"]),
            "ideals.gb_cache_hit_ratio": ratio(
                calls["ideals.groebner"] - misses, calls["ideals.groebner"]
            ),
            "ideals.is_coprime_calls": per_pass(calls["ideals.is_coprime"]),
            "ideals.is_coprime_s": secs(total["ideals.is_coprime"]),
            "ideals.intersect_calls": per_pass(calls["ideals.intersect"]),
            "ideals.intersect_s": secs(total["ideals.intersect"]),
            "ideals.eliminate_calls": per_pass(calls["ideals.eliminate"]),
            "ideals.eliminate_s": secs(total["ideals.eliminate"]),
            "ideals.radical_member_calls": per_pass(calls["ideals.radical_member"]),
            "ideals.krull_dim_s": secs(total["ideals.krull_dim"]),
            "ideals.quotient_vdim_s": secs(total["ideals.quotient_vdim"]),
            "ideals.self_s": secs(layer_self["ideals"]),
            "linalg.kernel_calls": per_pass(calls["linalg.kernel"]),
            "linalg.kernel_cells": per_pass(
                sum(self.notes[i] for i, nm in enumerate(names) if nm == "linalg.kernel")
            ),
            "linalg.rref_self_s": secs(own["linalg.rref"]),
            "linalg.rank_adds": per_pass(calls["linalg.rank_add"]),
            "linalg.rank_add_self_s": secs(own["linalg.rank_add"]),
        }
        for stem in RING_FUNCTIONS.values():
            m[f"ring.{stem}_calls"] = per_pass(calls[f"ring.{stem}"])
            m[f"ring.{stem}_s"] = secs(total[f"ring.{stem}"])
        m["ring.eliminate_per_chain"] = ratio(chain_eliminates, calls["ring.chain"])
        m["ring.errors"] = per_pass(sum(1 for i in self.failed if names[i].startswith("ring.")))
        m["ring.self_s"] = secs(layer_self["ring"])
        m["cli.load_s"] = secs(total["cli.load"])
        m["cli.run_self_s"] = secs(own["cli.run"] + own["cli.query"])
        m["cli.verify_self_s"] = secs(own["cli.verify"] + own["cli.verify_check"])
        m["cli.verify_rederived_ratio"] = ratio(sum(q in rederiving for q in checks), len(checks))
        for layer in LAYERS:
            m[f"{layer}.share"] = ratio(layer_self[layer], roots)
        m["groebner.basis_self_share"] = ratio(own["groebner.basis"], roots)
        m["trace.spans"] = per_pass(n)
        return m
