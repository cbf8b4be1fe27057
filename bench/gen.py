"""Seeded problem files and expected answers for the benchmark workloads.

`generate(workload, seed)` returns the problem documents the engine runs plus,
kept apart from them, the canonical answers each query must produce.  The
answers come from the construction itself, never from the engine:

* members are built as c + sum(r * prod(one generator per ideal)), so every
  constant is c;
* non-members are c + prod(generators of ideals 1..k-1) * r, checked by
  evaluation to be nonconstant on the k-th curve, so the first ideal with a
  nonconstant normal form is k;
* locus flags come from evaluating the generators at the point;
* graded slices of R come from exact linear algebra on rational
  parametrizations of the curves (a polynomial lies in QQ + I for a prime I
  with a dense rational parametrization exactly when it is constant along
  it), reduced to the same canonical kernel basis the engine reports.

Polynomials are handled by the small `P` class below, so nothing here imports
`smeared`.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

# ---------------------------------------------------------------------------
# a minimal exact polynomial type, independent of the engine


def _grevlex(m):
    return (sum(m), tuple(-e for e in reversed(m)))


class P:
    """Polynomial over QQ as {exponent tuple: Fraction} in `n` variables."""

    __slots__ = ("n", "t")

    def __init__(self, n, terms=()):
        self.n = n
        self.t = {m: Fraction(c) for m, c in dict(terms).items() if c}

    @classmethod
    def var(cls, i, n):
        return cls(n, {tuple(int(j == i) for j in range(n)): 1})

    def _lift(self, o):
        return o if isinstance(o, P) else P(self.n, {(0,) * self.n: o})

    def __add__(self, o):
        o = self._lift(o)
        out = dict(self.t)
        for m, c in o.t.items():
            out[m] = out.get(m, 0) + c
        return P(self.n, out)

    __radd__ = __add__

    def __neg__(self):
        return P(self.n, {m: -c for m, c in self.t.items()})

    def __sub__(self, o):
        return self + (-self._lift(o))

    def __rsub__(self, o):
        return self._lift(o) - self

    def __mul__(self, o):
        o = self._lift(o)
        out = {}
        for m1, c1 in self.t.items():
            for m2, c2 in o.t.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = out.get(m, 0) + c1 * c2
        return P(self.n, out)

    __rmul__ = __mul__

    def __pow__(self, e):
        out = P(self.n, {(0,) * self.n: 1})
        for _ in range(e):
            out = out * self
        return out

    def __call__(self, point):
        total = Fraction(0)
        for m, c in self.t.items():
            v = c
            for x, e in zip(point, m):
                v *= Fraction(x) ** e
            total += v
        return total

    def fmt(self, names):
        if not self.t:
            return "0"
        parts = []
        for m in sorted(self.t, key=_grevlex, reverse=True):
            c = self.t[m]
            mag = abs(c)
            factors = [str(mag)] if mag != 1 or not any(m) else []
            factors += [v if e == 1 else f"{v}^{e}" for v, e in zip(names, m) if e]
            body = "*".join(factors)
            if not parts:
                parts.append("-" + body if c < 0 else body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts)


def _vars(n):
    return [P.var(i, n) for i in range(n)]


# ---------------------------------------------------------------------------
# families


def katsura(n):
    """Katsura-n in u0..un: sum_l u_l u_(m-l) = u_m (m < n), sum_l u_l = 1."""
    u = _vars(n + 1)

    def U(l):
        return u[abs(l)] if abs(l) <= n else P(n + 1)

    gens = [sum((U(l) * U(m - l) for l in range(-n, n + 1)), P(n + 1)) - u[m] for m in range(n)]
    gens.append(sum((U(l) for l in range(-n, n + 1)), P(n + 1)) - 1)
    return [f"u{i}" for i in range(n + 1)], gens


def cyclic(n):
    """Cyclic-n in x0..x(n-1): elementary cyclic sums of degree 1..n-1, prod = 1."""
    x = _vars(n)
    gens = []
    for k in range(1, n):
        s = P(n)
        for i in range(n):
            term = P(n, {(0,) * n: 1})
            for j in range(k):
                term = term * x[(i + j) % n]
            s = s + term
        gens.append(s)
    prod = P(n, {(0,) * n: 1})
    for v in x:
        prod = prod * v
    gens.append(prod - 1)
    return [f"x{i}" for i in range(n)], gens


def _t():
    return P(1, {(1,): 1})


def four_curves():
    """Four pairwise coprime prime ideals of QQ[x,y,z], each a rational curve
    with parametrization (numerators in t, common denominator)."""
    x, y, z = _vars(3)
    t, one = _t(), P(1, {(0,): 1})
    ideals = [
        [x, y],
        [y - x**2 - 1, z - x**3],
        [z - 5, x * y - 1],
        [x**2 + y**2 - 1, z + 3],
    ]
    curves = [
        ((P(1), P(1), t), one),
        ((t, t**2 + 1, t**3), one),
        ((t**2, one, 5 * t), t),
        ((1 - t**2, 2 * t, -3 - 3 * t**2), 1 + t**2),
    ]
    return ["x", "y", "z"], ideals, curves


def lines(constants):
    """The lines x = a in QQ[x,y], one ideal (x - a) each."""
    x, _ = _vars(2)
    t = _t()
    one = P(1, {(0,): 1})
    return (
        ["x", "y"],
        [[x - a] for a in constants],
        [((a * one, t), one) for a in constants],
    )


def curve_point(curve, t):
    nums, den = curve
    d = den([t])
    return [p([t]) / d for p in nums]


# ---------------------------------------------------------------------------
# expected graded slices, by linear algebra on the parametrizations


def _rref(rows, ncols):
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][col]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    return mat, pivots


def slice_basis(nvars, d, curves):
    """Canonical basis of {f : deg f <= d, f constant along every curve}.

    Unknowns are the monomials of degree <= d in descending grevlex order;
    the basis has one vector per free column of the constraint matrix, with
    1 there and 0 on the other free columns, which depends only on the
    solution space and the column order.
    """
    monos = [
        m
        for total in range(d + 1)
        for m in itertools.product(range(total + 1), repeat=nvars)
        if sum(m) == total
    ]
    monos.sort(key=_grevlex, reverse=True)
    rows = []
    for nums, den in curves:
        # f(num/den) * den^d: constant c along the curve iff it equals c*den^d
        images = []
        for m in monos:
            img = den ** (d - sum(m))
            for p, e in zip(nums, m):
                img = img * p**e
            images.append(img.t)
        ref = (den**d).t
        k0 = min(ref)
        for k in sorted({k for img in images for k in img} | set(ref)):
            if k == k0:
                continue
            ratio = ref.get(k, 0) / ref[k0]
            rows.append([img.get(k, 0) - ratio * img.get(k0, 0) for img in images])
    mat, pivots = _rref(rows, len(monos))
    basis = []
    for f in (c for c in range(len(monos)) if c not in pivots):
        vec = {monos[f]: Fraction(1)}
        for r, p in enumerate(pivots):
            if mat[r][f]:
                vec[monos[p]] = -mat[r][f]
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# query builders


def _linear(rng, n, i):
    """a*x_i + b with seeded signs a, b = +-1 (larger coefficients change the
    cost of a query with the seed)."""
    return P.var(i % n, n) * rng.choice((-1, 1)) + rng.choice((-1, 1))


def _in_ideals(rng, n, ideals, ordinal, products=2):
    """sum of r*prod(g) over `products` products of one generator per ideal.

    Which generators and variables appear depends only on `ordinal`, so every
    seed builds polynomials of the same shapes and costs; the seed picks the
    signs.
    """
    f = P(n)
    for t in range(products):
        term = _linear(rng, n, ordinal + t)
        for gens in ideals:
            term = term * gens[(ordinal + t) % len(gens)]
        f = f + term
    return f


def _constant(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 3))


def _frac(c):
    return str(Fraction(c))


def _member_query(rng, names, ideals, ordinal, products=2):
    c = _constant(rng)
    f = _in_ideals(rng, len(names), ideals, ordinal, products) + c
    return ["member", f.fmt(names)], {
        "member": True,
        "constants": [_frac(c)] * len(ideals),
    }


def _nonmember_query(rng, names, ideals, curves, k, ordinal):
    """Member of QQ + I_j for j < k, nonconstant along curve k."""
    n = len(names)
    for shift in itertools.count(ordinal):
        g = _linear(rng, n, shift) * _linear(rng, n, shift + 1)
        for gens in ideals[:k]:
            g = g * gens[ordinal % len(gens)]
        f = g + _constant(rng)
        values = {f(curve_point(curves[k], Fraction(s))) for s in (1, 2, 3)}
        if len(values) > 1:
            return ["member", f.fmt(names)], {"member": False, "witness_index": k + 1}


def _off_curve_point(rng, n):
    return [Fraction(rng.randint(-7, 7), rng.randint(1, 4)) for _ in range(n)]


def _validate_expected(check_radicality):
    return {"ok": True, "violations": [], "radicality_checked": check_radicality}


def _verdict_expected(dims):
    return {
        "noetherian": all(d == 0 for d in dims),
        "depicted_by_S": all(d >= 1 for d in dims),
        "dims": dims,
    }


def _problem(names, ideals, queries, check_radicality=False):
    return {
        "format": 1,
        "ring": {"variables": names, "order": "grevlex"},
        "ideals": [[g.fmt(names) for g in gens] for gens in ideals],
        "radical": [True] * len(ideals),
        "check_radicality": check_radicality,
        "queries": queries,
    }


def _file(name, names, ideals, pairs, check_radicality=False):
    queries = [q for q, _ in pairs]
    return {
        "name": name,
        "problem": _problem(names, ideals, queries, check_radicality),
        "expected": [e for _, e in pairs],
    }


# ---------------------------------------------------------------------------
# workloads

# Companions (v0 - c1) and (v0 - c2, v1 - c3): with c1, c2 in {2, 3} the
# zero-dimensional ideal plus (v0 - c) is the unit ideal, so the family is
# pairwise coprime.  They are fixed because members multiply them, and other
# constants made member queries up to 40% cheaper or dearer.
COMPANIONS = (2, 3, -2)
# Members only on Katsura-4: cyclic-5's tracked cofactors run to hundreds of
# kilobytes per query, which would turn the workload into a parsing test.
GB_COLD_MEMBERS = {"katsura4": 10, "cyclic5": 0}


def gb_cold(seed):
    rng = random.Random(seed)
    files = []
    for name, (names, system) in (("katsura4", katsura(4)), ("cyclic5", cyclic(5))):
        n = len(names)
        v = _vars(n)
        c1, c2, c3 = COMPANIONS
        ideals = [system, [v[0] - c1], [v[0] - c2, v[1] - c3]]
        dims = [0, n - 1, n - 2]
        pairs = [
            (["validate"], _validate_expected(False)),
            (["verdict"], _verdict_expected(dims)),
            (["dims"], {"dims": dims}),
        ]
        pairs += [_member_query(rng, names, ideals, j, 1) for j in range(GB_COLD_MEMBERS[name])]
        files.append(_file(name, names, ideals, pairs))
    return files


QUERY_STREAM_MIX = {"member": 60, "nonmember": 40, "eval": 40, "locus": 30, "constancy": 30}


def query_stream(seed):
    rng = random.Random(seed)
    names, ideals, curves = four_curves()
    n, count = len(names), len(ideals)
    kinds = [k for k, m in QUERY_STREAM_MIX.items() for _ in range(m)]
    rng.shuffle(kinds)
    seen = dict.fromkeys(QUERY_STREAM_MIX, 0)
    pairs = []
    for kind in kinds:
        ordinal = seen[kind]
        seen[kind] += 1
        if kind == "member":
            pairs.append(_member_query(rng, names, ideals, ordinal))
        elif kind == "nonmember":
            depth = ordinal % count
            pairs.append(_nonmember_query(rng, names, ideals, curves, depth, ordinal // count))
        elif kind == "eval":
            c = _constant(rng)
            f = _in_ideals(rng, n, ideals, ordinal) + c
            i = ordinal % count
            pairs.append((["eval", f.fmt(names), i + 1], {"value": _frac(c)}))
        elif kind == "locus":
            if ordinal % 2:
                point = curve_point(curves[ordinal // 2 % count], _nonzero_param(rng))
            else:
                point = _off_curve_point(rng, n)
            on_some = any(all(g(point) == 0 for g in gens) for gens in ideals)
            pairs.append((["locus"] + [_frac(c) for c in point], {"in_locus": not on_some}))
        else:
            c = _constant(rng)
            f = _in_ideals(rng, n, ideals, ordinal) + c
            i = ordinal % count
            points = [curve_point(curves[i], _nonzero_param(rng)) for _ in range(3)]
            pairs.append(
                (
                    ["constancy", f.fmt(names), i + 1] + [[_frac(v) for v in p] for p in points],
                    {"expected": _frac(c), "values": [_frac(c)] * 3, "ok": True},
                )
            )
    return [_file("curves", names, ideals, pairs)]


def _nonzero_param(rng):
    return Fraction(rng.choice([v for v in range(-5, 6) if v]), rng.randint(1, 3))


CERTIFY_CURVE_CHAINS = (4, 6, 8, 10)
CERTIFY_LINE_CHAINS = (6, 9, 12)
CERTIFY_LINES = (0, 1, 2)


def certify(seed):
    rng = random.Random(seed)
    files = []

    # The families and chain lengths are fixed: permuting the curves or the
    # lengths moved query costs, and so the latency percentiles, with the
    # seed, and other line constants change slice costs by half.  The seed
    # sets the order of the three lines.
    names, ideals, curves = four_curves()
    files.append(
        _file(
            "curves",
            names,
            ideals,
            _certify_pairs(names, ideals, curves, 5, CERTIFY_CURVE_CHAINS, True),
            check_radicality=True,
        )
    )

    names, ideals, curves = lines(rng.sample(CERTIFY_LINES, 3))
    files.append(
        _file(
            "lines",
            names,
            ideals,
            _certify_pairs(names, ideals, curves, 12, CERTIFY_LINE_CHAINS, False),
        )
    )
    return files


def _certify_pairs(names, ideals, curves, max_degree, chains, check_radicality):
    dims = [1] * len(ideals)
    pairs = [
        (["validate"], _validate_expected(check_radicality)),
        (["verdict"], _verdict_expected(dims)),
    ]
    pairs += [(["partition", i + 1], {}) for i in range(len(ideals))]
    pairs += [(["chain", i + 1, length], {}) for i, length in enumerate(chains)]
    for d in range(max_degree + 1):
        basis = slice_basis(len(names), d, curves)
        pairs.append(
            (
                ["basis", d],
                {
                    "dimension": len(basis),
                    "basis": [
                        sorted([list(m), _frac(c)] for m, c in vec.items()) for vec in basis
                    ],
                },
            )
        )
    return pairs


WORKLOADS = {
    "gb_cold": (
        gb_cold,
        "Katsura-4 and cyclic-5 with seeded linear companions: Buchberger in the "
        "validation gate and in verify dominates (divide-bound Katsura, "
        "pair-bound cyclic).",
    ),
    "query_stream": (
        query_stream,
        "200 seeded member/eval/locus/constancy queries on four curves in "
        "QQ[x,y,z]: tiny bases built once, so division, cofactor arithmetic and "
        "parsing dominate; Buchberger control.",
    ),
    "certify": (
        certify,
        "Partitions, chains and slices on four curves and three lines: the only "
        "workload with tracked and elimination bases, intersections and the "
        "linalg kernels.",
    ),
}


def generate(workload, seed):
    """Manifest for one workload: why, query count, files and their answers."""
    build, why = WORKLOADS[workload]
    files = build(seed)
    return {
        "workload": workload,
        "seed": seed,
        "why": why,
        "query_count": sum(len(f["expected"]) for f in files),
        "files": files,
    }


def _dumps(obj):
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def write(workload, seed, directory):
    """Write each problem file and a manifest with the expected answers.

    Returns (manifest, [problem paths]); the problem files hold nothing but
    what the engine reads.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = generate(workload, seed)
    paths = []
    for f in manifest["files"]:
        path = directory / f"{f['name']}.json"
        path.write_text(_dumps(f["problem"]))
        paths.append(path)
    (directory / "manifest.json").write_text(_dumps(manifest))
    return manifest, paths
