"""Brute-force verification of algebraic laws on rational grids.

Works on any binary operation on [0,1] (exact Fraction results, or
approximate results carrying an error radius).  Exhaustive scans report
the lexicographically first counterexample; on approximate values a
violation is only reported when it exceeds the carried radii, and
borderline comparisons surface as notes instead of verdicts.

The scans run on interned value tables.  Every value is interned to a
small int id, equal values to equal ids, keyed by ``value_key``: integer
(numerator, denominator) pairs, because ``Fraction`` recomputes its hash
on every call.  There is one table per point set: F is evaluated once per
point pair into an m-by-m table of ids, rebuilt only when a scan gets
other points; the values of F at the off-grid intermediates of
associativity and of the Archimedean powers sit in per-value rows and
columns, filled on first use.  One cache serves every table and direct
call: a generated operation is evaluated once per pair of f values, any
other once per pair of arguments.  f runs on the arguments' pairs
(``eval_pair``), and with an exact t-norm so do T and the
pseudo-inverse, since ``Fraction`` builds and compares in Python.  On an
exact table, ids compare values: equal ids are equal values, unequal ids
differ, and signs come from cross-multiplied pairs.  Comparisons that
may involve Approx values call ``approx_diff``, with the boundary rules
described in ``check_property``.  The scan order, and so the first
counterexample, its values, the notes and the ``checked`` counts are
those of a direct scan that evaluates F at every comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Callable, Optional

from .classify import PROPERTIES, arg_with_value, classify
from .generated import GeneratedOp, f_compose, value_key
from .intervals import ONE, ZERO, frac
from .pwfn import PiecewiseMonotoneFn, decompose, eval_pair
from .tnorms import Approx, TNormDescriptor, approx_diff

PROPERTY_NAMES = (
    "commutativity",
    "monotonicity",
    "bounded_by_min",
    "associativity",
    "neutral_one",
    "conditional_cancellation",
    "cancellation",
    "strict_monotonicity",
    "archimedean_at",
)

N_ITER = 64  # powers of x tried by archimedean_at before its note
SCAN_DELTA = Fraction(1, 1000)  # scan_continuity's perturbation
SCAN_THRESHOLD = 0.05  # a spread of F above this flags a jump


@dataclass(frozen=True)
class Counterexample:
    property: str
    inputs: tuple
    lhs: object
    rhs: object

    def __str__(self):
        ins = ",".join(str(i) for i in self.inputs)
        return f"{self.property} at ({ins}): {self.lhs} vs {self.rhs}"


@dataclass
class CheckResult:
    ok: bool
    counterexample: Optional[Counterexample] = None
    note: Optional[str] = None
    checked: int = 0


class _Memo:
    """A binary operation whose values are interned to small int ids.

    Equal values get equal ids; ``keys[v]`` is value v's ``value_key`` and
    ``centre[v]`` the id of its centre: v itself unless the value is an
    ``Approx``.  ``intern`` keys a value by ``value_key``, after ``frac`` if
    exact (so 0 and Fraction(0) share an id).  The operation is evaluated
    once per key of ``by_f`` (see ``eval``), and ``evals`` counts them.  f,
    and with an exact t-norm all of a GeneratedOp, runs on the ids' pairs,
    since ``Fraction`` builds and compares in Python.  ``memo(x, y)`` reads
    the same cache; the law scans read ``table``, the ``_Grid`` of the last
    point set scanned (``memo.grid(pts)``).
    """

    def __init__(self, op: Callable):
        self.op = op
        # a GeneratedOp is evaluated by f values (see ``eval``), on pairs if T is exact
        self.generated = op if isinstance(op, GeneratedOp) else None
        self.on_pairs = self.generated is not None and self.generated.t.exact
        self.ids = {}  # value_key(value) -> id
        self.keys = []  # id -> value_key(value)
        self.vals = []  # id -> value
        self.centre = []  # id -> id of the value's centre
        self.f_ids = {}  # id of an exact x -> id of f(x)
        # (id of f(x), id of f(y)) for a GeneratedOp, else (id of x, id of
        # y) -> id of F(x, y)
        self.by_f = {}
        self.t_ids = {}  # reduced pair of T(f(x), f(y)) -> id of its finv
        self.table = None  # _Grid of the last point set scanned
        self.evals = 0

    def __call__(self, x, y):
        return self.vals[self.eval(self.intern(x), self.intern(y))]

    def intern(self, v) -> int:
        if not isinstance(v, Approx):
            v = frac(v)
        return self._intern_key(value_key(v), v)

    def _intern_pair(self, n: int, d: int) -> int:
        """Id of the exact value n/d, for d > 0, keyed by its reduced pair."""
        g = gcd(n, d)
        return self._intern_key((n // g, d // g))

    def _intern_key(self, k: tuple, v=None) -> int:
        """Id of the value v of key k; v = Fraction(*k) when not given."""
        i = self.ids.get(k)
        if i is None:
            i = self.ids[k] = len(self.vals)
            self.keys.append(k)
            self.vals.append(Fraction(*k) if v is None else v)
            self.centre.append(i)
            if isinstance(v, Approx):
                self.centre[i] = self.intern(v.value)
        return i

    def eval(self, a: int, b: int) -> int:
        """Id of op(x, y) for the values x and y of ids a and b.

        F = finv(T(f(x), f(y))) depends on x and y only through f(x) and
        f(y), so a GeneratedOp is evaluated once per pair of f values; any
        other operation once per pair of arguments.
        """
        vals, gen = self.vals, self.generated
        key = (a, b) if gen is None else (self._f_id(a), self._f_id(b))
        v = self.by_f.get(key)
        if v is None:
            self.evals += 1
            v = self.by_f[key] = (
                self._finv_of_t(*key) if self.on_pairs
                else self.intern(self.op(vals[a], vals[b]) if gen is None
                                 else f_compose(gen, vals[key[0]], vals[key[1]])))
        return v

    def _finv_of_t(self, a: int, b: int) -> int:
        """Id of finv(T(u, v)) for the f values u, v of ids a and b, cached by
        T's reduced pair; no domain check, as ``_validate`` keeps u, v in [0,1]."""
        gen = self.generated
        n, d = gen.t.eval_pair(*self.keys[a], *self.keys[b])
        g = gcd(n, d)
        k = (n // g, d // g)
        i = self.t_ids.get(k)
        if i is None:
            i = self.t_ids[k] = self._intern_pair(*eval_pair(gen.finv, *k))
        return i

    def _f_id(self, a: int) -> int:
        i = self.f_ids.get(a)
        if i is None:
            i = self.f_ids[a] = self._intern_pair(
                *eval_pair(self.generated.f, *self.keys[a]))
        return i

    def grid(self, pts) -> "_Grid":
        pts = tuple(pts)
        if self.table is None or self.table.pts != pts:
            self.table = _Grid(self, pts)
        return self.table


class _Grid:
    """The operation on the points p_0..p_{m-1}, as value ids.

    ``pid[i]`` is the id of p_i, interned once when the table is built.
    ``T[i][j]`` is the id of F(p_i, p_j), evaluated once per pair, and
    ``C`` the same table of centre ids; the table is ``exact`` when no
    value in it is an ``Approx`` (then ``C == T``).  For any value id c,
    ``row(c)[k]`` is the id of F(v_c, p_k) and ``col(c)[i]`` that of
    F(p_i, v_c).  A grid point's row and column are read from ``T``; those
    of other values start as None and are filled by the scans on demand.
    """

    def __init__(self, memo: _Memo, pts: tuple):
        self.pts = pts
        self.pid = tuple(memo.intern(p) for p in pts)
        ev = memo.eval
        self.T = [[ev(a, b) for b in self.pid] for a in self.pid]
        cen = memo.centre
        self.C = [[cen[v] for v in row] for row in self.T]
        self.exact = self.C == self.T
        cols = [list(col) for col in zip(*self.T)]
        self._rows = {c: self.T[k] for k, c in enumerate(self.pid)}
        self._cols = {c: cols[k] for k, c in enumerate(self.pid)}

    def row(self, c) -> list:
        r = self._rows.get(c)
        if r is None:
            r = self._rows[c] = [None] * len(self.pts)
        return r

    def col(self, c) -> list:
        r = self._cols.get(c)
        if r is None:
            r = self._cols[c] = [None] * len(self.pts)
        return r


def grid(n: int, extra=()) -> list:
    """{0, 1/n, ..., 1} plus any extra rationals, sorted and deduplicated."""
    if n < 1:
        raise ValueError("n must be >= 1")
    pts = {Fraction(i, n) for i in range(n + 1)}
    pts.update(frac(e) for e in extra)
    return sorted(p for p in pts if 0 <= p <= 1)


def check_property(op: Callable, prop: str, pts) -> CheckResult:
    """Exhaustive scan of one law over the grid; the first counterexample
    in lexicographic input order is returned."""
    if prop not in PROPERTY_NAMES:
        raise ValueError(f"unknown property {prop!r}")
    memo = op if isinstance(op, _Memo) else _Memo(op)
    g = memo.grid(pts)
    pts, pid, T, C = g.pts, g.pid, g.T, g.C
    vals, keys, cen, ev = memo.vals, memo.keys, memo.centre, memo.eval
    m = len(pts)
    undecided = 0
    count = 0
    # Comparisons are sign tests on (d, r) = approx_diff(a, b): a and b
    # differ when |d| > r and count as equal when their centres agree
    # (d == 0); a > b is certain when d > r, and a >= b when d >= r.
    # Equal centre ids mean d == 0, so approx_diff is only called on
    # values whose centres differ, and on an exact table two different ids
    # always differ by more than r = 0.  Only ">=" cannot use equal ids on
    # Approx values: their summed radius is positive, so d = 0 < r.  Ids of
    # exact values (points, centres, every id of an exact table) are
    # ordered by ``above``, which cross-multiplies their pairs.

    def cex(inputs, lhs, rhs):
        return CheckResult(False, Counterexample(prop, inputs, lhs, rhs),
                           checked=count)

    def differ(a, b) -> bool:
        """Values a and b, with different centres, differ beyond their
        radii; otherwise the comparison is counted as undecided."""
        nonlocal undecided
        d, r = approx_diff(a, b)
        if abs(d) > r:
            return True
        undecided += 1
        return False

    def above(a, b):
        (p, q), (r, s) = keys[a], keys[b]
        return p * s > r * q

    if g.exact:
        gt = above

        def ge(a, b):
            return a == b or above(a, b)
    else:
        def gt(a, b):
            d, r = approx_diff(vals[a], vals[b])
            return d > r

        def ge(a, b):
            d, r = approx_diff(vals[a], vals[b])
            return d >= r

    if prop == "commutativity":
        for i in range(m):
            for j in range(m):
                count += 1
                if C[i][j] != C[j][i] and differ(vals[T[i][j]], vals[T[j][i]]):
                    return cex((pts[i], pts[j]), vals[T[i][j]], vals[T[j][i]])
    elif prop == "monotonicity":
        for i in range(m):
            Ti, Ci = T[i], C[i]
            for k in range(m - 1):
                count += 1
                if Ci[k] != Ci[k + 1] and gt(Ti[k], Ti[k + 1]):
                    return cex((pts[i], pts[k], pts[k + 1]),
                               vals[Ti[k]], vals[Ti[k + 1]])
        for j in range(m):
            for k in range(m - 1):
                count += 1
                if C[k][j] != C[k + 1][j] and gt(T[k][j], T[k + 1][j]):
                    return cex((pts[k], pts[k + 1], pts[j]),
                               vals[T[k][j]], vals[T[k + 1][j]])
    elif prop == "bounded_by_min":
        for i, x in enumerate(pts):
            for j, y in enumerate(pts):
                count += 1
                v, lo = T[i][j], pid[j] if above(pid[i], pid[j]) else pid[i]
                if cen[v] != lo and gt(v, lo):
                    return cex((x, y), vals[v], min(x, y))
    elif prop == "associativity":
        # (xy)z is row(xy)[k] and x(yz) is col(yz)[i], with xy and yz the
        # centres of F(x,y) and F(y,z); cols[j][k] is col(yz) for y = p_j
        cols = [[g.col(c) for c in Cj] for Cj in C]
        for i, x in enumerate(pts):
            for j in range(m):
                cxy, Cj, cols_j = C[i][j], C[j], cols[j]
                row = g.row(cxy)
                for k in range(m):
                    count += 1
                    lhs = row[k]
                    if lhs is None:
                        lhs = row[k] = ev(cxy, pid[k])
                    rhs = cols_j[k][i]
                    if rhs is None:
                        rhs = cols_j[k][i] = ev(pid[i], Cj[k])
                    if cen[lhs] != cen[rhs] and differ(vals[lhs], vals[rhs]):
                        return cex((x, pts[j], pts[k]), vals[lhs], vals[rhs])
        assert count == m ** 3, "associativity scan must cover the full cube"
    elif prop == "neutral_one":
        one = memo.intern(ONE)
        col = g.col(one)
        for i, x in enumerate(pts):
            count += 1
            v = col[i]
            if v is None:
                v = col[i] = ev(pid[i], one)
            if cen[v] != pid[i] and differ(vals[v], x):
                return cex((x,), vals[v], x)
    elif prop in ("conditional_cancellation", "cancellation"):
        # F(x,a) = F(x,b) with a < b breaks cancellation when x > 0, and
        # conditional cancellation when the value is certainly positive
        cond = prop == "conditional_cancellation"
        positive = {}  # value id -> certainly positive
        for i, x in enumerate(pts):
            if x == 0 and not cond:
                continue
            Ti, Ci = T[i], C[i]
            for a in range(m):
                for b in range(a + 1, m):
                    count += 1
                    if Ci[a] == Ci[b]:
                        v = Ti[a]
                        if cond and v not in positive:
                            va, ra = approx_diff(vals[v], ZERO)
                            positive[v] = va > ra
                        if not cond or positive[v]:
                            return cex((x, pts[a], pts[b]), vals[v], vals[Ti[b]])
    elif prop == "strict_monotonicity":
        for i, x in enumerate(pts):
            if x == 0:
                continue
            Ti = T[i]
            for k in range(m - 1):
                count += 1
                if ge(Ti[k], Ti[k + 1]):
                    return cex((x, pts[k], pts[k + 1]), vals[Ti[k]], vals[Ti[k + 1]])
    else:  # archimedean_at
        # asymptotic property: failure to descend within the cap is
        # reported as a note, never as a counterexample
        missing = []
        interior = [k for k, p in enumerate(pts) if 0 < p < 1]
        floor = pid[min(interior, key=pts.__getitem__)] if interior else None
        for k in interior:
            acc = pid[k]  # centre id of the current power
            for _ in range(N_ITER):
                row = g.row(acc)
                v = row[k]
                if v is None:
                    v = row[k] = ev(acc, pid[k])
                acc = cen[v]
                count += 1
                if above(floor, acc):
                    break
            else:
                missing.append(pts[k])
        if missing:
            return CheckResult(True, note="not witnessed at cap for x in "
                              + ",".join(str(p) for p in missing),
                              checked=count)

    note = f"{undecided} comparisons undecided within error radii" if undecided else None
    return CheckResult(True, note=note, checked=count)


def scan_continuity(op: Callable, breakpoints, pts):
    """Numeric jump detection: around every breakpoint pair, compare the
    operation at the corners perturbed by ``SCAN_DELTA``; a spread above
    ``SCAN_THRESHOLD`` flags a jump.  Returns the list of flagged
    locations."""
    probes = sorted(set(frac(b) for b in breakpoints) | {ONE})
    cells = sorted(set(pts) | set(probes))
    jumps = []
    for a in probes:
        for b in cells:
            corners = []
            for da in (-SCAN_DELTA, ZERO, SCAN_DELTA):
                for db in (-SCAN_DELTA, ZERO, SCAN_DELTA):
                    x, y = a + da, b + db
                    if 0 <= x <= 1 and 0 <= y <= 1:
                        corners.append(float(op(x, y)))
            if corners and max(corners) - min(corners) > SCAN_THRESHOLD:
                jumps.append((a, b))
    return jumps


# -- classifier/oracle agreement --------------------------------------------

_LAWS = {
    "t_subnorm": ("commutativity", "monotonicity", "bounded_by_min",
                  "associativity"),
    "t_norm": ("commutativity", "monotonicity", "bounded_by_min",
               "associativity", "neutral_one"),
    "conditionally_cancellative": ("conditional_cancellation",),
    "cancellative": ("cancellation",),
    "strictly_monotone_op": ("strict_monotonicity",),
    "archimedean": ("archimedean_at",),
}


@dataclass
class HarnessReport:
    rows: list = field(default_factory=list)  # (property, classifier, oracle, detail)
    hard_failures: list = field(default_factory=list)
    counterexamples: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)  # oracle counters, not rendered

    @property
    def ok(self) -> bool:
        return not self.hard_failures

    def render(self) -> str:
        lines = ["property                    classifier  oracle"]
        for prop, cstat, ostat, detail in self.rows:
            line = f"{prop:<28}{cstat:<12}{ostat}"
            if detail:
                line += f"  {detail}"
            lines.append(line)
        if self.hard_failures:
            lines.append("HARD FAILURES: " + "; ".join(self.hard_failures))
        else:
            lines.append("no classifier/oracle contradictions")
        return "\n".join(lines) + "\n"


def default_extra(f: PiecewiseMonotoneFn) -> list:
    """Breakpoints of f plus argument preimages of the gap boundary values,
    so grids exercise every discontinuity."""
    extra = set(f.breakpoints())
    if f.nondecreasing:
        for b, dd, c in decompose(f).s:
            for v in (b, dd, c):
                x = arg_with_value(f, v)
                if x is not None:
                    extra.add(x)
    return sorted(extra)


def consistency_harness(f: PiecewiseMonotoneFn, t: TNormDescriptor,
                        n: int = 12, arch_grid_n: int = 8) -> HarnessReport:
    """Classify, then re-check every classified law by brute force on the
    operation the classifier built; a Yes verdict alongside an oracle
    counterexample is a hard failure."""
    report = classify(f, t, arch_grid_n=arch_grid_n)
    pts = grid(n, default_extra(f))
    memo = _Memo(report.op)
    out = HarnessReport()
    results = {}  # law -> CheckResult; t_norm shares four laws with t_subnorm
    for prop in PROPERTIES:
        v = report.properties[prop]
        laws = _LAWS.get(prop)
        if laws is None:
            out.rows.append((prop, v.status, "-", ""))
            continue
        failed = None
        notes = []
        for law in laws:
            res = results.get(law)
            if res is None:
                res = results[law] = check_property(memo, law, pts)
            if not res.ok:
                failed = res.counterexample
                break
            if res.note:
                notes.append(res.note)
        if failed is not None:
            out.counterexamples[prop] = failed
            out.rows.append((prop, v.status, "counterexample", str(failed)))
            if v.status == "yes":
                out.hard_failures.append(f"{prop}: classifier Yes but {failed}")
        else:
            out.rows.append((prop, v.status, "ok", "; ".join(notes)))
    out.stats = {"op_evals": memo.evals, "interned_values": len(memo.vals)}
    return out
