"""Brute-force verification of algebraic laws on rational grids.

Works on any binary operation on [0,1] (exact Fraction results, or
approximate results carrying an error radius).  Exhaustive scans report
the lexicographically first counterexample; on approximate values a
violation is only reported when it exceeds the carried radii, and
borderline comparisons surface as notes instead of verdicts.

The scans run on interned value tables.  Every value is interned to a
small int id, equal values to equal ids, keyed by ``value_key``: integer
(numerator, denominator) pairs, because ``Fraction`` recomputes its hash
on every call.  Every value has a class: the id of f(x) for a generated
operation, whose F(x, y) depends on x and y only through f(x) and f(y),
and the value's own id for any other operation; points of one class have
equal rows and columns in every table.  There is one table per point set:
F is evaluated once per pair of classes into a table of ids, rebuilt only
when a scan gets other points; the values of F at the off-grid
intermediates of associativity and of the Archimedean powers sit in lists
kept per class of the intermediate, one entry per class of the grid,
filled on first use.  A generated operation is symmetric, as its T is, so
one list per class serves as both its row and its column; any other
operation keeps the two apart.  The table is the only cache: a direct
call ``memo(x, y)`` evaluates F afresh.
A generated operation is evaluated by its own kernel (``GeneratedOp``),
on integer pairs for an exact t-norm, since ``Fraction`` builds and
compares in Python.  Its exact values are interned by their reduced pair
alone, and get a ``Fraction`` only when read: by a counterexample, a
note, ``memo(x, y)`` or a comparison of Approx values.  On an exact table,
ids compare values: equal ids are equal values, unequal ids differ, and
signs come from cross-multiplied pairs.  Comparisons that may involve
Approx values call ``approx_diff``, with the boundary rules described in
``check_property``.

Associativity compares the first point of each class only, and the
Archimedean powers run once per class; ``check_property`` says why the
first counterexample stays the same.  Its values, the notes and the
``checked`` counts are those of a direct scan that evaluates F at every
comparison of every point; ``_Memo.compared`` counts the comparisons
actually made.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .classify import PROPERTIES, arg_with_value, classify
from .generated import GeneratedOp, f_compose, value_key
from .intervals import ONE, ZERO, frac
from .pwfn import PiecewiseMonotoneFn, decompose
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
    exact (so 0 and Fraction(0) share an id).  ``vals[v]`` is the value, or
    None for an exact value interned by its pair alone and not read yet:
    ``value(v)`` reads it, building its Fraction from ``keys[v]`` once.

    The class of an exact value x (``class_of``) is the id of f(x) for a
    GeneratedOp, whose F(x, y) depends on x and y only through f(x) and
    f(y), and x's own id for any other operation.  ``eval`` evaluates the
    operation on the classes of its arguments, and ``evals`` counts the
    evaluations; a GeneratedOp takes f, T and finv from its own kernel, so
    the memo keeps ids and pairs only.  ``memo(x, y)`` evaluates without a
    cache; the law scans read ``table``, the ``_Grid`` of the last point set
    scanned (``memo.grid(pts)``), which holds every value they evaluate, and
    add the comparisons they make to ``compared``.

    A GeneratedOp is symmetric: F(x, y) = finv(T(f(x), f(y))) and
    F(y, x) = finv(T(f(y), f(x))) are finv of equal arguments, as every
    registered T is symmetric: a t-norm is commutative by definition, and
    halfprod's formula and the generator families' g^(-1)(g(x) + g(y)),
    whose sum is rounded once, are symmetric in x and y.  So its ``_Grid``
    keeps one list per class for the row and the column.  The commutativity
    scan still compares the full table of the grid classes, evaluated in
    both orders, so a kernel that breaks symmetry is still caught there.
    """

    def __init__(self, op: Callable):
        self.op = op
        self.generated = op if isinstance(op, GeneratedOp) else None
        self.ids = {}  # value_key(value) -> id
        self.keys = []  # id -> value_key(value)
        self.vals = []  # id -> value, None until read for an exact pair
        self.centre = []  # id -> id of the value's centre
        self.f_ids = {}  # id of an exact x -> id of f(x), for a GeneratedOp
        self.table = None  # _Grid of the last point set scanned
        self.evals = 0
        self.compared = 0

    def __call__(self, x, y):
        return self.value(self.eval(self.intern(x), self.intern(y)))

    def value(self, i: int):
        """The value of id i; an exact value's Fraction is built on first read."""
        v = self.vals[i]
        if v is None:
            v = self.vals[i] = Fraction(*self.keys[i])
        return v

    def intern(self, v) -> int:
        if not isinstance(v, Approx):
            v = frac(v)
        return self._intern_key(value_key(v), v)

    def _intern_key(self, k: tuple, v) -> int:
        """Id of the value v of key k; v is None for an exact value known
        by its reduced pair k alone."""
        i = self.ids.get(k)
        if i is None:
            i = self.ids[k] = len(self.vals)
            self.keys.append(k)
            self.vals.append(v)
            self.centre.append(i)
            if isinstance(v, Approx):
                self.centre[i] = self.intern(v.value)
        return i

    def class_of(self, a: int) -> int:
        """The class of the exact value of id a."""
        if self.generated is None:
            return a
        i = self.f_ids.get(a)
        if i is None:
            i = self.f_ids[a] = self._intern_key(self.generated.f_pair(self.keys[a]), None)
        return i

    def eval(self, a: int, b: int) -> int:
        """Id of op(x, y) for the values x and y of ids a and b, on their
        classes for a GeneratedOp; this runs once per table entry, so it calls
        ``class_of`` and ``_intern_key`` only for an id or value not yet seen."""
        gen, f_ids = self.generated, self.f_ids
        self.evals += 1
        if gen is None:
            return self.intern(self.op(self.value(a), self.value(b)))
        u = f_ids[a] if a in f_ids else self.class_of(a)
        w = f_ids[b] if b in f_ids else self.class_of(b)
        if gen.t.exact:
            k = gen.t_finv(*self.keys[u], *self.keys[w])[0]
            v = self.ids.get(k)
            return self._intern_key(k, None) if v is None else v
        return self.intern(f_compose(gen, self.value(u), self.value(w)))

    def grid(self, pts) -> "_Grid":
        pts = tuple(pts)
        if self.table is None or self.table.pts != pts:
            self.table = _Grid(self, pts)
        return self.table


class _Grid:
    """The operation on the points p_0..p_{m-1}, as value ids, by class.

    ``pid[i]`` is the id of p_i, interned once when the table is built.
    Points of one class (``_Memo.class_of``) have equal rows and columns in
    every table, so the classes are numbered in the order of their first
    points: ``first[c]`` is the index of class c's first point, ``cls[i]``
    the number of p_i's class, and ``size[c]`` the number of points in
    class c.  ``TC[c][d]`` is the id of F(p_first[c], p_first[d]),
    evaluated once per class pair, and ``CC`` the same table of centre
    ids; the table is ``exact`` when no value in it is an ``Approx`` (then
    ``CC == TC``).  ``T[i][j]`` and ``C[i][j]`` are the same tables by
    point, read from ``TC`` and ``CC``.  For an exact value u of class k
    (``_Memo.class_of``), ``row(k)[c]`` is the id of F(u, p) and
    ``col(k)[c]`` that of F(p, u), for p any point of class c: F(u, p)
    depends on u only through its class.  The row and column of a grid
    point's class are read from ``TC``; those of other classes start as
    None and are filled by the scans on demand.  They are the only cache
    of the operation's values.  For a GeneratedOp, F(u, p) = F(p, u)
    (``_Memo``), so ``col(k)`` is ``row(k)``, one list: associativity's
    x(yz) reads F(yz, x) from the row that (xy)z filled for the class of
    yz, and ``TC`` stays evaluated in full for the commutativity scan.
    """

    def __init__(self, memo: _Memo, pts: tuple):
        self.pts = pts
        self.pid = tuple(memo.intern(p) for p in pts)
        number = {}  # class -> its number
        self.first, self.cls = [], []
        for i, a in enumerate(self.pid):
            c = memo.class_of(a)
            if c not in number:
                number[c] = len(self.first)
                self.first.append(i)
            self.cls.append(number[c])
        self.size = [self.cls.count(c) for c in range(len(self.first))]
        reps = [self.pid[i] for i in self.first]
        ev, cen = memo.eval, memo.centre
        self.TC = [[ev(a, b) for b in reps] for a in reps]
        self.CC = [[cen[v] for v in row] for row in self.TC]
        self.exact = self.CC == self.TC
        self.T = self._by_point(self.TC)
        self.C = self._by_point(self.CC)
        self._rows = {c: self.TC[i] for c, i in number.items()}
        self._cols = self._rows
        if memo.generated is None:
            cols = [list(col) for col in zip(*self.TC)]
            self._cols = {c: cols[i] for c, i in number.items()}

    def _by_point(self, table) -> list:
        rows = [[row[d] for d in self.cls] for row in table]
        return [rows[c] for c in self.cls]

    def row(self, k) -> list:
        r = self._rows.get(k)
        if r is None:
            r = self._rows[k] = [None] * len(self.first)
        return r

    def col(self, k) -> list:
        r = self._cols.get(k)
        if r is None:
            r = self._cols[k] = [None] * len(self.first)
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
    in lexicographic input order is returned.

    Associativity scans the first point of each class only.  If a triple
    fails, so does the triple with each member replaced by the first point
    of its class, which is lexicographically no greater; so the first
    failing triple is made of first points, in any point order.  Its
    ``checked`` is (i*m + j)*m + k + 1 at (p_i, p_j, p_k), else m**3, and an
    undecided comparison counts once per triple of its classes' points.
    ``archimedean_at`` runs one power sequence per class: after its first
    step, F(x,x), the sequence depends on x only through its class.  The
    other laws, commutativity included, scan every point.
    """
    if prop not in PROPERTY_NAMES:
        raise ValueError(f"unknown property {prop!r}")
    memo = op if isinstance(op, _Memo) else _Memo(op)
    g = memo.grid(pts)
    pts, pid, T, C = g.pts, g.pid, g.T, g.C
    CC, first, size = g.CC, g.first, g.size
    val, keys, cen, ev = memo.value, memo.keys, memo.centre, memo.eval
    class_of = memo.class_of
    m, n = len(pts), len(first)
    undecided = 0
    count = 0  # comparisons made
    # Comparisons are sign tests on (d, r) = approx_diff(a, b): a and b
    # differ when |d| > r and count as equal when their centres agree
    # (d == 0); a > b is certain when d > r, and a >= b when d >= r.
    # Equal centre ids mean d == 0, so approx_diff is only called on
    # values whose centres differ, and on an exact table two different ids
    # always differ by more than r = 0.  Only ">=" cannot use equal ids on
    # Approx values: their summed radius is positive, so d = 0 < r.  Ids of
    # exact values (points, centres, every id of an exact table) are
    # ordered by ``above``, which cross-multiplies their pairs.

    def cex(inputs, lhs, rhs, checked=None):
        memo.compared += count
        return CheckResult(False, Counterexample(prop, inputs, lhs, rhs),
                           checked=count if checked is None else checked)

    def differ(a, b, tuples=1) -> bool:
        """Values a and b, with different centres, differ beyond their
        radii; otherwise the comparison is counted as undecided, once per
        tuple it stands for."""
        nonlocal undecided
        d, r = approx_diff(a, b)
        if abs(d) > r:
            return True
        undecided += tuples
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
            d, r = approx_diff(val(a), val(b))
            return d > r

        def ge(a, b):
            d, r = approx_diff(val(a), val(b))
            return d >= r

    checked = None  # tuples checked, where a scan by class compares fewer
    note = None
    if prop == "commutativity":
        for i in range(m):
            Ti, Ci = T[i], C[i]
            for j in range(m):
                count += 1
                if Ci[j] != C[j][i] and differ(val(Ti[j]), val(T[j][i])):
                    return cex((pts[i], pts[j]), val(Ti[j]), val(T[j][i]))
    elif prop == "monotonicity":
        for i in range(m):
            Ti, Ci = T[i], C[i]
            for k in range(m - 1):
                count += 1
                if Ci[k] != Ci[k + 1] and gt(Ti[k], Ti[k + 1]):
                    return cex((pts[i], pts[k], pts[k + 1]),
                               val(Ti[k]), val(Ti[k + 1]))
        for j in range(m):
            for k in range(m - 1):
                count += 1
                if C[k][j] != C[k + 1][j] and gt(T[k][j], T[k + 1][j]):
                    return cex((pts[k], pts[k + 1], pts[j]),
                               val(T[k][j]), val(T[k + 1][j]))
    elif prop == "bounded_by_min":
        for i, x in enumerate(pts):
            for j, y in enumerate(pts):
                count += 1
                v, lo = T[i][j], pid[j] if above(pid[i], pid[j]) else pid[i]
                if cen[v] != lo and gt(v, lo):
                    return cex((x, y), val(v), min(x, y))
    elif prop == "associativity":
        # (xy)z is row(class of xy)[e] and x(yz) is col(class of yz)[c],
        # with xy and yz the centres of F(x,y) and F(y,z) and c, d, e the
        # classes of x, y, z; cols[d][e] is col(class of yz), the very list
        # of row(class of yz) for a GeneratedOp
        reps = [pid[i] for i in first]
        cols = [[g.col(class_of(v)) for v in CCd] for CCd in CC]
        for c in range(n):
            for d in range(n):
                cxy, CCd, cols_d = CC[c][d], CC[d], cols[d]
                row = g.row(class_of(cxy))
                for e in range(n):
                    count += 1
                    lhs = row[e]
                    if lhs is None:
                        lhs = row[e] = ev(cxy, reps[e])
                    rhs = cols_d[e][c]
                    if rhs is None:
                        rhs = cols_d[e][c] = ev(reps[c], CCd[e])
                    if cen[lhs] != cen[rhs] and differ(
                            val(lhs), val(rhs), size[c] * size[d] * size[e]):
                        i, j, k = first[c], first[d], first[e]
                        return cex((pts[i], pts[j], pts[k]), val(lhs), val(rhs),
                                   (i * m + j) * m + k + 1)
        assert count == n ** 3, "associativity scan must cover the class cube"
        checked = m ** 3
    elif prop == "neutral_one":
        one = memo.intern(ONE)
        col = g.col(class_of(one))
        for i, x in enumerate(pts):
            count += 1
            c = g.cls[i]
            v = col[c]
            if v is None:
                v = col[c] = ev(pid[i], one)
            if cen[v] != pid[i] and differ(val(v), x):
                return cex((x,), val(v), x)
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
                            va, ra = approx_diff(val(v), ZERO)
                            positive[v] = va > ra
                        if not cond or positive[v]:
                            return cex((x, pts[a], pts[b]), val(v), val(Ti[b]))
    elif prop == "strict_monotonicity":
        for i, x in enumerate(pts):
            if x == 0:
                continue
            Ti = T[i]
            for k in range(m - 1):
                count += 1
                if ge(Ti[k], Ti[k + 1]):
                    return cex((x, pts[k], pts[k + 1]), val(Ti[k]), val(Ti[k + 1]))
    else:  # archimedean_at
        # asymptotic property: failure to descend within the cap is
        # reported as a note, never as a counterexample
        missing = []
        interior = [k for k, p in enumerate(pts) if 0 < p < 1]
        floor = pid[min(interior, key=pts.__getitem__)] if interior else None
        powers = {}  # class -> (powers taken, whether one fell below floor)
        checked = 0
        for k in interior:
            c = g.cls[k]
            run = powers.get(c)
            if run is None:
                acc = pid[k]  # centre id of the current power
                for steps in range(1, N_ITER + 1):
                    row = g.row(class_of(acc))
                    v = row[c]
                    if v is None:
                        v = row[c] = ev(acc, pid[k])
                    acc = cen[v]
                    if above(floor, acc):
                        run = steps, True
                        break
                else:
                    run = N_ITER, False
                powers[c] = run
                count += run[0]
            checked += run[0]
            if not run[1]:
                missing.append(pts[k])
        if missing:
            note = "not witnessed at cap for x in " + ",".join(str(p) for p in missing)

    memo.compared += count
    if undecided:
        note = f"{undecided} comparisons undecided within error radii"
    return CheckResult(True, note=note, checked=count if checked is None else checked)


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
    out.stats = {"op_evals": memo.evals, "interned_values": len(memo.vals),
                 "compared": memo.compared}
    return out
