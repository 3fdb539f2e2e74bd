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

Every law but neutral_one is decided on the table by class, and reads
single points only to place a counterexample; ``check_property`` says,
law by law, why the first counterexample is that of a scan by point.
Its values, the notes and the ``checked`` counts are those of a direct
scan that evaluates F at every comparison of every point;
``_Memo.compared`` counts the comparisons made (``check_property``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
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
    halfprod's formula and the generator families' centre min(1, xy·kappa),
    an exact product of Fractions, are symmetric in x and y.  So its ``_Grid``
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
    ``CC == TC``).  F(p_i, p_j) is ``TC[cls[i]][cls[j]]``, ``cols`` is
    ``TC`` transposed and ``symmetric`` whether the two are equal.
    ``steps`` lists each pair (a, b) of the classes of neighbours p_k,
    p_k+1 once, as (k, a, b) at its first k, in the order of k.  For an
    exact value u of class k, ``row(k)[c]`` is the id of F(u, p) and
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
        steps = {}  # (cls[k], cls[k + 1]) -> its first k
        for k in range(len(pts) - 1):
            steps.setdefault((self.cls[k], self.cls[k + 1]), k)
        self.steps = [(k, a, b) for (a, b), k in steps.items()]
        self.cols = [list(col) for col in zip(*self.TC)]
        self.symmetric = self.cols == self.TC
        self._rows = {c: self.TC[i] for c, i in number.items()}
        self._cols = self._rows
        if memo.generated is None:
            self._cols = {c: self.cols[i] for c, i in number.items()}

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


@lru_cache(maxsize=None)
def _base_grid(n: int) -> tuple:
    return tuple(Fraction(i, n) for i in range(n + 1))


def grid(n: int, extra=()) -> list:
    """{0, 1/n, ..., 1} plus any extra rationals in [0,1], sorted and
    deduplicated.  The points are ordered and deduplicated by exact
    integer keys: over L, the lcm of the denominators, the point p/q is
    p * (L // q)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    base = _base_grid(n)
    extra = [e for e in map(frac, extra) if 0 <= e.numerator <= e.denominator]
    lcm = math.lcm(n, *(e.denominator for e in extra))
    step = lcm // n
    pts = {i * step: p for i, p in enumerate(base)}
    for e in extra:
        pts.setdefault(e.numerator * (lcm // e.denominator), e)
    return [pts[k] for k in sorted(pts)]


def check_property(op: Callable, prop: str, pts) -> CheckResult:
    """Exhaustive scan of one law over the grid; the first counterexample
    in lexicographic input order is returned, with the ``checked`` count
    and note of a scan by point, in any point order.

    A comparison depends on its points only through their classes, and a
    point before ``first[c]`` belongs to a class before c.  So, law by law:
    - commutativity: the first failing class pair (c, d) gives the points
      (first[c], first[d]);
    - monotonicity, each pass, and strict_monotonicity: the neighbours
      p_k, p_k+1 are compared at the first k of their classes' pair
      (``_Grid.steps``), and the first failing row (column) class c gives
      the row first[c], or, with x = 0 skipped, the class's first other row;
    - bounded_by_min: F(x,y) > min(x,y) holds the more easily the smaller
      min(x,y), so a block of two classes fails when its value exceeds the
      smaller of their least points.  Every pair before (first[c],
      first[d]) lies in a block that passed, so the search by point for
      the first failing pair starts there;
    - the cancellation laws: a row fails when two positions hold one centre
      (a positive value, for the conditional law), which needs two classes
      with one centre or a class of two points; one pass from the right
      then finds each position's next equal centre, and the first position
      that has one gives the pair;
    - associativity: if a triple fails, so does the triple of the first
      points of its classes, which is lexicographically no greater;
    - archimedean_at: after its first step, F(x,x), the power sequence
      depends on x only through its class, so a later point x' of the class
      differs only in step 1's fixed-point test, F(x',x') = x'.  Were that
      to hold, the class's first point x would have stopped at step 2, as
      F(x,x) = x' and F(x',x) = F(x',x') = x'; one sequence runs per class.
    When ``TC`` is symmetric, monotonicity's column pass and bounded_by_min's
    blocks below the diagonal would repeat checks that passed, and are
    skipped.  neutral_one scans every point.  An undecided comparison
    counts once per tuple of its classes' points.  ``_Memo.compared``
    counts one comparison per class tuple decided, and one per point tuple
    that a search by point passes up to a counterexample: with one point
    per class it equals ``checked``.
    """
    if prop not in PROPERTY_NAMES:
        raise ValueError(f"unknown property {prop!r}")
    memo = op if isinstance(op, _Memo) else _Memo(op)
    g = memo.grid(pts)
    pts, pid, TC, CC = g.pts, g.pid, g.TC, g.CC
    first, size, cls, steps = g.first, g.size, g.cls, g.steps
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

    def positive(v):  # value v certainly above 0
        d, r = (keys[v][0], 0) if cen[v] == v else approx_diff(val(v), ZERO)
        return d > r

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
        for c in range(n):
            TCc, CCc = TC[c], CC[c]
            for d in range(n):
                count += 1
                if CCc[d] != CC[d][c] and differ(val(TCc[d]), val(TC[d][c]),
                                                 size[c] * size[d]):
                    i, j = first[c], first[d]
                    return cex((pts[i], pts[j]), val(TCc[d]), val(TC[d][c]),
                               i * m + j + 1)
        checked = m * m
    elif prop == "monotonicity":
        # the row pass on TC, then the column pass on its transpose
        passes = [(0, TC, CC)] + ([] if g.symmetric else [(m, g.cols, list(zip(*CC)))])
        for base, rows, cens in passes:
            for c in range(n):
                row, crow = rows[c], cens[c]
                for k, a, b in steps:
                    count += 1
                    if crow[a] != crow[b] and gt(row[a], row[b]):
                        i = first[c]
                        ins = (pts[k], pts[k + 1])
                        return cex((pts[i], *ins) if base == 0 else (*ins, pts[i]),
                                   val(row[a]), val(row[b]),
                                   (base + i) * (m - 1) + k + 1)
        count += (2 - len(passes)) * n * len(steps)
        checked = 2 * m * (m - 1)
    elif prop == "bounded_by_min":
        least = [pid[i] for i in first]  # id of each class's least point
        for i, a in enumerate(pid):
            if above(least[cls[i]], a):
                least[cls[i]] = a

        def exceeds(v, a, b):  # value v certainly above the least of points a, b
            lo = b if above(a, b) else a
            return cen[v] != lo and gt(v, lo)

        for c in range(n):
            count += c if g.symmetric else 0
            for d in range(c if g.symmetric else 0, n):
                if exceeds(TC[c][d], least[c], least[d]):
                    for i in range(first[c], m):
                        row = TC[cls[i]]
                        for j in range(first[d] if i == first[c] else 0, m):
                            count += 1
                            if exceeds(row[cls[j]], pid[i], pid[j]):
                                return cex((pts[i], pts[j]), val(row[cls[j]]),
                                           min(pts[i], pts[j]), i * m + j + 1)
                count += 1
        checked = m * m
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
            c = cls[i]
            v = col[c]
            if v is None:
                v = col[c] = ev(pid[i], one)
            if cen[v] != pid[i] and differ(val(v), x):
                return cex((x,), val(v), x)
    elif prop in ("conditional_cancellation", "cancellation", "strict_monotonicity"):
        # laws by row: F(x,a) = F(x,b) with a < b breaks cancellation when
        # x > 0, and conditional cancellation when the value is certainly
        # positive; strict monotonicity fails where F(x,.) does not rise, x > 0
        cond, strict = prop == "conditional_cancellation", prop == "strict_monotonicity"
        zero = None if cond else memo.ids.get((0, 1))  # rows x = 0 are skipped
        per_row = m - 1 if strict else m * (m - 1) // 2

        def rows():  # (row class, its first row, tuples checked before it)
            seen = set()
            for i, c in enumerate(cls):
                if pid[i] != zero and c not in seen:
                    seen.add(c)
                    yield c, i, (i - pid[:i].count(zero)) * per_row

        for c, i, before in rows():
            row, crow = TC[c], CC[c]
            if strict:
                for k, a, b in steps:
                    count += 1
                    if ge(row[a], row[b]):
                        return cex((pts[i], pts[k], pts[k + 1]), val(row[a]),
                                   val(row[b]), before + k + 1)
            elif n < m or len(set(crow)) < n:
                # some centre repeats along the row: find the first pair
                later, hit = {}, None  # centre -> its first position after a
                for a in range(m - 1, -1, -1):
                    u = crow[cls[a]]
                    if u in later and (not cond or positive(row[cls[a]])):
                        hit = a, later[u]
                    later[u] = a
                if hit:
                    a, b = hit
                    rank = a * (2 * m - a - 1) // 2 + b - a
                    count += rank
                    return cex((pts[i], pts[a], pts[b]), val(row[cls[a]]),
                               val(row[cls[b]]), before + rank)
            if not strict:
                count += n * (n - 1) // 2
        checked = (m - pid.count(zero)) * per_row
    else:  # archimedean_at
        # a power equal to the one before, at or above the floor, after
        # exact powers only, is a fixed point that the powers never leave:
        # a counterexample.  Failure to descend within the cap is only a
        # note
        missing = []
        # 0 < p < 1, read on each point's interned (numerator, denominator)
        interior = [k for k, i in enumerate(pid) if 0 < keys[i][0] < keys[i][1]]
        floor = pid[min(interior, key=pts.__getitem__)] if interior else None
        powers = {}  # class -> (powers taken, whether one fell below floor)
        checked = 0
        for k in interior:
            c = cls[k]
            run = powers.get(c)
            if run is None:
                acc = pid[k]  # centre id of the current power
                exact = True  # no power so far is an Approx
                for steps in range(1, N_ITER + 1):
                    row = g.row(class_of(acc))
                    v = row[c]
                    if v is None:
                        v = row[c] = ev(acc, pid[k])
                    if v == acc and exact:
                        count += steps
                        return cex((pts[k], val(floor)), val(v), val(floor),
                                   checked + steps)
                    exact = exact and cen[v] == v
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
    stats: dict = field(default_factory=dict)  # _Memo counters (README), not rendered

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
    counterexample is a hard failure.  `arch_grid_n` has no effect: the
    classifier's Archimedean check no longer samples a grid, and the
    argument stays for callers that still pass it."""
    report = classify(f, t)
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
