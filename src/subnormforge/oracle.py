"""Brute-force verification of algebraic laws on rational grids.

Works on any binary operation on [0,1] (exact Fraction results, or
approximate results carrying an error radius).  Exhaustive scans report
the lexicographically first counterexample; on approximate values a
violation is only reported when it exceeds the carried radii, and
borderline comparisons surface as notes instead of verdicts.

The scans hold every value as its key (``_key``), a tuple of ints that
hashes in C, where a ``Fraction`` rehashes in Python: an exact value's
reduced (numerator, denominator), and an ``Approx``'s centre's pair
followed by its radius's, so a value's centre is its key's first two
ints.  Every value has a class: f(x) for a generated operation, whose
F(x, y) depends on x and y only through f(x) and f(y), and the value's
own key for any other operation; points of one class have equal rows and
columns in every table.  There is one table per point set: F is
evaluated once per pair of classes into a table of keys, rebuilt only
when a scan gets other points; the values of F at the off-grid
intermediates of associativity and of the Archimedean powers sit in lists
kept per class of the intermediate, one entry per class of the grid.
Every list is evaluated a row at a time: the table row by row, and an
intermediate's row whole when associativity first reads it.  Only the
Archimedean powers, which read most rows at one or two places, evaluate
single entries.  A generated operation is symmetric, as its T is, so one
list per class serves as both its row and its column; any other operation
keeps the two apart.  The table is the only cache: a direct call
``memo(x, y)`` evaluates F afresh.
A generated operation with an exact t-norm is evaluated on integer pairs,
since ``Fraction`` builds and compares in Python: along a row, f's value
at the row's argument is read once, T runs over the row and finv over
T's values in one forward sweep of its pieces (``_Memo.eval_row``,
``pwfn.eval_pairs``).  Its values stay reduced pairs, and get a
``Fraction`` only when read (``_value``): by a counterexample, a note,
``memo(x, y)`` or a comparison of Approx values.  An inexact t-norm goes
through ``f_compose``, one entry at a time.  On an exact table, keys
compare values: equal keys are equal values, unequal keys differ, and
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
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional

from .classify import PROPERTIES, arg_with_value, classify
from .generated import GeneratedOp, f_compose
from .intervals import ONE, ZERO, frac, reduced
from .pwfn import PiecewiseMonotoneFn, decompose, eval_pairs
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


def _key(v) -> tuple:
    """The key of value v: (numerator, denominator) after ``frac``, which
    reduces it (so 0, Fraction(0, 5) and "0" share one) and raises
    TypeError for a float; for an ``Approx``, its centre's pair followed by
    its radius's."""
    if isinstance(v, Approx):
        c, r = v.value, v.radius
        return c.numerator, c.denominator, r.numerator, r.denominator
    v = frac(v)
    return v.numerator, v.denominator


def _value(k: tuple):
    """The value of key k: a ``Fraction``, or an ``Approx`` for four ints."""
    if len(k) == 2:
        return Fraction(*k)
    return Approx(Fraction(k[0], k[1]), Fraction(k[2], k[3]))


class _Memo:
    """A binary operation evaluated on the keys of its values (``_key``).

    The class of an exact value of key k (``class_of``) is the key of f(x)
    for a GeneratedOp, whose F(x, y) depends on x and y only through f(x)
    and f(y), read from the operation's own f cache (``f_pair``), and k
    itself for any other operation.  ``eval_row(a, bs)`` evaluates the
    operation at a and each key of bs, on their classes, and ``eval(a, b)``
    at one pair; ``evals`` counts the values evaluated.  For a GeneratedOp
    with an exact T, ``eval`` is a row of one: ``eval_row`` is the only
    exact evaluation path here.  Any other operation is evaluated entry by
    entry (``f_compose`` for an inexact T).  ``memo(x, y)`` evaluates
    without a cache; the law scans read ``table``, the ``_Grid`` of the
    last point set scanned (``memo.grid(pts)``), which holds every value
    they evaluate, and add the comparisons they make to ``compared``.

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
        self.table = None  # _Grid of the last point set scanned
        self._row_keys = self._row_fs = None  # eval_row's last keys and their f values
        self.evals = 0
        self.compared = 0

    def __call__(self, x, y):
        return _value(self.eval(_key(x), _key(y)))

    def class_of(self, k: tuple) -> tuple:
        """The class of the exact value of key k."""
        return k if self.generated is None else self.generated.f_pair(k)

    def eval(self, a: tuple, b: tuple) -> tuple:
        """Key of op(x, y) for the values x and y of keys a and b, on their
        classes for a GeneratedOp; an exact one takes ``eval_row``'s kernel."""
        gen = self.generated
        if gen is not None and gen.t.exact:
            return self.eval_row(a, (b,))[0]
        self.evals += 1
        if gen is None:
            return _key(self.op(_value(a), _value(b)))
        return _key(f_compose(gen, _value(gen.f_pair(a)), _value(gen.f_pair(b))))

    def eval_row(self, a: tuple, bs) -> list:
        """[eval(a, b) for b in bs].  For a GeneratedOp with an exact T it
        takes a's class once, T along the row on the pairs of f's values,
        and finv over the row in one ``eval_pairs`` sweep, which takes one
        pass over finv's pieces when the f values of bs ascend (T is
        non-decreasing in its second argument); each value is reduced here.
        The f values of bs are kept for the next call with the same tuple,
        as a grid passes one tuple for all its rows."""
        gen = self.generated
        if gen is None or not gen.t.exact:
            return [self.eval(a, b) for b in bs]
        self.evals += len(bs)
        f_pair = gen.f_pair
        an, ad = f_pair(a)
        if bs is not self._row_keys:
            self._row_fs = [f_pair(b) for b in bs]
            self._row_keys = bs
        t = gen.t.eval_pair
        ts = [t(an, ad, c, d) for c, d in self._row_fs]
        return [reduced(n, d) for n, d in eval_pairs(gen.finv, ts)]

    def grid(self, pts) -> "_Grid":
        pts = tuple(pts)
        if self.table is None or self.table.pts != pts:
            self.table = _Grid(self, pts)
        return self.table


class _Grid:
    """The operation on the points p_0..p_{m-1}, as value keys, by class.

    ``pid[i]`` is the key of p_i, taken once when the table is built.
    Points of one class (``_Memo.class_of``) have equal rows and columns in
    every table, so the classes are numbered in the order of their first
    points: ``first[c]`` is the index of class c's first point, ``cls[i]``
    the number of p_i's class, and ``size[c]`` the number of points in
    class c.  ``TC[c][d]`` is the key of F(p_first[c], p_first[d]),
    evaluated once per class pair, and ``CC`` the same table of centres,
    each key's first two ints; the table is ``exact`` when no value in it
    is an ``Approx`` (then ``CC == TC``).  F(p_i, p_j) is
    ``TC[cls[i]][cls[j]]``, ``cols`` is ``TC`` transposed and ``symmetric``
    whether the two are equal.
    ``steps`` lists each pair (a, b) of the classes of neighbours p_k,
    p_k+1 once, as (k, a, b) at its first k, in the order of k.  For the
    exact value u of key a, ``row(a)[c]`` is the key of F(u, p) and
    ``col(a)[c]`` that of F(p, u), for p any point of class c: F(u, p)
    depends on u only through its class, which keys the lists.  The rows of
    the grid classes are ``TC``'s; every other row or column is evaluated
    whole when a scan first reads it, in one ``_Memo.eval_row`` call over
    the classes in ``asc`` order, ascending in f for a GeneratedOp, so that
    T ascends along the row and finv's pieces are swept once.  Only the
    Archimedean powers read single entries (``entry``), as most of their
    rows are read at one or two places; a row they began keeps those
    entries when it is read whole.  These lists are the only cache of the
    operation's values.  For a GeneratedOp, F(u, p) = F(p, u) (``_Memo``),
    so ``col(a)`` is ``row(a)``, one list: associativity's x(yz) reads
    F(yz, x) from the row that (xy)z reads, and ``TC`` stays evaluated in
    full for the commutativity scan.
    """

    def __init__(self, memo: _Memo, pts: tuple):
        self.pts = pts
        self.pid = tuple(map(_key, pts))
        number = {}  # class -> its number
        self.first, self.cls = [], []
        for i, a in enumerate(self.pid):
            c = memo.class_of(a)
            if c not in number:
                number[c] = len(self.first)
                self.first.append(i)
            self.cls.append(number[c])
        n = len(self.first)
        self.size = [self.cls.count(c) for c in range(n)]
        # the memo holds its table, so the table holds the memo weakly: a
        # cycle would keep every unit's tables alive until the cyclic
        # garbage collector runs
        self.memo = weakref.proxy(memo)
        self.reps = reps = [self.pid[i] for i in self.first]
        # the classes by ascending value of their key, f(p) for a
        # GeneratedOp, which makes T ascend along a row.  Any order gives
        # the same values, so the float key only has to be mostly right
        fk = list(number)
        self.asc = sorted(range(n), key=lambda c: fk[c][0] / fk[c][1])
        self._asc_reps = tuple(reps[c] for c in self.asc)
        self._in_order = self.asc == list(range(n))
        self._rows, self._part = {}, {}  # class -> whole row; -> row in part
        self.TC = [self._fill(a) for a in reps]
        self.CC = [[v[:2] for v in row] for row in self.TC]
        self.exact = self.CC == self.TC
        steps = {}  # (cls[k], cls[k + 1]) -> its first k
        for k in range(len(pts) - 1):
            steps.setdefault((self.cls[k], self.cls[k + 1]), k)
        self.steps = [(k, a, b) for (a, b), k in steps.items()]
        self.cols = [list(col) for col in zip(*self.TC)]
        self.symmetric = self.cols == self.TC
        self._rows.update((c, self.TC[i]) for c, i in number.items())
        self._cols = self._rows
        if memo.generated is None:
            self._cols = {c: self.cols[i] for c, i in number.items()}

    def _fill(self, a: tuple, part: Optional[list] = None) -> list:
        """The row of key a's class, evaluated by one ``_Memo.eval_row`` call
        over the classes in ascending order; the entries of ``part`` that
        single reads have evaluated are kept, the rest filled in."""
        if part is None:
            vals = self.memo.eval_row(a, self._asc_reps)
            if self._in_order:
                return vals
            part, order = [None] * len(vals), self.asc
        else:
            order = [c for c in self.asc if part[c] is None]
            vals = self.memo.eval_row(a, [self.reps[c] for c in order])
        for c, v in zip(order, vals):
            part[c] = v
        return part

    def row(self, a: tuple) -> list:
        """The row of the exact value u of key a, by class: ``row(a)[c]`` is
        the key of F(u, p) for p any point of class c; evaluated whole on
        first read."""
        k = self.memo.class_of(a)
        r = self._rows.get(k)
        if r is None:
            r = self._rows[k] = self._fill(a, self._part.pop(k, None))
        return r

    def col(self, a: tuple) -> list:
        """The column of the exact value u of key a: ``col(a)[c]`` is the key
        of F(p, u), evaluated whole on first read; ``row(a)`` itself for a
        GeneratedOp."""
        if self._cols is self._rows:
            return self.row(a)
        k = self.memo.class_of(a)
        r = self._cols.get(k)
        if r is None:
            r = self._cols[k] = [self.memo.eval(b, a) for b in self.reps]
        return r

    def entry(self, a: tuple, c: int) -> tuple:
        """``row(a)[c]``, evaluated alone when the row is not whole yet."""
        k = self.memo.class_of(a)
        r = self._rows.get(k) or self._part.get(k)
        if r is None:
            r = self._part[k] = [None] * len(self.reps)
        v = r[c]
        if v is None:
            v = r[c] = self.memo.eval(a, self.reps[c])
        return v


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
    m, n = len(pts), len(first)
    undecided = 0
    count = 0  # comparisons made
    # Comparisons are sign tests on (d, r) = approx_diff(a, b): a and b
    # differ when |d| > r and count as equal when their centres agree
    # (d == 0); a > b is certain when d > r, and a >= b when d >= r.
    # Equal centres, the first two ints of two keys, mean d == 0, so
    # approx_diff is only called on values whose centres differ, and on an
    # exact table two different keys always differ by more than r = 0.  Only
    # ">=" cannot use equal keys on Approx values: their summed radius is
    # positive, so d = 0 < r.  Keys of exact values (points, centres, every
    # key of an exact table) are ordered by ``above``, which
    # cross-multiplies their pairs.

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
        (p, q), (r, s) = a, b
        return p * s > r * q

    def positive(v):  # value v certainly above 0
        d, r = (v[0], 0) if len(v) == 2 else approx_diff(_value(v), ZERO)
        return d > r

    if g.exact:
        gt = above

        def ge(a, b):
            return a == b or above(a, b)
    else:
        def gt(a, b):
            d, r = approx_diff(_value(a), _value(b))
            return d > r

        def ge(a, b):
            d, r = approx_diff(_value(a), _value(b))
            return d >= r

    checked = None  # tuples checked, where a scan by class compares fewer
    note = None
    if prop == "commutativity":
        for c in range(n):
            TCc, CCc = TC[c], CC[c]
            for d in range(n):
                count += 1
                if CCc[d] != CC[d][c] and differ(_value(TCc[d]), _value(TC[d][c]),
                                                 size[c] * size[d]):
                    i, j = first[c], first[d]
                    return cex((pts[i], pts[j]), _value(TCc[d]), _value(TC[d][c]),
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
                                   _value(row[a]), _value(row[b]),
                                   (base + i) * (m - 1) + k + 1)
        count += (2 - len(passes)) * n * len(steps)
        checked = 2 * m * (m - 1)
    elif prop == "bounded_by_min":
        least = [pid[i] for i in first]  # key of each class's least point
        for i, a in enumerate(pid):
            if above(least[cls[i]], a):
                least[cls[i]] = a

        def exceeds(v, a, b):  # value v certainly above the least of points a, b
            lo = b if above(a, b) else a
            return v[:2] != lo and gt(v, lo)

        for c in range(n):
            count += c if g.symmetric else 0
            for d in range(c if g.symmetric else 0, n):
                if exceeds(TC[c][d], least[c], least[d]):
                    for i in range(first[c], m):
                        row = TC[cls[i]]
                        for j in range(first[d] if i == first[c] else 0, m):
                            count += 1
                            if exceeds(row[cls[j]], pid[i], pid[j]):
                                return cex((pts[i], pts[j]), _value(row[cls[j]]),
                                           min(pts[i], pts[j]), i * m + j + 1)
                count += 1
        checked = m * m
    elif prop == "associativity":
        # (xy)z is row(xy)[e] and x(yz) is col(yz)[c], with xy and yz the
        # centres of F(x,y) and F(y,z) and c, d, e the classes of x, y, z:
        # rows[c][d] is row(xy) and cols[d][e] is col(yz) (col is row for a
        # GeneratedOp).  A scan that passes reads every one of them, so
        # they are evaluated whole at the start.  Equal lists of keys are
        # equal values, so a (c, d) whose (xy)z and x(yz) lists over e are
        # equal passes without a comparison by e
        row_of = dict.fromkeys(v for CCc in CC for v in CCc)
        col_of = {}
        for v in row_of:
            row_of[v], col_of[v] = g.row(v), g.col(v)
        rows = [[row_of[v] for v in CCc] for CCc in CC]
        cols = [[col_of[v] for v in CCd] for CCd in CC]
        for c in range(n):
            rows_c = rows[c]
            for d in range(n):
                lhs_e, rhs_e = rows_c[d], [col[c] for col in cols[d]]
                if lhs_e == rhs_e:
                    count += n
                    continue
                for e in range(n):
                    count += 1
                    lhs, rhs = lhs_e[e], rhs_e[e]
                    if lhs[:2] != rhs[:2] and differ(
                            _value(lhs), _value(rhs), size[c] * size[d] * size[e]):
                        i, j, k = first[c], first[d], first[e]
                        return cex((pts[i], pts[j], pts[k]), _value(lhs), _value(rhs),
                                   (i * m + j) * m + k + 1)
        assert count == n ** 3, "associativity scan must cover the class cube"
        checked = m ** 3
    elif prop == "neutral_one":
        col = g.col(_key(ONE))
        for i, x in enumerate(pts):
            count += 1
            v = col[cls[i]]
            if v[:2] != pid[i] and differ(_value(v), x):
                return cex((x,), _value(v), x)
    elif prop in ("conditional_cancellation", "cancellation", "strict_monotonicity"):
        # laws by row: F(x,a) = F(x,b) with a < b breaks cancellation when
        # x > 0, and conditional cancellation when the value is certainly
        # positive; strict monotonicity fails where F(x,.) does not rise, x > 0
        cond, strict = prop == "conditional_cancellation", prop == "strict_monotonicity"
        zero = None if cond else (0, 1)  # rows x = 0 are skipped
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
                        return cex((pts[i], pts[k], pts[k + 1]), _value(row[a]),
                                   _value(row[b]), before + k + 1)
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
                    return cex((pts[i], pts[a], pts[b]), _value(row[cls[a]]),
                               _value(row[cls[b]]), before + rank)
            if not strict:
                count += n * (n - 1) // 2
        checked = (m - pid.count(zero)) * per_row
    else:  # archimedean_at
        # a power equal to the one before, at or above the floor, after
        # exact powers only, is a fixed point that the powers never leave:
        # a counterexample.  Failure to descend within the cap is only a
        # note
        missing = []
        # 0 < p < 1, read on each point's key (numerator, denominator)
        interior = [k for k, (p, q) in enumerate(pid) if 0 < p < q]
        floor = pid[min(interior, key=pts.__getitem__)] if interior else None
        powers = {}  # class -> (powers taken, whether one fell below floor)
        checked = 0
        for k in interior:
            c = cls[k]
            run = powers.get(c)
            if run is None:
                acc = pid[k]  # key of the current power's centre
                exact = True  # no power so far is an Approx
                for steps in range(1, N_ITER + 1):
                    v = g.entry(acc, c)
                    if v == acc and exact:
                        count += steps
                        return cex((pts[k], _value(floor)), _value(v), _value(floor),
                                   checked + steps)
                    exact = exact and len(v) == 2
                    acc = v[:2]
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
    out.stats = {"op_evals": memo.evals, "compared": memo.compared}
    return out
