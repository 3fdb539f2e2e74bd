"""Exact piecewise monotone functions on [0,1].

A function is a finite sequence of rational-linear or constant segments
whose domains exactly partition [0,1]; an isolated value f(x) = v is the
constant segment on {x}.  All evaluation, one-sided limits,
pseudo-inversion, range and plateau computations are exact over the
rationals.  A ``Segment`` is its domain, an ``Interval``, and its slope
and intercept as reduced integer pairs: the pairs are the only data, and
``slope`` and ``intercept`` are Fraction views, built on each read, as
``Interval``'s ``lo`` and ``hi`` are.

The structure that depends on f alone is computed once per function
object, on first use, and cached in the instance ``__dict__``, outside
the dataclass fields, so equality, hashing and ``repr`` see only the
direction and the segments: the value interval each segment attains,
the breakpoints, the plateau set, the range decomposition and the
jumps.  ``classify`` keeps its record of f's facts (``_facts``: f(0),
f(1), f(1-), f's shape and a0) and two keyed memos in the same dict, and
builds the decomposition only on the routes that read it.  An operation
on f reads the pseudo-inverse only from f's pieces: at a point
(``_first_arg``), along a sweep of ascending values (``_first_args``),
and at its one-sided limits, which are the same scan with the target
closed or open.  So no route builds its closed form.  The breakpoints,
the decomposition's values and the jumps are reduced integer pairs,
which the classifier reads as they are; ``breakpoints()`` builds
Fractions of the pairs, and the decomposition keeps the text of M, C, Q
and f(0+) once built (``Decomposition.text``).  Over every (function,
family) pair of the classify benchmark's corpus, seed 4 (1506
functions), classifying raises the Python heap retained per function
from about 0.75 KB, parsed, to 3.2 KB (tracemalloc, Python 3.11; CI's
"Retained heap" step prints both, and how many functions hold each
cache).

``eval_pair`` scans the pieces in x order, reading each one's upper end,
and then a constant piece's value or a line's slope and intercept, as
integer pairs.  The pieces partition [0,1] in order, each starting where
the one before ends, with the opposite closedness.  So every piece before
the first whose upper end covers x ends below x, or at x but open, and
that first piece starts at or below x: it holds x.  The tests are sign
tests on cross products of numerators and denominators, and the value is
an integer pair; ``eval_fn`` builds it as one Fraction, normalised once.

``limit_pair``, the one-sided twin of ``eval_pair``, scans the same way
for the piece that approaches a: from the left the first piece whose
upper end is >= a, from the right the first whose upper end is > a,
closedness aside.  Every piece before it ends below a from the left, and
at or below a from the right, and it starts where the one before ends.
So from the left it starts below a (a > 0 there, as 0 takes the
convention) and reaches a, and from the right it starts at or below a
and ends past a: it holds an open interval that ends, or starts, at a,
and its formula at a is the limit.  An isolated point {a} is never that
piece: from the left the piece before it, which ends at a, comes first,
and from the right its upper end is not > a.  ``side_limit`` builds the
pair as one Fraction.

Validation (``_validate``, run by the constructor) checks on pairs that
the pieces partition [0,1], and that each piece's values at its two
ends, by ``eval_pair``'s formula, lie in [0,1], go in the function's
direction and do not go back across pieces.  ``pseudo_inverse`` builds
the closed form of the pseudo-inverse in one sweep over the pieces on
pairs, and builds its Segments of pairs; it is validated like any
function but keeps no value intervals.  It is API that no route calls:
the tests hold against it the pointwise definition, a scan of the pieces
on pairs (``_first_arg``, behind ``pseudo_inverse_at`` and
``first_arg_above``), and that scan's sweep (``_first_args``).  The
value intervals, the breakpoints, the range, the plateau set and the
decomposition take one pass each over values that come in order; no
Fraction is sorted or hashed to build them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .intervals import Interval, IntervalSet, ONE, _nonempty, _point, _view, frac, reduced


class DomainError(ValueError):
    pass


class InvalidFunction(ValueError):
    pass


class Segment:
    """A linear (slope != 0) or constant (slope == 0) piece: its domain, and
    its slope sn/sd and intercept cn/cd as reduced pairs, sd, cd > 0.
    Equality, hashing and ``repr`` are those of (domain, slope, intercept)."""

    __slots__ = ("domain", "sn", "sd", "cn", "cd")

    def __init__(self, domain: Interval, slope, intercept):
        s, c = frac(slope), frac(intercept)
        self.domain, self.sn, self.sd, self.cn, self.cd = (
            domain, s.numerator, s.denominator, c.numerator, c.denominator)

    slope, intercept = _view("sn", "sd"), _view("cn", "cd")

    def __eq__(self, o):
        if o.__class__ is not Segment:
            return NotImplemented
        return (self.sn == o.sn and self.sd == o.sd and self.cn == o.cn and self.cd == o.cd
                and self.domain == o.domain)

    def __hash__(self) -> int:
        return hash((self.domain, self.slope, self.intercept))

    def __repr__(self) -> str:
        return (f"Segment(domain={self.domain!r}, slope={self.slope!r}, "
                f"intercept={self.intercept!r})")

    @property
    def is_const(self) -> bool:
        return not self.sn

    @staticmethod
    def const(domain: Interval, value) -> "Segment":
        return Segment(domain, 0, value)

    @staticmethod
    def linear(domain: Interval, slope, intercept) -> "Segment":
        return Segment(domain, slope, intercept)


def _segment(domain: Interval, sn: int, sd: int, cn: int, cd: int) -> Segment:
    """A Segment from its domain and the reduced pairs of its slope and
    intercept, built without the constructor's ``frac``."""
    s = object.__new__(Segment)
    s.domain, s.sn, s.sd, s.cn, s.cd = domain, sn, sd, cn, cd
    return s


@dataclass(frozen=True)
class PiecewiseMonotoneFn:
    """A monotone function on [0,1] given by its segments, which
    ``__post_init__`` sorts into ascending x order and validates.  The sort
    keys are integers: over m, the lcm of the lower ends' denominators, the
    lower end n/d is n * (m // d)."""

    nondecreasing: bool
    segments: tuple = ()

    def __post_init__(self):
        segs = tuple(self.segments)
        m = lcm(*(s.domain.ld for s in segs))
        object.__setattr__(self, "segments", tuple(sorted(
            segs, key=lambda s: (s.domain.ln * (m // s.domain.ld), not s.domain.lo_closed))))
        _validate(self)

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x) -> Fraction:
        return eval_fn(self, x)

    def breakpoints(self) -> list:
        """Domain endpoints of all pieces (candidate discontinuities)."""
        return [Fraction(*k) for k in self._breakpoints]

    @property
    def is_strictly_monotone(self) -> bool:
        return plateau_set(self).is_empty

    # -- structure cached per function object -------------------------------

    @cached_property
    def _values(self) -> tuple:
        """The value interval each segment attains, in segment order: a
        constant's value, or a line's values at its ends, reduced."""
        out = []
        for p in self.segments:
            sn, sd, cn, cd, d = p.sn, p.sd, p.cn, p.cd, p.domain
            if not sn:
                out.append(_nonempty(cn, cd, cn, cd, True, True))
                continue
            lo = reduced(sn * d.ln * cd + cn * sd * d.ld, sd * cd * d.ld)
            hi = reduced(sn * d.hn * cd + cn * sd * d.hd, sd * cd * d.hd)
            out.append(_nonempty(*lo, *hi, d.lo_closed, d.hi_closed) if sn > 0
                       else _nonempty(*hi, *lo, d.hi_closed, d.lo_closed))
        return tuple(out)

    @cached_property
    def _breakpoints(self) -> tuple:
        """The ends of the pieces, ascending, as reduced pairs: 0 and the
        upper end of each piece that is not a point, as the pieces come in
        x order, each starting where the one before ends."""
        return ((0, 1),) + tuple(
            (d.hn, d.hd) for d in (p.domain for p in self.segments) if not d.is_point)

    @cached_property
    def _plateau(self) -> IntervalSet:
        """Values attained at more than one argument.  If f(x1) = f(x2) = v
        with x1 < x2, monotonicity makes f equal v on [x1,x2], and a piece
        covering part of (x1,x2) that is more than a point is a constant
        segment with value v.  So these are the constant values of the
        segments whose domain is not a single point.  They come in f's
        direction, so one pass collects them, keyed by their pairs to drop
        repeats."""
        values = dict.fromkeys((s.cn, s.cd) for s in self.segments
                               if not s.sn and not s.domain.is_point)
        parts = [_point(n, d) for n, d in values]
        return IntervalSet(tuple(parts if self.nondecreasing else parts[::-1]))

    @cached_property
    def _jumps(self) -> tuple:
        """(x0, lo, hi) at every discontinuity, as reduced pairs, using
        actual one-sided limits (the pseudo-inverse boundary conventions
        play no role here): lo is the lesser of f(x0-) and f(x0), hi the
        greater of f(x0+) and f(x0), with f(0-) and f(1+) read as f's
        values there.  The values and limits are integer pairs from
        ``eval_pair`` and ``limit_pair``, compared by cross-multiplication."""
        out = []
        for p, q in self._breakpoints:
            v = eval_pair(self, p, q)
            lo = v if p == 0 else limit_pair(self, p, q, "left")[0]
            hi = v if p == q else limit_pair(self, p, q, "right")[0]
            lo_v = lo[0] * v[1] - v[0] * lo[1]  # the sign of lo - v
            hi_v = hi[0] * v[1] - v[0] * hi[1]  # the sign of hi - v
            if lo_v or hi_v:
                out.append(((p, q), reduced(*(lo if lo_v <= 0 else v)),
                            reduced(*(hi if hi_v >= 0 else v))))
        return tuple(out)

    @cached_property
    def _decomposition(self) -> "Decomposition":
        """``decompose``'s result; defined for non-decreasing f only.  The
        gaps are M's complement in order, so C, their ends in M keyed by
        their pairs, comes out ascending."""
        m = range_of(self)
        q = plateau_set(self)
        f0plus = reduced(*limit_pair(self, 0, 1, "right")[0])
        f1minus = reduced(*limit_pair(self, 1, 1, "left")[0])
        if q.is_empty:
            upsilon = tau = 0, 1
        else:
            top = q.parts[-1]
            upsilon = top.hn, top.hd
            tau = reduced(*_first_arg(self, *upsilon, False))
        # M = [0,1] reads as having the gap [1,1], which keeps 1
        gaps = m.complement().parts or (Interval.point(ONE),)
        s, c = [], []
        for g in gaps:
            # (b, d, c) for the gap [b,d], with c its first end in M
            ends = (g.ln, g.ld), (g.hn, g.hd)
            kept = [k for k in ends if m.contains_pair(*k)]
            if not kept:
                raise InvalidFunction(f"range gap [{g.lo},{g.hi}] keeps neither endpoint")
            s.append((*ends, kept[0]))
            c += kept
        # every b >= 0 = upsilon when Q is empty, so then K1 is every gap
        k1 = tuple(i for i, g in enumerate(gaps) if g.ln * upsilon[1] >= upsilon[0] * g.ld)
        return Decomposition(m, tuple(s), tuple(dict.fromkeys(c)), q, f0plus, f1minus, tau,
                             upsilon, k1)


def _validate(fn: PiecewiseMonotoneFn) -> None:
    if not fn.segments:
        raise InvalidFunction("no pieces")
    # the ends are compared as the reduced pairs that the domains hold
    cur_n, cur_d, cur_closed = 0, 1, True
    for p in fn.segments:
        d = p.domain
        if d.ln != cur_n or d.ld != cur_d or d.lo_closed != cur_closed:
            raise InvalidFunction(f"domain gap or overlap at {Fraction(cur_n, cur_d)} "
                                  f"(next piece starts {d})")
        cur_n, cur_d, cur_closed = d.hn, d.hd, not d.hi_closed
    if cur_n != cur_d or cur_closed:
        raise InvalidFunction(f"domain does not reach 1 (stops at {Fraction(cur_n, cur_d)})")
    # ``bottom`` and ``top`` are the values at the piece's two ends, the
    # lesser first, attained or not, as unreduced pairs; ``prev`` is the
    # previous piece's end value next to this piece: its top for
    # non-decreasing f, its bottom otherwise.  They are not kept, as a
    # pseudo-inverse, which is validated too, never reads them again
    up = fn.nondecreasing
    prev = None
    for p in fn.segments:
        sn, sd, cn, cd, d = p.sn, p.sd, p.cn, p.cd, p.domain
        lo = sn * d.ln * cd + cn * sd * d.ld, sd * cd * d.ld
        hi = sn * d.hn * cd + cn * sd * d.hd, sd * cd * d.hd
        bottom, top = (hi, lo) if sn < 0 else (lo, hi)
        if bottom[0] < 0 or top[0] > top[1]:
            raise InvalidFunction(f"values escape [0,1] on {p.domain}")
        if up and sn < 0:
            raise InvalidFunction("decreasing segment in a non-decreasing function")
        if not up and sn > 0:
            raise InvalidFunction("increasing segment in a non-increasing function")
        if prev is not None:
            if up and bottom[0] * prev[1] < prev[0] * bottom[1]:
                raise InvalidFunction("values not non-decreasing across pieces")
            if not up and top[0] * prev[1] > prev[0] * top[1]:
                raise InvalidFunction("values not non-increasing across pieces")
        prev = top if up else bottom


def eval_fn(f: PiecewiseMonotoneFn, x) -> Fraction:
    """f(x), exactly: ``eval_pair`` built as one Fraction."""
    x = frac(x)
    return Fraction(*eval_pair(f, x.numerator, x.denominator))


def eval_pair(f: PiecewiseMonotoneFn, p: int, q: int) -> tuple:
    """f(p/q) as an integer pair (n, d), d > 0, for q > 0, by the scan of
    the pieces described above: a constant piece's reduced pair, or a
    line's (sn*p*cd + cn*sd*q, sd*cd*q), not reduced.  DomainError unless
    0 <= p <= q."""
    if p < 0 or p > q:
        raise DomainError(f"argument {Fraction(p, q)} outside [0,1]")
    for s in f.segments:
        d = s.domain
        c = p * d.hd - d.hn * q
        if c < 0 or (c == 0 and d.hi_closed):
            if not s.sn:
                return s.cn, s.cd
            return s.sn * p * s.cd + s.cn * s.sd * q, s.sd * s.cd * q
    raise InvalidFunction(f"no piece covers {p}/{q}")  # unreachable for valid fns


def _unit_arg(v) -> Fraction:
    """v as a Fraction; DomainError when it lies outside [0,1]."""
    v = frac(v)
    if v.numerator < 0 or v.numerator > v.denominator:
        raise DomainError(f"argument {v} outside [0,1]")
    return v


def side_limit(f: PiecewiseMonotoneFn, a, side: str) -> Fraction:
    """One-sided limit, with f(0^-)=0, f(1^+)=1 for non-decreasing f and
    the mirrored conventions for non-increasing f: ``limit_pair`` built as
    one Fraction."""
    a = _unit_arg(a)
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    return Fraction(*limit_pair(f, a.numerator, a.denominator, side)[0])


def limit_pair(f: PiecewiseMonotoneFn, p: int, q: int, side: str) -> tuple:
    """(lim f(x) as x -> p/q from `side`, whether f is constant on that
    side of p/q), for q > 0 and `side` "left" or "right": the limit as an
    integer pair by ``eval_pair``'s formula on the piece that approaches
    p/q, found by the scan of the pieces described above.  The ends
    take ``side_limit``'s conventions, as constant.  DomainError unless
    0 <= p <= q."""
    if p < 0 or p > q:
        raise DomainError(f"argument {Fraction(p, q)} outside [0,1]")
    left = side == "left"
    if p == (0 if left else q):
        # f(0^-) and f(1^+): 1 just left of 0 for non-increasing f and just
        # right of 1 for non-decreasing f, else 0
        return ((1, 1) if f.nondecreasing != left else (0, 1)), True
    for s in f.segments:
        c = p * s.domain.hd - s.domain.hn * q
        if c < 0 or (c == 0 and left):
            if not s.sn:
                return (s.cn, s.cd), True
            return (s.sn * p * s.cd + s.cn * s.sd * q, s.sd * s.cd * q), False
    raise InvalidFunction(f"no segment approaches {Fraction(p, q)} from the {side}")


# -- pseudo-inverse ---------------------------------------------------------


def pseudo_inverse_at(f: PiecewiseMonotoneFn, y) -> Fraction:
    """Exact pointwise pseudo-inverse.

    Non-decreasing f: sup{x : f(x) < y}, which equals inf{x : f(x) >= y}
    under the convention sup(empty) = 0; non-increasing f: sup{x : f(x) > y}
    = inf{x : f(x) <= y}.
    """
    y = _unit_arg(y)
    return Fraction(*_first_arg(f, y.numerator, y.denominator, True))


def _first_arg(f, yn: int, yd: int, closed: bool) -> tuple:
    """inf{x : f(x) in target} as an integer pair with a positive
    denominator, inf(empty) = 1, for y = yn/yd, yd > 0, and the target of
    the values of [0,1] beyond y (above y for non-decreasing f, below y
    otherwise), with y itself when `closed`.  Every x after one whose
    value hits the target hits it too, so the first piece whose values
    meet the target holds the infimum: its first x, a reduced pair, for a
    constant piece, and for a line the x where it reaches y, not reduced,
    or its first x when it starts past y.  A piece's value at its upper end
    goes farthest into the target: the end of its value interval
    (``_values``) in f's direction, which the interval's flag there says
    it attains, as a constant piece does and a line closed there."""
    up = f.nondecreasing
    # the piece's index, counted: building a zip of the pieces and their
    # values costs more than the short scan itself
    i = 0
    for v in f._values:
        # the sign of the value at the upper end - y, into the target
        if up:
            c, attained = v.hn * yd - yn * v.hd, v.hi_closed
        else:
            c, attained = yn * v.ld - v.ln * yd, v.lo_closed
        if c > 0 or (c == 0 and closed and attained):
            break
        i += 1
    else:
        return 1, 1
    p = f.segments[i]
    d, sn = p.domain, p.sn
    if not sn:
        return d.ln, d.ld
    cd = p.cd
    xn, xd = (yn * cd - p.cn * yd) * p.sd, yd * cd * sn
    if sn < 0:
        xn, xd = -xn, -xd
    return (xn, xd) if xn * d.ld > d.ln * xd else (d.ln, d.ld)


def _first_args(f, ys, closed: bool) -> list:
    """[_first_arg(f, yn, yd, closed) for (yn, yd) in ys], the same pairs.
    For non-decreasing f it is one forward sweep: the scan for a y starts
    at the piece that met the y before, and at the first piece only when
    y is below it.  Every piece before that one misses the target of the
    y before, so it misses that of a larger or equal y too, and ascending
    ys take one pass.  A line's x is compared with its first x on the
    values, as y against the line's value there, the lower end of its
    value interval, so a y in a range gap below the line gives the first x
    without the line's x being built.  For non-increasing f every scan
    starts at the first piece (``_first_arg``)."""
    if not f.nondecreasing:
        return [_first_arg(f, yn, yd, closed) for yn, yd in ys]
    vals, segs = f._values, f.segments
    n, out = len(vals), []
    i, pn, pd = 0, 0, 1  # the piece that met the y before, and that y
    for yn, yd in ys:
        if i and yn * pd < pn * yd:
            i = 0
        pn, pd = yn, yd
        while i < n:
            v = vals[i]
            c = v.hn * yd - yn * v.hd  # the sign of the value at its upper end - y
            if c > 0 or (c == 0 and closed and v.hi_closed):
                break
            i += 1
        else:
            out.append((1, 1))
            continue
        p = segs[i]
        if p.sn and yn * v.ld > v.ln * yd:
            cd = p.cd
            out.append(((yn * cd - p.cn * yd) * p.sd, yd * (cd * p.sn)))
        else:
            d = p.domain
            out.append((d.ln, d.ld))
    return out


def first_arg_above(f: PiecewiseMonotoneFn, v) -> Fraction:
    """inf{x : f(x) > v} for non-decreasing f; inf(empty) = 1."""
    v = _unit_arg(v)
    return Fraction(*_first_arg(f, v.numerator, v.denominator, False))


def pseudo_inverse(f: PiecewiseMonotoneFn) -> PiecewiseMonotoneFn:
    """Closed-form piecewise representation of the pseudo-inverse on [0,1].

    One sweep over the pieces in x order.  Let u = y for non-decreasing f
    and u = 1 - y for non-increasing f, and call f(x), or 1 - f(x), the
    u-values of the piece holding x.  Then finv(y) is the infimum of the x
    whose u-value reaches u, and the u-values never decrease along the
    pieces.  So the pieces take over u in turn, each from where the
    previous one stopped up to its own top u-value:

    - below the piece's u-values, in a gap of the range, finv is the
      piece's first x;
    - within them it is the inverse line x = (y - c)/s of a strictly
      monotone piece, the same formula for both directions, or the first
      x of a constant piece;
    - the top goes to the piece even when the piece does not attain it:
      then the piece ends where the next one starts, the line ends at
      that x, and the next piece reaches the top there;
    - u beyond every top gives 1.

    Each take-over starts at its piece's first x, so u = 0, where finv is
    0, joins the first one when that piece starts at 0 and is an isolated
    point otherwise.  Neighbours with the same line are merged as they are
    built.

    The sweep compares the u-values, the value intervals' pairs (1 - n/d
    is (d - n)/d), by cross products, and lines by their reduced (slope,
    intercept) pairs, and builds its Segments of those pairs.  The pieces
    come in ascending u, which is descending y for non-increasing f; the
    constructor's sort puts them in x order.
    """
    up = f.nondecreasing
    # [u_top, line]: finv on (previous u_top, u_top], the first from 0,
    # with its line as (slope, intercept) pairs
    out = []

    def take(u, line, at_zero):
        if out:
            last = out[-1]
            if u[0] * last[0][1] <= last[0][0] * u[1]:
                return
            if last[1] == line:
                last[0] = u
                return
        elif not u[0]:
            return
        elif not at_zero:
            # finv is 0 at 0 alone; no line taking over here is 0 there
            out.append([(0, 1), ((0, 1), (0, 1))])
        out.append([u, line])

    for p, vals in zip(f.segments, f._values):
        d = p.domain
        const, at_zero = ((0, 1), (d.ln, d.ld)), not d.ln
        if up:
            bottom, top = (vals.ln, vals.ld), (vals.hn, vals.hd)
        else:
            bottom, top = (vals.hd - vals.hn, vals.hd), (vals.ld - vals.ln, vals.ld)
        if not p.sn:
            take(top, const, at_zero)
        else:
            take(bottom, const, at_zero)
            sn, sd, cn, cd = p.sn, p.sd, p.cn, p.cd
            if sn < 0:
                sn, sd = -sn, -sd
            # x = (y - c)/s: slope sd/sn, intercept -c/s
            take(top, ((sd, sn), reduced(-cn * sd, cd * sn)), at_zero)
    take((1, 1), ((0, 1), (1, 1)), False)

    # the u_top rise strictly, so no domain is empty; y = 1 - u otherwise
    segments = []
    ln, ld, lo_closed = (0, 1, True) if up else (1, 1, True)
    for (un, ud), (slope, intercept) in out:
        yn = un if up else ud - un
        dom = (_nonempty(ln, ld, yn, ud, lo_closed, True) if up
               else _nonempty(yn, ud, ln, ld, True, lo_closed))
        segments.append(_segment(dom, *slope, *intercept))
        ln, ld, lo_closed = yn, ud, False
    return PiecewiseMonotoneFn(up, tuple(segments))


# -- range, plateaus, decomposition ----------------------------------------


def range_of(f: PiecewiseMonotoneFn) -> IntervalSet:
    """The values f attains: f's value intervals, which come in ascending
    order for non-decreasing f and descending otherwise, merged."""
    return IntervalSet.merged(f._values if f.nondecreasing else reversed(f._values))


def plateau_set(f: PiecewiseMonotoneFn) -> IntervalSet:
    """Values attained at more than one argument."""
    return f._plateau


@dataclass(frozen=True)
class Decomposition:
    """Range structure of a non-decreasing function: the gap system with
    kept boundary values, plateau values and the derived thresholds.  Every
    value is a reduced integer pair (n, d), d > 0.  C as a set, M\\C and
    the text of M, C, Q and f(0+) are built on first read and kept, outside
    the dataclass fields."""

    m: IntervalSet
    s: tuple  # ((b_k, d_k, c_k), ...)
    c: tuple  # ascending distinct kept boundary values
    q: IntervalSet
    f0plus: tuple
    f1minus: tuple
    tau: tuple
    upsilon: tuple
    k1: tuple  # indices into s

    @cached_property
    def c_set(self) -> IntervalSet:
        """C as a set of points, which ascend and so need no normalizing."""
        return IntervalSet(tuple(_point(n, d) for n, d in self.c))

    @cached_property
    def m_minus_c(self) -> IntervalSet:
        return self.m.minus(self.c_set)

    @cached_property
    def text(self) -> tuple:
        """The text of M, C, Q and f(0+), as the classifier's conditions log
        and its rendering show them, built once per decomposition."""
        return str(self.m), str(self.c_set), str(self.q), str(Fraction(*self.f0plus))


def decompose(f: PiecewiseMonotoneFn) -> Decomposition:
    """f's range decomposition, built once per function object."""
    if not f.nondecreasing:
        raise InvalidFunction("decomposition is defined for non-decreasing functions")
    return f._decomposition
