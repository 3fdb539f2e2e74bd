"""Exact piecewise monotone functions on [0,1].

A function is a finite sequence of rational-linear or constant segments
whose domains exactly partition [0,1]; an isolated value f(x) = v is the
constant segment on {x}.  All evaluation, one-sided limits,
pseudo-inversion, range and plateau computations are exact over the
rationals.

The structure that depends on f alone is computed once per function
object, on first use, and cached on it: the value interval each segment
attains, the breakpoints, the plateau set, the range decomposition, the
pseudo-inverse that ``make_op`` hands every operation on f, the jumps,
and the argument pairs of the plateau values that ``classify`` asks for.
The caches live in the instance ``__dict__``, outside the dataclass
fields, so equality, hashing and ``repr`` see only the direction and the
segments.  The pseudo-inverse is validated like any function but keeps no
value intervals, so it holds its segments and ``_kernel`` alone.  Over
every (function, family) pair of the classify benchmark's corpus, seed 4,
these caches raise the Python heap retained per function from about 3.5
to 5.5 KB (tracemalloc), and the benchmark's peak RSS by about 8%.

``eval_pair`` runs on one more cache, the integer table ``_kernel``: per
piece in x order, its upper end as numerator, denominator and closedness,
then a constant piece's value as a reduced (numerator, denominator) pair,
or a line's slope and intercept as four integers.  The pieces partition
[0,1] in order, each starting where the one before ends, with the
opposite closedness.  So every piece before the first whose upper end
covers x ends below x, or at x but open, and that first piece starts at
or below x: it holds x.  The tests are sign tests on cross products of
numerators and denominators, and the value is an integer pair; ``eval_fn``
builds it as one Fraction, normalised once.

``pseudo_inverse`` builds the closed form of the pseudo-inverse in one
sweep over the segments and their cached value intervals; ``pseudo_inverse_at``
is the pointwise definition that the tests hold it against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .intervals import Interval, IntervalSet, ZERO, ONE, frac


class DomainError(ValueError):
    pass


class InvalidFunction(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class Segment:
    """A linear (slope != 0) or constant (slope == 0) piece."""

    domain: Interval
    slope: Fraction
    intercept: Fraction

    @property
    def is_const(self) -> bool:
        return self.slope == 0

    def value_at(self, x: Fraction) -> Fraction:
        return self.slope * x + self.intercept

    @staticmethod
    def const(domain: Interval, value) -> "Segment":
        return Segment(domain, ZERO, frac(value))

    @staticmethod
    def linear(domain: Interval, slope, intercept) -> "Segment":
        return Segment(domain, frac(slope), frac(intercept))

    def attained_values(self) -> Interval:
        """The set of values taken on the domain, with exact openness."""
        d = self.domain
        if self.is_const:
            return Interval.point(self.intercept)
        v_lo, v_hi = self.value_at(d.lo), self.value_at(d.hi)
        if self.slope > 0:
            return Interval(v_lo, v_hi, d.lo_closed, d.hi_closed)
        return Interval(v_hi, v_lo, d.hi_closed, d.lo_closed)


@dataclass(frozen=True)
class PiecewiseMonotoneFn:
    """A monotone function on [0,1] given by its segments, which
    ``__post_init__`` sorts into ascending x order and validates."""

    nondecreasing: bool
    segments: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(sorted(
            self.segments, key=lambda s: (s.domain.lo, not s.domain.lo_closed))))
        _validate(self)

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x) -> Fraction:
        return eval_fn(self, x)

    def breakpoints(self) -> list:
        """Domain endpoints of all pieces (candidate discontinuities)."""
        return list(self._breakpoints)

    @property
    def is_strictly_monotone(self) -> bool:
        return plateau_set(self).is_empty

    # -- structure cached per function object -------------------------------

    @cached_property
    def _values(self) -> tuple:
        """The value interval each segment attains, in segment order."""
        return tuple(p.attained_values() for p in self.segments)

    @cached_property
    def _kernel(self) -> tuple:
        """``eval_pair``'s table, one entry per piece in x order: the upper
        end as (hn, hd, closed) with hi = hn/hd, then the intercept cn/cd
        as (cn, cd), which is a constant piece's value, and the line: None
        for a constant piece, else (sn, sd, cn, cd) for slope sn/sd."""
        out = []
        for p in self.segments:
            d, s, c = p.domain, p.slope, p.intercept
            cn, cd = c.numerator, c.denominator
            line = None if p.is_const else (s.numerator, s.denominator, cn, cd)
            out.append((d.hi.numerator, d.hi.denominator, d.hi_closed, (cn, cd), line))
        return tuple(out)

    @cached_property
    def _breakpoints(self) -> tuple:
        return tuple(sorted({e for p in self.segments for e in (p.domain.lo, p.domain.hi)}))

    @cached_property
    def _plateau(self) -> IntervalSet:
        """Values attained at more than one argument.  If f(x1) = f(x2) = v
        with x1 < x2, monotonicity makes f equal v on [x1,x2], and a piece
        covering part of (x1,x2) that is more than a point is a constant
        segment with value v.  So these are the constant values of the
        segments whose domain is not a single point."""
        return IntervalSet.points(s.intercept for s in self.segments
                                  if s.is_const and not s.domain.is_point)

    @cached_property
    def _pseudo_inverse(self) -> "PiecewiseMonotoneFn":
        """``pseudo_inverse``'s result, which ``make_op`` hands every
        operation on this function."""
        return pseudo_inverse(self)

    @cached_property
    def _jumps(self) -> tuple:
        """(x0, lo, hi) at every discontinuity, using actual one-sided
        limits (the pseudo-inverse boundary conventions play no role
        here)."""
        out = []
        for x0 in self._breakpoints:
            v = eval_fn(self, x0)
            lo = v if x0 == 0 else side_limit(self, x0, "left")
            hi = v if x0 == 1 else side_limit(self, x0, "right")
            if lo != hi or lo != v:
                out.append((x0, min(lo, v), max(hi, v)))
        return tuple(out)

    @cached_property
    def _plateau_pairs(self) -> dict:
        """``classify._plateau_pair``'s result per plateau value, filled as
        it is asked; only a function with a plateau is asked, so only such
        a function gets the dict."""
        return {}

    @cached_property
    def _decomposition(self) -> "Decomposition":
        """``decompose``'s result; defined for non-decreasing f only."""
        m = range_of(self)
        q = plateau_set(self)
        f0plus = side_limit(self, 0, "right")
        f1minus = side_limit(self, 1, "left")
        if q.is_empty:
            upsilon = tau = ZERO
        else:
            upsilon = q.sup
            tau = first_arg_above(self, upsilon)
        if m == IntervalSet.unit():
            s, c = ((ONE, ONE, ONE),), (ONE,)
        else:
            # each gap [b,d] of the range gives one (b, d, c) with c its
            # first kept endpoint; C holds every kept endpoint
            gaps = m.complement().parts
            kept = [[v for v in (g.lo, g.hi) if m.contains(v)] for g in gaps]
            for g, cs in zip(gaps, kept):
                if not cs:
                    raise InvalidFunction(f"range gap [{g.lo},{g.hi}] keeps neither endpoint")
            s = tuple((g.lo, g.hi, cs[0]) for g, cs in zip(gaps, kept))
            c = tuple(sorted({cv for cs in kept for cv in cs}))
        # every b >= 0 = upsilon when Q is empty, so then K1 is every gap
        k1 = tuple(i for i, (b, _, _) in enumerate(s) if b >= upsilon)
        return Decomposition(m, s, c, q, f0plus, f1minus, tau, upsilon, k1)


def _validate(fn: PiecewiseMonotoneFn) -> None:
    if not fn.segments:
        raise InvalidFunction("no pieces")
    cur, cur_closed = ZERO, True
    for p in fn.segments:
        d = p.domain
        if d.lo != cur or d.lo_closed != cur_closed:
            raise InvalidFunction(f"domain gap or overlap at {cur} (next piece starts {d})")
        cur, cur_closed = d.hi, not d.hi_closed
    if cur != ONE or cur_closed:
        raise InvalidFunction(f"domain does not reach 1 (stops at {cur})")
    # each piece's values are computed here and not kept: a pseudo-inverse,
    # which is validated like any function, never reads them again
    prev_vals: Optional[Interval] = None
    for p in fn.segments:
        vals = p.attained_values()
        if vals.lo < 0 or vals.hi > 1:
            raise InvalidFunction(f"values escape [0,1] on {p.domain}")
        if fn.nondecreasing and p.slope < 0:
            raise InvalidFunction("decreasing segment in a non-decreasing function")
        if not fn.nondecreasing and p.slope > 0:
            raise InvalidFunction("increasing segment in a non-increasing function")
        if prev_vals is not None:
            if fn.nondecreasing and vals.lo < prev_vals.hi:
                raise InvalidFunction("values not non-decreasing across pieces")
            if not fn.nondecreasing and vals.hi > prev_vals.lo:
                raise InvalidFunction("values not non-increasing across pieces")
        prev_vals = vals


def eval_fn(f: PiecewiseMonotoneFn, x) -> Fraction:
    """f(x), exactly: ``eval_pair`` built as one Fraction."""
    x = frac(x)
    return Fraction(*eval_pair(f, x.numerator, x.denominator))


def eval_pair(f: PiecewiseMonotoneFn, p: int, q: int) -> tuple:
    """f(p/q) as an integer pair (n, d), d > 0, for q > 0, by the scan of
    ``f._kernel`` described above: a constant piece's reduced pair, or a
    line's (sn*p*cd + cn*sd*q, sd*cd*q), not reduced.  DomainError unless
    0 <= p <= q."""
    if p < 0 or p > q:
        raise DomainError(f"argument {Fraction(p, q)} outside [0,1]")
    for hn, hd, closed, value, line in f._kernel:
        c = p * hd - hn * q
        if c < 0 or (c == 0 and closed):
            if line is None:
                return value
            sn, sd, cn, cd = line
            return sn * p * cd + cn * sd * q, sd * cd * q
    raise InvalidFunction(f"no piece covers {p}/{q}")  # unreachable for valid fns


def _unit_arg(v) -> Fraction:
    """v as a Fraction; DomainError when it lies outside [0,1]."""
    v = frac(v)
    if v < 0 or v > 1:
        raise DomainError(f"argument {v} outside [0,1]")
    return v


def side_limit(f: PiecewiseMonotoneFn, a, side: str) -> Fraction:
    """One-sided limit, with f(0^-)=0, f(1^+)=1 for non-decreasing f and
    the mirrored conventions for non-increasing f."""
    a = _unit_arg(a)
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if side == "left" and a == 0:
        return ZERO if f.nondecreasing else ONE
    if side == "right" and a == 1:
        return ONE if f.nondecreasing else ZERO
    s = approach_segment(f, a, side)
    if s is None:
        raise InvalidFunction(f"no segment approaches {a} from the {side}")
    return s.value_at(a)


def approach_segment(f: PiecewiseMonotoneFn, a: Fraction, side: str) -> Optional[Segment]:
    """The segment whose domain reaches a from `side`: it contains points
    arbitrarily close to a on that side.  None when no segment does, which
    for a valid f happens only at 0 from the left and 1 from the right."""
    for s in f.segments:
        d = s.domain
        if (d.lo < a <= d.hi) if side == "left" else (d.lo <= a < d.hi):
            return s
    return None


# -- pseudo-inverse ---------------------------------------------------------


def pseudo_inverse_at(f: PiecewiseMonotoneFn, y) -> Fraction:
    """Exact pointwise pseudo-inverse.

    Non-decreasing f: sup{x : f(x) < y}, which equals inf{x : f(x) >= y}
    under the convention sup(empty) = 0; non-increasing f: sup{x : f(x) > y}
    = inf{x : f(x) <= y}.
    """
    y = _unit_arg(y)
    return _first_arg(f, Interval(y, ONE) if f.nondecreasing else Interval(ZERO, y))


def _first_arg(f, target: Interval) -> Fraction:
    """inf{x : f(x) in target}, inf(empty) = 1, for a target that holds
    every value of [0,1] beyond its near end y: above y for non-decreasing
    f, below y for non-increasing f.  Then every x after one whose value
    hits the target hits it too, so the first piece whose values meet the
    target holds the infimum: its first x for a constant piece, and for a
    line the x where it reaches y, or its first x when it starts past y."""
    y = target.lo if f.nondecreasing else target.hi
    for p, vals in zip(f.segments, f._values):
        if vals.intersect(target) is not None:
            if p.is_const:
                return p.domain.lo
            return max(p.domain.lo, (y - p.intercept) / p.slope)
    return ONE


def first_arg_above(f: PiecewiseMonotoneFn, v) -> Fraction:
    """inf{x : f(x) > v} for non-decreasing f; inf(empty) = 1."""
    above = Interval.make(_unit_arg(v), ONE, False, True)
    return ONE if above is None else _first_arg(f, above)


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
    """
    up = f.nondecreasing
    out = []  # [u_top, slope, intercept]: finv on (previous u_top, u_top], the first from 0

    def take(top, slope, intercept, first):
        if top <= (out[-1][0] if out else ZERO):
            return
        if not out and first != 0:
            out.append([ZERO, ZERO, ZERO])
        if out and out[-1][1:] == [slope, intercept]:
            out[-1][0] = top
        else:
            out.append([top, slope, intercept])

    for p, vals in zip(f.segments, f._values):
        first = p.domain.lo
        bottom, top = (vals.lo, vals.hi) if up else (1 - vals.hi, 1 - vals.lo)
        if p.is_const:
            take(top, ZERO, first, first)
        else:
            take(bottom, ZERO, first, first)
            take(top, 1 / p.slope, -p.intercept / p.slope, first)
    take(ONE, ZERO, ONE, ONE)

    segments = []
    lo, lo_closed = ZERO, True
    for top, slope, intercept in out:
        dom = (Interval(lo, top, lo_closed, True) if up
               else Interval(1 - top, 1 - lo, True, lo_closed))
        segments.append(Segment(dom, slope, intercept))
        lo, lo_closed = top, False
    return PiecewiseMonotoneFn(up, tuple(segments))


# -- range, plateaus, decomposition ----------------------------------------


def range_of(f: PiecewiseMonotoneFn) -> IntervalSet:
    return IntervalSet.of(f._values)


def plateau_set(f: PiecewiseMonotoneFn) -> IntervalSet:
    """Values attained at more than one argument."""
    return f._plateau


@dataclass(frozen=True)
class Decomposition:
    """Range structure of a non-decreasing function: the gap system with
    kept boundary values, plateau values and the derived thresholds."""

    m: IntervalSet
    s: tuple  # ((b_k, d_k, c_k), ...)
    c: tuple  # sorted distinct kept boundary values
    q: IntervalSet
    f0plus: Fraction
    f1minus: Fraction
    tau: Fraction
    upsilon: Fraction
    k1: tuple  # indices into s

    @cached_property
    def c_set(self) -> IntervalSet:
        return IntervalSet.points(self.c)

    @cached_property
    def m_minus_c(self) -> IntervalSet:
        return self.m.minus(self.c_set)

    def reconstruct(self) -> IntervalSet:
        gaps = IntervalSet.of(Interval.closed(b, d) for b, d, _ in self.s)
        return self.c_set.union(gaps.complement())


def decompose(f: PiecewiseMonotoneFn) -> Decomposition:
    """f's range decomposition, built once per function object."""
    if not f.nondecreasing:
        raise InvalidFunction("decomposition is defined for non-decreasing functions")
    return f._decomposition
