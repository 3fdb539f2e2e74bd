"""Exact interval sets on [0,1] with open/closed endpoint flags.

Endpoints are `fractions.Fraction`, so membership, union, intersection,
complement and the order-hull are all exact.  A set is a normalized tuple
of pairwise disjoint, non-mergeable parts in ascending order.  A degenerate
open interval (a,a) is identified with the empty set.

Each ``Interval`` also holds its ends as integer pairs, lo = ln/ld and
hi = hn/hd: the Fractions' own reduced numerators and positive
denominators, kept in slots that equality, hashing and ``repr`` leave out.
Every order test here is the sign of a cross product of those ints, and
two ends are equal when their pairs are, so the algebra compares no
Fraction.  ``contains_pair`` asks membership of a point p/q held as a
pair, and ``IntervalSet.of`` sorts its parts by integer keys over the lcm
of their denominators; ``IntervalSet.merged`` takes parts already in that
order, such as a monotone function's value intervals.  ``sorted_pairs``
sorts points held as reduced pairs (``reduced``) the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Union

Rat = Union[Fraction, int, str]

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(v: Rat) -> Fraction:
    """Coerce an int or a 'p/q' string to an exact Fraction.  A float or a
    bool raises TypeError: a float such as 0.1 is not the rational it
    spells, and a bool is not a number."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, (float, bool)):
        raise TypeError(f"expected an int, a Fraction or a 'p/q' string, got {v!r}")
    return Fraction(v)


def reduced(n: int, d: int) -> tuple:
    """n/d, for d != 0, as a reduced pair with a positive denominator."""
    g = gcd(n, d)
    return (n // g, d // g) if d > 0 else (-n // g, -d // g)


def sorted_pairs(pairs) -> list:
    """The reduced pairs (n, d), d > 0, of the collection `pairs`, sorted by
    the integer keys n * (m // d) over m, the lcm of their denominators."""
    m = lcm(*(d for _, d in pairs))
    return sorted(pairs, key=lambda u: u[0] * (m // u[1]))


def _empty(ln: int, ld: int, hn: int, hd: int, lo_closed: bool, hi_closed: bool) -> bool:
    """Whether the interval from ln/ld to hn/hd with these flags is empty:
    lo > hi, or lo = hi with an open end."""
    c = ln * hd - hn * ld
    return c > 0 or (c == 0 and not (lo_closed and hi_closed))


@dataclass(frozen=True, slots=True)
class Interval:
    """A non-empty interval with independent endpoint openness."""

    lo: Fraction
    hi: Fraction
    lo_closed: bool = True
    hi_closed: bool = True
    # lo = ln/ld and hi = hn/hd as reduced pairs, ld, hd > 0
    ln: int = field(init=False, repr=False, compare=False)
    ld: int = field(init=False, repr=False, compare=False)
    hn: int = field(init=False, repr=False, compare=False)
    hd: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lo, hi = self.lo, self.hi
        ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
        if _empty(ln, ld, hn, hd, self.lo_closed, self.hi_closed):
            raise ValueError(f"empty interval: {self.lo}..{self.hi}")
        _set_ln(self, ln)
        _set_ld(self, ld)
        _set_hn(self, hn)
        _set_hd(self, hd)

    @staticmethod
    def make(lo: Rat, hi: Rat, lo_closed: bool = True, hi_closed: bool = True) -> Optional["Interval"]:
        """Like the constructor but returns None for an empty interval."""
        lo, hi = frac(lo), frac(hi)
        return _span(lo, hi, lo_closed, hi_closed,
                     lo.numerator, lo.denominator, hi.numerator, hi.denominator)

    @staticmethod
    def point(v: Rat) -> "Interval":
        v = frac(v)
        n, d = v.numerator, v.denominator
        return _nonempty(v, v, True, True, n, d, n, d)

    @staticmethod
    def closed(lo: Rat, hi: Rat) -> "Interval":
        return Interval(frac(lo), frac(hi), True, True)

    @property
    def is_point(self) -> bool:
        return self.ln == self.hn and self.ld == self.hd

    def contains(self, x: Fraction) -> bool:
        return self.contains_pair(x.numerator, x.denominator)

    def contains_pair(self, p: int, q: int) -> bool:
        """Whether p/q lies in the interval, for q > 0."""
        c = p * self.ld - self.ln * q  # the sign of x - lo
        if c < 0 or (c == 0 and not self.lo_closed):
            return False
        c = p * self.hd - self.hn * q  # the sign of x - hi
        return c < 0 or (c == 0 and self.hi_closed)

    def intersect(self, o: "Interval") -> Optional["Interval"]:
        c = self.ln * o.ld - o.ln * self.ld  # the sign of self.lo - o.lo
        a = self if c >= 0 else o
        lc = a.lo_closed if c else self.lo_closed and o.lo_closed
        c = self.hn * o.hd - o.hn * self.hd  # the sign of self.hi - o.hi
        b = self if c <= 0 else o
        hc = b.hi_closed if c else self.hi_closed and o.hi_closed
        return _span(a.lo, b.hi, lc, hc, a.ln, a.ld, b.hn, b.hd)

    def midpoint(self) -> Fraction:
        return Fraction(self.ln * self.hd + self.hn * self.ld, 2 * self.ld * self.hd)

    def __str__(self) -> str:
        if self.is_point:
            return f"{{{self.lo}}}"
        lb = "[" if self.lo_closed else "("
        rb = "]" if self.hi_closed else ")"
        return f"{lb}{self.lo},{self.hi}{rb}"


_set_lo, _set_hi, _set_lo_closed, _set_hi_closed, _set_ln, _set_ld, _set_hn, _set_hd = (
    getattr(Interval, name).__set__
    for name in ("lo", "hi", "lo_closed", "hi_closed", "ln", "ld", "hn", "hd"))


def _nonempty(lo: Fraction, hi: Fraction, lo_closed: bool, hi_closed: bool,
              ln: int, ld: int, hn: int, hd: int) -> Interval:
    """An Interval that the caller knows is not empty, from its ends and
    their pairs, built without ``__post_init__``, which would test
    emptiness again: the slots are set through their descriptors, which a
    frozen class leaves writable."""
    iv = object.__new__(Interval)
    _set_lo(iv, lo)
    _set_hi(iv, hi)
    _set_lo_closed(iv, lo_closed)
    _set_hi_closed(iv, hi_closed)
    _set_ln(iv, ln)
    _set_ld(iv, ld)
    _set_hn(iv, hn)
    _set_hd(iv, hd)
    return iv


def _span(lo: Fraction, hi: Fraction, lo_closed: bool, hi_closed: bool,
          ln: int, ld: int, hn: int, hd: int) -> Optional[Interval]:
    """``_nonempty``'s Interval, or None when it would be empty."""
    if _empty(ln, ld, hn, hd, lo_closed, hi_closed):
        return None
    return _nonempty(lo, hi, lo_closed, hi_closed, ln, ld, hn, hd)


UNIT = Interval.closed(0, 1)


@dataclass(frozen=True)
class IntervalSet:
    """A normalized finite union of disjoint intervals."""

    parts: tuple = ()

    @staticmethod
    def of(parts: Iterable[Optional[Interval]]) -> "IntervalSet":
        items = [p for p in parts if p is not None]
        if len(items) > 1:
            # over m, the lcm of the denominators, the end n/d is n * (m // d)
            m = lcm(*(p.ld for p in items), *(p.hd for p in items))
            items.sort(key=lambda p: (p.ln * (m // p.ld), not p.lo_closed,
                                      p.hn * (m // p.hd), not p.hi_closed))
        return IntervalSet.merged(items)

    @staticmethod
    def merged(items: Iterable[Interval]) -> "IntervalSet":
        """The set of the Intervals `items`, which come in ``of``'s order:
        ``of`` without the sort."""
        merged: list[Interval] = []
        for p in items:
            if merged:
                q = merged[-1]
                c = p.ln * q.hd - q.hn * p.ld  # the sign of p.lo - q.hi
                if c < 0 or (c == 0 and (q.hi_closed or p.lo_closed)):
                    # p meets or touches q, and starts no lower: q grows to
                    # p's upper end when that lies beyond its own, or equals
                    # it closed where q's is open
                    c = p.hn * q.hd - q.hn * p.hd  # the sign of p.hi - q.hi
                    if c > 0 or (c == 0 and p.hi_closed and not q.hi_closed):
                        merged[-1] = _nonempty(q.lo, p.hi, q.lo_closed, p.hi_closed,
                                               q.ln, q.ld, p.hn, p.hd)
                    continue
            merged.append(p)
        return IntervalSet(tuple(merged))

    @staticmethod
    def empty() -> "IntervalSet":
        return IntervalSet(())

    @staticmethod
    def single(iv: Optional[Interval]) -> "IntervalSet":
        return IntervalSet(()) if iv is None else IntervalSet((iv,))

    @staticmethod
    def points(values: Iterable[Rat]) -> "IntervalSet":
        return IntervalSet.of(Interval.point(v) for v in values)

    @staticmethod
    def unit() -> "IntervalSet":
        return IntervalSet((UNIT,))

    @property
    def is_empty(self) -> bool:
        return not self.parts

    @property
    def is_single_point(self) -> bool:
        return len(self.parts) == 1 and self.parts[0].is_point

    def contains(self, x: Rat) -> bool:
        x = frac(x)
        return self.contains_pair(x.numerator, x.denominator)

    def contains_pair(self, p: int, q: int) -> bool:
        """Whether p/q lies in the set, for q > 0."""
        for part in self.parts:
            if part.contains_pair(p, q):
                return True
        return False

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet.of(self.parts + other.parts)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        out = []
        for a in self.parts:
            for b in other.parts:
                out.append(a.intersect(b))
        return IntervalSet.of(out)

    def complement(self) -> "IntervalSet":
        """Complement within [0,1]; parts are assumed to lie in [0,1].  The
        gaps between normalized parts come out in order and never touch
        closed, as a part lies between any two, so they need no
        normalizing."""
        out = []
        cur, cn, cd, cur_closed = ZERO, 0, 1, True
        for p in self.parts:
            out.append(_span(cur, p.lo, cur_closed, not p.lo_closed, cn, cd, p.ln, p.ld))
            cur, cn, cd, cur_closed = p.hi, p.hn, p.hd, not p.hi_closed
        out.append(_span(cur, ONE, cur_closed, True, cn, cd, 1, 1))
        return IntervalSet(tuple(p for p in out if p is not None))

    def minus(self, other: "IntervalSet") -> "IntervalSet":
        return self.intersect(other.complement())

    def is_subset_of(self, other: "IntervalSet"):
        """Return (True, None) or (False, witness) with a deterministic
        rational witness in self but not in other: the least violating
        endpoint when it is attained, otherwise the part midpoint."""
        diff = self.minus(other)
        if diff.is_empty:
            return True, None
        return False, diff.first_member()

    def first_member(self) -> Fraction:
        """A deterministic member of a non-empty set: the lower end of the
        first part when it is closed, else that part's midpoint."""
        p = self.parts[0]
        return p.lo if p.lo_closed else p.midpoint()

    def o_hull(self) -> "IntervalSet":
        """Union of open intervals (min{x,y}, max{x,y}) over point pairs:
        the open interval (inf, sup), or the empty set for fewer than two
        points (the convention (x,x) = empty applies)."""
        if self.is_empty or self.is_single_point:
            return IntervalSet(())
        a, b = self.parts[0], self.parts[-1]
        return IntervalSet.single(_span(a.lo, b.hi, False, False, a.ln, a.ld, b.hn, b.hd))

    def has_multiple_points(self) -> bool:
        return len(self.parts) > 1 or (len(self.parts) == 1 and not self.parts[0].is_point)

    def __str__(self) -> str:
        if not self.parts:
            return "∅"
        return "∪".join(str(p) for p in self.parts)
