"""Exact interval sets on [0,1] with open/closed endpoint flags.

An ``Interval`` is its ends as integer pairs, lo = ln/ld and hi = hn/hd,
reduced over positive denominators, and its two flags: the pairs are the
only data, and ``lo`` and ``hi`` are ``Fraction`` views, built on each
read and never kept.  Every order test here is the sign of a cross
product of those ints, and two ends are equal when their pairs are, so
membership, union, intersection, complement and the order-hull are exact
and build no Fraction.  A set is a normalized tuple of pairwise disjoint,
non-mergeable parts in ascending order, which ``IntervalSet.of`` sorts
by integer keys over the lcm of their denominators.  A degenerate open
interval (a,a) is identified with the empty set.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Union

Rat = Union[Fraction, int, str]

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(v: Rat) -> Fraction:
    """Coerce an int or a 'p/q' string to an exact Fraction, a string by
    ``parse_rational``.  A float or a bool raises TypeError: a float such
    as 0.1 is not the rational it spells, and a bool is not a number."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, (float, bool)):
        raise TypeError(f"expected an int, a Fraction or a 'p/q' string, got {v!r}")
    return parse_rational(v) if isinstance(v, str) else Fraction(v)


# The digits of the longest int that str() prints, by Python's default
# limit on int/str conversion
MAX_DIGITS = 4300
_DIGIT_LIMIT = 10 ** MAX_DIGITS
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def parse_rational(tok: str) -> Fraction:
    """``Fraction(tok)``, with its errors, save that a value whose numerator
    or denominator has more than ``MAX_DIGITS`` digits is a ValueError, as
    no such int can be printed.  An exponent beyond ``MAX_DIGITS`` plus the
    token's length in magnitude, which gives such a value unless the
    mantissa is 0, is refused before ``Fraction`` builds its power of ten:
    1e-10000000 would take seconds."""
    m = _EXPONENT.search(tok)
    if m and abs(int(m.group(1))) > MAX_DIGITS + len(tok):
        raise ValueError(f"exponent {m.group(1)} out of range")
    v = Fraction(tok)
    if abs(v.numerator) >= _DIGIT_LIMIT or v.denominator >= _DIGIT_LIMIT:
        raise ValueError(f"numerator or denominator over {MAX_DIGITS} digits")
    return v


def reduced(n: int, d: int) -> tuple:
    """n/d, for d != 0, as a reduced pair with a positive denominator."""
    g = gcd(n, d)
    return (n // g, d // g) if d > 0 else (-n // g, -d // g)


def sorted_pairs(pairs) -> list:
    """The reduced pairs (n, d), d > 0, of the collection `pairs`, sorted by
    the integer keys n * (m // d) over m, the lcm of their denominators."""
    m = lcm(*(d for _, d in pairs))
    return sorted(pairs, key=lambda u: u[0] * (m // u[1]))


def _midpoint(an: int, ad: int, bn: int, bd: int) -> tuple:
    """The midpoint of an/ad and bn/bd, for ad, bd > 0, as a reduced pair."""
    return reduced(an * bd + bn * ad, 2 * ad * bd)


def _empty(ln: int, ld: int, hn: int, hd: int, lo_closed: bool, hi_closed: bool) -> bool:
    """Whether the interval from ln/ld to hn/hd with these flags is empty:
    lo > hi, or lo = hi with an open end."""
    c = ln * hd - hn * ld
    return c > 0 or (c == 0 and not (lo_closed and hi_closed))


def _view(n: str, d: str) -> property:
    """The read-only Fraction view of the pair held in the slots `n` and
    `d`, built on each read."""
    return property(lambda self: Fraction(getattr(self, n), getattr(self, d)))


class Interval:
    """A non-empty interval with independent endpoint openness.  The
    constructors write its slots and nothing else does.  Equality compares
    the pairs and flags; hashing and ``repr`` read the views, so all three
    are those of the tuple (lo, hi, lo_closed, hi_closed)."""

    __slots__ = ("ln", "ld", "hn", "hd", "lo_closed", "hi_closed")

    def __init__(self, lo: Rat, hi: Rat, lo_closed: bool = True, hi_closed: bool = True):
        lo, hi = frac(lo), frac(hi)
        ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
        if _empty(ln, ld, hn, hd, lo_closed, hi_closed):
            raise ValueError(f"empty interval: {lo}..{hi}")
        self.ln, self.ld, self.hn, self.hd = ln, ld, hn, hd
        self.lo_closed, self.hi_closed = lo_closed, hi_closed

    lo, hi = _view("ln", "ld"), _view("hn", "hd")

    def __eq__(self, o):
        if o.__class__ is not Interval:
            return NotImplemented
        return (self.ln == o.ln and self.ld == o.ld and self.hn == o.hn and self.hd == o.hd
                and self.lo_closed == o.lo_closed and self.hi_closed == o.hi_closed)

    def __hash__(self) -> int:
        return hash((self.lo, self.hi, self.lo_closed, self.hi_closed))

    def __repr__(self) -> str:
        return (f"Interval(lo={self.lo!r}, hi={self.hi!r}, lo_closed={self.lo_closed!r}, "
                f"hi_closed={self.hi_closed!r})")

    @staticmethod
    def make(lo: Rat, hi: Rat, lo_closed: bool = True, hi_closed: bool = True) -> Optional["Interval"]:
        """Like the constructor but returns None for an empty interval."""
        lo, hi = frac(lo), frac(hi)
        return _span(lo.numerator, lo.denominator, hi.numerator, hi.denominator,
                     lo_closed, hi_closed)

    @staticmethod
    def point(v: Rat) -> "Interval":
        v = frac(v)
        return _point(v.numerator, v.denominator)

    @staticmethod
    def closed(lo: Rat, hi: Rat) -> "Interval":
        return Interval(lo, hi, True, True)

    @property
    def is_point(self) -> bool:
        return self.ln == self.hn and self.ld == self.hd

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
        return _span(a.ln, a.ld, b.hn, b.hd, lc, hc)

    def midpoint(self) -> Fraction:
        return Fraction(*_midpoint(self.ln, self.ld, self.hn, self.hd))

    def __str__(self) -> str:
        if self.is_point:
            return f"{{{self.lo}}}"
        lb = "[" if self.lo_closed else "("
        rb = "]" if self.hi_closed else ")"
        return f"{lb}{self.lo},{self.hi}{rb}"


def _nonempty(ln: int, ld: int, hn: int, hd: int, lo_closed: bool, hi_closed: bool) -> Interval:
    """An Interval that the caller knows is not empty, from its ends'
    reduced pairs, built without the constructor's ``frac`` and emptiness
    test."""
    iv = object.__new__(Interval)
    iv.ln, iv.ld, iv.hn, iv.hd = ln, ld, hn, hd
    iv.lo_closed, iv.hi_closed = lo_closed, hi_closed
    return iv


def _point(n: int, d: int) -> Interval:
    """The point {n/d}, for a reduced pair with d > 0."""
    return _nonempty(n, d, n, d, True, True)


def _span(ln: int, ld: int, hn: int, hd: int, lo_closed: bool,
          hi_closed: bool) -> Optional[Interval]:
    """``_nonempty``'s Interval, or None when it would be empty."""
    if _empty(ln, ld, hn, hd, lo_closed, hi_closed):
        return None
    return _nonempty(ln, ld, hn, hd, lo_closed, hi_closed)


UNIT = Interval.closed(0, 1)


@dataclass(frozen=True, slots=True)
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
                        merged[-1] = _nonempty(q.ln, q.ld, p.hn, p.hd, q.lo_closed, p.hi_closed)
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
    def unit() -> "IntervalSet":
        return IntervalSet((UNIT,))

    @property
    def is_empty(self) -> bool:
        return not self.parts

    @property
    def is_single_point(self) -> bool:
        return len(self.parts) == 1 and self.parts[0].is_point

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
        cn, cd, cur_closed = 0, 1, True
        for p in self.parts:
            out.append(_span(cn, cd, p.ln, p.ld, cur_closed, not p.lo_closed))
            cn, cd, cur_closed = p.hn, p.hd, not p.hi_closed
        out.append(_span(cn, cd, 1, 1, cur_closed, True))
        return IntervalSet(tuple(p for p in out if p is not None))

    def minus(self, other: "IntervalSet") -> "IntervalSet":
        return self.intersect(other.complement())

    def is_subset_of(self, other: "IntervalSet"):
        """Return (True, None) or (False, witness) with a deterministic
        witness in self but not in other, as a reduced pair: the member of
        the difference that ``first_member`` picks, from its pairs."""
        diff = self.minus(other)
        if diff.is_empty:
            return True, None
        p = diff.parts[0]
        return False, ((p.ln, p.ld) if p.lo_closed else _midpoint(p.ln, p.ld, p.hn, p.hd))

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
        return IntervalSet.single(_span(a.ln, a.ld, b.hn, b.hd, False, False))

    def has_multiple_points(self) -> bool:
        return len(self.parts) > 1 or (len(self.parts) == 1 and not self.parts[0].is_point)

    def __str__(self) -> str:
        if not self.parts:
            return "∅"
        return "∪".join(str(p) for p in self.parts)
