"""Exact interval sets on [0,1] with open/closed endpoint flags.

Endpoints are `fractions.Fraction`, so membership, union, intersection,
complement and the order-hull are all exact.  A set is a normalized tuple
of pairwise disjoint, non-mergeable parts in ascending order.  A degenerate
open interval (a,a) is identified with the empty set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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


@dataclass(frozen=True, slots=True)
class Interval:
    """A non-empty interval with independent endpoint openness."""

    lo: Fraction
    hi: Fraction
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self):
        if self.lo > self.hi or (
            self.lo == self.hi and not (self.lo_closed and self.hi_closed)
        ):
            raise ValueError(f"empty interval: {self.lo}..{self.hi}")

    @staticmethod
    def make(lo: Rat, hi: Rat, lo_closed: bool = True, hi_closed: bool = True) -> Optional["Interval"]:
        """Like the constructor but returns None for an empty interval."""
        lo, hi = frac(lo), frac(hi)
        if lo > hi:
            return None
        if lo == hi and not (lo_closed and hi_closed):
            return None
        return Interval(lo, hi, lo_closed, hi_closed)

    @staticmethod
    def point(v: Rat) -> "Interval":
        v = frac(v)
        return Interval(v, v, True, True)

    @staticmethod
    def closed(lo: Rat, hi: Rat) -> "Interval":
        return Interval(frac(lo), frac(hi), True, True)

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, x: Fraction) -> bool:
        if x < self.lo or x > self.hi:
            return False
        if x == self.lo and not self.lo_closed:
            return False
        if x == self.hi and not self.hi_closed:
            return False
        return True

    def intersect(self, o: "Interval") -> Optional["Interval"]:
        if self.lo > o.lo:
            lo, lc = self.lo, self.lo_closed
        elif o.lo > self.lo:
            lo, lc = o.lo, o.lo_closed
        else:
            lo, lc = self.lo, self.lo_closed and o.lo_closed
        if self.hi < o.hi:
            hi, hc = self.hi, self.hi_closed
        elif o.hi < self.hi:
            hi, hc = o.hi, o.hi_closed
        else:
            hi, hc = self.hi, self.hi_closed and o.hi_closed
        return Interval.make(lo, hi, lc, hc)

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __str__(self) -> str:
        if self.is_point:
            return f"{{{self.lo}}}"
        lb = "[" if self.lo_closed else "("
        rb = "]" if self.hi_closed else ")"
        return f"{lb}{self.lo},{self.hi}{rb}"


UNIT = Interval.closed(0, 1)


@dataclass(frozen=True)
class IntervalSet:
    """A normalized finite union of disjoint intervals."""

    parts: tuple = ()

    @staticmethod
    def of(parts: Iterable[Optional[Interval]]) -> "IntervalSet":
        items = [p for p in parts if p is not None]
        items.sort(key=lambda p: (p.lo, p.lo_closed is False, p.hi, p.hi_closed is False))
        merged: list[Interval] = []
        for p in items:
            if merged:
                q = merged[-1]
                touching = p.lo == q.hi and (q.hi_closed or p.lo_closed)
                if p.lo < q.hi or touching:
                    if p.hi > q.hi:
                        hi, hc = p.hi, p.hi_closed
                    elif p.hi == q.hi:
                        hi, hc = q.hi, q.hi_closed or p.hi_closed
                    else:
                        hi, hc = q.hi, q.hi_closed
                    merged[-1] = Interval(q.lo, hi, q.lo_closed, hc)
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
        return any(p.contains(x) for p in self.parts)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet.of(self.parts + other.parts)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        out = []
        for a in self.parts:
            for b in other.parts:
                out.append(a.intersect(b))
        return IntervalSet.of(out)

    def complement(self) -> "IntervalSet":
        """Complement within [0,1]; parts are assumed to lie in [0,1]."""
        out = []
        cur, cur_closed = ZERO, True
        for p in self.parts:
            out.append(Interval.make(cur, p.lo, cur_closed, not p.lo_closed))
            cur, cur_closed = p.hi, not p.hi_closed
        out.append(Interval.make(cur, ONE, cur_closed, True))
        return IntervalSet.of(out)

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
        return IntervalSet.single(
            Interval.make(self.parts[0].lo, self.parts[-1].hi, False, False)
        )

    @property
    def sup(self) -> Fraction:
        return self.parts[-1].hi

    def has_multiple_points(self) -> bool:
        return len(self.parts) > 1 or (len(self.parts) == 1 and not self.parts[0].is_point)

    def sample_points(self) -> list:
        """Deterministic attained sample: closed endpoints and midpoints."""
        out = []
        for p in self.parts:
            if p.lo_closed:
                out.append(p.lo)
            if p.is_point:
                continue
            out.append(p.midpoint())
            if p.hi_closed:
                out.append(p.hi)
        return sorted(set(out))

    def __str__(self) -> str:
        if not self.parts:
            return "∅"
        return "∪".join(str(p) for p in self.parts)

