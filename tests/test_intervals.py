"""Interval set algebra: normalization, set operations, hulls."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fraction_contains, pair, small_fractions, wide_fractions
from subnormforge import eval_fn, parse_fn, parse_tnorm, t_eval
from subnormforge.intervals import Interval, IntervalSet, frac

F = Fraction

fractions_01 = st.fractions(min_value=0, max_value=1, max_denominator=32)


@st.composite
def intervals(draw):
    a = draw(fractions_01)
    b = draw(fractions_01)
    lo, hi = min(a, b), max(a, b)
    iv = Interval.make(lo, hi, draw(st.booleans()), draw(st.booleans()))
    if iv is None:  # degenerate open/half-open point collapses to nothing
        return Interval.point(lo)
    return iv


@st.composite
def interval_sets(draw):
    return IntervalSet.of(draw(st.lists(intervals(), max_size=5)))


def test_frac_rejects_floats_and_bools():
    assert frac(1) == 1 and frac("1/3") == Fraction(1, 3)
    assert frac(Fraction(2, 6)) == Fraction(1, 3)
    f = parse_fn("monotone: nondecreasing\nsegment [0,1] linear 1 0\n")
    t = parse_tnorm("product")
    for v in (0.5, 0.1, 1.0, True, False):
        with pytest.raises(TypeError):
            frac(v)
        with pytest.raises(TypeError):
            eval_fn(f, v)
        with pytest.raises(TypeError):
            t_eval(t, v, Fraction(1, 2))


def test_point_and_str():
    assert str(Interval.point(frac("1/2"))) == "{1/2}"
    assert str(Interval.make(0, 1, True, False)) == "[0,1)"
    assert str(IntervalSet.empty()) == "∅"
    s = IntervalSet.of([Interval.make(0, frac("1/4"), False, False),
                        Interval.point(1)])
    assert str(s) == "(0,1/4)∪{1}"


def test_merge_touching():
    s = IntervalSet.of([Interval.make(0, frac("1/2"), True, False),
                        Interval.closed(frac("1/2"), 1)])
    assert len(s.parts) == 1
    assert str(s) == "[0,1]"


def test_open_touch_does_not_merge():
    s = IntervalSet.of([Interval.make(0, frac("1/2"), True, False),
                        Interval.make(frac("1/2"), 1, False, True)])
    assert len(s.parts) == 2


@given(interval_sets())
def test_normalization_idempotent(s):
    again = IntervalSet.of(s.parts)
    assert again.parts == s.parts


@given(interval_sets(), interval_sets(), fractions_01)
def test_union_membership(a, b, x):
    k = pair(x)
    assert a.union(b).contains_pair(*k) == (a.contains_pair(*k) or b.contains_pair(*k))


@given(interval_sets(), interval_sets(), fractions_01)
def test_intersect_membership(a, b, x):
    k = pair(x)
    assert a.intersect(b).contains_pair(*k) == (a.contains_pair(*k) and b.contains_pair(*k))


@given(interval_sets(), fractions_01)
def test_complement_membership(a, x):
    k = pair(x)
    assert a.complement().contains_pair(*k) == (not a.contains_pair(*k))


@given(interval_sets(), interval_sets(), fractions_01)
def test_minus_membership(a, b, x):
    k = pair(x)
    assert a.minus(b).contains_pair(*k) == (a.contains_pair(*k) and not b.contains_pair(*k))


@given(interval_sets(), interval_sets())
def test_subset_witness_sound(a, b):
    ok, w = a.is_subset_of(b)
    if ok:
        assert a.minus(b).is_empty
    else:
        assert a.contains_pair(*w) and not b.contains_pair(*w)


def test_o_hull_basics():
    assert IntervalSet.empty().o_hull().is_empty
    assert IntervalSet.of(Interval.point(v) for v in [frac("1/3")]).o_hull().is_empty
    s = IntervalSet.of(Interval.point(v) for v in [frac("1/4"), frac("3/4")])
    assert str(s.o_hull()) == "(1/4,3/4)"


def test_has_multiple_points():
    assert not IntervalSet.empty().has_multiple_points()
    assert not IntervalSet.of(Interval.point(v) for v in [frac("1/3")]).has_multiple_points()
    assert IntervalSet.of(Interval.point(v) for v in [frac("1/4"), frac("3/4")]).has_multiple_points()
    assert IntervalSet.single(Interval.make(0, frac("1/4"), False, False)).has_multiple_points()


@given(interval_sets())
def test_o_hull_is_open_span(s):
    h = s.o_hull()
    if s.is_empty or s.is_single_point:
        assert h.is_empty
    else:
        assert len(h.parts) == 1
        p = h.parts[0]
        assert (p.lo, p.hi) == (s.parts[0].lo, s.parts[-1].hi)
        assert not p.lo_closed and not p.hi_closed


def test_invalid_grid_rejected():
    with pytest.raises(ValueError):
        Interval.closed(frac("3/4"), frac("1/4"))


# -- the integer-pair algebra against a Fraction reference ------------------
#
# The reference_* functions do the work of Interval's and IntervalSet's
# methods by comparing Fractions (``fraction_contains`` among them); the
# methods, which compare cross products of the ends' integer pairs, must
# agree with them exactly, on ends from ``wide_fractions``.

ends = wide_fractions


def reference_empty(lo, hi, lo_closed, hi_closed):
    return lo > hi or (lo == hi and not (lo_closed and hi_closed))


def reference_make(lo, hi, lo_closed=True, hi_closed=True):
    lo, hi = frac(lo), frac(hi)
    if lo > hi:
        return None
    if lo == hi and not (lo_closed and hi_closed):
        return None
    return Interval(lo, hi, lo_closed, hi_closed)


def reference_intersect(a, o):
    if a.lo > o.lo:
        lo, lc = a.lo, a.lo_closed
    elif o.lo > a.lo:
        lo, lc = o.lo, o.lo_closed
    else:
        lo, lc = a.lo, a.lo_closed and o.lo_closed
    if a.hi < o.hi:
        hi, hc = a.hi, a.hi_closed
    elif o.hi < a.hi:
        hi, hc = o.hi, o.hi_closed
    else:
        hi, hc = a.hi, a.hi_closed and o.hi_closed
    return reference_make(lo, hi, lc, hc)


def reference_of(parts) -> tuple:
    items = [p for p in parts if p is not None]
    items.sort(key=lambda p: (p.lo, p.lo_closed is False, p.hi, p.hi_closed is False))
    merged = []
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
    return tuple(merged)


def reference_complement(parts) -> tuple:
    out = []
    cur, cur_closed = Fraction(0), True
    for p in parts:
        out.append(reference_make(cur, p.lo, cur_closed, not p.lo_closed))
        cur, cur_closed = p.hi, not p.hi_closed
    out.append(reference_make(cur, 1, cur_closed, True))
    return reference_of(out)


@st.composite
def any_intervals(draw):
    """An interval with ends from `ends`, or None where it is empty."""
    a, b = draw(ends), draw(ends)
    return Interval.make(min(a, b), max(a, b), draw(st.booleans()), draw(st.booleans()))


def same_parts(got, want):
    """Equal parts, each end the same value and its pair that value's own."""
    assert got == want
    for p in got:
        assert (p.ln, p.ld, p.hn, p.hd) == (p.lo.numerator, p.lo.denominator,
                                            p.hi.numerator, p.hi.denominator)


@given(ends, ends, st.booleans(), st.booleans(), ends, any_intervals())
def test_interval_matches_reference(a, b, lc, hc, x, other):
    iv = Interval.make(a, b, lc, hc)
    assert iv == reference_make(a, b, lc, hc)
    if reference_empty(a, b, lc, hc):
        with pytest.raises(ValueError):
            Interval(a, b, lc, hc)
        return
    same_parts((Interval(a, b, lc, hc),), (iv,))
    assert iv.contains_pair(*pair(x)) == fraction_contains(iv, x)
    assert iv.is_point == (iv.lo == iv.hi)
    assert iv.midpoint() == (iv.lo + iv.hi) / 2
    if other is not None:
        for got, want in ((iv.intersect(other), reference_intersect(iv, other)),
                          (other.intersect(iv), reference_intersect(other, iv))):
            assert got == want
            if got is not None:
                same_parts((got,), (want,))


@given(ends, ends)
def test_equal_ends_take_every_closedness(v, x):
    for lc, hc in itertools.product((True, False), repeat=2):
        iv = Interval.make(v, v, lc, hc)
        assert iv == reference_make(v, v, lc, hc)
        assert (iv is None) == (not (lc and hc))
        if iv is None:
            with pytest.raises(ValueError):
                Interval(v, v, lc, hc)
        else:
            assert iv.is_point and str(iv) == f"{{{v}}}"
            assert iv.contains_pair(*pair(x)) == (x == v) == fraction_contains(iv, x)


@given(ends, st.integers(1, 2 ** 80), ends, ends, st.booleans(), st.booleans())
def test_contains_pair_takes_unreduced_pairs(x, k, a, b, lc, hc):
    iv = Interval.make(min(a, b), max(a, b), lc, hc)
    if iv is not None:
        want = fraction_contains(iv, x)
        assert iv.contains_pair(k * x.numerator, k * x.denominator) == want
        assert iv.contains_pair(x.numerator, x.denominator) == want


@given(st.lists(any_intervals(), max_size=6), st.lists(any_intervals(), max_size=4), ends)
def test_interval_set_matches_reference(parts, others, x):
    s, o = IntervalSet.of(parts), IntervalSet.of(others)
    same_parts(s.parts, reference_of(parts))
    same_parts(s.complement().parts, reference_complement(s.parts))
    same_parts(s.intersect(o).parts, reference_of(
        [reference_intersect(a, b) for a in s.parts for b in o.parts]))
    same_parts(s.union(o).parts, reference_of(s.parts + o.parts))
    assert s.contains_pair(*pair(x)) == any(fraction_contains(p, x) for p in s.parts)
    if s.has_multiple_points():
        want = (reference_make(s.parts[0].lo, s.parts[-1].hi, False, False),)
        same_parts(s.o_hull().parts, want)


@settings(max_examples=50)
@given(st.lists(ends, min_size=3, max_size=3, unique=True))
def test_touching_parts_merge_as_reference(xs):
    # [a,b?] and [?b,c] meet at b: they merge unless both are open there,
    # in either order of the parts
    a, b, c = sorted(xs)
    for hc, lc in itertools.product((True, False), repeat=2):
        parts = [Interval.make(a, b, True, hc), Interval.make(b, c, lc, True)]
        for order in (parts, parts[::-1]):
            s = IntervalSet.of(order)
            same_parts(s.parts, reference_of(order))
            assert len(s.parts) == (1 if hc or lc else 2)


def test_interval_views_keep_eq_hash_and_repr():
    # the pairs and flags are the only data, and lo, hi are read-only
    # Fraction views of the pairs, built on each read; equality, hashing and
    # repr are those of the tuple (lo, hi, lo_closed, hi_closed), however
    # the ends were given
    assert Interval.__slots__ == ("ln", "ld", "hn", "hd", "lo_closed", "hi_closed")
    built = [Interval(F(1, 3), F(1, 2), True, False), Interval("1/3", "2/4", True, False),
             Interval.make(F(2, 6), "1/2", True, False),
             Interval.make("3/9", F(1, 2), True, False),
             Interval(0, 1).intersect(Interval(F(1, 3), F(1, 2), True, False))]
    for iv in built:
        assert not hasattr(iv, "__dict__")
        assert (iv.ln, iv.ld, iv.hn, iv.hd) == (1, 3, 1, 2)
        assert iv == built[0] and not iv != built[0]
        assert hash(iv) == hash((F(1, 3), F(1, 2), True, False))
        assert repr(iv) == ("Interval(lo=Fraction(1, 3), hi=Fraction(1, 2), "
                            "lo_closed=True, hi_closed=False)")
        for _ in range(2):
            assert type(iv.lo) is F and iv.lo == F(iv.ln, iv.ld) == F(1, 3)
            assert type(iv.hi) is F and iv.hi == F(iv.hn, iv.hd) == F(1, 2)
        with pytest.raises(AttributeError):
            iv.lo = F(1, 4)
    for iv in (Interval(0, 1), Interval(F(0), F(1)), Interval("0", "3/3"), Interval.closed(0, 1),
               Interval.make("0/5", 1)):
        assert iv == Interval(0, 1) and hash(iv) == hash((0, 1, True, True))
        assert repr(iv) == ("Interval(lo=Fraction(0, 1), hi=Fraction(1, 1), "
                            "lo_closed=True, hi_closed=True)")
    assert Interval.point("2/4") == Interval(F(1, 2), F(1, 2)) == Interval.closed("1/2", "1/2")
    for other in (Interval(F(1, 3), F(1, 2), False, False), Interval(F(1, 3), F(1, 2)),
                  Interval(F(1, 4), F(1, 2), True, False),
                  Interval(F(1, 3), F(2, 3), True, False)):
        assert other != built[0]
    assert built[0] != (F(1, 3), F(1, 2), True, False)
    assert built[0].__eq__((F(1, 3), F(1, 2), True, False)) is NotImplemented


def test_interval_set_holds_only_its_parts():
    # a set is slotted like its Intervals, and frozen
    assert IntervalSet.__slots__ == ("parts",)
    s = IntervalSet.of([Interval(F(1, 2), 1), Interval(0, F(1, 4))])
    assert not hasattr(s, "__dict__") and not hasattr(IntervalSet.empty(), "__dict__")
    with pytest.raises(AttributeError):
        s.parts = ()
