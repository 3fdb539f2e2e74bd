"""Interval set algebra: normalization, set operations, hulls."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subnormforge import eval_fn, parse_fn, parse_tnorm, t_eval
from subnormforge.intervals import Interval, IntervalSet, frac

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
    assert a.union(b).contains(x) == (a.contains(x) or b.contains(x))


@given(interval_sets(), interval_sets(), fractions_01)
def test_intersect_membership(a, b, x):
    assert a.intersect(b).contains(x) == (a.contains(x) and b.contains(x))


@given(interval_sets(), fractions_01)
def test_complement_membership(a, x):
    assert a.complement().contains(x) == (not a.contains(x))


@given(interval_sets(), interval_sets(), fractions_01)
def test_minus_membership(a, b, x):
    assert a.minus(b).contains(x) == (a.contains(x) and not b.contains(x))


@given(interval_sets(), interval_sets())
def test_subset_witness_sound(a, b):
    ok, w = a.is_subset_of(b)
    if ok:
        assert a.minus(b).is_empty
    else:
        assert a.contains(w) and not b.contains(w)


def test_o_hull_basics():
    assert IntervalSet.empty().o_hull().is_empty
    assert IntervalSet.points([frac("1/3")]).o_hull().is_empty
    s = IntervalSet.points([frac("1/4"), frac("3/4")])
    assert str(s.o_hull()) == "(1/4,3/4)"


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


@given(interval_sets())
def test_sample_points_are_members(s):
    for x in s.sample_points():
        assert s.contains(x)


def test_invalid_grid_rejected():
    with pytest.raises(ValueError):
        Interval.closed(frac("3/4"), frac("1/4"))
