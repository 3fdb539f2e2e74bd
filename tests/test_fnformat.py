"""Text format for piecewise functions: parse, render, round-trip."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (WORKED_EXAMPLES, monotone_fns, nonincreasing_fns,
                      random_nondecreasing_fn)
from subnormforge import eval_fn, parse_fn, pseudo_inverse, render_fn
from subnormforge.fnformat import ParseError, parse_interval


def test_parse_interval_forms():
    iv = parse_interval("[1/4,1/2)")
    assert (iv.lo, iv.hi, iv.lo_closed, iv.hi_closed) == (
        Fraction(1, 4), Fraction(1, 2), True, False)
    assert parse_interval("{3/4}").is_point
    assert parse_interval("(0,1)").lo_closed is False


def test_comments_and_blank_lines():
    f = parse_fn("# heading\n\nmonotone: nondecreasing\n"
                 "segment [0,1] linear 1 0  # identity\n")
    assert eval_fn(f, Fraction(1, 3)) == Fraction(1, 3)


def test_point_directive():
    f = parse_fn("monotone: nondecreasing\n"
                 "segment [0,1) linear 1/2 0\npoint 1 = 1\n")
    assert eval_fn(f, Fraction(1)) == 1
    assert f == parse_fn("monotone: nondecreasing\n"
                         "segment [0,1) linear 1/2 0\nsegment {1} const 1\n")


@pytest.mark.parametrize("name", sorted(WORKED_EXAMPLES))
def test_roundtrip_worked_examples(name):
    f = parse_fn(WORKED_EXAMPLES[name])
    again = parse_fn(render_fn(f))
    for i in range(33):
        x = Fraction(i, 32)
        assert eval_fn(again, x) == eval_fn(f, x)


@settings(max_examples=60, deadline=None)
@given(f=st.one_of(monotone_fns(), nonincreasing_fns()))
def test_roundtrip_is_exact(f):
    for g in (f, pseudo_inverse(f)):
        assert parse_fn(render_fn(g)) == g


@settings(max_examples=60, deadline=None)
@given(f=st.one_of(monotone_fns(), nonincreasing_fns()))
def test_point_lines_parse_as_one_point_segments(f):
    segments = render_fn(f)
    points = re.sub(r"^segment \{(\S+)\} const (\S+)$", r"point \1 = \2",
                    segments, flags=re.M)
    g, h = parse_fn(points), parse_fn(segments)
    assert g == h
    assert (hash(g), repr(g)) == (hash(h), repr(h))


def test_roundtrip_random():
    rng = random.Random(11)
    for _ in range(25):
        f = random_nondecreasing_fn(rng)
        again = parse_fn(render_fn(f))
        for i in range(17):
            x = Fraction(i, 16)
            assert eval_fn(again, x) == eval_fn(f, x)


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as exc:
        parse_fn("monotone: nondecreasing\nsegment [0,1] linear\n")
    assert exc.value.lineno == 2


def test_missing_monotone_directive():
    with pytest.raises(ParseError):
        parse_fn("segment [0,1] linear 1 0\n")


def test_repeated_monotone_directive():
    # a later directive must not override the first one
    with pytest.raises(ParseError) as exc:
        parse_fn("monotone: nonincreasing\n"
                 "segment [0,1] const 1/2\n"
                 "monotone: nondecreasing\n")
    assert exc.value.lineno == 3


def test_unknown_directive():
    with pytest.raises(ParseError):
        parse_fn("monotone: nondecreasing\nwibble [0,1]\n")
