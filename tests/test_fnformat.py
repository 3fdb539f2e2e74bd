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
from subnormforge.fnformat import ParseError, _parse_fraction, parse_interval


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


def test_parse_error_messages():
    # an error about one line names it; an error about the whole function
    # has no line to name
    with pytest.raises(ParseError) as exc:
        parse_fn("monotone: nondecreasing\nsegment [0,1] linear\n")
    assert str(exc.value) == "line 2: bad segment shape 'segment [0,1] linear'"
    with pytest.raises(ParseError) as exc:
        parse_fn("monotone: nondecreasing\nsegment [0,1/2] const 0\n")
    assert exc.value.lineno is None
    assert str(exc.value) == "domain does not reach 1 (stops at 1/2)"


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


# -- rationals read with int where Fraction's parser is not needed -----------


def _fraction_or_error(tok):
    """(value, None) as Fraction(tok) reads the token, or (None, the
    ParseError text that its error gives on line 7)."""
    try:
        return Fraction(tok), None
    except (ValueError, ZeroDivisionError) as e:
        return None, f"line 7: bad rational {tok!r}: {e}"


def _assert_parses_like_fraction(tok):
    value, error = _fraction_or_error(tok)
    if error is None:
        got = _parse_fraction(tok, 7)
        assert type(got) is Fraction and got == value, tok
    else:
        with pytest.raises(ParseError) as exc:
            _parse_fraction(tok, 7)
        assert str(exc.value) == error and exc.value.lineno == 7


@pytest.mark.parametrize("tok", [
    "0", "1", "3/4", "12/8", "07/08", "00/000", "+1/2", "-0", "-3/7", " 1/2", "1/2 ",
    "0.5", ".5", "1e-1", "1E2", "1_0", "1/1_0", "²", "١", "1/١", "1/0", "0/0", "1/-2",
    "/2", "2/", "/", "1//2", "1/2/3", "", "a", "0x10", "1 /2",
    # past int's digit limit, where there is one: both readers call int
    "9" * 5000, "1/" + "9" * 5000,
])
def test_parse_fraction_matches_fraction(tok):
    _assert_parses_like_fraction(tok)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789/+-._eE ²١", max_size=8))
def test_parse_fraction_matches_fraction_on_random_tokens(tok):
    _assert_parses_like_fraction(tok)
