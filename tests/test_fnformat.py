"""Text format for piecewise functions: parse, render, round-trip."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (WORKED_EXAMPLES, monotone_fns, nonincreasing_fns,
                      random_nondecreasing_fn)
from subnormforge import eval_fn, parse_fn, plateau_set, pseudo_inverse, range_of, render_fn
from subnormforge import fnformat
from subnormforge.fnformat import ParseError, _parse_pair, parse_interval
from subnormforge.intervals import Interval


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


@pytest.mark.parametrize("tok, message", [
    ("{1/2)", "bad interval '{1/2)'"),
    ("[0,1}", "bad interval '[0,1}'"),
    ("x0,1]", "bad interval 'x0,1]'"),
    ("[0,1x", "bad interval '[0,1x'"),
    ("[0]", "bad interval '[0]'"),
    ("[1,0]", "empty interval '[1,0]'"),
    ("(1/2,1/2]", "empty interval '(1/2,1/2]'"),
])
def test_parse_interval_rejects_malformed_tokens(tok, message):
    with pytest.raises(ParseError) as exc:
        parse_interval(tok, 3)
    assert str(exc.value) == f"line 3: {message}"


@pytest.mark.parametrize("line, message", [
    ("monotone: sideways", "expected 'monotone: nondecreasing|nonincreasing'"),
    ("point 1 x 1/2", "expected 'point <p/q> = <p/q>'"),
    ("point 1 =", "expected 'point <p/q> = <p/q>'"),
    ("segment [0,1] const 1/2 3", "bad segment shape 'segment [0,1] const 1/2 3'"),
    ("segment [0,1] level 1/2", "bad segment shape 'segment [0,1] level 1/2'"),
    ("segment [0,1] linear 0/3 1/2", "linear slope must be nonzero; use const"),
])
def test_parse_fn_rejects_malformed_lines(line, message):
    with pytest.raises(ParseError) as exc:
        parse_fn(line + "\nmonotone: nondecreasing\nsegment [0,1] const 1/2\n")
    assert str(exc.value) == f"line 1: {message}"


def test_digit_tokens_build_no_fraction(monkeypatch):
    # p and p/q in ASCII digits are read with int, so a function of such
    # tokens parses without fnformat building a Fraction: parse_rational,
    # its one path to Fraction's parser, is never called
    def refuse(*args):
        raise AssertionError("fnformat built a Fraction")

    monkeypatch.setattr(fnformat, "parse_rational", refuse)
    f = parse_fn("monotone: nondecreasing\nsegment [0,1/2) linear 1/2 0\n"
                 "point 1/2 = 1/2\nsegment (1/2,1] const 06/8\n")
    assert f.segments[-1].cn == 3 and f.segments[-1].cd == 4
    assert _parse_pair("12/8", 1) == (3, 2) and _parse_pair("7", 1) == (7, 1)


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


def _assert_stores_pairs(iv_or_seg):
    """Every slot holds an int or a bool, a Segment's domain such an
    Interval, and no Fraction view has been built."""
    for name in type(iv_or_seg).__slots__:
        v = getattr(iv_or_seg, name)
        if name.startswith("_"):
            assert v is None, name
        elif name == "domain":
            _assert_stores_pairs(v)
        else:
            assert type(v) is (bool if name.endswith("closed") else int), name


@settings(max_examples=60, deadline=None)
@given(f=st.one_of(monotone_fns(), nonincreasing_fns()))
def test_parsed_functions_store_only_ints_and_bools(f):
    # render_fn writes points as segments; the second text has point lines
    text = render_fn(f)
    points = text.replace("segment {", "point ").replace("} const", " =")
    for g in (parse_fn(text), parse_fn(points)):
        assert g == f
        for s in g.segments + pseudo_inverse(g).segments:
            _assert_stores_pairs(s)
        for iv in g._values + plateau_set(g).parts + range_of(g).parts:
            _assert_stores_pairs(iv)


# -- rationals read with int where Fraction's parser is not needed -----------


def _fraction_or_error(tok):
    """(value, None) as Fraction(tok) reads the token, or (None, the
    ParseError text that its error gives on line 7).  A value whose
    numerator or denominator has more than 4300 digits, which str() cannot
    print, is an error too, and so is an exponent beyond 4300 plus the
    token's length, whose power of ten would give such a value unless the
    mantissa is 0."""
    exp = re.search(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z", tok)
    if exp and abs(int(exp.group(1))) > 4300 + len(tok):
        return None, f"line 7: bad rational {tok!r}: exponent {exp.group(1)} out of range"
    try:
        v = Fraction(tok)
    except (ValueError, ZeroDivisionError) as e:
        return None, f"line 7: bad rational {tok!r}: {e}"
    if max(abs(v.numerator), v.denominator) >= 10 ** 4300:
        return None, f"line 7: bad rational {tok!r}: numerator or denominator over 4300 digits"
    return v, None


def _assert_parses_like_fraction(tok):
    """The pair parser reads `tok` as Fraction(tok) does: its reduced pair
    of ints, or the same error, alone and as a point interval {tok}."""
    value, error = _fraction_or_error(tok)
    if error is None:
        got = _parse_pair(tok, 7)
        assert got == (value.numerator, value.denominator), tok
        assert type(got[0]) is int and type(got[1]) is int, tok
        iv = parse_interval("{" + tok + "}", 7)
        assert iv == Interval.point(value) and (iv.ln, iv.ld, iv.hn, iv.hd) == got * 2
    else:
        for parse in (lambda: _parse_pair(tok, 7), lambda: parse_interval("{" + tok + "}", 7)):
            with pytest.raises(ParseError) as exc:
                parse()
            assert str(exc.value) == error and exc.value.lineno == 7


@pytest.mark.parametrize("tok", [
    "0", "1", "3/4", "12/8", "07/08", "00/000", "+1/2", "-0", "-3/7", " 1/2", "1/2 ",
    "0.5", ".5", "1e-1", "1E2", "1_0", "1/1_0", "²", "١", "1/١", "1/0", "0/0", "1/-2",
    "/2", "2/", "/", "1//2", "1/2/3", "", "a", "0x10", "1 /2",
    # past int's digit limit, where there is one: both readers call int
    "9" * 5000, "1/" + "9" * 5000,
    # exponents: at and past the 4300 digits that str() prints, and beyond
    # what is refused before Fraction builds its power of ten
    "1e-3", "5E2", "1e4299", "1e4300", "1e-4299", "1e-4300", "2e-4300", "0.5e-4300",
    "1e4304", "1e-4305", "1e-10000000", "1e+1_0000_000", "0e99999", "1/2e99999",
])
def test_parse_fraction_matches_fraction(tok):
    _assert_parses_like_fraction(tok)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789/+-._eE ²١", max_size=8))
def test_parse_fraction_matches_fraction_on_random_tokens(tok):
    _assert_parses_like_fraction(tok)
