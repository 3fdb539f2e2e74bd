"""Plain-text function description format.

One directive per line::

    monotone: nondecreasing
    segment [0,1/2] const 1/2
    segment (1/2,1] linear 1 0
    point 1 = 3/4

Comments start with ``#``; blank lines are ignored.  ``point x = v`` is
shorthand for ``segment {x} const v``, and ``render_fn`` writes segments
only.  Domain coverage of [0,1] and monotonicity are validated on load.

Rationals are read as ``Fraction(tok)`` reads them, with the same errors,
straight to the integer pairs that ``Interval`` and ``Segment`` hold
(``_parse_pair``); the common tokens, ``p`` and ``p/q`` in ASCII digits,
are read with ``int``, as ``Fraction``'s string parser runs a regex.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .intervals import Interval, _nonempty, _span, reduced
from .pwfn import InvalidFunction, PiecewiseMonotoneFn, _segment


class ParseError(ValueError):
    """An error in a function description: on line ``lineno``, or, with
    ``lineno`` None, about the function as a whole, such as a domain that
    does not reach 1, which no one line holds."""

    def __init__(self, lineno: Optional[int], message: str):
        super().__init__(message if lineno is None else f"line {lineno}: {message}")
        self.lineno = lineno


def _parse_pair(tok: str, lineno: Optional[int]) -> tuple:
    """The rational of a token, as ``Fraction(tok)`` reads it, as a reduced
    pair (n, d), d > 0.  A token of ASCII digits, or two such runs around
    one '/' with a denominator that is not 0, is read with ``int``, without
    ``Fraction``'s regular expression; every other token, a sign, a
    decimal point, an exponent, an underscore or a non-ASCII digit
    included, goes to ``Fraction(tok)``, so the value and any error are the
    same either way."""
    p, slash, q = tok.partition("/")
    try:
        if tok.isascii() and p.isdigit() and (not slash or q.isdigit() and q.strip("0")):
            return reduced(int(p), int(q) if slash else 1)
        v = Fraction(tok)
        return v.numerator, v.denominator
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(lineno, f"bad rational {tok!r}: {e}") from None


def parse_interval(tok: str, lineno: Optional[int] = None) -> Interval:
    tok = tok.strip()
    if tok.startswith("{") and tok.endswith("}"):
        n, d = _parse_pair(tok[1:-1], lineno)
        return _nonempty(n, d, n, d, True, True)
    if len(tok) < 2 or tok[0] not in "[(" or tok[-1] not in "])":
        raise ParseError(lineno, f"bad interval {tok!r}")
    body = tok[1:-1].split(",")
    if len(body) != 2:
        raise ParseError(lineno, f"bad interval {tok!r}")
    iv = _span(*_parse_pair(body[0], lineno), *_parse_pair(body[1], lineno),
               tok[0] == "[", tok[-1] == "]")
    if iv is None:
        raise ParseError(lineno, f"empty interval {tok!r}")
    return iv


def parse_fn(text: str) -> PiecewiseMonotoneFn:
    direction = None
    segments = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if toks[0] == "point":
            if len(toks) != 4 or toks[2] != "=":
                raise ParseError(lineno, "expected 'point <p/q> = <p/q>'")
            toks = ["segment", "{" + toks[1] + "}", "const", toks[3]]
        if toks[0] == "monotone:":
            if len(toks) != 2 or toks[1] not in ("nondecreasing", "nonincreasing"):
                raise ParseError(lineno, "expected 'monotone: nondecreasing|nonincreasing'")
            if direction is not None:
                raise ParseError(lineno, "repeated 'monotone:' directive")
            direction = toks[1] == "nondecreasing"
        elif toks[0] == "segment":
            if len(toks) < 3:
                raise ParseError(lineno, "segment needs an interval and a shape")
            dom = parse_interval(toks[1], lineno)
            if toks[2] == "const" and len(toks) == 4:
                segments.append(_segment(dom, 0, 1, *_parse_pair(toks[3], lineno)))
            elif toks[2] == "linear" and len(toks) == 5:
                slope = _parse_pair(toks[3], lineno)
                if not slope[0]:
                    raise ParseError(lineno, "linear slope must be nonzero; use const")
                segments.append(_segment(dom, *slope, *_parse_pair(toks[4], lineno)))
            else:
                raise ParseError(lineno, f"bad segment shape {line!r}")
        else:
            raise ParseError(lineno, f"unknown directive {toks[0]!r}")
    if direction is None:
        raise ParseError(None, "missing 'monotone:' directive")
    try:
        return PiecewiseMonotoneFn(direction, tuple(segments))
    except InvalidFunction as e:
        raise ParseError(None, str(e)) from None


def load_fn(path) -> PiecewiseMonotoneFn:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_fn(fh.read())


def render_fn(f: PiecewiseMonotoneFn) -> str:
    lines = [f"monotone: {'nondecreasing' if f.nondecreasing else 'nonincreasing'}"]
    for s in f.segments:
        if s.is_const:
            lines.append(f"segment {s.domain} const {s.intercept}")
        else:
            lines.append(f"segment {s.domain} linear {s.slope} {s.intercept}")
    return "\n".join(lines) + "\n"
