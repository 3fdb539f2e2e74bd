"""Plain-text function description format.

One directive per line::

    monotone: nondecreasing
    segment [0,1/2] const 1/2
    segment (1/2,1] linear 1 0
    point 1 = 3/4

Comments start with ``#``; blank lines are ignored.  ``point x = v`` is
shorthand for ``segment {x} const v``, and ``render_fn`` writes segments
only.  Domain coverage of [0,1] and monotonicity are validated on load.
"""

from __future__ import annotations

from fractions import Fraction

from .intervals import Interval, frac
from .pwfn import InvalidFunction, PiecewiseMonotoneFn, Segment


class ParseError(ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _parse_fraction(tok: str, lineno: int) -> Fraction:
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(lineno, f"bad rational {tok!r}: {e}") from None


def parse_interval(tok: str, lineno: int = 0) -> Interval:
    tok = tok.strip()
    if tok.startswith("{") and tok.endswith("}"):
        return Interval.point(_parse_fraction(tok[1:-1], lineno))
    if len(tok) < 2 or tok[0] not in "[(" or tok[-1] not in "])":
        raise ParseError(lineno, f"bad interval {tok!r}")
    body = tok[1:-1].split(",")
    if len(body) != 2:
        raise ParseError(lineno, f"bad interval {tok!r}")
    lo = _parse_fraction(body[0], lineno)
    hi = _parse_fraction(body[1], lineno)
    iv = Interval.make(lo, hi, tok[0] == "[", tok[-1] == "]")
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
                segments.append(Segment.const(dom, _parse_fraction(toks[3], lineno)))
            elif toks[2] == "linear" and len(toks) == 5:
                slope = _parse_fraction(toks[3], lineno)
                if slope == 0:
                    raise ParseError(lineno, "linear slope must be nonzero; use const")
                segments.append(Segment.linear(dom, slope, _parse_fraction(toks[4], lineno)))
            else:
                raise ParseError(lineno, f"bad segment shape {line!r}")
        elif toks[0] == "point":
            if len(toks) != 4 or toks[2] != "=":
                raise ParseError(lineno, "expected 'point <p/q> = <p/q>'")
            segments.append(Segment.const(Interval.point(_parse_fraction(toks[1], lineno)),
                                          _parse_fraction(toks[3], lineno)))
        else:
            raise ParseError(lineno, f"unknown directive {toks[0]!r}")
    if direction is None:
        raise ParseError(0, "missing 'monotone:' directive")
    try:
        return PiecewiseMonotoneFn(direction, tuple(segments))
    except InvalidFunction as e:
        raise ParseError(0, str(e)) from None


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
