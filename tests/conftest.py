"""Shared fixtures: worked-example functions and random-function builders."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

ACCEPTANCE_RESULTS = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)

from subnormforge import parse_fn
from subnormforge.pwfn import PiecewiseMonotoneFn, Segment
from subnormforge.intervals import Interval

# f with a half-height plateau; range [1/2,1]
F_PLATEAU = """\
monotone: nondecreasing
segment [0,1/2] const 1/2
segment (1/2,1] linear 1 0
"""

# strictly increasing with a jump at 1; range [0,1/2) union {1}
F_HALF_JUMP = """\
monotone: nondecreasing
segment [0,1) linear 1/2 0
point 1 = 1
"""

# two increasing branches; range [0,1/8) union [3/16,1]
F_GAP = """\
monotone: nondecreasing
segment [0,1/4) linear 1/2 0
segment [1/4,1] linear 13/12 -1/12
"""

# strictly increasing with a jump at 1; range [1/4,1/2) union {1}
F_SHIFTED_JUMP = """\
monotone: nondecreasing
segment [0,1) linear 1/4 1/4
point 1 = 1
"""

# step-shaped: two ramps, a plateau, and an isolated top value
F_STEP = """\
monotone: nondecreasing
segment [0,1/4) linear 1/4 1/4
segment [1/4,1/2] const 5/16
segment (1/2,1) linear 1/8 3/8
point 1 = 3/4
"""

F_IDENTITY = """\
monotone: nondecreasing
segment [0,1] linear 1 0
"""

WORKED_EXAMPLES = {
    "plateau": F_PLATEAU,
    "half_jump": F_HALF_JUMP,
    "gap": F_GAP,
    "shifted_jump": F_SHIFTED_JUMP,
    "step": F_STEP,
    "identity": F_IDENTITY,
}


@pytest.fixture
def f_plateau():
    return parse_fn(F_PLATEAU)


@pytest.fixture
def f_half_jump():
    return parse_fn(F_HALF_JUMP)


@pytest.fixture
def f_gap():
    return parse_fn(F_GAP)


@pytest.fixture
def f_shifted_jump():
    return parse_fn(F_SHIFTED_JUMP)


@pytest.fixture
def f_step():
    return parse_fn(F_STEP)


@pytest.fixture
def f_identity():
    return parse_fn(F_IDENTITY)


def random_nondecreasing_fn(rng: random.Random, max_segments: int = 6,
                            max_den: int = 16) -> PiecewiseMonotoneFn:
    """A random non-decreasing piecewise linear function on [0,1].

    Breakpoints are rationals with denominator at most max_den; each
    segment is left-closed right-open (the last is closed at 1), constant
    with some probability, and jumps up between segments with some
    probability.
    """
    k = rng.randint(1, max_segments)
    xs = sorted(rng.sample([Fraction(i, max_den) for i in range(1, max_den)],
                           k - 1)) if k > 1 else []
    bounds = [Fraction(0)] + xs + [Fraction(1)]
    grid = [Fraction(i, max_den) for i in range(max_den + 1)]
    segments = []
    lo_val = rng.choice([g for g in grid if g <= Fraction(1, 2)])
    for i in range(k):
        a, b = bounds[i], bounds[i + 1]
        if rng.random() < 0.35:
            lo_val = min(1, lo_val + rng.choice(grid[: max_den // 2]))
        if rng.random() < 0.3:
            hi_val = lo_val  # constant piece
        else:
            hi_val = rng.choice([g for g in grid if g >= lo_val])
        last = i == k - 1
        dom = Interval.make(a, b, True, last)
        if hi_val == lo_val:
            segments.append(Segment.const(dom, lo_val))
        else:
            slope = (hi_val - lo_val) / (b - a)
            segments.append(Segment.linear(dom, slope, lo_val - slope * a))
        lo_val = hi_val
    return PiecewiseMonotoneFn(True, tuple(segments))


def bisect_pseudo_inverse(f: PiecewiseMonotoneFn, y: Fraction,
                          iters: int = 40) -> Fraction:
    """Independent oracle for inf{x : f(x) >= y} (inf of the empty set
    is 1): dyadic bisection on the monotone predicate f(x) >= y, then an
    exact snap to the unique rational candidate inside the final bracket.
    """
    from subnormforge import eval_fn

    if eval_fn(f, Fraction(1)) < y:
        return Fraction(1)
    if eval_fn(f, Fraction(0)) >= y:
        return Fraction(0)
    lo, hi = Fraction(0), Fraction(1)
    for _ in range(iters):
        mid = (lo + hi) / 2
        if eval_fn(f, mid) >= y:
            hi = mid
        else:
            lo = mid
    candidates = {Fraction(0), Fraction(1)}
    candidates.update(f.breakpoints())
    for s in f.segments:
        if not s.is_const and s.slope != 0:
            candidates.add((y - s.intercept) / s.slope)
    hits = sorted(c for c in candidates if lo <= c <= hi)
    assert hits, f"bracket [{lo},{hi}] holds no candidate"
    # exact tie-break between bracketed candidates: the predicate flips
    # exactly at the infimum, so probe between neighbours
    while len(hits) > 1:
        mid = (hits[0] + hits[1]) / 2
        if eval_fn(f, mid) >= y:
            hits = hits[:1]
        else:
            hits = hits[1:]
    return hits[0]


def random_strictly_increasing_fn(rng: random.Random, max_segments: int = 6,
                                  max_den: int = 16) -> PiecewiseMonotoneFn:
    """Like random_nondecreasing_fn but continuous, strictly increasing,
    with f(0)=0."""
    k = rng.randint(1, max_segments)
    xs = sorted(rng.sample([Fraction(i, max_den) for i in range(1, max_den)],
                           k - 1)) if k > 1 else []
    bounds = [Fraction(0)] + xs + [Fraction(1)]
    vals = [Fraction(0)] + sorted(
        rng.sample([Fraction(i, 4 * max_den) for i in range(1, 4 * max_den + 1)], k))
    segments = []
    for i in range(k):
        a, b = bounds[i], bounds[i + 1]
        va, vb = vals[i], vals[i + 1]
        slope = (vb - va) / (b - a)
        dom = Interval.make(a, b, True, i == k - 1)
        segments.append(Segment.linear(dom, slope, va - slope * a))
    return PiecewiseMonotoneFn(True, tuple(segments))


@st.composite
def monotone_fns(draw):
    """Non-decreasing piecewise linear f on [0,1] whose pieces meet as
    [a,b)[b,c), as [a,b](b,c) (open-left) or as [a,b){b}(b,c) (an isolated
    point), and which may end in an isolated point at 1."""
    den = 8
    cuts = sorted(draw(st.sets(st.integers(1, den - 1), max_size=3)))
    bounds = [Fraction(0)] + [Fraction(c, den) for c in cuts] + [Fraction(1)]
    joins = [draw(st.sampled_from(("closed", "open", "point"))) for _ in cuts]
    joins.append(draw(st.sampled_from(("closed", "point"))))
    level = Fraction(draw(st.integers(0, 8)), 16)
    segments, lo_closed = [], True

    def up(v):
        return min(Fraction(1), v + Fraction(draw(st.integers(0, 4)), 16))

    for a, b, join in zip(bounds, bounds[1:], joins):
        start = up(level)
        end = start if draw(st.booleans()) else up(start)
        hi_closed = join == "open" or (join == "closed" and b == 1)
        dom = Interval.make(a, b, lo_closed, hi_closed)
        slope = (end - start) / (b - a)
        segments.append(Segment.linear(dom, slope, start - slope * a) if slope
                        else Segment.const(dom, start))
        level = end
        if join == "point":
            level = up(level)
            segments.append(Segment.const(Interval.point(b), level))
        lo_closed = join == "closed"
    return PiecewiseMonotoneFn(True, tuple(segments))


def _one_minus(f: PiecewiseMonotoneFn) -> PiecewiseMonotoneFn:
    """1 - f: the same domains, each slope negated and each intercept c
    replaced by 1 - c."""
    return PiecewiseMonotoneFn(
        not f.nondecreasing,
        tuple(Segment(s.domain, -s.slope, 1 - s.intercept) for s in f.segments))


def nonincreasing_fns():
    """Non-increasing f on [0,1]: 1 - f for f drawn from monotone_fns, so
    with the same joins, isolated points and constant pieces."""
    return monotone_fns().map(_one_minus)


def lattice_fns(nb: int = 3, nv: int = 3):
    """Every non-decreasing f whose breakpoints are k/nb and whose values
    and one-sided limits are k/nv: an explicit value at each breakpoint and
    an open linear or constant piece between neighbours, so jumps, plateaus,
    isolated values and vanishing shapes all occur.  The 3*nb + 1 levels,
    read left to right, are any non-decreasing sequence, so there are
    C(3*nb + nv + 1, nv) functions: 286 for nb = nv = 3."""
    for levels in itertools.combinations_with_replacement(range(nv + 1), 3 * nb + 1):
        v = [Fraction(k, nv) for k in levels]
        segments = [Segment.const(Interval.point(Fraction(0)), v[0])]
        for i in range(nb):
            a, b = Fraction(i, nb), Fraction(i + 1, nb)
            lo, hi, at_b = v[3 * i + 1:3 * i + 4]
            dom = Interval.make(a, b, False, False)
            slope = (hi - lo) / (b - a)
            segments.append(Segment.linear(dom, slope, lo - slope * a) if slope
                            else Segment.const(dom, lo))
            segments.append(Segment.const(Interval.point(b), at_b))
        yield PiecewiseMonotoneFn(True, tuple(segments))
