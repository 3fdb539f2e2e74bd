"""Piecewise monotone functions: evaluation, pseudo-inverse, range
decomposition."""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    _one_minus,
    approach_segment,
    bisect_pseudo_inverse,
    lattice_fns,
    monotone_fns,
    nonincreasing_fns,
    pair,
    random_nondecreasing_fn,
    random_strictly_increasing_fn,
    reference_attained_values,
    reference_reconstruct,
    reference_value_at,
)
from subnormforge import (
    classify,
    decompose,
    eval_fn,
    parse_fn,
    parse_tnorm,
    plateau_set,
    pseudo_inverse,
    pseudo_inverse_at,
    range_of,
    render_fn,
    side_limit,
)
from subnormforge import pwfn
from subnormforge.classify import _plateau_pair, arg_with_value
from subnormforge.intervals import ONE, ZERO, Interval, IntervalSet, frac
from subnormforge.pwfn import (
    DomainError,
    InvalidFunction,
    PiecewiseMonotoneFn,
    Segment,
    _segment,
    eval_pair,
    first_arg_above,
)

F = Fraction


def grid(n):
    return [F(i, n) for i in range(n + 1)]


# -- evaluation and side limits ---------------------------------------------


def test_eval_plateau(f_plateau):
    assert eval_fn(f_plateau, F(1, 4)) == F(1, 2)
    assert eval_fn(f_plateau, F(1, 2)) == F(1, 2)
    assert eval_fn(f_plateau, F(3, 4)) == F(3, 4)
    assert f_plateau(F(1)) == 1


def test_eval_half_jump(f_half_jump):
    assert eval_fn(f_half_jump, F(9, 10)) == F(9, 20)
    assert eval_fn(f_half_jump, F(1)) == 1


def test_eval_outside_domain(f_identity):
    with pytest.raises(ValueError):
        eval_fn(f_identity, F(3, 2))


def test_side_limits(f_half_jump, f_step):
    assert side_limit(f_half_jump, F(1), "left") == F(1, 2)
    assert side_limit(f_step, F(1, 4), "left") == F(5, 16)
    assert side_limit(f_step, F(1, 4), "right") == F(5, 16)
    assert side_limit(f_step, F(1, 2), "right") == F(7, 16)
    # boundary conventions used by the pseudo-inverse machinery
    assert side_limit(f_step, F(0), "left") == 0
    assert side_limit(f_step, F(1), "right") == 1


def test_side_limit_errors(f_step):
    with pytest.raises(DomainError):
        side_limit(f_step, F(5, 4), "left")
    with pytest.raises(ValueError, match="side must be"):
        side_limit(f_step, F(1, 2), "up")
    with pytest.raises(DomainError):
        pwfn.limit_pair(f_step, -1, 2, "right")


# the conventions at 0 from the left and 1 from the right, by side and
# direction (non-decreasing first)
_END_LIMITS = {("left", True): 0, ("left", False): 1, ("right", True): 1, ("right", False): 0}


@settings(max_examples=80, deadline=None)
@given(f=st.one_of(monotone_fns(), nonincreasing_fns()))
def test_limit_pair_matches_the_approaching_segment(f):
    # on f and its pseudo-inverse, at every breakpoint, midpoint between
    # breakpoints and sixteenth, from both sides: the value of the segment
    # that reaches a from that side, and constant when that segment is.
    # Isolated points sit at breakpoints; no side reaches them.  The pair
    # may come in unreduced, as the classifier's T limits do
    for g in (f, pseudo_inverse(f)):
        bps = g.breakpoints()
        pts = set(bps) | {(a + b) / 2 for a, b in zip(bps, bps[1:])} | set(grid(16))
        for a in sorted(pts):
            for side in ("left", "right"):
                for k in (1, 3):
                    (n, d), const = pwfn.limit_pair(g, k * a.numerator, k * a.denominator, side)
                    assert d > 0
                    s = approach_segment(g, a, side)
                    if s is None:
                        assert (F(n, d), const) == (_END_LIMITS[side, g.nondecreasing], True)
                    else:
                        assert (F(n, d), const) == (reference_value_at(s, a), s.is_const), (a, side)
                assert side_limit(g, a, side) == F(n, d)


# -- pseudo-inverse ----------------------------------------------------------


def test_pseudo_inverse_half_jump(f_half_jump):
    g = pseudo_inverse(f_half_jump)
    assert eval_fn(g, F(1, 4)) == F(1, 2)
    assert eval_fn(g, F(2, 5)) == F(4, 5)
    assert eval_fn(g, F(1, 2)) == 1  # value in the gap: jump argument
    assert eval_fn(g, F(3, 4)) == 1
    assert eval_fn(g, F(1)) == 1


def test_pseudo_inverse_plateau(f_plateau):
    g = pseudo_inverse(f_plateau)
    assert eval_fn(g, F(0)) == 0
    assert eval_fn(g, F(1, 2)) == 0
    assert eval_fn(g, F(3, 4)) == F(3, 4)
    assert eval_fn(g, F(1)) == 1


def test_pseudo_inverse_matches_pointwise(f_step, f_gap):
    for f in (f_step, f_gap):
        g = pseudo_inverse(f)
        for y in grid(64):
            assert eval_fn(g, y) == pseudo_inverse_at(f, y)


def test_pseudo_inverse_composition_bounds(f_step):
    g = pseudo_inverse(f_step)
    for x in grid(32):
        assert eval_fn(g, eval_fn(f_step, x)) <= x


def test_strictly_increasing_inverse_roundtrip():
    rng = random.Random(7)
    for _ in range(20):
        f = random_strictly_increasing_fn(rng)
        g = pseudo_inverse(f)
        for x in grid(16):
            assert eval_fn(g, eval_fn(f, x)) == x


def test_right_continuous_triple_composition():
    rng = random.Random(8)
    for _ in range(20):
        f = random_nondecreasing_fn(rng)
        g = pseudo_inverse(f)
        for x in grid(16):
            v = eval_fn(f, x)
            assert eval_fn(f, eval_fn(g, v)) == v


def test_pseudo_inverse_against_bisection():
    rng = random.Random(9)
    for _ in range(15):
        f = random_nondecreasing_fn(rng)
        g = pseudo_inverse(f)
        for _ in range(40):
            y = F(rng.randint(0, 997), 997)
            assert eval_fn(g, y) == bisect_pseudo_inverse(f, y)


# -- range, plateau set, decomposition --------------------------------------


def test_range_golden(f_half_jump, f_gap, f_step, f_plateau):
    assert str(range_of(f_half_jump)) == "[0,1/2)∪{1}"
    assert str(range_of(f_gap)) == "[0,1/8)∪[3/16,1]"
    assert str(range_of(f_step)) == "[1/4,5/16]∪(7/16,1/2)∪{3/4}"
    assert str(range_of(f_plateau)) == "[1/2,1]"


def test_plateau_set(f_plateau, f_step, f_half_jump):
    assert str(plateau_set(f_plateau)) == "{1/2}"
    assert str(plateau_set(f_step)) == "{5/16}"
    assert plateau_set(f_half_jump).is_empty


def test_decompose_step(f_step):
    d = decompose(f_step)
    assert decompose(f_step) is d
    assert d.s == (((0, 1), (1, 4), (1, 4)), ((5, 16), (7, 16), (5, 16)),
                   ((1, 2), (3, 4), (3, 4)), ((3, 4), (1, 1), (3, 4)))
    assert d.c == ((1, 4), (5, 16), (3, 4))
    assert str(d.q) == "{5/16}"
    assert d.f0plus == (1, 4)
    assert d.k1 == (1, 2, 3)


def test_decompose_full_range(f_identity):
    d = decompose(f_identity)
    assert str(d.m) == "[0,1]"
    assert [(b, dd) for b, dd, _ in d.s] == [((1, 1), (1, 1))]
    assert d.c == ((1, 1),)


def test_decompose_reconstruct_random():
    rng = random.Random(10)
    for _ in range(40):
        f = random_nondecreasing_fn(rng)
        d = decompose(f)
        assert reference_reconstruct(d) == d.m
        for b, dd, c in d.s:
            assert d.m.contains_pair(*c)
            assert c == b or c == dd


# -- cached structure against per-call references ---------------------------


def reference_pieces(f):
    """The segments in ascending x order, sorted afresh on every call."""
    return sorted(f.segments, key=lambda s: (s.domain.lo, not s.domain.lo_closed))


def reference_plateau_set(f):
    """Values attained twice, as one IntervalSet union per pair of pieces."""
    pieces = reference_pieces(f)
    out = IntervalSet.empty()
    for i, p in enumerate(pieces):
        if p.is_const and not p.domain.is_point:
            out = out.union(IntervalSet.single(Interval.point(p.intercept)))
        vi = IntervalSet.single(reference_attained_values(p))
        for q in pieces[i + 1:]:
            out = out.union(vi.intersect(IntervalSet.single(reference_attained_values(q))))
    return out


def reference_first_arg(f, y, at_least):
    """inf{x : f(x) >= y} (at_least) or inf{x : f(x) <= y}, inf(empty)=1,
    building each piece's value interval on every call."""
    for p in reference_pieces(f):
        d, vals = p.domain, reference_attained_values(p)
        if p.is_const:
            if (p.intercept >= y) if at_least else (p.intercept <= y):
                return d.lo
            continue
        if at_least:
            if vals.hi > y or (vals.hi_closed and vals.hi == y):
                return max(d.lo, (y - p.intercept) / p.slope)
        elif vals.lo < y or (vals.lo_closed and vals.lo == y):
            return max(d.lo, (y - p.intercept) / p.slope)
    return F(1)


def reference_first_arg_above(f, v):
    """inf{x : f(x) > v} for non-decreasing f, inf(empty)=1."""
    for p in reference_pieces(f):
        if p.is_const:
            if p.intercept > v:
                return p.domain.lo
            continue
        if reference_attained_values(p).hi > v:
            return max(p.domain.lo, (v - p.intercept) / p.slope)
    return F(1)


def reference_pseudo_inverse(f):
    """Closed-form piecewise representation of the pseudo-inverse on [0,1],
    built independently of ``pseudo_inverse``'s sweep.

    Built by sampling the exact pointwise pseudo-inverse between critical
    values (attained-value endpoints), where the pseudo-inverse is linear
    or constant, and verifying each fitted piece at a third point.
    """
    crit = {ZERO, ONE}
    for vals in f._values:
        crit.add(vals.lo)
        crit.add(vals.hi)
    ys = sorted(crit)

    gap_shapes = []  # (slope, intercept) valid on open (ys[j], ys[j+1])
    for j in range(len(ys) - 1):
        a, b = ys[j], ys[j + 1]
        h = b - a
        p1, p2, p3 = a + h / 4, a + h / 2, a + 3 * h / 4
        v1, v2, v3 = (pseudo_inverse_at(f, t) for t in (p1, p2, p3))
        slope = (v3 - v1) / (p3 - p1)
        intercept = v1 - slope * p1
        if slope * p2 + intercept != v2:
            raise InvalidFunction("pseudo-inverse is not piecewise linear")  # unreachable
        gap_shapes.append((slope, intercept))

    crit_vals = [pseudo_inverse_at(f, y) for y in ys]

    segments = []
    isolated = []
    for j, (slope, intercept) in enumerate(gap_shapes):
        a, b = ys[j], ys[j + 1]
        lo_closed = slope * a + intercept == crit_vals[j]
        hi_closed = slope * b + intercept == crit_vals[j + 1]
        dom = Interval(a, b, lo_closed, hi_closed)
        if slope == 0:
            segments.append(Segment.const(dom, intercept))
        else:
            segments.append(Segment.linear(dom, slope, intercept))
    for j, y in enumerate(ys):
        left_ok = j > 0 and segments[j - 1].domain.hi_closed
        right_ok = j < len(gap_shapes) and segments[j].domain.lo_closed
        if left_ok and right_ok:
            # both pieces agree at y; leave it to the left one
            s = segments[j]
            new_dom = Interval.make(y, s.domain.hi, False, s.domain.hi_closed)
            if new_dom is None:
                raise InvalidFunction("degenerate pseudo-inverse piece")  # unreachable
            segments[j] = Segment(new_dom, s.slope, s.intercept)
        elif not left_ok and not right_ok:
            isolated.append(Segment.const(Interval.point(y), crit_vals[j]))

    # merge adjacent segments with identical shape
    merged = []
    for s in segments:
        if merged:
            q = merged[-1]
            if (
                q.slope == s.slope
                and q.intercept == s.intercept
                and q.domain.hi == s.domain.lo
                and (q.domain.hi_closed or s.domain.lo_closed)
            ):
                merged[-1] = Segment(
                    Interval(q.domain.lo, s.domain.hi, q.domain.lo_closed, s.domain.hi_closed),
                    s.slope,
                    s.intercept,
                )
                continue
        merged.append(s)

    return PiecewiseMonotoneFn(f.nondecreasing, tuple(merged + isolated))


def reference_sweep(f):
    """``pseudo_inverse``'s sweep on Fractions, which the pair sweep
    replaced: tops compared and lines inverted as Fractions, the pieces
    sorted by the constructor."""
    up = f.nondecreasing
    out = []  # [u_top, slope, intercept]: finv on (previous u_top, u_top], the first from 0

    def take(top, slope, intercept, first):
        if top <= (out[-1][0] if out else ZERO):
            return
        if not out and first != 0:
            out.append([ZERO, ZERO, ZERO])
        if out and out[-1][1:] == [slope, intercept]:
            out[-1][0] = top
        else:
            out.append([top, slope, intercept])

    for p, vals in zip(f.segments, f._values):
        first = p.domain.lo
        bottom, top = (vals.lo, vals.hi) if up else (1 - vals.hi, 1 - vals.lo)
        if p.is_const:
            take(top, ZERO, first, first)
        else:
            take(bottom, ZERO, first, first)
            take(top, 1 / p.slope, -p.intercept / p.slope, first)
    take(ONE, ZERO, ONE, ONE)

    segments = []
    lo, lo_closed = ZERO, True
    for top, slope, intercept in out:
        dom = (Interval(lo, top, lo_closed, True) if up
               else Interval(1 - top, 1 - lo, True, lo_closed))
        segments.append(Segment(dom, slope, intercept))
        lo, lo_closed = top, False
    return PiecewiseMonotoneFn(up, tuple(segments))


def reference_decomposition(f):
    """``decompose``'s result built on Fractions, as ``_decomposition`` did
    before its pair rewrite, from the per-call references above: the range
    sorted by ``IntervalSet.of``, the kept ends tested by membership of
    their values, C as a sorted set and K1 by Fraction order.  Its values
    are then given as their reduced pairs, as ``decompose`` holds them."""
    m = IntervalSet.of(reference_attained_values(p) for p in reference_pieces(f))
    q = reference_plateau_set(f)
    f0plus, f1minus = side_limit(f, ZERO, "right"), side_limit(f, ONE, "left")
    if q.is_empty:
        upsilon = tau = ZERO
    else:
        upsilon = q.parts[-1].hi
        tau = reference_first_arg_above(f, upsilon)
    if m == IntervalSet.unit():
        s, c = ((ONE, ONE, ONE),), (ONE,)
    else:
        gaps = m.complement().parts
        kept = [[v for v in (g.lo, g.hi) if m.contains_pair(*pair(v))] for g in gaps]
        assert all(kept)
        s = tuple((g.lo, g.hi, cs[0]) for g, cs in zip(gaps, kept))
        c = tuple(sorted({cv for cs in kept for cv in cs}))
    k1 = tuple(i for i, (b, _, _) in enumerate(s) if b >= upsilon)
    return pwfn.Decomposition(m, tuple(tuple(map(pair, g)) for g in s), tuple(map(pair, c)), q,
                              *map(pair, (f0plus, f1minus, tau, upsilon)), k1)


def reference_eval_fn(f, x):
    """f(x) by scanning the segments with ``Interval.contains_pair``: the
    evaluation that ``eval_fn``'s integer table replaced."""
    x = frac(x)
    if x < 0 or x > 1:
        raise DomainError(f"argument {x} outside [0,1]")
    for s in f.segments:
        if s.domain.contains_pair(*pair(x)):
            return reference_value_at(s, x)
    raise InvalidFunction(f"no piece covers {x}")  # unreachable for valid fns


def probe_values(f):
    """The breakpoints of f, the midpoints between them and the sixteenths."""
    bps = f.breakpoints()
    mids = [(a + b) / 2 for a, b in zip(bps, bps[1:])]
    return sorted(set(bps) | set(mids) | set(grid(16)))


def inverse_probes(f):
    """The critical values of the pseudo-inverse (0, 1 and the endpoints of
    every piece's values) and three interior points between neighbours:
    the pseudo-inverse is linear between critical values, so agreeing on
    values and both one-sided limits here pins it down everywhere."""
    crit = sorted({F(0), F(1)} | {e for p in reference_pieces(f)
                                  for e in (reference_attained_values(p).lo,
                                            reference_attained_values(p).hi)})
    inner = [a + (b - a) * k / 4 for a, b in zip(crit, crit[1:]) for k in (1, 2, 3)]
    return sorted(set(crit) | set(inner))


def assert_same_inverse(g, ref, ys):
    for y in ys:
        assert eval_fn(g, y) == eval_fn(ref, y), y
        for side in ("left", "right"):
            assert side_limit(g, y, side) == side_limit(ref, y, side), (y, side)


@settings(max_examples=60, deadline=None)
@given(f=st.one_of(monotone_fns(), nonincreasing_fns()))
def test_cached_structure_matches_references(f):
    q = reference_plateau_set(f)
    assert plateau_set(f) == q
    assert f.is_strictly_monotone == q.is_empty
    m = IntervalSet.of(reference_attained_values(p) for p in reference_pieces(f))
    assert range_of(f) == m
    ys = probe_values(f)
    for y in ys:
        assert pseudo_inverse_at(f, y) == reference_first_arg(f, y, f.nondecreasing), y
        if f.nondecreasing:
            assert first_arg_above(f, y) == reference_first_arg_above(f, y), y
    g = pseudo_inverse(f)
    # the pair sweep builds the Fraction sweep's segments, already in order
    assert g == reference_sweep(f)
    for y in sorted(set(ys) | set(inverse_probes(f))):
        assert eval_fn(g, y) == reference_first_arg(f, y, f.nondecreasing), y
    assert_same_inverse(g, reference_pseudo_inverse(f), inverse_probes(f))
    if f.nondecreasing:
        d, ref = decompose(f), reference_decomposition(f)
        assert reference_reconstruct(d) == m
        names = [fld.name for fld in dataclasses.fields(d)]
        assert len(names) == 9
        for name in names:
            assert getattr(d, name) == getattr(ref, name), name


def test_pair_structure_matches_references_on_the_lattice():
    # every non-decreasing f with breakpoints k/3 and values k/4, and the
    # mirrors 1 - f of those with values k/3
    for f in list(lattice_fns(3, 4)) + [_one_minus(g) for g in lattice_fns()]:
        assert pseudo_inverse(f) == reference_sweep(f), str(f)
        assert plateau_set(f) == reference_plateau_set(f), str(f)
        if f.nondecreasing:
            d, ref = decompose(f), reference_decomposition(f)
            assert dataclasses.astuple(d) == dataclasses.astuple(ref), str(f)


def reference_jumps(f):
    """(x0, lo, hi) at every discontinuity, from one-sided limits computed
    afresh on every call, each given as its reduced pair."""
    out = []
    for x0 in f.breakpoints():
        v = eval_fn(f, x0)
        lo = v if x0 == 0 else side_limit(f, x0, "left")
        hi = v if x0 == 1 else side_limit(f, x0, "right")
        if lo != hi or lo != v:
            out.append((pair(x0), pair(min(lo, v)), pair(max(hi, v))))
    return out


def reference_plateau_pair(f, w):
    """(x1, x2) with x1 != x2 and f(x1) = f(x2) = w, found afresh."""
    x1 = arg_with_value(f, w)
    x2 = arg_with_value(f, w, avoid=x1)
    if x2 is None:
        x2 = (x1 + approach_segment(f, x1, "left").domain.lo) / 2
    return x1, x2


@settings(max_examples=60, deadline=None)
@given(f=st.one_of(monotone_fns(), nonincreasing_fns()))
def test_per_function_caches_match_references(f):
    q = plateau_set(f)
    assert "_plateau_pairs" not in vars(f)
    classify(f, parse_tnorm("product"))
    if q.is_empty:
        assert "_plateau_pairs" not in vars(f)
    assert list(f._jumps) == reference_jumps(f)
    for w in (p.lo for p in q.parts):
        got = _plateau_pair(f, pair(w))
        x1, x2 = reference_plateau_pair(f, w)
        assert got == (pair(x1), pair(x2))
        assert x1 != x2 and eval_fn(f, x1) == eval_fn(f, x2) == w
        assert _plateau_pair(f, pair(w)) is got
    for got, want in zip(f._values, map(reference_attained_values, f.segments)):
        assert got == want
        assert (got.ln, got.ld, got.hn, got.hd) == (want.ln, want.ld, want.hn, want.hd)
    if f.nondecreasing:
        d = decompose(f)
        c_set = IntervalSet.of(Interval.point(F(*v)) for v in d.c)
        assert d.c_set == c_set
        assert d.m_minus_c == d.m.minus(c_set)
        assert d.m_minus_c is d.m_minus_c


# 1/(3 * 2^2000): added to a rational of small denominator, it gives one of
# denominator above 2^2000, the size the Archimedean power walks reach
TINY = F(1, 3 * 2 ** 2000)


def outcome(fn, *args):
    """fn's value, or the type of the ValueError or TypeError it raised."""
    try:
        return fn(*args)
    except (ValueError, TypeError) as e:
        return type(e)


def pair_value(g, x):
    """g(x) from ``eval_pair`` on the pair of x, whose denominator must be
    positive."""
    n, d = eval_pair(g, x.numerator, x.denominator)
    assert d > 0
    return F(n, d)


@settings(max_examples=80, deadline=None)
@given(f=st.one_of(monotone_fns(), nonincreasing_fns()),
       big=st.lists(st.integers(0, 2 ** 2001), max_size=4))
def test_eval_kernel_matches_segment_scan(f, big):
    for g in (f, pseudo_inverse(f)):
        xs = probe_values(g)
        xs += [x + e for x in g.breakpoints() + [F(1, 2)] for e in (-TINY, TINY)]
        xs += [F(n, 2 ** 2001 + 1) for n in big]
        xs += [F(-1, 3), F(4, 3), 0, 1, 2, -1, "1/3", "5/4", 0.5, True]
        for x in xs:
            got, want = outcome(eval_fn, g, x), outcome(reference_eval_fn, g, x)
            assert got == want, x
            assert isinstance(got, F) or got in (DomainError, TypeError), x
            if isinstance(x, F):
                assert outcome(pair_value, g, x) == want, x


def one_by_one(f, ys, closed):
    return [pwfn._first_arg(f, yn, yd, closed) for yn, yd in ys]


def value_probes(f):
    """f's values at its probes, the ends of its value intervals (its
    range's gap ends among them), and their neighbours within [0,1]."""
    vs = {eval_fn(f, x) for x in probe_values(f)}
    vs |= {e for v in f._values for e in (v.lo, v.hi)}
    return sorted(vs | {v + e for v in vs for e in (-TINY, TINY) if 0 <= v + e <= 1})


@settings(max_examples=80, deadline=None)
@given(f=st.one_of(monotone_fns(), nonincreasing_fns()), seed=st.integers(0, 2 ** 32))
def test_first_args_matches_first_arg(f, seed):
    # f's values with their neighbours and the sixteenths, ascending,
    # descending, shuffled and repeated, some as unreduced pairs, with the
    # target closed and open: the same pairs as one scan per value
    rng = random.Random(seed)
    up = [(y.numerator, y.denominator) for y in value_probes(f)]
    up[1::3] = [(3 * p, 3 * q) for p, q in up[1::3]]
    shuffled = up[:]
    rng.shuffle(shuffled)
    repeated = [k for k in up for _ in range(2)] + up[::-1] + up
    for closed in (True, False):
        for ys in (up, up[::-1], shuffled, repeated, up[:1], []):
            assert pwfn._first_args(f, ys, closed) == one_by_one(f, ys, closed)


class _CountingPieces(tuple):
    """A function's value intervals that count how often one is read, by
    index or by iteration."""

    reads = 0

    def __getitem__(self, i):
        type(self).reads += 1
        return tuple.__getitem__(self, i)

    def __iter__(self):
        for v in tuple.__iter__(self):
            type(self).reads += 1
            yield v


def counted_sweep(f, ys, closed):
    """_first_args(f, ys, closed), and how many value intervals it read."""
    _CountingPieces.reads = 0
    stub = dataclasses.replace(f)
    stub.__dict__["_values"] = _CountingPieces(f._values)
    return pwfn._first_args(stub, ys, closed), _CountingPieces.reads


@pytest.mark.parametrize("text", [
    "monotone: nondecreasing\nsegment [0,1/4] const 0\nsegment (1/4,1/2) linear 1 -1/4\n"
    "point 1/2 = 1/2\nsegment (1/2,3/4] const 3/4\nsegment (3/4,1] linear 1 0\n",
    "monotone: nonincreasing\nsegment [0,1/3] linear -1 1\nsegment (1/3,2/3] const 1/3\n"
    "segment (2/3,1] linear -1 1\n",
], ids=["nondecreasing", "nonincreasing"])
@pytest.mark.parametrize("closed", [True, False])
def test_first_args_takes_one_pass_for_ascending_values(text, closed, monkeypatch):
    # each value three times, ascending.  For non-decreasing f every piece
    # is read once on the way up, and each value's scan reads its own piece
    # once more, so the repeats, equal to the value before, start where it
    # ended.  For non-increasing f each scan starts at the first piece, so
    # the sweep reads what the values' scans read one at a time
    f = parse_fn(text)
    ys = [(k, 12) for k in range(13) for _ in range(3)]
    monkeypatch.setattr(_CountingPieces, "reads", 0)
    got, reads = counted_sweep(f, ys, closed)
    assert got == one_by_one(f, ys, closed)
    if f.nondecreasing:
        assert reads <= len(ys) + len(f.segments)
    else:
        assert reads == sum(counted_sweep(f, [y], closed)[1] for y in ys) > len(ys)


@settings(max_examples=80, deadline=None)
@given(f=monotone_fns(), extra=st.lists(st.fractions(0, 1, max_denominator=60), max_size=6))
def test_first_arg_gives_the_pseudo_inverse_side_limits(f, extra):
    # for non-decreasing f, finv(y) = inf{x : f(x) >= y} is left-continuous,
    # and its right limit at w is inf{x : f(x) > w}: the scan with the
    # target closed from the left and open from the right equals the closed
    # form's one-sided limit, its conventions at 0 and 1 included, at f's
    # values, its range's gap ends, their neighbours and random rationals
    g = pseudo_inverse(f)
    for w in sorted(set(value_probes(f)) | set(extra)):
        for side in ("left", "right"):
            got = pwfn._first_arg(f, w.numerator, w.denominator, side == "left")
            want = pwfn.limit_pair(g, w.numerator, w.denominator, side)[0]
            assert F(*got) == F(*want), (w, side)


def test_eval_open_and_closed_ends():
    # [0,1/2) and (1/2,1] lines around an isolated point at 1/2, whose
    # value neither line reaches
    f = parse_fn("monotone: nondecreasing\n"
                 "segment [0,1/2) linear 1/2 0\n"
                 "point 1/2 = 3/8\n"
                 "segment (1/2,1] linear 1/2 1/2\n")
    assert eval_fn(f, F(1, 2)) == F(3, 8)
    assert eval_fn(f, F(1, 2) - TINY) == F(1, 4) - TINY / 2
    assert eval_fn(f, F(1, 2) + TINY) == F(3, 4) + TINY / 2
    assert eval_fn(f, 1) == 1
    for x in (-TINY, 1 + TINY):
        with pytest.raises(DomainError):
            eval_fn(f, x)


@pytest.mark.parametrize("text", [
    "monotone: nondecreasing\nsegment [0,1] linear 1/2 1/4\n",
    "monotone: nonincreasing\nsegment [0,1] linear -1/2 3/4\n",
], ids=["nondecreasing", "nonincreasing"])
def test_pointwise_inverse_rejects_arguments_outside_unit(text):
    f = parse_fn(text)
    for y in (F(-1), F(2), -TINY, 1 + TINY):
        for fn in (pseudo_inverse_at, first_arg_above):
            with pytest.raises(DomainError, match=r"outside \[0,1\]"):
                fn(f, y)
        with pytest.raises(DomainError, match=r"outside \[0,1\]"):
            eval_fn(pseudo_inverse(f), y)


@pytest.mark.parametrize("text", [
    # a plateau right after an open-topped line
    "monotone: nondecreasing\n"
    "segment [0,5/8) linear 7/10 1/2\n"
    "segment [5/8,1] const 15/16\n",
    # an isolated point between two open segment ends, at the value the
    # first segment approaches
    "monotone: nondecreasing\n"
    "segment [0,1/2) linear 1/2 0\n"
    "point 1/2 = 1/4\n"
    "segment (1/2,1] linear 1/2 1/2\n",
    # non-increasing with a jump
    "monotone: nonincreasing\n"
    "segment [0,1/2] linear -1/2 1\n"
    "segment (1/2,1] linear -1/2 1/2\n",
    # f(1) < 1
    "monotone: nondecreasing\n"
    "segment [0,1] linear 1/2 1/4\n",
    # a plateau at 0, so finv is 0 at 0 alone
    "monotone: nondecreasing\n"
    "segment [0,1/4] const 0\n"
    "segment (1/4,1] linear 1 -1/4\n",
], ids=["plateau_after_open_line", "isolated_point", "nonincreasing_jump",
        "f1_below_one", "plateau_at_zero"])
def test_pseudo_inverse_shapes_match_reference(text):
    f = parse_fn(text)
    assert_same_inverse(pseudo_inverse(f), reference_pseudo_inverse(f),
                        inverse_probes(f))


@settings(max_examples=60, deadline=None)
@given(f=st.one_of(monotone_fns(), nonincreasing_fns()))
def test_pseudo_inverse_builds_without_pointwise_queries(f):
    def refuse(*args):
        raise AssertionError("pseudo_inverse queried the pointwise inverse")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pwfn, "_first_arg", refuse)
        pseudo_inverse(f)


PER_FUNCTION_CACHES = {"_values", "_breakpoints", "_plateau", "_decomposition", "_jumps",
                       "_plateau_pairs", "_search_grids", "_facts"}


def test_caches_leave_identity_alone(f_step):
    before = (hash(f_step), repr(f_step))
    d_before = (hash(decompose(f_step)), repr(decompose(f_step)))
    for family in ("product", "min"):
        classify(f_step, parse_tnorm(family))
    assert PER_FUNCTION_CACHES <= set(vars(f_step))
    assert {"c_set", "m_minus_c"} <= set(vars(decompose(f_step)))
    assert (hash(decompose(f_step)), repr(decompose(f_step))) == d_before
    # the pseudo-inverse is validated like any function, which keeps no
    # value intervals on it
    assert "_values" not in vars(pseudo_inverse(f_step))
    fresh = parse_fn(render_fn(f_step))
    assert not PER_FUNCTION_CACHES & set(vars(fresh))
    assert f_step == fresh
    assert (hash(f_step), repr(f_step)) == before == (hash(fresh), repr(fresh))
    assert isinstance(f_step.segments, tuple)
    assert f_step.breakpoints() is not f_step.breakpoints()


def test_segment_views_keep_eq_hash_and_repr():
    # the domain and the slope and intercept pairs are the only data, and
    # slope, intercept are read-only Fraction views of the pairs, built on
    # each read; equality, hashing and repr are those of the tuple
    # (domain, slope, intercept), however the numbers were given
    assert Segment.__slots__ == ("domain", "sn", "sd", "cn", "cd")
    dom = Interval(F(1, 4), F(1, 2), False, True)
    built = [Segment(dom, F(1, 2), F(1, 8)), Segment.linear(dom, F(2, 4), "2/16"),
             Segment(Interval("1/4", "2/4", False, True), "2/4", 1 - F(7, 8)),
             _segment(dom, 1, 2, 1, 8)]
    for s in built:
        assert not hasattr(s, "__dict__")
        assert (s.sn, s.sd, s.cn, s.cd) == (1, 2, 1, 8)
        assert s == built[0] and not s != built[0] and not s.is_const
        assert hash(s) == hash(((F(1, 4), F(1, 2), False, True), F(1, 2), F(1, 8)))
        assert repr(s) == (f"Segment(domain={dom!r}, slope=Fraction(1, 2), "
                           "intercept=Fraction(1, 8))")
        for _ in range(2):
            assert type(s.slope) is F and s.slope == F(s.sn, s.sd) == F(1, 2)
            assert type(s.intercept) is F and s.intercept == F(s.cn, s.cd) == F(1, 8)
        with pytest.raises(AttributeError):
            s.slope = F(1, 4)
    for s in (Segment.const(dom, "1/2"), Segment(dom, 0, F(1, 2)), Segment(dom, "0/3", "2/4")):
        assert s.is_const and s == Segment(dom, F(0), F(1, 2))
        assert hash(s) == hash((dom, F(0), F(1, 2)))
    for other in (Segment(dom, F(1, 2), F(1, 4)), Segment(dom, F(1, 3), F(1, 8)),
                  Segment(Interval(F(1, 4), F(1, 2)), F(1, 2), F(1, 8))):
        assert other != built[0]
    assert built[0].__eq__((dom, F(1, 2), F(1, 8))) is NotImplemented


def test_fn_eq_hash_and_repr_match_across_constructors():
    parsed = parse_fn("monotone: nondecreasing\nsegment [0,1/2) linear 1/2 0\n"
                      "point 1/2 = 1/2\nsegment (1/2,1] const 3/4\n")
    built = PiecewiseMonotoneFn(True, (
        Segment.const(Interval.make("1/2", 1, False, True), F(3, 4)),
        Segment.linear(Interval.make(0, F(1, 2), True, False), "1/2", 0),
        Segment.const(Interval.point(F(1, 2)), "1/2")))
    assert parsed == built and hash(parsed) == hash(built)
    assert hash(parsed) == hash((True, (
        ((F(0), F(1, 2), True, False), F(1, 2), F(0)),
        ((F(1, 2), F(1, 2), True, True), F(0), F(1, 2)),
        ((F(1, 2), F(1), False, True), F(0), F(3, 4)))))
    assert repr(parsed) == repr(built) == (
        "PiecewiseMonotoneFn(nondecreasing=True, segments=("
        "Segment(domain=Interval(lo=Fraction(0, 1), hi=Fraction(1, 2), lo_closed=True, "
        "hi_closed=False), slope=Fraction(1, 2), intercept=Fraction(0, 1)), "
        "Segment(domain=Interval(lo=Fraction(1, 2), hi=Fraction(1, 2), lo_closed=True, "
        "hi_closed=True), slope=Fraction(0, 1), intercept=Fraction(1, 2)), "
        "Segment(domain=Interval(lo=Fraction(1, 2), hi=Fraction(1, 1), lo_closed=False, "
        "hi_closed=True), slope=Fraction(0, 1), intercept=Fraction(3, 4))))")
    assert parsed != parse_fn("monotone: nondecreasing\nsegment [0,1/2) linear 1/2 0\n"
                              "point 1/2 = 1/2\nsegment (1/2,1] const 4/5\n")


# -- validation --------------------------------------------------------------


def test_rejects_gap_in_tiling():
    with pytest.raises(InvalidFunction):
        PiecewiseMonotoneFn(True, (
            Segment.linear(Interval.make(0, F(1, 2), True, False), F(1), F(0)),
            Segment.linear(Interval.make(F(3, 4), 1, True, True), F(1), F(0)),
        ))


def test_rejects_decreasing_values():
    with pytest.raises(ValueError):
        parse_fn("monotone: nondecreasing\n"
                 "segment [0,1/2] linear 1 0\n"
                 "segment (1/2,1] const 1/4\n")


def test_rejects_value_outside_unit():
    with pytest.raises(ValueError):
        parse_fn("monotone: nondecreasing\nsegment [0,1] linear 2 0\n")


def _fn(nondecreasing, *pieces):
    """A function from (domain text, slope, intercept) triples."""
    from subnormforge.fnformat import parse_interval
    return PiecewiseMonotoneFn(nondecreasing, tuple(
        Segment.linear(parse_interval(dom), F(s), F(c)) for dom, s, c in pieces))


# one case per InvalidFunction message of _validate, for each direction
# where the message has two sides
_INVALID = [
    ("no pieces", True, ()),
    ("domain gap or overlap at 1/2 (next piece starts [3/4,1])", True,
     (("[0,1/2)", 1, 0), ("[3/4,1]", 1, 0))),
    ("domain gap or overlap at 1/2 (next piece starts [1/4,1])", True,
     (("[0,1/2)", 1, 0), ("[1/4,1]", 0, 1))),
    ("domain gap or overlap at 1/2 (next piece starts (1/2,1])", True,
     (("[0,1/2)", 1, 0), ("(1/2,1]", 1, 0))),
    ("domain gap or overlap at 0 (next piece starts (0,1])", False, (("(0,1]", 0, 1),)),
    ("domain does not reach 1 (stops at 3/4)", True, (("[0,3/4]", 1, 0),)),
    ("domain does not reach 1 (stops at 1)", False, (("[0,1)", -1, 1),)),
    # values below 0 or above 1: at either end of a line, or as a constant
    ("values escape [0,1] on [0,1]", True, (("[0,1]", 1, F(-1, 8)),)),
    ("values escape [0,1] on [0,1]", True, (("[0,1]", 1, F(1, 8)),)),
    ("values escape [0,1] on [0,1]", False, (("[0,1]", -1, F(9, 8)),)),
    ("values escape [0,1] on [0,1]", False, (("[0,1]", -1, F(7, 8)),)),
    ("values escape [0,1] on (0,1]", True, (("{0}", 0, 0), ("(0,1]", 1, F(-1, 8)))),
    ("values escape [0,1] on [1/2,1]", True, (("[0,1/2)", 0, 0), ("[1/2,1]", 0, F(-1, 8)))),
    ("values escape [0,1] on [1/2,1]", False, (("[0,1/2)", 0, 1), ("[1/2,1]", 0, F(9, 8)))),
    ("decreasing segment in a non-decreasing function", True, (("[0,1]", F(-1, 2), F(1, 2)),)),
    ("increasing segment in a non-increasing function", False, (("[0,1]", F(1, 2), 0),)),
    ("values not non-decreasing across pieces", True,
     (("[0,1/2]", 1, 0), ("(1/2,1]", 1, F(-1, 8)))),
    ("values not non-decreasing across pieces", True,
     (("[0,1/2)", 1, 0), ("[1/2,1]", 0, F(1, 4)))),
    ("values not non-increasing across pieces", False,
     (("[0,1/2]", -1, 1), ("(1/2,1]", -1, F(9, 8)))),
    ("values not non-increasing across pieces", False,
     (("[0,1/2)", -1, 1), ("[1/2,1]", 0, F(3, 4)))),
]


@pytest.mark.parametrize("message, up, pieces", _INVALID)
def test_validate_rejects_with_its_message(message, up, pieces):
    with pytest.raises(InvalidFunction) as exc:
        _fn(up, *pieces)
    assert str(exc.value) == message


@pytest.mark.parametrize("up, pieces", [
    # end values exactly 0 and 1, attained or not
    (True, (("[0,1]", 1, 0),)),
    (False, (("[0,1]", -1, 1),)),
    (True, (("[0,1/2)", 2, 0), ("{1/2}", 0, 1), ("(1/2,1]", 0, 1))),
    (False, (("[0,1/2)", -2, 1), ("[1/2,1]", 0, 0))),
    (True, (("{0}", 0, 0), ("(0,1)", 0, F(1, 2)), ("{1}", 0, 1))),
    # neighbours that meet at one value, with and without a jump between
    (True, (("[0,1/2]", 1, 0), ("(1/2,1]", 1, 0))),
    (True, (("[0,1/2)", 1, 0), ("[1/2,1]", 0, F(1, 2)))),
    (True, (("[0,1/2]", 0, F(1, 2)), ("(1/2,1]", 1, 0))),
    (False, (("[0,1/2]", -1, 1), ("(1/2,1]", -1, 1))),
    (False, (("[0,1/2)", -1, 1), ("[1/2,1]", 0, F(1, 2)))),
    (False, (("[0,1/2]", 0, F(1, 2)), ("(1/2,1]", -1, 1))),
    # constants are both non-decreasing and non-increasing
    (True, (("[0,1]", 0, F(1, 3)),)),
    (False, (("[0,1]", 0, F(1, 3)),)),
])
def test_validate_accepts_boundary_cases(up, pieces):
    f = _fn(up, *pieces)
    assert f.nondecreasing is up


@settings(max_examples=200, deadline=None)
@given(st.booleans(), st.lists(st.tuples(
    st.fractions(min_value=-2, max_value=2, max_denominator=6),
    st.fractions(min_value=-1, max_value=2, max_denominator=6)), min_size=1, max_size=3))
def test_validate_matches_value_intervals(up, lines):
    # the pieces [0,1/3), [1/3,2/3), ... with arbitrary lines, judged by the
    # attained-value intervals as the pre-pair check judged them
    k = len(lines)
    segs = [Segment.linear(Interval.make(F(i, k), F(i + 1, k), True, i == k - 1), s, c)
            for i, (s, c) in enumerate(lines)]
    expected = None
    prev = None
    for p in segs:
        vals = reference_attained_values(p)
        if vals.lo < 0 or vals.hi > 1:
            expected = f"values escape [0,1] on {p.domain}"
        elif up and p.slope < 0:
            expected = "decreasing segment in a non-decreasing function"
        elif not up and p.slope > 0:
            expected = "increasing segment in a non-increasing function"
        elif prev is not None and up and vals.lo < prev.hi:
            expected = "values not non-decreasing across pieces"
        elif prev is not None and not up and vals.hi > prev.lo:
            expected = "values not non-increasing across pieces"
        if expected:
            break
        prev = vals
    if expected is None:
        assert PiecewiseMonotoneFn(up, tuple(segs)).segments == tuple(segs)
    else:
        with pytest.raises(InvalidFunction) as exc:
            PiecewiseMonotoneFn(up, tuple(segs))
        assert str(exc.value) == expected


def test_approach_segment_is_none_only_outside_the_unit_interval(f_half_jump, f_plateau):
    for f in (f_half_jump, f_plateau):
        assert approach_segment(f, ZERO, "left") is None
        assert approach_segment(f, ONE, "right") is None
        assert approach_segment(f, ZERO, "right") is f.segments[0]
        assert approach_segment(f, ONE, "left") is not None
