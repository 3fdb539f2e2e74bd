"""Three-valued classifier: verdicts, witnesses, and theorem routes."""

import importlib
import random
from fractions import Fraction
from itertools import islice
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (WIDE_BIG, WORKED_EXAMPLES, _one_minus, approach_segment, approx_diff,
                      fraction_contains, lattice_fns, monotone_fns, nonincreasing_fns, pair,
                      random_strictly_increasing_fn, reference_value_at, wide_fractions)
from subnormforge import (Interval, IntervalSet, PiecewiseMonotoneFn, Segment, classify, decompose,
                          eval_fn, f_eval, make_op, parse_fn, parse_tnorm, plateau_set,
                          pseudo_inverse, pseudo_inverse_at, pwfn, render_fn)
from subnormforge.classify import (
    _GRID_POINTS,
    _PQ_VALUES,
    ARCH_WITNESS_STEPS,
    ASSOC_GRID,
    DENSE_PROBES,
    NEUTRAL_GRID,
    PROPERTIES,
    TRAP_HALVINGS,
    TRAP_NEAR_ONE,
    _assoc_search,
    _dense_samples,
    _gap_collisions,
    _limit_search,
    _neutral_search,
    _plateau_pair,
    _search_grid,
    _trap_witness,
    arg_with_value,
    check_archimedean,
    check_cancellative,
    check_continuity,
    check_inclusion_conditions,
    l_set_check,
    render_structured,
    render_text,
    Verdict,
)
from subnormforge.oracle import check_property, consistency_harness
from subnormforge.pwfn import _first_args, first_arg_above
from subnormforge.tnorms import (Approx, GeneratorSpec, Lambda, t_eval, t_image,
                                 t_preimage, t_solve_x)

F = Fraction

PRODUCT = parse_tnorm("product")
HAMACHER2 = parse_tnorm("hamacher2")
MINIMUM = parse_tnorm("min")
HALFPROD = parse_tnorm("halfprod")


def statuses(report):
    return {k: v.status for k, v in report.properties.items()}


# -- worked examples ---------------------------------------------------------


def test_plateau_product(f_plateau):
    r = classify(f_plateau, PRODUCT)
    s = statuses(r)
    assert s["t_subnorm"] == "yes"
    assert s["conditionally_cancellative"] == "yes"
    assert s["cancellative"] == "no"
    assert s["strictly_monotone_op"] == "no"
    assert s["t_norm"] == "no"
    assert s["archimedean"] == "yes"
    assert s["continuous"] == "no"
    assert s["proper"] == "no"


def test_half_jump_hamacher2(f_half_jump):
    r = classify(f_half_jump, HAMACHER2)
    s = statuses(r)
    assert s["t_subnorm"] == "yes"
    assert s["t_norm"] == "yes"
    assert s["conditionally_cancellative"] == "yes"
    assert s["cancellative"] == "yes"
    assert s["strictly_monotone_op"] == "yes"
    assert s["continuous"] == "no"
    assert s["proper"] == "no"


def test_gap_halfprod_inclusion_escape_values(f_gap):
    # (a) fails with escape value 1/8, (b) holds
    assert check_inclusion_conditions(HALFPROD, decompose(f_gap)) == ((1, 8), None)


def test_gap_halfprod_properties_unknown(f_gap):
    # halfprod is outside every theorem route, so algebraic properties
    # stay three-valued Unknown rather than guessing
    r = classify(f_gap, HALFPROD)
    s = statuses(r)
    assert s["conditionally_cancellative"] == "unknown"
    assert s["t_subnorm"] == "unknown"


def test_shifted_jump_min_gate(f_shifted_jump):
    # min is continuous but not strictly monotone: both inclusion
    # conditions hold yet F=min is not conditionally cancellative, so the
    # classifier must not upgrade this to Yes
    d = decompose(f_shifted_jump)
    assert check_inclusion_conditions(MINIMUM, d) == (None, None)
    r = classify(f_shifted_jump, MINIMUM)
    assert statuses(r)["conditionally_cancellative"] == "unknown"


def test_min_continuity_witness_jumps_on_its_stated_side(f_plateau):
    # min(u, c) = c for u > v once c = v, so F(., 0) is constant around 1/2
    op = make_op(f_plateau, MINIMUM)
    assert all(f_eval(op, F(1, 2) + e, 0) == f_eval(op, F(1, 2), 0) == 0
               for n in (3, 6, 9) for e in (F(1, 10 ** n), -F(1, 10 ** n)))
    v = check_continuity(op)
    assert v.status == "no" and v.witness != (F(1, 2), 0)
    (x, y), side = v.witness, v.note.split()[0]
    step = F(1) if side == "right" else F(-1)
    for n in (3, 6, 9):
        jump = f_eval(op, x + step / 10 ** n, y) - f_eval(op, x, y)
        assert abs(jump) > F(1, 4)


def test_step_product(f_step):
    r = classify(f_step, PRODUCT)
    s = statuses(r)
    assert s["conditionally_cancellative"] == "no"
    assert s["t_subnorm"] == "no"
    assert s["cancellative"] == "no"
    assert s["proper"] == "no"


def test_identity_product(f_identity):
    r = classify(f_identity, PRODUCT)
    s = statuses(r)
    assert s["t_subnorm"] == "yes"
    assert s["t_norm"] == "yes"
    assert s["cancellative"] == "yes"
    assert s["continuous"] == "yes"
    assert s["archimedean"] == "yes"
    assert s["proper"] == "no"


def test_identity_min_archimedean_no(f_identity):
    r = classify(f_identity, MINIMUM)
    assert statuses(r)["archimedean"] == "no"
    assert statuses(r)["continuous"] == "yes"


# -- witness soundness -------------------------------------------------------


# The benchmark's re-check of an Archimedean No (bench/checks.py): the
# powers of x reach an exact fixed point within this many steps, none of
# them below y.  Here x and y must also lie in (0,1), which the bench does
# not ask.
ARCH_RECHECK_STEPS = 1024


def arch_witness_rechecks(op, witness) -> bool:
    x, y = witness
    if not (0 < x < 1 and 0 < y < 1):
        return False
    acc = x
    for _ in range(ARCH_RECHECK_STEPS):
        nxt = f_eval(op, acc, x)
        if isinstance(nxt, Approx) or nxt < y:
            return False
        if nxt == acc:
            return True
        acc = nxt
    return False


def differ_beyond_radii(a, b) -> bool:
    """a != b, for values exact or Approx, beyond their summed radii."""
    d, r = approx_diff(a, b)
    return abs(d) > r


def not_associative(op, x, y, z) -> bool:
    """F(F(x,y),z) != F(x,F(y,z)), with exact intermediates F(x,y) and
    F(y,z): the benchmark's re-check of a triple witness."""
    xy, yz = f_eval(op, x, y), f_eval(op, y, z)
    if isinstance(xy, Approx) or isinstance(yz, Approx):
        return False
    return differ_beyond_radii(f_eval(op, xy, z), f_eval(op, x, yz))


def recheck_no_witnesses(f, t, report):
    """Every No witness that ``bench/checks.py`` re-checks by evaluating F
    at finitely many points, re-checked the same way; a No whose witness
    is not of a known form fails."""
    op = make_op(f, t)
    v = report.properties["archimedean"]
    if v.status == "no":
        assert arch_witness_rechecks(op, v.witness), v
    v = report.properties["conditionally_cancellative"]
    if v.status == "no" and v.witness and len(v.witness) == 3:
        x1, x2, y = v.witness
        a, b = f_eval(op, x1, y), f_eval(op, x2, y)
        assert a == b and a > 0 and x1 != x2
    for prop in ("cancellative", "strictly_monotone_op"):
        v = report.properties[prop]
        if v.status == "no":
            x, y1, y2 = v.witness
            assert x != 0 and y1 != y2, v
            assert f_eval(op, x, y1) == f_eval(op, x, y2), v
    v = report.properties["proper"]
    if v.status == "yes":
        top = f_eval(op, F(1), F(1))
        if not isinstance(top, Approx):
            assert top < 1, v
        elif top.value + top.radius >= 1:
            # T(1,1) = 1 exactly, so F(1,1) = finv(1) exactly, whatever the
            # radius: f = 1 non-increasing gets here, with a radius of 1
            assert t.neutral_one and eval_fn(f, F(1)) == 1, v
            assert pseudo_inverse_at(f, F(1)) < 1, v
    v = report.properties["t_subnorm"]
    if v.status == "no":
        assert not_associative(op, *v.witness), v
    v = report.properties["t_norm"]
    if v.status == "no":
        w = v.witness
        if len(w) == 3:
            assert not_associative(op, *w), v
        else:  # F(x,1) != x, written (x, 1) or (x,)
            assert len(w) == 1 or w[1] == 1, v
            assert differ_beyond_radii(f_eval(op, w[0], F(1)), w[0]), v


def test_proper_reads_finv_of_one_when_t_has_neutral_one():
    # f = 1 everywhere and non-increasing: T(f(1), f(1)) = 1 exactly for
    # either family, so F(1,1) = finv(1) = 0, whatever gen:neglog's radius
    f = parse_fn("monotone: nonincreasing\nsegment [0,1] const 1\n")
    for tdesc in ("product", "gen:neglog"):
        v = classify(f, parse_tnorm(tdesc)).properties["proper"]
        assert (v.status, v.evidence) == ("yes", ("F(1,1)=0 < 1",)), tdesc


# -- continuity ----------------------------------------------------------------


def reference_side_limit(g, a, side):
    """g's one-sided limit at a with side_limit's conventions, from the
    segment that approaches a (approach_segment), not from pwfn's pair
    kernel."""
    if side == "left" and a == 0:
        return F(0) if g.nondecreasing else F(1)
    if side == "right" and a == 1:
        return F(1) if g.nondecreasing else F(0)
    return reference_value_at(approach_segment(g, a, side), a)


def reference_dir_limit(op, x0, y0, side, approach):
    """Exact lim F(x, y0) as x -> x0 from `side` on Fractions; None when not
    computable.  `approach` maps (x0, side) to the segment of f approaching
    x0 from `side` and its value at x0, filled as asked: neither depends on
    y0.  T's limit is the family's dir_limit, read as a Fraction."""
    t = op.t
    if (side == "left" and x0 == 0) or (side == "right" and x0 == 1):
        return None
    c = op.f_at(y0)
    if c == 0:
        return op.finv_at(F(0))
    seg_v = approach.get((x0, side))
    if seg_v is None:
        # x0 is neither 0 from the left nor 1 from the right, so a segment
        # approaches it
        seg = approach_segment(op.f, x0, side)
        seg_v = approach[x0, side] = seg, reference_value_at(seg, x0)
    seg, v = seg_v
    if seg.is_const:
        return op.finv_at(t_eval(t, v, c))
    (n, d), const = t.dir_limit((v.numerator, v.denominator), side, (c.numerator, c.denominator))
    w = F(n, d)
    if const:
        return op.finv_at(w)
    if side == "left":
        return reference_side_limit(pseudo_inverse(op.f), w, "left")
    if w == 1:
        return op.finv_at(F(1))
    return reference_side_limit(pseudo_inverse(op.f), w, "right")


def reference_limit_search(op):
    """check_continuity's refutation search, checking every pair (px, py)
    even when an earlier pair had the same px and f(py)."""
    f, t = op.f, op.t
    cands_x = set(f.breakpoints())
    ys = sorted(set(f.breakpoints()) | {F(1)})
    for q in (p.lo for p in decompose(f).q.parts):
        for y0 in ys:
            for u in t_solve_x(t, op.f_at(y0), q):
                xa = arg_with_value(f, u)
                if xa is not None:
                    cands_x.add(xa)
    approach = {}
    for x0 in sorted(cands_x):
        for y0 in ys:
            for px, py in ((x0, y0), (y0, x0)):
                val = f_eval(op, px, py)
                for side in ("left", "right"):
                    lim = reference_dir_limit(op, px, py, side, approach)
                    if lim is not None and lim != val:
                        return Verdict.no((px, py), note=f"{side} limit {lim} != value "
                                                         f"{val} along the first argument")
    return None


@pytest.mark.parametrize("tdesc", ["product", "hamacher2", "min", "halfprod"])
@settings(max_examples=40, deadline=None)
@given(f=st.one_of(monotone_fns(), nonincreasing_fns()))
def test_limit_search_skips_no_mismatch(tdesc, f):
    # skipping a pair whose (px, f(py)) was checked must leave the whole
    # Verdict of check_continuity as it is without the skip
    t = parse_tnorm(tdesc)
    got = check_continuity(make_op(f, t))
    with mock.patch("subnormforge.classify._limit_search", reference_limit_search):
        want = check_continuity(make_op(f, t))
    assert got == want


@pytest.mark.parametrize("tdesc", ["product", "hamacher2", "min", "halfprod"])
def test_limit_search_matches_reference_on_the_lattice(tdesc):
    # the pair search against the Fraction reference, verdict, witness and
    # note, on every lattice function (each non-decreasing, as the search
    # needs).  Budget: 5 s for the four families together; they take about
    # 1 s on a 2-core host
    t = parse_tnorm(tdesc)
    for f in LATTICE:
        assert _limit_search(make_op(f, t)) == reference_limit_search(make_op(f, t)), str(f)


def test_lambda_continuity_needs_the_line_through_0():
    # only f(x) = lam*x makes F the additively generated operation
    t = parse_tnorm("lambda:one-minus-log:2/5")
    assert check_continuity(make_op(parse_fn(
        "monotone: nondecreasing\nsegment [0,1] linear 2/5 0\n"), t)).status == "yes"
    for line in ("2/5 1/10", "1/2 0"):
        f = parse_fn(f"monotone: nondecreasing\nsegment [0,1] linear {line}\n")
        assert check_continuity(make_op(f, t)) == Verdict.unknown(
            "non-canonical generator composition"), line


@pytest.mark.parametrize("name,tdesc", [
    ("plateau", "product"), ("half_jump", "hamacher2"),
    ("step", "product"), ("gap", "product")])
def test_witnesses_recheck(name, tdesc):
    f = parse_fn(WORKED_EXAMPLES[name])
    t = parse_tnorm(tdesc)
    recheck_no_witnesses(f, t, classify(f, t))


LATTICE = list(lattice_fns())


@pytest.mark.parametrize("tdesc", ["product", "hamacher2", "min", "halfprod", "gen:neglog"])
def test_lattice_harness(tdesc):
    # every lattice function with nb = nv = 3 and its mirror 1 - f: no
    # classifier Yes may meet an oracle counterexample, and every No must
    # re-check.  Budget: 12 s for the five families together; they take
    # about 4 s on a 2-core host
    t = parse_tnorm(tdesc)
    assert len(LATTICE) == 286
    for f in LATTICE + [_one_minus(g) for g in LATTICE]:
        rep = consistency_harness(f, t, n=8)
        assert rep.ok, (str(f), rep.hard_failures)
        recheck_no_witnesses(f, t, classify(f, t))


# -- range queries on integer pairs -----------------------------------------
#
# The reference_* functions do the work of arg_with_value and
# _neutral_search on Fractions; the pair versions must agree with them.


def reference_arg_with_value(f, v, avoid=None):
    for p, vals in zip(f.segments, f._values):
        if not fraction_contains(vals, v):
            continue
        d = p.domain
        if p.is_const:
            for cand in (d.lo if d.lo_closed else None, (d.lo + d.hi) / 2,
                         d.hi if d.hi_closed else None):
                if cand is not None and fraction_contains(d, cand) and cand != avoid:
                    return cand
        else:
            x = (v - p.intercept) / p.slope
            if x != avoid:
                return x
    return None


def value_probes(f):
    """The ends and midpoint of every piece's values, each also moved up
    by 1/WIDE_BIG, off the small denominators of f's values, and the
    sevenths."""
    vals = {F(i, 7) for i in range(8)}
    for iv in f._values:
        vals.update((iv.lo, iv.hi, iv.midpoint()))
    vals |= {min(F(1), v + F(1, WIDE_BIG)) for v in vals}
    return sorted(vals)


def assert_arg_with_value_matches(f, extra=()):
    for v in value_probes(f):
        x = reference_arg_with_value(f, v)
        assert arg_with_value(f, v) == x, (str(f), v)
        for avoid in (x, *extra):
            assert arg_with_value(f, v, avoid=avoid) == reference_arg_with_value(
                f, v, avoid), (str(f), v, avoid)


@settings(max_examples=60, deadline=None)
@given(f=st.one_of(monotone_fns(), nonincreasing_fns()),
       avoid=st.fractions(min_value=0, max_value=1, max_denominator=2 ** 64))
def test_arg_with_value_matches_reference(f, avoid):
    assert_arg_with_value_matches(f, (avoid,))


def test_arg_with_value_matches_reference_on_the_lattice():
    # the lattice's constant pieces are open at both ends, so the scan
    # takes their midpoints
    for f in LATTICE:
        assert_arg_with_value_matches(f, (F(1, 3), F(1, 2)))
    f = parse_fn(F_OPEN_PLATEAU)
    assert arg_with_value(f, F(1, 2)) == F(3, 8)
    assert arg_with_value(f, F(1, 2), avoid=F(3, 8)) is None


def is_reduced_pair(k) -> bool:
    """Whether k is a reduced pair of ints (n, d) with d > 0."""
    return (len(k) == 2 and all(type(i) is int for i in k) and k[1] > 0
            and gcd(*k) == 1)


def reference_neutral_search(op, pts):
    for x in pts:
        v = f_eval(op, x, F(1))
        d, r = approx_diff(v, x)
        if abs(d) > r:
            return x, v
    return None


@pytest.mark.parametrize("tdesc", ["product", "hamacher2", "min", "halfprod"])
def test_neutral_search_matches_reference_on_the_lattice(tdesc):
    t = parse_tnorm(tdesc)
    for f in LATTICE + [_one_minus(g) for g in LATTICE]:
        pts = _search_grid(f, 8)
        values = sorted({F(i, 8) for i in range(9)} | set(f.breakpoints()))
        assert pts == tuple(map(pair, values))
        assert _search_grid(f, 8) is pts
        op = make_op(f, t)
        got = _neutral_search(op, pts)
        if got is not None:
            # x and F(x,1)'s key, reduced pairs for these exact families
            x, v = got
            assert is_reduced_pair(x) and is_reduced_pair(v)
            got = F(*x), F(*v)
        assert got == reference_neutral_search(make_op(f, t), values), str(f)


def reference_dense_samples(s):
    """``_dense_samples`` on Fractions: a set, sorted."""
    out = set()
    for p in s.parts:
        if p.lo_closed:
            out.add(p.lo)
        if p.hi_closed:
            out.add(p.hi)
        if p.lo < p.hi:
            for j in range(1, DENSE_PROBES + 1):
                out.add(p.lo + (p.hi - p.lo) * F(j, DENSE_PROBES + 1))
    return sorted(out)


def reference_gap_collisions(op, d, domain, z):
    """``_gap_collisions`` on Fractions, which the pair search replaced:
    membership by ``IntervalSet.contains``, T(u, v) by ``t_eval``, and
    ``arg_with_value`` and F evaluated afresh for every pair of samples."""
    t = op.t
    b, dd, c = next((F(*b), F(*dd), F(*c)) for b, dd, c in d.s if F(*b) <= z <= F(*dd))
    for v in (F(*pq) for pq in _PQ_VALUES):
        if not d.m.contains_pair(*pair(v)):
            continue
        pre = domain.intersect(t_preimage(t, pair(v), Interval.closed(b, dd)))
        us = [u for u in reference_dense_samples(pre) if t_eval(t, u, v) != c][:6]
        if len(us) < 2:
            continue
        x = arg_with_value(op.f, v)
        if x is None:
            continue
        for i in range(len(us)):
            for j in range(i + 1, len(us)):
                y1 = arg_with_value(op.f, us[i])
                y2 = arg_with_value(op.f, us[j])
                if y1 is None or y2 is None or y1 == y2:
                    continue
                a = f_eval(op, x, y1)
                if a == f_eval(op, x, y2):
                    yield x, y1, y2, a


def escape_values(t, d):
    """The escape values that reach ``_gap_collisions``, reduced pairs,
    each with its domain: T(M,M)'s from M (``check_cancellative``) and
    T(M\\C,M)'s from M\\C (``_cc_witness``)."""
    out = []
    z = t_image(t, d.m, d.m).is_subset_of(d.m)[1]
    if z is not None:
        out.append((d.m, z))
    z_a = check_inclusion_conditions(t, d)[0]
    if z_a is not None:
        out.append((d.m_minus_c, z_a))
    return out


# the yields compared per search; the classifier reads the first only
COLLISIONS_COMPARED = 40


@pytest.mark.parametrize("tdesc", ["product", "hamacher2"])
def test_gap_collisions_match_reference_on_the_lattice(tdesc):
    # the first yields, in order, for every escape value of every
    # non-decreasing f with breakpoints k/3 and values k/4; each search
    # starts on a fresh op, so no cache is shared
    t = parse_tnorm(tdesc)
    searches = yields = 0
    for f in lattice_fns(3, 4):
        d = decompose(f)
        for domain, z in escape_values(t, d):
            got = list(islice(_gap_collisions(make_op(f, t), d, domain, z),
                              COLLISIONS_COMPARED))
            want = islice(reference_gap_collisions(make_op(f, t), d, domain, F(*z)),
                          COLLISIONS_COMPARED)
            # each yield is four reduced pairs
            assert all(type(n) is int and type(m) is int and m > 0 and gcd(n, m) == 1
                       for item in got for n, m in item)
            assert [tuple(F(*k) for k in item) for item in got] == list(want), str(f)
            searches, yields = searches + 1, yields + len(got)
    assert searches > 1000 and yields > 20000


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(wide_fractions, wide_fractions, st.booleans(), st.booleans()),
                max_size=4))
def test_dense_samples_match_reference(ends):
    s = IntervalSet.of(Interval.make(min(a, b), max(a, b), lc, hc) for a, b, lc, hc in ends)
    assert [F(*u) for u in _dense_samples(s)] == reference_dense_samples(s)


# -- a change of representation ----------------------------------------------


def split_lines(f):
    """f with every piece that is not a point, a line or a constant, cut at
    its midpoint: the same function, and so the same F, with one more
    breakpoint per such piece.  A cut plateau is taken by two pieces, so
    the arguments that f's record and ``_plateau_pair`` pick for it may
    move."""
    segs = []
    for s in f.segments:
        d = s.domain
        if d.is_point:
            segs.append(s)
            continue
        m = d.midpoint()
        segs += [Segment(Interval(d.lo, m, d.lo_closed, False), s.slope, s.intercept),
                 Segment(Interval(m, d.hi, True, d.hi_closed), s.slope, s.intercept)]
    return PiecewiseMonotoneFn(f.nondecreasing, tuple(segs))


# the families of the classify-mix benchmark workload
CLASSIFY_MIX = ("product", "hamacher2", "min", "halfprod", "gen:neglog")


def assert_split_agrees(f, t):
    # the extra breakpoints are extra search points, which may turn an
    # Unknown into a No; a Yes and a No for the same F would contradict
    g = split_lines(f)
    assert g(F(1, 3)) == f(F(1, 3)) and len(g.breakpoints()) >= len(f.breakpoints())
    a, b = classify(f, t), classify(g, t)
    for prop in a.properties:
        pair = {a.properties[prop].status, b.properties[prop].status}
        assert pair != {"yes", "no"}, (prop, str(f))
    # F is the same operation, so each No witness re-checks on the other f
    if t.exact:
        recheck_no_witnesses(f, t, b)
        recheck_no_witnesses(g, t, a)


@pytest.mark.parametrize("tdesc", CLASSIFY_MIX)
@settings(max_examples=100, deadline=None)
@given(f=st.one_of(monotone_fns(), nonincreasing_fns()))
def test_splitting_lines_flips_no_verdict(tdesc, f):
    assert_split_agrees(f, parse_tnorm(tdesc))


@pytest.mark.parametrize("tdesc", CLASSIFY_MIX)
def test_splitting_lines_flips_no_verdict_on_the_lattice(tdesc):
    t = parse_tnorm(tdesc)
    for f in LATTICE + [parse_fn(text) for text in WORKED_EXAMPLES.values()]:
        assert_split_agrees(f, t)


# -- implications between verdicts ------------------------------------------


def test_verdict_implications_random():
    rng = random.Random(13)
    for _ in range(30):
        f = random_strictly_increasing_fn(rng)
        r = classify(f, PRODUCT)
        s = statuses(r)
        # cancellation implies conditional cancellation and associativity
        if s["cancellative"] == "yes":
            assert s["conditionally_cancellative"] == "yes"
            assert s["t_subnorm"] == "yes"
        if s["t_norm"] == "yes":
            assert s["t_subnorm"] == "yes"


def test_check_cancellative_needs_an_exact_family(f_identity):
    # classify decides inexact families by its corollary route and never
    # calls check_cancellative for them: the image T(M,M) that it takes
    # cannot be built for them
    m = decompose(f_identity).m
    with pytest.raises(ValueError, match="exact families"):
        t_image(parse_tnorm("gen:neglog"), m, m)


def test_check_inclusion_conditions_needs_an_exact_family(f_identity):
    # classify runs the inclusion conditions for exact families only; a
    # direct call cannot build the interval images
    with pytest.raises(ValueError, match="exact families"):
        check_inclusion_conditions(parse_tnorm("gen:neglog"), decompose(f_identity))


def test_l_set_check_needs_a_strict_exact_family(f_identity):
    # classify reaches the witness set on the strict exact route only; a
    # direct call cannot build the preimages for min
    with pytest.raises(ValueError, match="strict exact families"):
        l_set_check(MINIMUM, decompose(f_identity))


def test_continuous_strictly_increasing_always_cancellative():
    # strict t-norm pulled back through a continuous strictly increasing
    # generator with f(0)=0 is always cancellative
    rng = random.Random(14)
    for _ in range(100):
        f = random_strictly_increasing_fn(rng)
        r = classify(f, PRODUCT)
        assert statuses(r)["cancellative"] == "yes"


def test_onto_f_decides_conditional_cancellation():
    # when f(1)=1 and the t-norm is strict with exact arithmetic, the
    # inclusion characterization is an equivalence: never Unknown
    rng = random.Random(15)
    seen = 0
    for _ in range(60):
        f = random_strictly_increasing_fn(rng)
        if f(F(1)) != 1:
            continue
        seen += 1
        r = classify(f, PRODUCT)
        assert statuses(r)["conditionally_cancellative"] in ("yes", "no")
    assert seen > 0


# two functions of the seeded bench corpus: r138 of corpus(1, 1500) and
# r1069 of corpus(3, 1500)
GAP_HULL_ONLY = {
    "r138": ("monotone: nondecreasing\n"
             "segment [0,9/16) linear 1/9 1/2\n"
             "segment [9/16,1] linear 2/7 5/7\n"),
    "r1069": ("monotone: nondecreasing\n"
              "segment [0,3/4) linear 1/12 1/2\n"
              "segment [3/4,1] linear 1/4 11/16\n"),
}


@pytest.mark.parametrize("tdesc", ["product", "hamacher2"])
@pytest.mark.parametrize("name", sorted(GAP_HULL_ONLY))
def test_t_subnorm_from_the_gap_hull_condition_alone(name, tdesc):
    # f is strictly increasing with jumps, and T(M\C,M) escapes M plus
    # [0,f(0+)], so F is not conditionally cancellative and f is not
    # cancellative; the gap-hull condition alone makes F a t-subnorm
    f, t = parse_fn(GAP_HULL_ONLY[name]), parse_tnorm(tdesc)
    r = classify(f, t)
    assert r.properties["conditionally_cancellative"].status == "no"
    assert r.properties["cancellative"].status == "no"
    assert r.properties["t_subnorm"] == Verdict.yes(
        "gap-hull condition", note="f strictly increasing")
    rep = consistency_harness(f, t, n=24)
    assert rep.ok
    assert ("t_subnorm", "yes", "ok") in [row[:3] for row in rep.rows]


# -- associativity search ----------------------------------------------------


def reference_assoc_search(op, pts):
    """The first (x, y, z) in lexicographic order with F(F(x,y),z) !=
    F(x,F(y,z)), by evaluating F at every comparison."""
    for x in pts:
        for y in pts:
            for z in pts:
                lhs = f_eval(op, f_eval(op, x, y), z)
                rhs = f_eval(op, x, f_eval(op, y, z))
                if lhs != rhs:
                    return (x, y, z)
    return None


def kn_grid(f, n):
    """The points k/n and f's breakpoints, ascending."""
    return sorted(set(f.breakpoints()) | {F(k, n) for k in range(n + 1)})


def assoc_pts(f):
    """The search grid of classify's t_subnorm block."""
    return kn_grid(f, ASSOC_GRID)


def assoc_search(op, pts):
    """``_assoc_search`` on the pairs of the Fractions pts, its triple of
    reduced pairs read back as Fractions."""
    got = _assoc_search(op, [pair(x) for x in pts])
    if got is None:
        return None
    assert all(map(is_reduced_pair, got)), got
    return tuple(F(*k) for k in got)


@pytest.mark.parametrize("tdesc", ["product", "hamacher2"])
@settings(max_examples=25, deadline=None)
@given(f=monotone_fns())
def test_assoc_search_matches_direct_scan(tdesc, f):
    op = make_op(f, parse_tnorm(tdesc))
    pts = assoc_pts(f)
    assert assoc_search(op, pts) == reference_assoc_search(op, pts)


@pytest.mark.parametrize("name,want", [
    ("gap", (F(1, 6), F(1, 4), F(5, 6))), ("plateau", None)])
def test_assoc_search_worked_examples(name, want):
    f = parse_fn(WORKED_EXAMPLES[name])
    op = make_op(f, PRODUCT)
    assert assoc_search(op, assoc_pts(f)) == want


def oracle_assoc_triple(op, pts):
    """The oracle's associativity scan: its first counterexample, or None."""
    res = check_property(op, "associativity", pts)
    return None if res.ok else res.counterexample.inputs


def test_assoc_search_matches_the_oracle_on_the_lattice():
    # the search compares only the triples whose pairs f∘finv moves; the
    # oracle's scan compares every class triple.  Both must name the same
    # first triple, on classify's grid and on k/n grids of other steps
    found = 0
    for f in lattice_fns(3, 4):
        grids = [assoc_pts(f)] + [kn_grid(f, n) for n in range(4, 13)]
        assert _search_grid(f, ASSOC_GRID) == tuple(map(pair, grids[0]))
        for t in (PRODUCT, HAMACHER2):
            for pts in grids:
                want = oracle_assoc_triple(make_op(f, t), pts)
                assert assoc_search(make_op(f, t), pts) == want
                found += want is not None
    assert found > 0


def test_assoc_search_marks_a_pair_moved_in_both_orders():
    # the first failing triple (1/4, 3/8, 1/3) of classify's grid has a
    # moved second pair whose classes run against the class order: 3/8's
    # f value 5/8 comes after 1/3's 7/16.  A search that marked only the
    # pairs (c, d) with c <= d as moved would skip it and name a later triple
    f = parse_fn("monotone: nondecreasing\nsegment [0,1/8] const 1/16\n"
                 "segment (1/8,1/4] linear 1 0\nsegment (1/4,3/8) const 7/16\n"
                 "segment [3/8,1] const 5/8\n")
    pts = assoc_pts(f)
    assert _search_grid(f, ASSOC_GRID) == tuple(map(pair, pts))
    want = (F(1, 4), F(3, 8), F(1, 3))
    assert oracle_assoc_triple(make_op(f, PRODUCT), pts) == want
    assert assoc_search(make_op(f, PRODUCT), pts) == want


@pytest.mark.parametrize("text", [
    WORKED_EXAMPLES["identity"],
    "monotone: nondecreasing\nsegment [0,1/2] linear 1/2 0\nsegment (1/2,1] linear 3/2 -1/2\n"])
@pytest.mark.parametrize("t", [PRODUCT, HAMACHER2], ids=str)
def test_assoc_search_compares_no_triple_where_h_fixes_every_value(t, text):
    # f is continuous and strictly increasing onto [0,1], so h = f∘finv
    # fixes every value of T: the search sweeps its table of h(T), one row
    # per class from the diagonal, and evaluates no side of any triple
    f = parse_fn(text)
    op = make_op(f, t)
    op.t_finv = op.row = None  # a call would fail
    pts = kn_grid(f, 12)
    with mock.patch("subnormforge.classify._first_args", wraps=_first_args) as sweep:
        assert assoc_search(op, pts) is None
    assert [len(c.args[1]) for c in sweep.call_args_list] == list(range(len(pts), 0, -1))


@pytest.mark.parametrize("tdesc", ["product", "hamacher2"])
@settings(max_examples=200, deadline=None)
@given(f=monotone_fns(), n=st.integers(2, 12))
def test_assoc_search_matches_the_oracle(tdesc, f, n):
    t = parse_tnorm(tdesc)
    for pts in (assoc_pts(f), kn_grid(f, n)):
        assert assoc_search(make_op(f, t), pts) == oracle_assoc_triple(make_op(f, t), pts)


# -- degenerate shapes -------------------------------------------------------


def test_vanishing_nonincreasing():
    f = parse_fn("monotone: nonincreasing\n"
                 "point 0 = 1\nsegment (0,1] const 0\n")
    r = classify(f, PRODUCT)
    s = statuses(r)
    assert s["t_subnorm"] == "yes"   # F identically 0
    assert s["t_norm"] == "no"
    assert s["conditionally_cancellative"] == "yes"
    assert s["cancellative"] == "no"
    assert s["proper"] == "yes"


def test_plateau_to_one_collapses():
    f = parse_fn("monotone: nondecreasing\n"
                 "segment [0,1/2) linear 1/2 0\nsegment [1/2,1] const 1/4\n")
    r = classify(f, PRODUCT)
    s = statuses(r)
    assert s["conditionally_cancellative"] in ("yes", "no")


# one function per degenerate shape: (text, shape kind, product's
# conditionally_cancellative status, which the probe F(x2,1) decides)
DEGENERATE_SHAPES = {
    # f(1) = 1/2 is a plateau value, and F(1,1) = finv(1/4) = 1/4 > 0
    "plateau_at_one": ("monotone: nondecreasing\nsegment [0,1/2) linear 1 0\n"
                       "segment [1/2,1] const 1/2\n", "at one", "no"),
    # f(1-) = 1/2 < f(1) = 1 is a plateau value; F(x2,1) = finv(1/2) = 1/2
    "approached_positive": ("monotone: nondecreasing\nsegment [0,1/2) linear 1 0\n"
                            "segment [1/2,1) const 1/2\npoint 1 = 1\n", "approached", "no"),
    # the same plateau value from 0 on, so F(x2,1) = finv(1/2) = 0
    "approached_zero": ("monotone: nondecreasing\nsegment [0,1) const 1/2\npoint 1 = 1\n",
                        "approached", "yes"),
    "vanishing": ("monotone: nonincreasing\npoint 0 = 1\nsegment (0,1] const 0\n",
                  "vanishing", "yes"),
    "nonincreasing": ("monotone: nonincreasing\nsegment [0,1] linear -1 1\n",
                      "undecided", "unknown"),
}


@pytest.mark.parametrize("family", ["min", "halfprod"])
def test_the_limit_search_builds_nothing(family, monkeypatch):
    # a full unit of an exact family that is not strict reaches the
    # continuity route's limit search, whose one-sided limits of finv are
    # scans of f's pieces: no closed form is built there, nor before
    module = importlib.import_module("subnormforge.classify")
    f = parse_fn(WORKED_EXAMPLES["half_jump"])
    held, search = [], module._limit_search

    def watched(op):
        held.append("_pseudo_inverse" in vars(f))
        v = search(op)
        held.append("_pseudo_inverse" in vars(f))
        return v

    monkeypatch.setattr(module, "_limit_search", watched)
    r = classify(f, parse_tnorm(family))
    assert ("degenerate shape", "", "forced classification") not in r.conditions_log
    assert held == [False, False]


def test_classify_never_builds_the_pseudo_inverse(monkeypatch):
    # every route reads finv from f's pieces, so no family builds its
    # closed form on any worked example or lattice function
    def refuse(f):
        raise AssertionError("a route built the closed form of finv")

    monkeypatch.setattr(pwfn, "pseudo_inverse", refuse)
    ts = [parse_tnorm(fam) for fam in CLASSIFY_MIX]
    for f in [parse_fn(text) for text in WORKED_EXAMPLES.values()] + list(lattice_fns(3, 4)):
        for t in ts:
            classify(f, t)


def test_verdict_holds_only_its_fields():
    # a Verdict is slotted, as Interval and Segment are, and frozen
    assert Verdict.__slots__ == ("status", "evidence", "witness", "resolution", "note")
    for v in (Verdict.yes("e"), Verdict.no((F(1, 2),)), Verdict.unknown("r", note="n")):
        assert not hasattr(v, "__dict__")
        with pytest.raises(AttributeError):
            v.status = "yes"
    assert Verdict.yes("e") == Verdict("yes", ("e",)) != Verdict.yes("f")


@pytest.mark.parametrize("text, kind, cc", DEGENERATE_SHAPES.values(), ids=DEGENERATE_SHAPES)
def test_degenerate_units_read_only_their_shape(text, kind, cc, monkeypatch):
    # the decomposition is built only when a route, or a reader of the
    # report, asks for it, and f's record once however many families read
    # it: f is evaluated at 1 once, by the record's builder, whichever
    # module namespace the call goes through
    module = importlib.import_module("subnormforge.classify")
    f = parse_fn(text)
    built, at_one = [], []
    build = module._build_facts
    monkeypatch.setattr(module, "_build_facts", lambda f: built.append(f) or build(f))
    original = pwfn.eval_pair

    def counted(g, p, q):
        if g is f and (p, q) == (1, 1):
            at_one.append(g)
        return original(g, p, q)

    for name in ("pwfn", "generated", "classify"):
        namespace = importlib.import_module(f"subnormforge.{name}")
        if getattr(namespace, "eval_pair", None) is original:
            monkeypatch.setattr(namespace, "eval_pair", counted)
    reports = {fam: classify(f, parse_tnorm(fam)) for fam in CLASSIFY_MIX}
    assert len(at_one) == 1
    assert "_decomposition" not in f.__dict__
    # nor does any family build finv's closed form
    assert "_pseudo_inverse" not in f.__dict__
    assert len(built) == 1 and built[0] is f
    assert module._facts(f).kind == kind
    assert reports["product"].properties["conditionally_cancellative"].status == cc
    for r in reports.values():
        assert list(r.properties) == list(PROPERTIES)
        assert r.conditions_log == [("degenerate shape", "", "forced classification")]
        assert r.decomposition == (decompose(f) if f.nondecreasing else None)


def test_per_function_caches_do_not_depend_on_family_order():
    # every lattice function and its mirror, classified with the five
    # families forward on one parse and backward on a fresh one: a record
    # cached on f that kept one family's value would show in another's report
    ts = {fam: parse_tnorm(fam) for fam in CLASSIFY_MIX}
    lattice = list(lattice_fns(3, 4))
    for g in lattice + [_one_minus(g) for g in lattice]:
        text = render_fn(g)
        f = parse_fn(text)
        forward = [classify(f, ts[fam]) for fam in CLASSIFY_MIX]
        f = parse_fn(text)
        backward = [classify(f, ts[fam]) for fam in reversed(CLASSIFY_MIX)][::-1]
        for a, b in zip(forward, backward):
            assert render_text(a) == render_text(b), text
            assert a.properties == b.properties, text


# -- Archimedean ----------------------------------------------------------------


# T(3/4, f(x)) > 11/16 = f(11/16-) once f(x) is close to f(1-) = 15/16, so
# F(11/16, x) = 11/16 there: the jump at 11/16 traps the powers of such an
# x (rule J).  The grid of the old sampled check never met one of them
F_ARCH_TRAP = """\
monotone: nondecreasing
segment [0,11/16) linear 4/11 7/16
segment [11/16,13/16) const 3/4
segment [13/16,1] linear 1 -1/16
"""

# f vanishes up to 1/4 and rises from 0 there, so the powers of any
# x > 1/4 fall towards 1/4 without reaching it (rule Z)
F_ARCH_SLOW = """\
monotone: nondecreasing
segment [0,1/4] const 0
segment (1/4,1] linear 4/3 -1/3
"""

# halfprod's T(3/8, v) jumps from 3/32 to 3/16 over f(9/16-) = 1/8 at
# v = 1/2, so no v solves T(v, 3/8) = 1/8 and the witness search halves
# its way down from the first trapped 1 - 2^-k
F_ARCH_HALFPROD_JUMP = """\
monotone: nondecreasing
segment [0,9/16) const 1/8
segment [9/16,1] linear 4/7 3/56
"""

# f is continuous and rises to 15/16 at 3/16, then crawls to 1: the
# powers descend so slowly that the old check's cap of 256 steps ended
# at 19/20 (r717 of the bench's corpus(3, 1500))
F_ARCH_CRAWL = """\
monotone: nondecreasing
segment [0,3/16) linear 14/3 1/16
segment [3/16,1] linear 1/13 12/13
"""


# T(1/2, v) rises to 3/8 = f(1/2-) as v rises to f(1-) = 3/4 with
# product, but only in the limit: no x < 1 has F(1/2, x) = 1/2
F_ARCH_LIMIT_EQUAL = """\
monotone: nondecreasing
segment [0,1/2) linear 3/4 0
segment [1/2,1] linear 1/2 1/4
"""

# f jumps at 1/2 from f(1/2) = 0 to f(1/2+) = 1/2: the powers land on 1/2
# and then on F(1/2, x) = 0, so this jump traps nothing
F_ARCH_RISE_FROM_ZERO = """\
monotone: nondecreasing
segment [0,1/2] const 0
segment (1/2,1] linear 1 0
"""


def _e_edge(r):
    """f with f(1/2) f(1-) / f(1/2-) = r: the jump at 1/2 traps the powers
    under xy/e exactly when e < r."""
    return (f"monotone: nondecreasing\nsegment [0,1/2) linear {1 / F(r)} 0\n"
            "segment [1/2,1] linear 1 0\n")


_ARCH_YES = Verdict.yes("no jump of f traps the powers",
                        "no zero plateau ends at a zero limit",
                        "T shrinks positive values")
_ARCH_Z = Verdict.unknown("f vanishes up to 1/4 with f(1/4+)=0, so the powers "
                          "stay above 1/4; no fixed point certifies it")


def _trap_no(x, p, v=None):
    return Verdict.no((x, p), note=f"powers of {x} stabilize at {v or p}; "
                                   f"F({p},{x})={p} at the jump {p}")


def _idempotent_no(p):
    return Verdict.no((p, p), note=f"F({p},{p})={p}, so the powers of {p} stay at {p}")


def _trap_unknown(p):
    return Verdict.unknown(f"the jump at {p} traps the powers, but an inexact F "
                           "cannot show their fixed point")


@pytest.mark.parametrize("fn, tdesc, want", [
    (F_ARCH_TRAP, "product", _trap_no(F(47, 48), F(11, 16))),
    (F_ARCH_TRAP, "hamacher2", _trap_no(F(939, 944), F(11, 16))),
    (F_ARCH_TRAP, "halfprod", _trap_no(F(47, 48), F(11, 16))),
    (F_ARCH_TRAP, "min", _idempotent_no(F(11, 32))),
    (F_ARCH_TRAP, "gen:neglog", _trap_unknown(F(11, 16))),
    (F_ARCH_TRAP, "gen:one-minus-log", _ARCH_YES),
    (F_ARCH_TRAP, "lambda:one-minus-log:1/2", _ARCH_YES),
    (F_ARCH_SLOW, "product", _ARCH_Z),
    (F_ARCH_SLOW, "hamacher2", _ARCH_Z),
    (F_ARCH_SLOW, "halfprod", _ARCH_Z),
    (F_ARCH_SLOW, "gen:neglog", _ARCH_Z),
    (F_ARCH_SLOW, "min", _idempotent_no(F(5, 8))),
    (F_ARCH_HALFPROD_JUMP, "halfprod", _trap_no(F(7, 8), F(9, 16))),
    (F_ARCH_HALFPROD_JUMP, "product", _trap_no(F(9, 16), F(9, 16))),
    (F_ARCH_LIMIT_EQUAL, "product", _ARCH_YES),
    (F_ARCH_LIMIT_EQUAL, "gen:neglog", _ARCH_YES),
    (F_ARCH_RISE_FROM_ZERO, "product", _ARCH_YES),
    (F_ARCH_RISE_FROM_ZERO, "gen:neglog", _ARCH_YES),
    (F_ARCH_RISE_FROM_ZERO, "gen:one-minus-log", _ARCH_YES),
    (F_ARCH_CRAWL, "product", _ARCH_YES),
    (F_ARCH_CRAWL, "hamacher2", _ARCH_YES),
    (WORKED_EXAMPLES["identity"], "product", _ARCH_YES),
    (WORKED_EXAMPLES["identity"], "halfprod", _ARCH_YES),
    (WORKED_EXAMPLES["identity"], "gen:neglog", _ARCH_YES),
    (WORKED_EXAMPLES["identity"], "lambda:one-minus-log:2/5", _ARCH_YES),
    (WORKED_EXAMPLES["identity"], "min", _idempotent_no(F(1, 2))),
    # e = 2.71828..., on either side of the two boundaries
    (_e_edge("1359/500"), "gen:one-minus-log", _ARCH_YES),
    (_e_edge("2719/1000"), "gen:one-minus-log", _trap_unknown(F(1, 2))),
    (_e_edge("1359/1000"), "lambda:one-minus-log:1/2", _ARCH_YES),
    (_e_edge("2719/2000"), "lambda:one-minus-log:1/2", _trap_unknown(F(1, 2))),
    (_e_edge("1359/500"), "product", _trap_no(F(1, 2), F(1, 2))),
    # f(1) = 1 is a plateau value, a degenerate shape that classify
    # decides before the rules, and f falls
    ("monotone: nondecreasing\nsegment [0,3/8) linear 1 5/8\nsegment [3/8,1] const 1\n",
     "product", Verdict.unknown("f(1-) is a plateau value: a degenerate shape")),
    ("monotone: nonincreasing\nsegment [0,1] linear -1/2 1\n", "product",
     Verdict.unknown("the rules cover non-decreasing f")),
])
def test_archimedean_rules(fn, tdesc, want):
    op = make_op(parse_fn(fn), parse_tnorm(tdesc))
    assert check_archimedean(op) == want
    if want.status == "no":
        assert arch_witness_rechecks(op, want.witness)


@pytest.mark.parametrize("fn", [F_ARCH_TRAP, F_ARCH_SLOW])
def test_archimedean_rules_build_no_decomposition(fn):
    # the guards, f(1-) and a0 come from f's record, so a full unit of a
    # family without exact evaluation, whose other routes read no
    # decomposition either, leaves it unbuilt
    f = parse_fn(fn)
    r = classify(f, parse_tnorm("gen:neglog"))
    assert ("degenerate shape", "", "forced classification") not in r.conditions_log
    assert r.properties["archimedean"].status == "unknown"
    assert "_decomposition" not in f.__dict__


def test_archimedean_yes_needs_a_shrinking_t():
    # lambda:neglog:1/2 is xy/(1/2) inside the unit square, above min, so
    # the proof of the Yes route does not reach it
    t = Lambda(GeneratorSpec("neglog"), F(1, 2))
    op = make_op(parse_fn(WORKED_EXAMPLES["identity"]), t)
    assert not t.shrinks and check_archimedean(op) == Verdict.unknown(
        "T does not shrink and no exact idempotent point was found")


@pytest.mark.parametrize("tdesc", ["product", "hamacher2", "halfprod"])
def test_archimedean_trap_is_a_rechecked_no(tdesc):
    # the regression of the old sampled Yes: classify now says No, and the
    # witness's powers stay at or above the jump
    f, t = parse_fn(F_ARCH_TRAP), parse_tnorm(tdesc)
    r = classify(f, t)
    assert r.properties["archimedean"].status == "no"
    recheck_no_witnesses(f, t, r)
    assert classify(f, parse_tnorm("gen:neglog")).properties["archimedean"].status == "unknown"


def test_archimedean_trap_falls_back_to_unknown_past_the_step_bound():
    # the powers of every candidate take more steps than the bound allows
    op = make_op(parse_fn(F_ARCH_TRAP), PRODUCT)
    with mock.patch("subnormforge.classify.ARCH_WITNESS_STEPS", 1):
        assert check_archimedean(op) == Verdict.unknown(
            "the jump at 11/16 traps the powers, but no witness stabilizes "
            "within 1 steps")


def reference_trap_witness(op, traps):
    """``_trap_witness`` on Fractions, which the pair search replaced: the
    candidates in Fraction sets sorted by Fraction comparisons,
    ``first_arg_above`` and ``finv_at`` on each solution of ``t_solve_x``,
    and F by ``f_eval``."""
    f, t = op.f, op.t
    best, cap = None, ARCH_WITNESS_STEPS
    for p, fp, fpm in traps:
        xs = {p}
        for v in t_solve_x(t, fp, fpm):
            xs.update((op.finv_at(v), first_arg_above(f, v)))
        xs.update(f.breakpoints())
        ends = sorted(x for x in xs if p <= x < 1) + [F(1)]
        cands = sorted(set(ends[:-1]) | {(a + b) / 2 for a, b in zip(ends, ends[1:])})
        trapped = [x for x in cands if f_eval(op, p, x) == p]
        hi = trapped[0] if trapped else next(
            (h for h in (1 - F(1, 2 ** k) for k in range(1, TRAP_NEAR_ONE + 1))
             if f_eval(op, p, h) == p), None)
        if hi is None:
            continue
        trapped = set(trapped) | {hi}
        lo = max((x for x in cands if x < hi), default=None)
        if lo is not None:
            for _ in range(TRAP_HALVINGS):
                mid = (lo + hi) / 2
                if f_eval(op, p, mid) == p:
                    hi = mid
                    trapped.add(hi)
                else:
                    lo = mid
        for x in sorted(trapped, key=lambda x: (x.denominator, x)):
            run = reference_stabilizes(op, x, p, cap)
            if run is not None:
                best, cap = (x, p, run[1]), run[0] - 1
                if not cap:
                    return best
    return best


def reference_stabilizes(op, x, y, cap):
    """``_stabilizes`` on Fractions, each power by ``f_eval``."""
    acc = x
    for steps in range(1, cap + 1):
        nxt = f_eval(op, acc, x)
        if nxt < y:
            return None
        if nxt == acc:
            return steps, nxt
        acc = nxt
    return None


F_ARCH_EXAMPLES = (F_ARCH_TRAP, F_ARCH_SLOW, F_ARCH_HALFPROD_JUMP, F_ARCH_CRAWL,
                   F_ARCH_LIMIT_EQUAL, F_ARCH_RISE_FROM_ZERO)


@pytest.mark.parametrize("tdesc", ["product", "hamacher2", "halfprod"])
def test_trap_witness_matches_reference(tdesc):
    # the pair search against the Fraction reference, result for result, on
    # every rule-J trap list that check_archimedean hands it over the
    # lattice with breakpoints k/3 and values k/4 and the examples above;
    # each search starts on a fresh op, so no cache is shared
    t = parse_tnorm(tdesc)
    searches = found = 0
    for f in [*lattice_fns(3, 4), *map(parse_fn, F_ARCH_EXAMPLES)]:
        with mock.patch("subnormforge.classify._trap_witness", wraps=_trap_witness) as spy:
            check_archimedean(make_op(f, t))
        for (_, traps), _ in spy.call_args_list:
            got = _trap_witness(make_op(f, t), traps)
            # the traps are (p, f(p), f(p-)) as reduced pairs
            assert all(k == pair(F(*k)) for trap in traps for k in trap)
            fraction_traps = [tuple(F(*k) for k in trap) for trap in traps]
            assert got == reference_trap_witness(make_op(f, t), fraction_traps), str(f)
            assert got is None or all(type(w) is F for w in got)
            searches, found = searches + 1, found + (got is not None)
    assert searches > 100 and found > 100


@pytest.mark.parametrize("n", [ASSOC_GRID, NEUTRAL_GRID])
@settings(max_examples=100, deadline=None)
@given(f=st.one_of(monotone_fns(), nonincreasing_fns()))
def test_breakpoints_and_search_grids_match_references(n, f):
    # the one-pass breakpoints and the merged grid against the set-and-sort
    # bodies they replaced: reduced pairs of ints, as are the plateau
    # arguments and what the searches over the grids return, while the API's
    # breakpoints() gives the same Fractions
    bps = tuple(sorted({e for p in f.segments for e in (p.domain.lo, p.domain.hi)}))
    assert f._breakpoints == tuple(map(pair, bps))
    assert f.breakpoints() == list(bps) and all(type(x) is F for x in f.breakpoints())
    pts = _search_grid(f, n)
    assert pts == tuple(map(pair, sorted(set(bps).union(F(i, n) for i in range(n + 1)))))
    assert all(map(is_reduced_pair, f._breakpoints + _GRID_POINTS[n] + pts))
    for w in plateau_set(f).parts:
        x1, x2 = _plateau_pair(f, (w.ln, w.ld))
        assert is_reduced_pair(x1) and is_reduced_pair(x2) and x1 != x2
        assert eval_fn(f, F(*x1)) == eval_fn(f, F(*x2)) == w.lo
    op = make_op(f, PRODUCT)
    for found in (_neutral_search(op, pts), _assoc_search(op, pts)):
        assert found is None or all(map(is_reduced_pair, found)), found


@pytest.mark.parametrize("tdesc", ["product", "hamacher2", "min", "halfprod"])
@settings(max_examples=150, deadline=None)
@given(f=monotone_fns())
def test_every_archimedean_no_rechecks(tdesc, f):
    t = parse_tnorm(tdesc)
    v = classify(f, t).properties["archimedean"]
    if v.status == "no":
        assert arch_witness_rechecks(make_op(f, t), v.witness), v


# f(1) = 3/4 lies above the line's values and below 1, so the gap-hull
# condition fails and classify falls through to the witness-set check
F_WITNESS_SET = """\
monotone: nondecreasing
segment [0,1) linear 1/16 3/8
point 1 = 3/4
"""


def test_witness_set_check_reports_its_resolution():
    r = classify(parse_fn(F_WITNESS_SET), PRODUCT)
    assert ("witness-set refutation", "", "unknown") in r.conditions_log
    assert r.properties["t_subnorm"] == Verdict.unknown(
        "witness set at resolution 32 found no refutation")


# a constant piece open at both ends whose value 1/2 f takes nowhere else,
# so arg_with_value finds one argument for it, the midpoint 3/8
F_OPEN_PLATEAU = """\
monotone: nondecreasing
segment [0,1/4] linear 1 0
segment (1/4,1/2) const 1/2
segment [1/2,1] linear 1/2 1/2
"""


@pytest.mark.parametrize("t", [PRODUCT, HAMACHER2], ids=str)
def test_open_plateau_witnesses_recheck(t):
    f = parse_fn(F_OPEN_PLATEAU)
    r = classify(f, t)
    op = make_op(f, t)
    for prop in ("cancellative", "strictly_monotone_op"):
        v = r.properties[prop]
        assert v.status == "no", prop
        x, y1, y2 = v.witness
        assert x > 0 and y1 != y2 and f_eval(op, x, y1) == f_eval(op, x, y2)
    v = r.properties["conditionally_cancellative"]
    assert v.status == "no"
    x1, x2, y = v.witness
    assert x1 != x2 and f_eval(op, x1, y) == f_eval(op, x2, y) > 0


# M = [0,1/4) u {1/2} u (3/4,1]: T(1/2,1/2) = 1/4 escapes M at the closed
# lower end of the range gap [1/4,1/2), so the witness builder must take a
# gap that holds its escape value at an end
F_ESCAPE_AT_GAP_END = """\
monotone: nondecreasing
segment [0,1/3) linear 3/4 0
point 1/3 = 1/2
segment (1/3,1] linear 3/8 5/8
"""


def test_cancellation_witness_from_an_escape_value_at_a_gap_end():
    f = parse_fn(F_ESCAPE_AT_GAP_END)
    op = make_op(f, PRODUCT)
    d = decompose(f)
    mm = t_image(PRODUCT, d.m, d.m)
    assert mm.is_subset_of(d.m) == (False, (1, 4))
    v = check_cancellative(op, d, mm)
    assert v == Verdict.no((F(1, 3), F(1, 3), F(7, 15)),
                           note="image value 1/4 in a range gap collapses "
                                "distinct arguments")
    assert f_eval(op, F(1, 3), F(1, 3)) == f_eval(op, F(1, 3), F(7, 15))


# T(M,M) = [0,3/16) u {1/4} with product, whose escape value 1/4 is the
# upper end of the gap [3/16,1/4] (f approaches 1/4 from above at 1/3)
F_ESCAPE_AT_GAP_TOP = """\
monotone: nondecreasing
segment [0,1/3] linear 9/16 0
segment (1/3,1) linear 3/16 3/16
point 1 = 1/2
"""


def test_cancellation_search_from_an_escape_value_at_a_gap_top():
    f = parse_fn(F_ESCAPE_AT_GAP_TOP)
    d = decompose(f)
    mm = t_image(PRODUCT, d.m, d.m)
    assert mm.is_subset_of(d.m) == (False, (1, 4))
    assert d.s[0][:2] == ((3, 16), (1, 4))
    assert check_cancellative(make_op(f, PRODUCT), d, mm) == Verdict.unknown(
        "T(M,M) escapes M but no cancellation counterexample was constructed "
        "(escape value 1/4)")


# corpus(1, 1500)'s r92 in the bench: with product every continuity window
# meets the range in at most one point, once in the single point 3/16
F_WINDOW_MEETS_ONE_POINT = """\
monotone: nondecreasing
point 0 = 3/16
segment (0,7/8] linear 9/14 1/4
segment (7/8,1] linear 1 -1/16
"""


def test_a_window_meeting_the_range_in_one_point_keeps_continuity():
    v = classify(parse_fn(F_WINDOW_MEETS_ONE_POINT), PRODUCT).properties["continuous"]
    assert v == Verdict.yes("all discontinuity windows meet the range in at most one point")


# -- rendering ---------------------------------------------------------------


def test_render_text_mentions_all_properties(f_plateau):
    out = render_text(classify(f_plateau, PRODUCT))
    for name in ("t_subnorm", "t_norm", "conditionally_cancellative",
                 "cancellative", "strictly_monotone_op", "archimedean",
                 "continuous", "proper"):
        assert name in out


def test_render_text_full():
    # Yes with evidence, No with witness and note, an Unknown resolution,
    # the decomposition and the conditions log
    out = render_text(classify(parse_fn(F_ARCH_SLOW), PRODUCT))
    assert out == """\
t_subnorm: Yes (gap-hull condition; both inclusion conditions)
t_norm: No witness=1/8,1  # F(1/8,1)=0 != 1/8
conditionally_cancellative: Yes (T(M\\C,M) within M plus [0,f(0+)]; T(Q,M) within [0,f(0+)])
cancellative: No witness=1,0,1/8  # f(0)=f(1/8)=0, so F(1,0)=F(1,1/8)
strictly_monotone_op: No witness=1,0,1/8  # f(0)=f(1/8)=0, so F(1,0)=F(1,1/8)
archimedean: Unknown (f vanishes up to 1/4 with f(1/4+)=0, so the powers stay above 1/4; no fixed point certifies it)
continuous: No witness=1/4,1  # right limit 1/4 != value 0 along the first argument
proper: No witness=1,1  # F(1,1)=1
M=[0,1]
S=[1,1]:c=1
C={1}
Q={0}
f0plus=0
f1minus=1
tau=1/4
upsilon=0
K1={0}
condition: T(M\\C,M) within M plus [0,f(0+)] [M=[0,1] C={1} f(0+)=0] -> yes
condition: T(Q,M) within [0,f(0+)] [Q={0}] -> yes
condition: gap-hull condition [K1=(0,)] -> yes
"""


def test_render_structured_stable(f_plateau):
    a = render_structured(classify(f_plateau, PRODUCT))
    b = render_structured(classify(f_plateau, PRODUCT))
    assert a == b
    assert "t_subnorm.status=yes" in a
