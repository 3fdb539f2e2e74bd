"""T-norm families: evaluation, algebraic laws, images and preimages."""

import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, find, given, settings
from hypothesis import strategies as st

import subnormforge
from conftest import WORKED_EXAMPLES, approx_diff, pair, reference_generator_eval, wide_fractions
from subnormforge import tnorms
from subnormforge.fnformat import parse_fn
from subnormforge.generated import f_eval, make_op
from subnormforge.intervals import Interval, IntervalSet
from subnormforge.pwfn import DomainError
from subnormforge.tnorms import (
    _INV_E,
    HALF,
    RADIUS,
    Approx,
    Generator,
    GeneratorSpec,
    HALFPROD,
    Lambda,
    _e_below,
    _key,
    key_diff,
    parse_tnorm,
    t_eval,
    t_image,
    t_power,
    t_preimage,
    t_solve_x,
)

F = Fraction

EXACT = [parse_tnorm(s) for s in ("product", "min", "hamacher2", "halfprod")]
# the exact families strictly increasing in each argument on (0,1]
STRICTLY_MONOTONE = [parse_tnorm(s) for s in ("product", "hamacher2", "halfprod")]

fractions_01 = st.fractions(min_value=0, max_value=1, max_denominator=24)


def family_id(t):
    """Test id of an exact family: its class name in lower case."""
    return type(t).__name__.lower()


def reference_exact_eval(t, x, y):
    """T(x,y) on Fractions, the formulas that the integer forms replaced."""
    name = str(t)
    if name == "product":
        return x * y
    if name == "min":
        return min(x, y)
    if name == "hamacher2":
        return x * y / (2 - (x + y - x * y))
    if name == "halfprod":
        if x <= HALF and y <= HALF:
            return x * y / 2
        return x * y
    raise ValueError(name)


BIG = 2 ** 2001 + 1

rationals_01 = st.one_of(
    st.sampled_from([F(0), F(1), HALF]),
    st.fractions(min_value=0, max_value=1, max_denominator=10 ** 6),
    st.integers(0, BIG).map(lambda n: F(n, BIG)),
)


def pair_value(t, x, y):
    """T(x,y) from ``t.eval_pair`` on the pairs of x and y, whose
    denominator must be positive."""
    n, d = t.eval_pair(x.numerator, x.denominator, y.numerator, y.denominator)
    assert d > 0
    return F(n, d)


@pytest.mark.parametrize("t", EXACT, ids=family_id)
@given(x=rationals_01, y=rationals_01)
def test_exact_eval_matches_fraction_formulas(t, x, y):
    want = reference_exact_eval(t, x, y)
    assert t_eval(t, x, y) == want
    assert pair_value(t, x, y) == want


@pytest.mark.parametrize("t", EXACT, ids=family_id)
def test_exact_eval_corners_and_half(t):
    corners = [F(0), F(1), HALF, HALF - F(1, BIG), HALF + F(1, BIG), F(3, 4)]
    for x in corners:
        for y in corners:
            want = reference_exact_eval(t, x, y)
            assert t_eval(t, x, y) == pair_value(t, x, y) == want, (x, y)
    for x, y in ((F(-1, 3), HALF), (HALF, F(4, 3)), (1 + F(1, BIG), F(1)),
                 (F(0), -F(1, BIG))):
        with pytest.raises(DomainError):
            t_eval(t, x, y)


def test_halfprod_branch_at_half():
    t = parse_tnorm("halfprod")
    assert t_eval(t, HALF, HALF) == F(1, 8)        # both <= 1/2: halved
    assert t_eval(t, HALF, F(1, 4)) == F(1, 16)
    assert t_eval(t, HALF, HALF + F(1, BIG)) == HALF * (HALF + F(1, BIG))
    assert t_eval(t, "1/2", "1/2") == F(1, 8)


def test_golden_values():
    assert t_eval(parse_tnorm("halfprod"), F(1, 2), F(1, 2)) == F(1, 8)
    assert t_eval(parse_tnorm("halfprod"), F(3, 4), F(3, 4)) == F(9, 16)
    assert t_eval(parse_tnorm("hamacher2"), F(1, 4), F(1, 4)) == F(1, 25)
    assert t_eval(parse_tnorm("product"), F(2, 3), F(3, 4)) == F(1, 2)
    assert t_eval(parse_tnorm("min"), F(2, 3), F(3, 4)) == F(2, 3)


def test_parse_render_roundtrip():
    for desc in ("product", "min", "hamacher2", "halfprod",
                 "gen:neglog", "gen:one-minus-log", "lambda:one-minus-log:1/2"):
        t = parse_tnorm(desc)
        assert str(t) == desc
        again = parse_tnorm(str(t))
        assert again == t and hash(again) == hash(t)
    # equality is by family and parameters, not by object identity
    assert Generator(GeneratorSpec("neglog")) == parse_tnorm("gen:neglog")
    assert parse_tnorm("gen:neglog") != parse_tnorm("gen:one-minus-log")
    assert parse_tnorm("lambda:one-minus-log:1/2") != parse_tnorm("lambda:one-minus-log:2/5")
    assert len({parse_tnorm(d) for d in ("product", "min", "hamacher2", "halfprod")}) == 4


def test_parse_rejects_unknown():
    with pytest.raises(ValueError):
        parse_tnorm("lukewarm")
    with pytest.raises(ValueError):
        parse_tnorm("lambda:one-minus-log:3/2")


@pytest.mark.parametrize("desc,ok", [
    ("lambda:neglog:1/2", False), ("lambda:neglog:99/100", False),
    ("lambda:one-minus-log:1/3", False), ("lambda:one-minus-log:1/4", False),
    # 1/e = 0.36787944..., between 0.367879 and 0.36788 = 9197/25000
    ("lambda:one-minus-log:367879/1000000", False),
    ("lambda:one-minus-log:9197/25000", True),
    ("lambda:one-minus-log:2/5", True), ("lambda:one-minus-log:1/2", True)])
def test_parse_accepts_lambda_descriptors_that_are_t_norms(desc, ok):
    # inside the unit square lambda:<g>:lam is min(1, xy e^(-g(1)) / lam),
    # at most min(x, y) only when lam e^g(1) >= 1
    if ok:
        assert str(parse_tnorm(desc)) == desc
    else:
        with pytest.raises(ValueError, match="not a t-norm"):
            parse_tnorm(desc)
    _, name, lam = desc.split(":")
    t = Lambda(GeneratorSpec(name), F(lam))
    assert t.is_t_norm == ok
    # lam e^g(1) >= 1, with g(1) = -ln 1 = 0 or 1 - ln 1 = 1; mpmath's e
    # at 30 digits settles each case here
    g1 = {"neglog": 0, "one-minus-log": 1}[name]
    assert ok == (mpmath.e ** g1 * F(lam).numerator >= F(lam).denominator)
    if not ok:  # an interior value above min(x, y) = T(x, 1)
        x, y = F(3, 4), 1 - F(1, 10 ** 9)
        assert t_eval(t, x, y).value > min(x, y)


def test_descriptor_flags():
    flags = {str(t): (t.exact, t.continuous, t.strict, t.neutral_one)
             for t in map(parse_tnorm, ("product", "min", "hamacher2", "halfprod",
                                        "gen:neglog", "gen:one-minus-log",
                                        "lambda:one-minus-log:1/2"))}
    assert flags["product"] == (True, True, True, True)
    assert flags["min"] == (True, True, False, True)
    assert flags["hamacher2"] == (True, True, True, True)
    assert flags["halfprod"] == (True, False, False, True)
    # neutral_one follows g(1) = 0: -ln 1 = 0, but 1 - ln 1 = 1
    assert flags["gen:neglog"] == (False, True, True, True)
    assert flags["gen:one-minus-log"] == (False, True, True, False)
    assert flags["lambda:one-minus-log:1/2"] == (False, False, False, True)


@pytest.mark.parametrize("t", EXACT, ids=family_id)
def test_tnorm_laws_exact(t):
    pts = [F(i, 10) for i in range(11)]
    for x in pts:
        assert t_eval(t, x, F(1)) == x  # neutral element
        assert t_eval(t, x, F(0)) == 0
        for y in pts:
            v = t_eval(t, x, y)
            assert v == t_eval(t, y, x)
            assert v <= min(x, y)
            if str(t) != "halfprod":
                for z in pts:
                    assert t_eval(t, t_eval(t, x, y), z) == \
                        t_eval(t, x, t_eval(t, y, z))
    if t in STRICTLY_MONOTONE:
        for x in pts[1:]:
            for i in range(len(pts) - 1):
                assert t_eval(t, x, pts[i]) < t_eval(t, x, pts[i + 1])


def test_halfprod_not_associative():
    # halfprod is commutative, strictly monotone and bounded by min, but
    # the branch boundary breaks associativity, so it is not a t-norm;
    # no classifier route ever treats it as one
    t = parse_tnorm("halfprod")
    x, y, z = F(1, 10), F(3, 5), F(3, 5)
    assert t_eval(t, t_eval(t, x, y), z) != t_eval(t, x, t_eval(t, y, z))


# every t-norm family the package registers: the descriptors at module level
REGISTERED = [v for v in vars(tnorms).values() if isinstance(v, tnorms.TNormDescriptor)]
# the families of classify's strict exact route, whose associativity search
# skips every triple where f∘finv fixes both values of T: it needs T associative
STRICT_EXACT = [t for t in REGISTERED if t.exact and t.strict]

# reduced pairs in [0,1]: the ends, small denominators and huge ones
assoc_pairs_01 = st.one_of(st.sampled_from([F(0), F(1)]), wide_fractions).map(
    lambda v: (v.numerator, v.denominator))


def pair_associative(t, a, b, c) -> bool:
    """T(T(a,b),c) and T(a,T(b,c)) reduce to one pair, on ``t.eval_pair``."""
    return (reduced(*t.eval_pair(*t.eval_pair(*a, *b), *c))
            == reduced(*t.eval_pair(*a, *t.eval_pair(*b, *c))))


def test_registered_families_are_the_parsed_ones():
    assert sorted(map(str, REGISTERED)) == ["halfprod", "hamacher2", "min", "product"]
    assert all(parse_tnorm(str(t)) is t for t in REGISTERED)
    assert sorted(map(str, STRICT_EXACT)) == ["hamacher2", "product"]


@pytest.mark.parametrize("t", STRICT_EXACT, ids=family_id)
@settings(max_examples=300)
@given(a=assoc_pairs_01, b=assoc_pairs_01, c=assoc_pairs_01)
def test_strict_exact_families_are_associative_on_pairs(t, a, b, c):
    assert pair_associative(t, a, b, c)


def test_pair_associativity_check_rejects_halfprod():
    # the negative control: halfprod is exact but not associative
    assert not (HALFPROD.exact and HALFPROD.strict)
    assert not pair_associative(HALFPROD, (1, 10), (3, 5), (3, 5))
    a, b, c = find(st.tuples(assoc_pairs_01, assoc_pairs_01, assoc_pairs_01),
                   lambda abc: not pair_associative(HALFPROD, *abc))
    assert not pair_associative(HALFPROD, a, b, c)


def test_neglog_matches_product():
    t = Generator(GeneratorSpec("neglog"))
    for i in range(0, 101, 7):
        for j in range(0, 101, 11):
            x, y = F(i, 100), F(j, 100)
            v = t_eval(t, x, y)
            val = v.value if isinstance(v, Approx) else v
            assert abs(float(val) - float(x * y)) <= 1e-12


# -- the generator families against their closed form ------------------------

# lambdas just above 1/e, at 1/2, near 1, below 1/e and tiny (as
# construct-subnorm may build them): with one-minus-log the last two are
# not t-norms, with neglog none is, and the tiny one clamps at 1 almost
# everywhere
CLOSED_FORM_LAMBDAS = (F(1359, 3694), F(1, 2), F(99, 100), F(1, 4), F(1, 10 ** 30))
GENERATOR_NAMES = ("neglog", "one-minus-log")
GENERATOR_FAMILIES = [Generator(GeneratorSpec(name)) for name in GENERATOR_NAMES] + [
    Lambda(GeneratorSpec(name), lam) for name in GENERATOR_NAMES
    for lam in CLOSED_FORM_LAMBDAS]
TINY = F(1, 10 ** 40)
wide_fractions_01 = st.fractions(min_value=0, max_value=1, max_denominator=10 ** 60)


def closed_form(t, x, y):
    """min(1, xy e^(-g(1)) / lam) in mpmath at 60 digits, lam = 1 for a
    Generator: T inside the unit square."""
    with mpmath.workdps(60):
        g1 = 0 if t.gen.g1_zero else 1
        lam = t.lam or 1
        v = mpmath.mpf(x.numerator * y.numerator) / (x.denominator * y.denominator)
        return min(mpmath.mpf(1), v * mpmath.e ** -g1 * lam.denominator / lam.numerator)


@pytest.mark.parametrize("t", GENERATOR_FAMILIES, ids=str)
@settings(max_examples=60, deadline=None)
@given(x=wide_fractions_01, y=wide_fractions_01)
@example(x=F(0), y=F(1, 2))
@example(x=F(1), y=F(1))
@example(x=F(1), y=F(1, 2))
@example(x=F(1, 2), y=F(1, 2))
@example(x=TINY, y=F(1, 2))
@example(x=TINY, y=TINY)
@example(x=1 - TINY, y=1 - TINY)
@example(x=1 - TINY, y=F(1))
def test_generator_families_are_their_closed_form_within_the_radius(t, x, y):
    v = t_eval(t, x, y)
    assert t_eval(t, y, x) == v
    if t.lam is None:  # a Generator: exact at a zero argument only
        exact = x == 0 or y == 0
        want = F(0)
    else:  # a Lambda: exactly min on the boundary of the unit square
        exact = x in (0, 1) or y in (0, 1)
        want = min(x, y)
    if exact:
        assert v == want and not isinstance(v, Approx)
        return
    assert isinstance(v, Approx) and v.radius == RADIUS
    with mpmath.workdps(60):
        centre = mpmath.mpf(v.value.numerator) / v.value.denominator
        assert abs(centre - closed_form(t, x, y)) <= mpmath.mpf(RADIUS.numerator) / RADIUS.denominator


# lambdas in (0,1): below 1/e, where lambda:one-minus-log is no t-norm and
# the clamp at 1 binds, and above it
lambdas_01 = st.fractions(min_value=0, max_value=1, max_denominator=10 ** 6).filter(
    lambda v: 0 < v < 1)
# arguments on the square's boundary, next to it, and anywhere in [0,1]
boundary_01 = st.one_of(st.sampled_from([F(0), F(1), 1 - TINY, TINY]), wide_fractions_01)


@pytest.mark.parametrize("gen,is_lambda", [("neglog", False), ("one-minus-log", False),
                                           ("one-minus-log", True)])
@settings(max_examples=100, deadline=None)
@given(x=boundary_01, y=boundary_01, lam=lambdas_01)
@example(x=F(9, 10), y=F(9, 10), lam=F(1, 4))  # xy·kappa = 3.24/E > 1: the clamp
@example(x=1 - TINY, y=F(1, 2), lam=F(1, 10 ** 6))  # far past the clamp
@example(x=F(1), y=F(1, 3), lam=F(1, 2))  # the square's boundary
@example(x=F(0), y=F(1), lam=F(2, 5))
def test_t_eval_matches_the_fraction_reference(gen, is_lambda, x, y, lam):
    # the pair kernel computes the rationals of the Fraction bodies it
    # replaced: the same centre and radius, or the same exact value
    t = Lambda(GeneratorSpec(gen), lam) if is_lambda else Generator(GeneratorSpec(gen))
    want = reference_generator_eval(t, x, y)
    got = t_eval(t, x, y)
    assert got == want and type(got) is type(want), (x, y)


# Fractions with denominators past 10^25 and their keys, exact or Approx
_past_radius = st.fractions(min_value=0, max_value=1, max_denominator=10 ** 40)
_keys = st.one_of(
    _past_radius, st.builds(Approx, _past_radius, st.sampled_from([RADIUS, RADIUS / 3])),
    st.builds(Approx, _past_radius, _past_radius))


def _sign(v) -> int:
    return (v > 0) - (v < 0)


@settings(max_examples=300, deadline=None)
@given(a=_keys, b=_keys)
@example(a=F(1, 3), b=F(1, 3))
@example(a=Approx(F(1, 3), RADIUS), b=Approx(F(1, 3), RADIUS))
@example(a=Approx(F(1, 3), RADIUS), b=F(1, 3) + RADIUS)
@example(a=Approx(F(0), RADIUS), b=F(0))
def test_key_diff_matches_approx_diff(a, b):
    # key_diff's (d, r) is approx_diff's over one positive denominator, so
    # every sign test that a comparison makes gives the same answer
    d, r = key_diff(_key(a), _key(b))
    want_d, want_r = approx_diff(a, b)
    assert type(d) is int and type(r) is int and r >= 0
    assert _sign(d) == _sign(want_d) and (r == 0) == (want_r == 0)
    assert d * want_r == want_d * r
    for rule in (lambda d, r: abs(d) > r, lambda d, r: d > r, lambda d, r: d >= r,
                 lambda d, r: -d > r, lambda d, r: d == 0):
        assert rule(d, r) == rule(want_d, want_r)


def test_one_over_e_bound_lies_just_below_one_over_e():
    # the centre's error bound, 1 - e/E, rests on 1/E < 1/e within RADIUS
    with mpmath.workdps(60):
        gap = 1 / mpmath.e - mpmath.mpf(_INV_E.numerator) / _INV_E.denominator
        assert 0 < gap * mpmath.e <= mpmath.mpf(RADIUS.numerator) / RADIUS.denominator


@pytest.mark.parametrize("name", sorted(WORKED_EXAMPLES))
def test_neglog_centre_is_product(name):
    # g^(-1)(g(x) + g(y)) = xy for g = -ln, so F's centre is product's F
    f = parse_fn(WORKED_EXAMPLES[name])
    neglog, product = make_op(f, parse_tnorm("gen:neglog")), make_op(f, parse_tnorm("product"))
    pts = [F(i, 12) for i in range(13)]
    for x in pts:
        for y in pts:
            v = f_eval(neglog, x, y)
            assert (v.value if isinstance(v, Approx) else v) == f_eval(product, x, y), (x, y)


# e = 2.718281828459045235360287..., s_24 and its upper bound 1/_INV_E
# among the rationals to either side
@pytest.mark.parametrize("r", [F(2), F(3), F(27, 10), F(2719, 1000),
                               F(2718281828459045235360, 10 ** 21),
                               F(2718281828459045235361, 10 ** 21),
                               1 / _INV_E, 1 / _INV_E - RADIUS], ids=str)
def test_e_below_decides_exactly(r):
    # is_t_norm and left_limit_above rest on this order with e
    with mpmath.workdps(60):
        want = mpmath.e < mpmath.mpf(r.numerator) / r.denominator
    assert _e_below(r) == want


@pytest.mark.parametrize("t", GENERATOR_FAMILIES, ids=str)
@settings(max_examples=60, deadline=None)
@given(u=st.fractions(min_value=0, max_value=1, max_denominator=10 ** 6).filter(lambda v: v < 1),
       v=st.fractions(min_value=0, max_value=1, max_denominator=10 ** 6).filter(lambda v: v > 0),
       z=st.fractions(min_value=0, max_value=1, max_denominator=10 ** 6).filter(lambda v: v < 1))
@example(u=F(0), v=F(1), z=F(0))
@example(u=F(1, 2), v=F(1), z=F(1, 2))
@example(u=F(99, 100), v=F(99, 100), z=F(0))
def test_left_limit_above_decides_the_closed_form(t, u, v, z):
    # lim T(u, w) as w rises to v is the closed form at v, the clamp aside
    # as z < 1; for neglog it is a rational, decided on Fractions
    if t.gen.g1_zero:
        want = u * v / (t.lam or 1) > z
    else:
        with mpmath.workdps(60):
            want = closed_form(t, u, v) > mpmath.mpf(z.numerator) / z.denominator
    assert t.left_limit_above(pair(u), pair(v), pair(z)) == want


# reduced pairs of [0,1], with the corners and 1/2 drawn often
reduced_pairs_01 = st.one_of(
    st.sampled_from([F(0), HALF, F(1)]),
    st.fractions(min_value=0, max_value=1, max_denominator=10 ** 6),
).map(lambda v: (v.numerator, v.denominator))


def reduced(n: int, d: int) -> tuple:
    g = math.gcd(n, d)
    return n // g, d // g


@pytest.mark.parametrize("t", EXACT, ids=family_id)
@given(x=reduced_pairs_01, y=reduced_pairs_01)
def test_exact_pair_kernel_is_symmetric(t, x, y):
    # the oracle keeps one entry for F(u, p) and F(p, u), which holds only
    # while T(x, y) and T(y, x) reduce to one pair
    assert reduced(*t.eval_pair(*x, *y)) == reduced(*t.eval_pair(*y, *x))


def test_generator_results_carry_radius():
    t = Generator(GeneratorSpec("one-minus-log"))
    v = t_eval(t, F(1, 2), F(1, 2))
    assert isinstance(v, Approx)
    assert 0 < v.radius < F(1, 10**20)


def test_t_power_product():
    t = parse_tnorm("product")
    assert t_power(t, F(1, 2), 3) == F(1, 8)
    assert t_power(t, F(1, 2), 1) == F(1, 2)


@pytest.mark.parametrize("t", EXACT, ids=family_id)
@given(a=fractions_01, b=fractions_01, c=fractions_01, d=fractions_01,
       x=fractions_01, y=fractions_01)
def test_t_image_contains_pointwise(t, a, b, c, d, x, y):
    ia = Interval.make(min(a, b), max(a, b))
    ib = Interval.make(min(c, d), max(c, d))
    img = t_image(t, IntervalSet.single(ia), IntervalSet.single(ib))
    if ia.contains_pair(*pair(x)) and ib.contains_pair(*pair(y)):
        assert img.contains_pair(*pair(t_eval(t, x, y)))


@pytest.mark.parametrize("t", EXACT, ids=family_id)
@given(a=fractions_01, b=fractions_01, c=fractions_01, d=fractions_01)
def test_t_image_ends_are_corner_values(t, a, b, c, d):
    # every exact family is non-decreasing in each argument, so a closed
    # box's image runs from T at its low corner to T at its high corner
    lo_a, hi_a, lo_b, hi_b = min(a, b), max(a, b), min(c, d), max(c, d)
    img = t_image(t, IntervalSet.single(Interval.closed(lo_a, hi_a)),
                  IntervalSet.single(Interval.closed(lo_b, hi_b)))
    lo, hi = img.parts[0], img.parts[-1]
    assert (lo.lo, lo.lo_closed) == (reference_exact_eval(t, lo_a, lo_b), True)
    assert (hi.hi, hi.hi_closed) == (reference_exact_eval(t, hi_a, hi_b), True)


def test_t_image_halfprod_split():
    # the box [1/4,3/4]^2 straddles the product/halved-product boundary
    box = IntervalSet.single(Interval.closed(F(1, 4), F(3, 4)))
    img = t_image(parse_tnorm("halfprod"), box, box)
    assert img.contains_pair(1, 8)    # halved corner: (1/2)(1/2)/2
    assert img.contains_pair(9, 16)   # plain corner: (3/4)(3/4)
    assert not img.contains_pair(2, 3)


@pytest.mark.parametrize("t", EXACT, ids=family_id)
def test_t_solve_x_verified(t):
    for y in (F(1, 3), F(1, 2), F(2, 3), F(1)):
        for z in (F(0), F(1, 8), F(1, 4), F(1, 3), F(1, 2)):
            for x in t_solve_x(t, y, z):
                assert 0 <= x <= 1
                assert t_eval(t, x, y) == z


def test_t_solve_x_halfprod_both_branches():
    # z=1/5, y=4/5: x=z/y=1/4 lands in the plain branch but x=1/2 solves
    # the halved branch at the boundary
    xs = t_solve_x(parse_tnorm("halfprod"), F(4, 5), F(1, 5))
    assert all(t_eval(parse_tnorm("halfprod"), x, F(4, 5)) == F(1, 5)
               for x in xs)
    assert xs


# t_solve_x's candidates per family, on Fractions
REFERENCE_CANDIDATES = {
    "product": lambda y, z: [z / y],
    "hamacher2": lambda y, z: [z * (2 - y) / (y + z - z * y)] if y + z - z * y != 0 else [],
    "min": lambda y, z: [z, y, F(1), (y + 1) / 2],
    "halfprod": lambda y, z: [2 * z / y, z / y],
}


def reference_t_solve_x(t, y, z):
    """t_solve_x on Fractions: each candidate checked by t_eval."""
    candidates = []
    if y != 0:
        candidates = REFERENCE_CANDIDATES[str(t)](y, z)
    elif z == 0:
        candidates = [F(0), HALF, F(1)]
    out = []
    for x in candidates:
        if 0 <= x <= 1 and t_eval(t, x, y) == z and x not in out:
            out.append(x)
    return out


@pytest.mark.parametrize("t", EXACT, ids=family_id)
@settings(max_examples=60)
@given(y=wide_fractions, z=wide_fractions, x=wide_fractions)
@example(y=F(0), z=F(0), x=F(1, 2))
@example(y=F(0), z=F(1, 3), x=F(1, 2))
@example(y=F(4, 5), z=F(1, 5), x=F(1, 4))
def test_t_solve_x_matches_reference(t, y, z, x):
    # z and T(x, y), which has a solution, at y = 0 among others
    for zz in (z, reference_exact_eval(t, x, y)):
        got = t_solve_x(t, y, zz)
        assert got == reference_t_solve_x(t, y, zz), (y, zz)
        assert all(type(v) is F for v in got)


def reference_box_image_mono(phi, A, B):
    """_box_image_mono on Fractions."""
    lo, hi = phi(A.lo, B.lo), phi(A.hi, B.hi)
    lo_att = (A.lo_closed and B.lo_closed) or (
        lo == 0 and ((A.lo == 0 and A.lo_closed) or (B.lo == 0 and B.lo_closed)))
    hi_att = (A.hi_closed and B.hi_closed) or hi == 0
    return Interval.make(lo, hi, lo_att, hi_att)


def reference_box_image(t, A, B):
    """Each exact family's box_image on Fractions."""
    name = str(t)
    if name == "min":
        lo, lo_open = min((A.lo, not A.lo_closed), (B.lo, not B.lo_closed))
        hi, hi_closed = min((A.hi, A.hi_closed), (B.hi, B.hi_closed))
        return [Interval.make(lo, hi, not lo_open, hi_closed)]
    if name == "halfprod":
        lower, upper = Interval.closed(0, HALF), Interval.make(HALF, 1, False, True)
        a_lo, a_hi = A.intersect(lower), A.intersect(upper)
        b_lo, b_hi = B.intersect(lower), B.intersect(upper)
        out = []
        if a_lo and b_lo:
            out.append(reference_box_image_mono(lambda x, y: x * y / 2, a_lo, b_lo))
        for A2, B2 in ((a_lo, b_hi), (a_hi, b_lo), (a_hi, b_hi)):
            if A2 and B2:
                out.append(reference_box_image_mono(lambda x, y: x * y, A2, B2))
        return out
    return [reference_box_image_mono(lambda x, y: reference_exact_eval(t, x, y), A, B)]


@st.composite
def wide_intervals(draw):
    a, b = draw(wide_fractions), draw(wide_fractions)
    iv = Interval.make(min(a, b), max(a, b), draw(st.booleans()), draw(st.booleans()))
    return Interval.point(a) if iv is None else iv


@pytest.mark.parametrize("t", EXACT, ids=family_id)
@settings(max_examples=60)
@given(A=wide_intervals(), B=wide_intervals(), C=wide_intervals())
@example(A=Interval.make(0, HALF, False, True), B=Interval.make(0, 1, True, False),
         C=Interval.point(HALF))
def test_box_images_match_reference(t, A, B, C):
    for X, Y in ((A, B), (B, A), (A, C), (C, B)):
        assert t.box_image(X, Y) == reference_box_image(t, X, Y), (X, Y)
    sa, sb = IntervalSet.of([A, C]), IntervalSet.of([B, C])
    assert t_image(t, sa, sb) == IntervalSet.of(
        iv for X in sa.parts for Y in sb.parts for iv in reference_box_image(t, X, Y))


def dir_limit(t, v, side, c):
    """The family's dir_limit, which runs on integer pairs, on Fractions."""
    (n, d), const = t.dir_limit((v.numerator, v.denominator), side, (c.numerator, c.denominator))
    return F(n, d), const


@pytest.mark.parametrize("t", EXACT, ids=family_id)
def test_dir_limit_matches_nearby_values(t):
    # every branch of an exact family is 1-Lipschitz in u, so the value
    # T(v +- 1/BIG, c) beside v lies within 1/BIG of the one-sided limit;
    # on a constant side it equals the limit
    eps = F(1, BIG)
    pts = [F(0), F(1, 4), F(1, 3), HALF, F(2, 3), F(1)]
    for v in pts:
        for c in pts:
            for side, u in (("left", v - eps), ("right", v + eps)):
                if not 0 <= u <= 1:
                    continue
                lim, const = dir_limit(t, v, side, c)
                near = t_eval(t, u, c)
                assert abs(near - lim) <= eps, (v, c, side)
                if const:
                    assert near == lim, (v, c, side)


def test_dir_limit_halfprod_right_of_half():
    # just above 1/2 the plain-product branch applies, so the right limit
    # is c/2, while T(1/2, c) = c/4 on the halved branch
    t = parse_tnorm("halfprod")
    above = HALF + F(1, BIG)
    for c in (F(1, 7), F(1, 4), F(1, 3), HALF):
        assert dir_limit(t, HALF, "right", c) == (c / 2, False)
        assert t_eval(t, HALF, c) == c / 4
        assert abs(t_eval(t, above, c) - c / 2) <= F(1, BIG)
    # outside 0 < c <= 1/2 both branches agree with T(1/2, c)
    for c in (F(0), F(3, 4), F(1)):
        assert dir_limit(t, HALF, "right", c) == (t_eval(t, HALF, c), False)
    assert dir_limit(t, HALF, "left", F(1, 4)) == (F(1, 16), False)


def test_dir_limit_min_constant_side():
    # min(u, c) = c for all u near v once c < v: constant on both sides
    t = parse_tnorm("min")
    eps = F(1, BIG)
    for v, c in ((HALF, F(1, 4)), (F(1), F(2, 3)), (F(1, 3), F(0))):
        for side, u in (("left", v - eps), ("right", v + eps)):
            if u <= 1:
                assert dir_limit(t, v, side, c) == (c, True)
                assert t_eval(t, u, c) == c
    # c > v: min(u, c) follows u, so the limit is v and not constant
    for side in ("left", "right"):
        assert dir_limit(t, F(1, 4), side, HALF) == (F(1, 4), False)
    # c = v: min(u, c) follows u on the left and is c on the right
    assert dir_limit(t, HALF, "left", HALF) == (HALF, False)
    assert dir_limit(t, HALF, "right", HALF) == (HALF, True)
    assert t_eval(t, HALF - eps, HALF) == HALF - eps
    assert t_eval(t, HALF + eps, HALF) == HALF


@pytest.mark.parametrize("fam", ["product", "hamacher2"])
def test_t_preimage_membership(fam):
    t = parse_tnorm(fam)
    ziv = Interval.closed(F(1, 8), F(3, 16))
    for yq in (F(1, 2), F(3, 4), F(1)):
        pre = t_preimage(t, pair(yq), ziv)
        for i in range(33):
            x = F(i, 32)
            assert pre.contains_pair(*pair(x)) == ziv.contains_pair(*pair(t_eval(t, x, yq)))


@pytest.mark.parametrize("fam", ["product", "hamacher2"])
def test_t_preimage_at_the_top_value(fam):
    # Z ending at top = T(1, y), the largest value of T(., y): the preimage
    # reaches x = 1 exactly when Z is closed there
    t = parse_tnorm(fam)
    for yq in (F(1, 2), F(3, 4), F(1)):
        top, mid = t_eval(t, F(1), yq), t_eval(t, HALF, yq)
        for ziv, want in ((Interval.closed(top, top), Interval.point(1)),
                          (Interval.make(mid, top, True, False), Interval.make(HALF, 1, True, False)),
                          (Interval.closed(mid, top), Interval.closed(HALF, 1))):
            pre = t_preimage(t, pair(yq), ziv)
            assert pre == IntervalSet.single(want), (yq, str(ziv))
            for i in range(33):
                x = F(i, 32)
                assert pre.contains_pair(*pair(x)) == ziv.contains_pair(*pair(t_eval(t, x, yq)))


@pytest.mark.parametrize("fam", ["product", "hamacher2"])
def test_t_preimage_at_y_zero_and_past_the_top(fam):
    # T(x, 0) = 0 for every x, so at y = 0 the preimage is [0,1] when Z
    # holds 0 and empty otherwise; a Z that runs past top = T(1, y) holds
    # top, so its preimage reaches x = 1 closed, whether Z is closed or not
    t = parse_tnorm(fam)
    for ziv in (Interval.closed(0, HALF), Interval(0, 1, True, False)):
        assert t_preimage(t, (0, 1), ziv) == IntervalSet.unit()
    for ziv in (Interval(0, 1, False, True), Interval.closed(F(1, 4), HALF)):
        assert t_preimage(t, (0, 1), ziv).is_empty
    for ziv in (Interval(0, 1, True, False), Interval.closed(0, 1),
                Interval(HALF, 1, True, False)):
        pre = t_preimage(t, pair(HALF), ziv)
        assert pre.parts[-1].hi == 1 and pre.parts[-1].hi_closed, str(ziv)
        for i in range(33):
            x = F(i, 32)
            assert pre.contains_pair(*pair(x)) == ziv.contains_pair(*pair(t_eval(t, x, HALF)))
    with pytest.raises(ValueError):
        t_preimage(parse_tnorm("min"), pair(HALF), Interval.closed(0, 1))


# -- no dispatch on the family's name outside tnorms.py ----------------------

_FAMILY_CLASSES = r"\b(?:Product|Minimum|Hamacher2|Halfprod|Generator|Lambda)\b"
_FAMILY_LITERAL = (r"""["'](?:product|min|minimum|hamacher2|halfprod|generator"""
                   r"""|lambda|gen:[^"']*|lambda:[^"']*)["']""")
NAME_DISPATCH = re.compile("|".join((
    r"\.family\b",
    r"isinstance\([^)]*" + _FAMILY_CLASSES,
    r"(?:==|!=)\s*" + _FAMILY_LITERAL,
    _FAMILY_LITERAL + r"\s*(?:==|!=)",
    r"\bin\s*[(\[{][^)\]}]*" + _FAMILY_LITERAL,
)))


def name_dispatch_lines(package: Path) -> list:
    """Lines of the package's modules, tnorms.py aside, that pick a branch
    by t-norm family rather than by what the family can do."""
    return [f"{path.name}:{i}: {line.strip()}"
            for path in sorted(package.glob("*.py")) if path.name != "tnorms.py"
            for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if NAME_DISPATCH.search(line)]


def test_no_family_name_dispatch_outside_tnorms():
    package = Path(__file__).resolve().parents[1] / "src" / "subnormforge"
    assert not name_dispatch_lines(package)


def test_name_dispatch_pattern_catches_each_form():
    for line in ('if t.family == "minimum" and c < v:',
                 "if isinstance(t, Lambda):",
                 'if str(t) == "halfprod":',
                 "elif 'gen:neglog' != desc:",
                 'if str(t) in ("product", "hamacher2"):'):
        assert NAME_DISPATCH.search(line), line
    for line in ("if t.exact and t.strict:",
                 "if isinstance(tv, Approx):",
                 'return Verdict.unknown("min is not strict")'):
        assert not NAME_DISPATCH.search(line), line


# -- the package never loads mpmath -------------------------------------------

_NO_MPMATH = """
import json, sys
import subnormforge as s
from subnormforge.cli import main
for text in json.loads(sys.argv[1]):
    f = s.parse_fn(text)
    for name in json.loads(sys.argv[2]):
        t = s.parse_tnorm(name)
        s.classify(f, t)
        s.consistency_harness(f, t, n=4)
main(["construct-subnorm", "--gen", "one-minus-log", "--lam", "1/2"])
print("mpmath" in sys.modules)
"""


def test_package_never_loads_mpmath():
    # a fresh interpreter, as this one has imported mpmath already; every
    # registered family, and the CLI's lambda construction
    src = str(Path(subnormforge.__file__).resolve().parents[1])
    families = ["product", "min", "hamacher2", "halfprod", "gen:neglog",
                "gen:one-minus-log", "lambda:one-minus-log:1/2"]
    out = subprocess.run([sys.executable, "-c", _NO_MPMATH,
                          json.dumps(list(WORKED_EXAMPLES.values())), json.dumps(families)],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                         timeout=120, check=True)
    assert out.stdout.split()[-1] == "False"
