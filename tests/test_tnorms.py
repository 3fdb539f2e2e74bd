"""T-norm families: evaluation, algebraic laws, images and preimages."""

import math
import re
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subnormforge.intervals import Interval, IntervalSet
from subnormforge.pwfn import DomainError
from subnormforge.tnorms import (
    HALF,
    DIGITS,
    RADIUS,
    Approx,
    Generator,
    GeneratorSpec,
    Lambda,
    _e_pow,
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


def test_neglog_matches_product():
    t = Generator(GeneratorSpec("neglog"))
    for i in range(0, 101, 7):
        for j in range(0, 101, 11):
            x, y = F(i, 100), F(j, 100)
            v = t_eval(t, x, y)
            val = v.value if isinstance(v, Approx) else v
            assert abs(float(val) - float(x * y)) <= 1e-12


# -- the generator families against mpmath's mpf arithmetic -----------------

# g and its formula inverse as mpf expressions, the arithmetic that the
# libmp kernel in tnorms.py must reproduce bit for bit
_MPF_GENERATORS = {
    "neglog": (lambda v: -mpmath.ln(v), lambda u: mpmath.e ** -u),
    "one-minus-log": (lambda v: 1 - mpmath.ln(v), lambda u: mpmath.e ** (1 - u)),
}


def _mpf(x):
    return mpmath.mpf(x.numerator) / x.denominator


def _mpf_clamped(v):
    v = min(max(v, mpmath.mpf(0)), mpmath.mpf(1))
    return Approx(F(*mpmath.libmp.to_rational(mpmath.mpf(v)._mpf_)), RADIUS)


def reference_generator_eval(t, x, y):
    """T(x, y) for a Generator or a Lambda, by mpf arithmetic at DIGITS."""
    g, g_inv = _MPF_GENERATORS[t.gen.name]
    with mpmath.workdps(DIGITS):
        if t.lam is None:
            if x == 0 or y == 0:
                return F(0)
            return _mpf_clamped(g_inv(g(_mpf(x)) + g(_mpf(y))))
        if x in (0, 1) or y in (0, 1):
            return min(x, y)
        lam = _mpf(t.lam)
        return _mpf_clamped(lam * g_inv(g(_mpf(x) / lam) + g(_mpf(y) / lam)))


GENERATOR_FAMILIES = [Generator(GeneratorSpec(name)) for name in _MPF_GENERATORS] + [
    Lambda(GeneratorSpec(name), lam) for name in _MPF_GENERATORS
    for lam in (F(1, 4), F(1, 3), F(1, 2), F(99, 100))]
TINY = F(1, 10 ** 40)
BIG_DEN = F(2 ** 200 + 1, 2 ** 201 + 3)
# numerators beyond PREC bits, where rounding p first and then p/q differs
# in the last bit from rounding p/q once
TWICE_ROUNDED = (F(1529845630986851850355555041111280052368,
                   2561519556081548986640586492247333131511),
                 F(2480584140668343678734250119327973734555,
                   2612296193394931722487717189818667199547))
wide_fractions_01 = st.fractions(min_value=0, max_value=1, max_denominator=10 ** 60)


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
@example(x=BIG_DEN, y=F(1, 3))
@example(x=F(10 ** 30 - 1, 10 ** 30), y=BIG_DEN)
@example(x=TWICE_ROUNDED[0], y=TWICE_ROUNDED[1])
@example(x=TWICE_ROUNDED[1], y=F(1, 2))
def test_generator_kernel_is_bit_identical_to_mpf_arithmetic(t, x, y):
    # equal Approx values are equal binary rationals, so equal bits; a warm
    # memo must return what no memo does
    want = reference_generator_eval(t, x, y)
    assert t_eval(t, x, y) == want
    memo = {}
    for _ in range(2):
        assert t_eval(t, x, y, memo) == want


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


@pytest.mark.parametrize("tdesc", ["gen:neglog", "gen:one-minus-log",
                                   "lambda:one-minus-log:2/5"])
@settings(max_examples=60, deadline=None)
@given(x=reduced_pairs_01, y=reduced_pairs_01)
def test_approx_pair_kernel_is_symmetric(tdesc, x, y):
    # the same for the generator families: centre and exactness alike,
    # with fresh memos and with one memo that both orders share
    t = parse_tnorm(tdesc)
    assert t.approx_pair(*x, *y, {}) == t.approx_pair(*y, *x, {})
    memo = {}
    assert t.approx_pair(*x, *y, memo) == t.approx_pair(*y, *x, memo)


@pytest.mark.parametrize("w", [F(0), F(-1), F(2), F(-3), F(-1, 2), F(3, 2), F(-5, 2),
                               F(27), F(27, 2), F(-394), F(-397, 2),
                               F(-1, 4), F(1, 3), F(-7, 10)])
def test_e_pow_takes_each_branch_of_mpf_pow(w):
    # integer and half-integer exponents take mpf_pow's power and square
    # root branches, the others its exp(w log e) branch; at 27, 27/2, -394
    # and -397/2 the general branch would round differently
    with mpmath.workdps(DIGITS):
        v = _mpf(w)
        assert _e_pow(v._mpf_) == (mpmath.e ** v)._mpf_


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
    if ia.contains(x) and ib.contains(y):
        assert img.contains(t_eval(t, x, y))


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
    assert img.contains(F(1, 8))    # halved corner: (1/2)(1/2)/2
    assert img.contains(F(9, 16))   # plain corner: (3/4)(3/4)
    assert not img.contains(F(2, 3))


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
                lim, const = t.dir_limit(v, side, c)
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
        assert t.dir_limit(HALF, "right", c) == (c / 2, False)
        assert t_eval(t, HALF, c) == c / 4
        assert abs(t_eval(t, above, c) - c / 2) <= F(1, BIG)
    # outside 0 < c <= 1/2 both branches agree with T(1/2, c)
    for c in (F(0), F(3, 4), F(1)):
        assert t.dir_limit(HALF, "right", c) == (t_eval(t, HALF, c), False)
    assert t.dir_limit(HALF, "left", F(1, 4)) == (F(1, 16), False)


def test_dir_limit_min_constant_side():
    # min(u, c) = c for all u near v once c < v: constant on both sides
    t = parse_tnorm("min")
    eps = F(1, BIG)
    for v, c in ((HALF, F(1, 4)), (F(1), F(2, 3)), (F(1, 3), F(0))):
        for side, u in (("left", v - eps), ("right", v + eps)):
            if u <= 1:
                assert t.dir_limit(v, side, c) == (c, True)
                assert t_eval(t, u, c) == c
    # c > v: min(u, c) follows u, so the limit is v and not constant
    for side in ("left", "right"):
        assert t.dir_limit(F(1, 4), side, HALF) == (F(1, 4), False)
    # c = v: min(u, c) follows u on the left and is c on the right
    assert t.dir_limit(HALF, "left", HALF) == (HALF, False)
    assert t.dir_limit(HALF, "right", HALF) == (HALF, True)
    assert t_eval(t, HALF - eps, HALF) == HALF - eps
    assert t_eval(t, HALF + eps, HALF) == HALF


@pytest.mark.parametrize("fam", ["product", "hamacher2"])
def test_t_preimage_membership(fam):
    t = parse_tnorm(fam)
    ziv = Interval.closed(F(1, 8), F(3, 16))
    for yq in (F(1, 2), F(3, 4), F(1)):
        pre = t_preimage(t, yq, ziv)
        for i in range(33):
            x = F(i, 32)
            assert pre.contains(x) == ziv.contains(t_eval(t, x, yq))


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
