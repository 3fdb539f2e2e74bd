"""The generated operation F(x,y) = finv(T(f(x), f(y)))."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import monotone_fns, nonincreasing_fns
from subnormforge import (
    GeneratorSpec,
    additive_generated,
    f_eval,
    generated,
    lambda_decompose,
    make_op,
    parse_fn,
    parse_tnorm,
)
from subnormforge.oracle import _Memo, check_property
from subnormforge.pwfn import eval_fn, eval_pair
from subnormforge.tnorms import Approx, Generator, Lambda, approx_diff, t_eval

F = Fraction


def val(v):
    return v.value if isinstance(v, Approx) else v


def test_gap_halfprod_golden(f_gap):
    op = make_op(f_gap, parse_tnorm("halfprod"))
    # both images in the halved region, result back on the low branch
    assert f_eval(op, F(1, 2), F(1, 2)) == F(121, 576)
    # both images above 1/2: plain product, result on the high branch
    assert f_eval(op, F(9, 10), F(9, 10)) == F(973, 1200)
    assert f_eval(op, F(1), F(1)) == 1


def test_plateau_product_golden(f_plateau):
    op = make_op(f_plateau, parse_tnorm("product"))
    assert f_eval(op, F(3, 4), F(4, 5)) == F(3, 5)
    assert f_eval(op, F(1, 2), F(1, 2)) == 0
    # anything with image product at most 1/2 collapses to 0
    assert f_eval(op, F(3, 5), F(4, 5)) == 0
    assert f_eval(op, F(1), F(1)) == 1


def test_half_jump_hamacher2_values(f_half_jump):
    op = make_op(f_half_jump, parse_tnorm("hamacher2"))
    # computed directly from the defining equation; the closed form
    # xy/(8+xy-2(x+y)) sometimes quoted for this example is off by a
    # factor of two
    assert f_eval(op, F(1, 2), F(1, 2)) == F(2, 25)
    assert f_eval(op, F(1, 2), F(1)) == F(1, 2)
    assert f_eval(op, F(1), F(1)) == 1


def test_half_jump_hamacher2_closed_form(f_half_jump):
    op = make_op(f_half_jump, parse_tnorm("hamacher2"))
    for i in range(1, 10):
        for j in range(1, 10):
            x, y = F(i, 10), F(j, 10)
            expect = 2 * x * y / (8 + x * y - 2 * (x + y))
            assert f_eval(op, x, y) == expect


def test_exact_results_are_fractions(f_gap):
    op = make_op(f_gap, parse_tnorm("product"))
    assert isinstance(f_eval(op, F(1, 3), F(2, 3)), Fraction)


def test_operation_caches_function_values(f_gap, monkeypatch):
    # f_eval, f_at and an oracle memo on the same op share its f cache, so
    # f runs once per distinct argument
    op = make_op(f_gap, parse_tnorm("product"))
    f_args = []

    def counting(fn, p, q):
        if fn is op.f:
            f_args.append(F(p, q))
        return eval_pair(fn, p, q)

    monkeypatch.setattr(generated, "eval_pair", counting)
    f_eval(op, F(1, 3), F(2, 3))
    f_eval(op, F(1, 3), F(1, 2))
    op.f_at(F(1, 2))
    memo = _Memo(op)
    memo(F(2, 3), F(3, 4))
    check_property(memo, "commutativity", [F(0), F(1, 3), F(3, 4)])
    assert sorted(f_args) == [0, F(1, 3), F(1, 2), F(2, 3), F(3, 4)]


def test_cache_entries_build_their_fraction_when_read(f_gap):
    # an oracle scan reads pairs only, so the op's caches hold no Fraction
    # until f_at, finv_at or f_eval reads one, and then hold it
    op = make_op(f_gap, parse_tnorm("product"))
    check_property(_Memo(op), "associativity", [F(0), F(1, 3), F(3, 4), F(1)])
    assert op._finv_cache and all(v is None for _, v in op._finv_cache.values())
    (n, d), entry = next(iter(op._finv_cache.items()))
    v = op.finv_at(F(n, d))
    assert v == F(*entry[0]) and op._finv_cache[n, d][1] is v
    assert op.f_at(F(1, 3)) is op._f_cache[1, 3][1] == F(5, 18)


def test_additive_generated_product_like():
    direct = additive_generated(GeneratorSpec("one-minus-log"))
    for i in range(1, 11):
        for j in range(1, 11):
            x, y = F(i, 10), F(j, 10)
            v = direct(x, y)
            assert abs(float(val(v)) - float(x * y) / math.e) < 1e-15


def test_additive_generated_zero_is_exact():
    direct = additive_generated(GeneratorSpec("one-minus-log"))
    assert direct(F(0), F(1, 2)) == 0


def test_lambda_decompose_shape():
    f, t = lambda_decompose(GeneratorSpec("one-minus-log"), F(1, 2))
    assert f(F(1)) == F(1, 2)
    assert f(F(1, 2)) == F(1, 4)
    assert isinstance(t, Lambda) and t.lam == F(1, 2)
    assert str(t) == "lambda:one-minus-log:1/2"


@pytest.mark.parametrize("lam", [F(1, 4), F(1, 2), F(3, 4)])
def test_lambda_roundtrip(lam):
    gen = GeneratorSpec("one-minus-log")
    f, t = lambda_decompose(gen, lam)
    op = make_op(f, t)
    direct = additive_generated(gen)
    dev = 0.0
    for i in range(0, 51, 3):
        for j in range(0, 51, 3):
            x, y = F(i, 50), F(j, 50)
            dev = max(dev, abs(float(val(direct(x, y)))
                               - float(val(f_eval(op, x, y)))))
    assert dev <= 1e-12


def test_lambda_spot_value():
    gen = GeneratorSpec("one-minus-log")
    f, t = lambda_decompose(gen, F(1, 2))
    op = make_op(f, t)
    v = f_eval(op, F(1, 2), F(1, 2))
    assert abs(float(val(v)) - 1 / (4 * math.e)) <= 1e-12


def test_lambda_rejects_degenerate():
    with pytest.raises(ValueError):
        lambda_decompose(GeneratorSpec("one-minus-log"), F(0))
    with pytest.raises(ValueError):
        lambda_decompose(GeneratorSpec("one-minus-log"), F(1))


def test_generator_f_eval_carries_radius(f_identity):
    op = make_op(f_identity, Generator(GeneratorSpec("one-minus-log")))
    v = f_eval(op, F(1, 2), F(1, 2))
    assert isinstance(v, Approx) and v.radius > 0


def _covers(v, exact) -> bool:
    """Whether the value or interval v contains the exact value."""
    d, r = approx_diff(v, exact)
    return abs(d) <= r


def test_generator_radius_covers_a_nonincreasing_finv():
    # -ln generates product.  finv is non-increasing and jumps at 1/2, the
    # value of the plateau [1/4,1/2]: F(2/9,1/20) = finv(5/9 * 9/10) =
    # finv(1/2) = 1/4, while T's centre lies within its radius of 1/2
    f = parse_fn("monotone: nonincreasing\n"
                 "segment [0,1/4) linear -2 1\n"
                 "segment [1/4,1/2] const 1/2\n"
                 "segment (1/2,1] linear -1 1\n")
    x, y = F(2, 9), F(1, 20)
    exact = f_eval(make_op(f, parse_tnorm("product")), x, y)
    assert exact == F(1, 4)
    assert _covers(f_eval(make_op(f, parse_tnorm("gen:neglog")), x, y), exact)


@settings(max_examples=100, deadline=None)
@given(f=st.one_of(monotone_fns(), nonincreasing_fns()))
def test_neglog_interval_contains_product_value(f):
    # -ln generates product, so gen:neglog's F must contain product's
    # exact F, whichever way f (and so finv) runs
    neglog = make_op(f, parse_tnorm("gen:neglog"))
    product = make_op(f, parse_tnorm("product"))
    pts = [F(i, 16) for i in range(17)]
    for x in pts:
        for y in pts:
            assert _covers(f_eval(neglog, x, y), f_eval(product, x, y)), (x, y)


def reference_f_compose(op, fx, fy):
    """f_compose on Fractions: finv at T's centre and at centre -+ radius,
    clamped to [0,1], with the larger distance as the spread."""
    tv = t_eval(op.t, fx, fy)
    if not isinstance(tv, Approx):
        return eval_fn(op.finv, tv)
    center = eval_fn(op.finv, tv.value)
    lo = eval_fn(op.finv, max(F(0), tv.value - tv.radius))
    hi = eval_fn(op.finv, min(F(1), tv.value + tv.radius))
    return Approx(center, max(tv.radius, abs(center - lo), abs(hi - center)))


# f values with T's value within its radius of 0 (clamped at 0), T's value
# 1 (clamped at 1), and products on the plateau values 1/2 and 3/4, where
# finv jumps within the radius
COMPOSE_EDGES = [(F(1, 10 ** 13), F(1, 10 ** 13)), (F(1, 10 ** 30), F(1, 2)),
                 (F(1), F(1)), (F(1), F(1, 2)), (F(5, 9), F(9, 10)),
                 (F(3, 4), F(1)), (F(1, 2), F(1)), (F(0), F(1, 2))]


@pytest.mark.parametrize("tdesc", ["gen:neglog", "gen:one-minus-log",
                                   "lambda:one-minus-log:2/5"])
@settings(max_examples=30, deadline=None)
@given(f=st.one_of(monotone_fns(), nonincreasing_fns()),
       extra=st.lists(st.tuples(st.fractions(0, 1, max_denominator=10 ** 9),
                                st.fractions(0, 1, max_denominator=10 ** 9)),
                      max_size=4))
def test_f_compose_on_pairs_matches_fraction_path(tdesc, f, extra):
    op = make_op(f, parse_tnorm(tdesc))
    grid = [F(i, 8) for i in range(9)]
    for fx, fy in COMPOSE_EDGES + extra + [(a, b) for a in grid for b in grid[::2]]:
        assert generated.f_compose(op, fx, fy) == reference_f_compose(op, fx, fy), (fx, fy)


# f(x) = x/3 at this x = 3m/q comes out of eval_pair as the unreduced pair
# (3m, 3q), and g there differs in the last bit from g at the reduced
# (m, q), as mpf(3m) rounds 3m to PREC bits
THIRD_OF_WIDE = F(1006537778523317770056129382391295442128,
                  1921627667807796331291132878440231527309)


@pytest.mark.parametrize("tdesc", ["gen:neglog", "gen:one-minus-log",
                                   "lambda:one-minus-log:2/5"])
@settings(max_examples=30, deadline=None)
@given(f=st.one_of(monotone_fns(), nonincreasing_fns()),
       accs=st.lists(st.fractions(0, 1, max_denominator=10 ** 40), max_size=4))
@example(f=parse_fn("monotone: nondecreasing\nsegment [0,1] linear 1/3 0\n"),
         accs=[THIRD_OF_WIDE])
def test_approx_step_matches_f_compose(tdesc, f, accs):
    # a power sequence's step on pairs must give f_compose's value bit for
    # bit, with a reduced centre, for powers as wide as the centres it
    # carries; the step's op is warm, the reference op fresh
    t = parse_tnorm(tdesc)
    op = make_op(f, t)
    grid = [F(i, 8) for i in range(9)]
    for acc in grid + accs:
        for x in grid[1:]:
            fx = op.f_at(x)
            cn, cd, sn, sd = op.approx_step((acc.numerator, acc.denominator),
                                            (fx.numerator, fx.denominator))
            assert math.gcd(cn, cd) == 1 and cd > 0 and sn >= 0 and sd > 0
            got = Approx(F(cn, cd), F(sn, sd)) if sn else F(cn, cd)
            ref = make_op(f, t)
            assert got == generated.f_compose(ref, ref.f_at(acc), fx), (acc, x)


@pytest.mark.parametrize("tdesc", ["gen:neglog", "gen:one-minus-log",
                                   "lambda:one-minus-log:2/5"])
def test_warm_op_returns_what_a_fresh_op_returns(f_half_jump, tdesc):
    # g kept per op by f value: a warm op must give the values a fresh
    # op gives, in any order of evaluation
    t = parse_tnorm(tdesc)
    warm = make_op(f_half_jump, t)
    pts = [F(i, 7) for i in range(8)]
    pairs = [(x, y) for x in pts for y in pts]
    for x, y in pairs + pairs[::-1]:
        assert f_eval(warm, x, y) == f_eval(make_op(f_half_jump, t), x, y), (x, y)
    assert warm._g_cache
