"""The generated operation F(x,y) = finv(T(f(x), f(y)))."""

import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (approx_diff, monotone_fns, nonincreasing_fns, pair,
                      reference_generator_eval)
from subnormforge import (
    GeneratorSpec,
    additive_generated,
    f_eval,
    generated,
    lambda_decompose,
    make_op,
    parse_fn,
    parse_tnorm,
    pseudo_inverse,
)
from subnormforge.generated import GeneratedOp
from subnormforge.oracle import _Memo, check_property
from subnormforge.pwfn import DomainError, eval_fn, eval_pair
from subnormforge.tnorms import Approx, Generator, Lambda, _key

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


def test_caches_hold_reduced_pairs(f_gap):
    # both caches map a reduced pair to a reduced pair, and f_at, finv_at
    # and f_eval return the Fraction of the pair they cached; the method and
    # cache names stay, as the bench's tracer wraps and reads them
    op = make_op(f_gap, parse_tnorm("product"))
    op.t_finv(*op.f_pair((1, 3)), *op.f_pair((3, 4)))
    op.t_finv(*op.f_pair((1, 2)), *op.f_pair((1, 2)))
    x, y = op.f_at(F(2, 3)), op.finv_at(F(1, 5))
    w = f_eval(op, F(1, 2), F(3, 4))
    assert len(op._f_cache) == 4 and len(op._finv_cache) == 4
    for cache in (op._f_cache, op._finv_cache):
        for pair in [*cache, *cache.values()]:
            assert type(pair) is tuple and [type(i) for i in pair] == [int, int], pair
            assert pair[1] > 0 and math.gcd(*pair) == 1, pair
    assert op.f_at(F(1, 3)) == F(*op._f_cache[1, 3]) == F(5, 18)
    assert x == F(*op._f_cache[2, 3]) and y == F(*op._finv_cache[1, 5])
    assert w == F(*op.t_finv(*op.f_pair((1, 2)), *op.f_pair((3, 4))))
    assert all(type(v) is Fraction for v in (x, y, w))
    assert all(callable(getattr(op, name)) for name in ("f_at", "finv_at"))


def test_op_holds_f_t_and_its_caches(f_gap):
    # make_op builds nothing, and finv is read only from f's pieces: the op
    # holds no closed form of it, and f builds none
    assert [fd.name for fd in dataclasses.fields(GeneratedOp)] == [
        "f", "t", "_f_cache", "_finv_cache"]
    op = make_op(f_gap, parse_tnorm("product"))
    assert "_pseudo_inverse" not in vars(f_gap)
    assert op.finv_at(F(1, 5)) == F(17, 65) and op.finv_pair((3, 16)) == (1, 4)
    assert "_pseudo_inverse" not in vars(f_gap)
    with pytest.raises(DomainError):
        op.finv_at(F(3, 2))
    assert not hasattr(op, "finv") and not hasattr(GeneratedOp, "finv")


def test_op_equality_ignores_what_its_caches_hold(f_identity, f_gap):
    # two ops are equal when their f and t are, before and after either one
    # evaluates anything
    product = parse_tnorm("product")
    a, b = make_op(f_identity, product), make_op(f_identity, product)
    assert a == b
    assert f_eval(a, 1, 1) == 1 and a._f_cache and not b._f_cache
    assert a == b and not a != b
    f_eval(b, F(1, 2), F(1, 3))
    assert a._f_cache != b._f_cache and a == b
    assert a != make_op(f_identity, parse_tnorm("hamacher2"))
    assert a != make_op(f_gap, product)


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
    """finv(T(fx, fy)) for a generator family, on Fractions: finv at T's
    centre and at centre -+ radius, clamped to [0,1], with the larger
    distance as the spread (the former ``generated.f_compose``)."""
    tv = reference_generator_eval(op.t, fx, fy)
    g = pseudo_inverse(op.f)
    if not isinstance(tv, Approx):
        return eval_fn(g, tv)
    center = eval_fn(g, tv.value)
    lo = eval_fn(g, max(F(0), tv.value - tv.radius))
    hi = eval_fn(g, min(F(1), tv.value + tv.radius))
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
    # t_finv takes f values, as f_compose did, and returns the key of F's
    # value: reduced pairs, so equal values have equal keys
    op = make_op(f, parse_tnorm(tdesc))
    grid = [F(i, 8) for i in range(9)]
    for fx, fy in COMPOSE_EDGES + extra + [(a, b) for a in grid for b in grid[::2]]:
        got = op.t_finv(fx.numerator, fx.denominator, fy.numerator, fy.denominator)
        assert got == _key(reference_f_compose(op, fx, fy)), (fx, fy)


@pytest.mark.parametrize("tdesc", ["gen:neglog", "gen:one-minus-log",
                                   "lambda:one-minus-log:2/5"])
def test_warm_op_returns_what_a_fresh_op_returns(f_half_jump, tdesc):
    # a warm op, its f and finv caches filled, must give the values a
    # fresh op gives, in any order of evaluation
    t = parse_tnorm(tdesc)
    warm = make_op(f_half_jump, t)
    pts = [F(i, 7) for i in range(8)]
    pairs = [(x, y) for x in pts for y in pts]
    for x, y in pairs + pairs[::-1]:
        assert f_eval(warm, x, y) == f_eval(make_op(f_half_jump, t), x, y), (x, y)


@pytest.mark.parametrize("tdesc", ["product", "hamacher2", "min", "gen:neglog"])
@settings(max_examples=30, deadline=None)
@given(f=st.one_of(monotone_fns(), nonincreasing_fns()))
def test_row_is_t_finv_along_the_row(tdesc, f):
    # a row of F's keys, one sweep of finv for an exact T and t_finv per
    # entry otherwise, equals t_finv at each entry, in ascending order of
    # the f values and out of it
    op, ref = make_op(f, parse_tnorm(tdesc)), make_op(f, parse_tnorm(tdesc))
    vs = sorted({op.f_pair(pair(F(i, 8))) for i in range(9)}, key=lambda k: k[0] / k[1])
    for w in vs:
        for row in (vs, vs[::-1]):
            assert op.row(w, row) == [ref.t_finv(*w, *v) for v in row], w
