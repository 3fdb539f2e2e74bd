"""The generated operation F(x,y) = finv(T(f(x), f(y)))."""

import math
from fractions import Fraction

import pytest

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
from subnormforge.pwfn import eval_pair
from subnormforge.tnorms import Approx, Generator, Lambda

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
