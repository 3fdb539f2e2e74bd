"""End-to-end acceptance suite.

Each criterion is one test; a PASS/FAIL line per criterion is echoed in
the terminal summary (and on stdout when the test fails).
"""

import functools
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import conftest
from conftest import (
    F_GAP,
    F_HALF_JUMP,
    F_PLATEAU,
    F_SHIFTED_JUMP,
    F_STEP,
    WORKED_EXAMPLES,
    bisect_pseudo_inverse,
    random_nondecreasing_fn,
    random_strictly_increasing_fn,
    scan_continuity,
)
from subnormforge import (
    GeneratorSpec,
    additive_generated,
    classify,
    decompose,
    eval_fn,
    f_eval,
    lambda_decompose,
    make_op,
    parse_fn,
    parse_tnorm,
    pseudo_inverse,
    t_eval,
)
from subnormforge.classify import check_continuity, check_inclusion_conditions
from subnormforge.oracle import (
    _Memo,
    check_property,
    consistency_harness,
    default_extra,
    grid,
)
from subnormforge.tnorms import Approx

F = Fraction
GOLDEN = Path(__file__).parent / "golden"


def criterion(num, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            line = f"criterion {num} ({title}): "
            try:
                fn(*args, **kwargs)
            except BaseException:
                conftest.ACCEPTANCE_RESULTS.append(line + "FAIL")
                print(line + "FAIL")
                raise
            conftest.ACCEPTANCE_RESULTS.append(line + "PASS")
            print(line + "PASS")
        return wrapper

    return deco


def val(v):
    return v.value if isinstance(v, Approx) else v


@criterion(1, "golden values")
def test_criterion_1_golden_values():
    op = make_op(parse_fn(F_GAP), parse_tnorm("halfprod"))
    assert f_eval(op, F(1, 2), F(1, 2)) == F(121, 576)
    op = make_op(parse_fn(F_PLATEAU), parse_tnorm("product"))
    assert f_eval(op, F(3, 4), F(4, 5)) == F(3, 5)
    assert f_eval(op, F(1, 2), F(1, 2)) == 0
    assert t_eval(parse_tnorm("halfprod"), F(1, 2), F(1, 2)) == F(1, 8)


@criterion(2, "classifier verdicts on worked examples")
def test_criterion_2_worked_example_verdicts():
    r = classify(parse_fn(F_PLATEAU), parse_tnorm("product"))
    assert r.properties["conditionally_cancellative"].status == "yes"
    assert r.properties["t_subnorm"].status == "yes"

    r = classify(parse_fn(F_HALF_JUMP), parse_tnorm("hamacher2"))
    assert r.properties["cancellative"].status == "yes"
    assert r.properties["t_subnorm"].status == "yes"

    f = parse_fn(F_SHIFTED_JUMP)
    op = make_op(f, parse_tnorm("min"))
    memo = _Memo(lambda x, y: f_eval(op, x, y))
    res = check_property(memo, "conditional_cancellation",
                         grid(8, default_extra(f)))
    assert not res.ok
    x, y1, y2 = res.counterexample.inputs
    assert memo(x, y1) == memo(x, y2) > 0

    z_a, _ = check_inclusion_conditions(parse_tnorm("halfprod"),
                                        decompose(parse_fn(F_GAP)))
    assert z_a is not None  # condition (a) fails
    assert z_a == (1, 8)


@criterion(3, "oracle-classifier consistency, 200 random functions")
def test_criterion_3_consistency_harness():
    rng = random.Random(20240823)
    t = parse_tnorm("product")
    start = time.monotonic()
    failures = []
    for i in range(200):
        f = random_nondecreasing_fn(rng)
        rep = consistency_harness(f, t, n=12)
        if not rep.ok:
            failures.append((i, rep.hard_failures))
    elapsed = time.monotonic() - start
    assert failures == []
    assert elapsed <= 180, f"took {elapsed:.1f}s"


@criterion(4, "lambda decomposition round-trip")
def test_criterion_4_lambda_roundtrip():
    gen = GeneratorSpec("one-minus-log")
    direct = additive_generated(gen)
    for lam in (F(1, 4), F(1, 2), F(3, 4)):
        f, t = lambda_decompose(gen, lam)
        op = make_op(f, t)
        dev = 0.0
        for i in range(51):
            for j in range(51):
                x, y = F(i, 50), F(j, 50)
                dev = max(dev, abs(float(val(direct(x, y)))
                                   - float(val(f_eval(op, x, y)))))
        assert dev <= 1e-12, f"lambda={lam}: deviation {dev}"
    f, t = lambda_decompose(gen, F(1, 2))
    op = make_op(f, t)
    spot = float(val(f_eval(op, F(1, 2), F(1, 2))))
    assert abs(spot - 1 / (4 * math.e)) <= 1e-12


@criterion(5, "pseudo-inverse suite vs bisection oracle")
def test_criterion_5_pseudo_inverse_suite():
    rng = random.Random(5150)
    checks = 0
    for i in range(100):
        strict = i % 2 == 0
        f = (random_strictly_increasing_fn(rng) if strict
             else random_nondecreasing_fn(rng))
        g = pseudo_inverse(f)
        for k in range(25):
            x = F(k, 24)
            assert eval_fn(g, eval_fn(f, x)) <= x
            v = eval_fn(f, x)
            # both styles are right-continuous away from 1, so the
            # triple composition is the identity on values
            assert eval_fn(f, eval_fn(g, v)) == v
        for _ in range(500):
            y = F(rng.randint(0, 9973), 9973)
            assert eval_fn(g, y) == bisect_pseudo_inverse(f, y)
            checks += 1
    assert checks == 100 * 500


@criterion(6, "continuity criterion vs grid scan")
def test_criterion_6_continuity_vs_scan():
    t = parse_tnorm("product")
    decisive = 0
    for name, text in sorted(WORKED_EXAMPLES.items()):
        f = parse_fn(text)
        op = make_op(f, t)
        verdict = check_continuity(op)
        memo = _Memo(lambda x, y: f_eval(op, x, y))
        flagged = scan_continuity(memo, f.breakpoints(), grid(8))
        if verdict.status in ("yes", "no"):
            decisive += 1
            assert (verdict.status == "no") == bool(flagged), name
    assert decisive >= 4
    # the jump-at-1 example must come out No both ways
    f = parse_fn(F_HALF_JUMP)
    op = make_op(f, t)
    assert check_continuity(op).status == "no"
    assert scan_continuity(lambda x, y: f_eval(op, x, y),
                           f.breakpoints(), grid(8))


@criterion(7, "adjudication of the two recomputed closed forms")
def test_criterion_7_adjudication():
    configs = {
        "step_product": (F_STEP, "product"),
        "half_jump_hamacher2": (F_HALF_JUMP, "hamacher2"),
    }
    for name, (text, tdesc) in sorted(configs.items()):
        f = parse_fn(text)
        t = parse_tnorm(tdesc)
        op = make_op(f, t)
        # golden files pin values computed from the defining equation
        lines = (GOLDEN / f"{name}.csv").read_text().strip().splitlines()
        assert lines[0] == "x,y,F"
        for line in lines[1:]:
            xs, ys, vs = line.split(",")
            assert f_eval(op, F(xs), F(ys)) == F(vs), (name, xs, ys)
        rep = consistency_harness(f, t, n=12)
        assert rep.ok, rep.hard_failures
    # the two spot values where the recomputed forms disagree with the
    # simplified closed-form tables
    op = make_op(parse_fn(F_HALF_JUMP), parse_tnorm("hamacher2"))
    assert f_eval(op, F(1, 2), F(1, 2)) == F(2, 25)  # not 1/25
    r = classify(parse_fn(F_STEP), parse_tnorm("product"))
    assert r.properties["conditionally_cancellative"].status == "no"
