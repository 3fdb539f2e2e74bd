"""Brute-force law checking and classifier/oracle agreement."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import WORKED_EXAMPLES, monotone_fns, nonincreasing_fns
from subnormforge import (classify, f_eval, make_op, parse_fn,
                          parse_tnorm, pseudo_inverse, pwfn)
from subnormforge.intervals import ONE, ZERO
from subnormforge.oracle import (
    N_ITER,
    PROPERTY_NAMES,
    CheckResult,
    Counterexample,
    _Memo,
    check_property,
    consistency_harness,
    default_extra,
    grid,
    scan_continuity,
)
from subnormforge.tnorms import Approx, approx_diff

F = Fraction

PRODUCT = parse_tnorm("product")
MINIMUM = parse_tnorm("min")


def op_for(f, t):
    op = make_op(f, t)
    return _Memo(lambda x, y: f_eval(op, x, y))


def test_grid_contents():
    pts = grid(4, extra=[F(1, 3)])
    assert pts == [F(0), F(1, 4), F(1, 3), F(1, 2), F(3, 4), F(1)]
    assert grid(1) == [F(0), F(1)]


def test_default_extra_includes_breakpoints(f_step):
    extra = default_extra(f_step)
    assert F(1, 4) in extra and F(1, 2) in extra


def test_associativity_scan_covers_cube(f_identity):
    op = op_for(f_identity, PRODUCT)
    res = check_property(op, "associativity", grid(6))
    assert res.ok
    assert res.checked == 7 ** 3


def test_laws_hold_for_plateau_product(f_plateau):
    op = op_for(f_plateau, PRODUCT)
    pts = grid(8, default_extra(f_plateau))
    for law in ("commutativity", "monotonicity", "bounded_by_min",
                "associativity", "conditional_cancellation"):
        assert check_property(op, law, pts).ok, law
    # the plateau breaks cancellation
    res = check_property(op, "cancellation", pts)
    assert not res.ok
    x, y1, y2 = res.counterexample.inputs
    assert x != 0 and y1 != y2


def test_min_breaks_conditional_cancellation(f_shifted_jump):
    op = op_for(f_shifted_jump, MINIMUM)
    res = check_property(op, "conditional_cancellation",
                         grid(8, default_extra(f_shifted_jump)))
    assert not res.ok
    x, y1, y2 = res.counterexample.inputs
    v1, v2 = op(x, y1), op(x, y2)
    assert v1 == v2 > 0


def test_first_counterexample_deterministic(f_shifted_jump):
    pts = grid(8, default_extra(f_shifted_jump))
    a = check_property(op_for(f_shifted_jump, MINIMUM),
                       "conditional_cancellation", pts)
    b = check_property(op_for(f_shifted_jump, MINIMUM),
                       "conditional_cancellation", pts)
    assert a.counterexample.inputs == b.counterexample.inputs


def test_neutral_one_counterexample(f_plateau):
    op = op_for(f_plateau, PRODUCT)
    res = check_property(op, "neutral_one", grid(8))
    assert not res.ok  # F(1/4,1)=0 != 1/4


def test_archimedean_never_claims_counterexample(f_identity):
    op = op_for(f_identity, MINIMUM)
    res = check_property(op, "archimedean_at", grid(6))
    assert res.ok
    assert res.note and "not witnessed" in res.note


def test_scan_continuity_flags_jump(f_half_jump):
    op = op_for(f_half_jump, PRODUCT)
    flagged = scan_continuity(op, f_half_jump.breakpoints(), grid(8))
    assert any(a == 1 for a, b in flagged)


def test_scan_continuity_clean_for_identity(f_identity):
    op = op_for(f_identity, PRODUCT)
    assert scan_continuity(op, f_identity.breakpoints(), grid(8)) == []


def test_harness_plateau_product(f_plateau):
    rep = consistency_harness(f_plateau, PRODUCT, n=10, arch_grid_n=6)
    assert rep.ok
    by_prop = {row[0]: row for row in rep.rows}
    assert by_prop["t_subnorm"][2] == "ok"
    assert by_prop["cancellative"][2] == "counterexample"
    assert "no classifier/oracle contradictions" in rep.render()


def test_harness_step_product(f_step):
    # classifier No verdicts coexisting with oracle counterexamples are
    # agreement, not contradiction
    rep = consistency_harness(f_step, PRODUCT, n=12, arch_grid_n=6)
    assert rep.ok
    assert "conditionally_cancellative" in rep.counterexamples


def test_harness_reports_oracle_counters(f_step):
    rep = consistency_harness(f_step, PRODUCT, n=6, arch_grid_n=6)
    assert sorted(rep.stats) == ["compared", "interned_values", "op_evals"]
    assert all(v > 0 for v in rep.stats.values())
    assert "op_evals" not in rep.render()


def test_compared_counts_comparisons_made_by_class(f_step):
    # f_step is constant on pieces, so points share f values and the scans
    # by class compare fewer tuples than they check; on a plain callable
    # every point is its own class and the two counts agree
    pts = grid(8, default_extra(f_step))
    for op, fewer in ((make_op(f_step, PRODUCT), True), (op_for(f_step, PRODUCT), False)):
        memo = _Memo(op)
        checked = sum(check_property(memo, law, pts).checked for law in PROPERTY_NAMES)
        assert (memo.compared < checked) if fewer else (memo.compared == checked)


# (op_evals, interned_values) of the harness at n=12 with product: the
# counts of an oracle that evaluates F once per pair of classes, with one
# entry for F(u, p) and F(p, u) at an off-grid intermediate u, as T is
# symmetric
HARNESS_STATS = {"plateau": (118, 36), "half_jump": (823, 228), "gap": (324, 221),
                 "shifted_jump": (169, 22), "step": (100, 21), "identity": (829, 244)}


@pytest.mark.parametrize("name", sorted(HARNESS_STATS))
def test_harness_counters_of_the_worked_examples(name):
    rep = consistency_harness(parse_fn(WORKED_EXAMPLES[name]), PRODUCT, n=12)
    stats = rep.stats["op_evals"], rep.stats["interned_values"]
    assert stats == HARNESS_STATS[name]


def test_harness_interns_each_grid_point_once(monkeypatch):
    # one table serves every law scan, so each point is interned once, when
    # the table is built, and the neutral_one scan interns 1 once more;
    # classify decides plateau with product without scanning a grid
    f = parse_fn(WORKED_EXAMPLES["plateau"])
    calls, intern = [], _Memo.intern

    def counting(memo, v):
        calls.append(v)
        return intern(memo, v)

    monkeypatch.setattr(_Memo, "intern", counting)
    consistency_harness(f, PRODUCT, n=12)
    assert sorted(calls) == sorted(grid(12, default_extra(f)) + [ONE])


def test_pair_path_and_intern_give_one_id():
    # f(3/4) = 2*3/4 - 1 comes out of f's line as the pair (2, 4), and
    # finv(y) = (y + 1)/2 at y = f(3/4) f(5/6) = 1/3 as (8, 12)
    f = parse_fn("monotone: nondecreasing\n"
                 "segment [0,1/2] const 0\n"
                 "segment (1/2,1] linear 2 -1\n")
    memo = _Memo(make_op(f, PRODUCT))
    x, y = memo.intern(F(3, 4)), memo.intern(F(5, 6))
    v = memo.eval(x, y)
    assert memo.vals[v] is None  # interned by its pair, no Fraction until read
    assert memo.intern(F(2, 3)) == v
    assert memo.intern(F(1, 2)) == memo.f_ids[x]
    assert memo.value(v) == F(2, 3) and memo.keys[v] == (2, 3)


def test_interning_keys_exact_values_and_approx_values():
    memo = _Memo(lambda x, y: x * y)
    zero = memo.intern(0)
    assert memo.intern(F(0)) == memo.intern(F(0, 5)) == zero
    assert memo.vals[zero] == 0 and isinstance(memo.vals[zero], Fraction)
    assert memo.intern(1) == memo.intern(ONE)
    r = F(1, 10 ** 20)
    a = memo.intern(Approx(F(1, 3), r))
    assert memo.intern(Approx(F(1, 3), r)) == a
    b = memo.intern(Approx(F(1, 3), 2 * r))
    assert b != a
    assert memo.centre[a] == memo.centre[b] == memo.intern(F(1, 3))
    with pytest.raises(TypeError):
        memo.intern(0.5)


def test_harness_builds_the_pseudo_inverse_once(monkeypatch):
    # every family's classify and the harness after them share one build,
    # which happens on first use, not when the function is parsed
    built = []

    def counting(f):
        built.append(f)
        return pseudo_inverse(f)

    monkeypatch.setattr(pwfn, "pseudo_inverse", counting)
    f = parse_fn(WORKED_EXAMPLES["step"])
    assert built == []
    for family in ("product", "hamacher2", "min", "halfprod", "gen:neglog"):
        classify(f, parse_tnorm(family), arch_grid_n=6)
    consistency_harness(f, PRODUCT, n=6, arch_grid_n=6)
    assert built == [f]


@settings(max_examples=40, deadline=None)
@given(f=st.one_of(monotone_fns(), nonincreasing_fns()))
def test_make_op_uses_the_pseudo_inverse(f):
    want = pseudo_inverse(f)
    for family in ("product", "gen:neglog"):
        op = make_op(f, parse_tnorm(family))
        assert op.finv == want
        assert op.finv is make_op(f, PRODUCT).finv


def test_classify_and_harness_build_the_decomposition_once(f_step, monkeypatch):
    built, original = [], pwfn.Decomposition

    def counting(*fields):
        built.append(fields)
        return original(*fields)

    monkeypatch.setattr(pwfn, "Decomposition", counting)
    for family in ("product", "hamacher2", "min", "halfprod", "gen:neglog"):
        classify(f_step, parse_tnorm(family), arch_grid_n=6)
    consistency_harness(f_step, PRODUCT, n=6, arch_grid_n=6)
    assert len(built) == 1


def test_a_generated_op_keeps_one_list_per_class():
    # F(u, p) = F(p, u) for a GeneratedOp, as T is symmetric, so its grid
    # serves row(k) and col(k) from one list, for a grid point's class and
    # for an off-grid one; a plain callable keeps the two apart
    pts = grid(4)
    for op, shared in ((make_op(parse_fn(WORKED_EXAMPLES["gap"]), PRODUCT), True),
                       (lambda x, y: x * y, False)):
        memo = _Memo(op)
        g = memo.grid(pts)
        for x in (F(1, 4), F(1, 3)):
            k = memo.class_of(memo.intern(x))
            assert (g.row(k) is g.col(k)) == shared, x


# -- counterexample paths on plain callables ----------------------------------

HALVES = [F(0), F(1, 2), F(1)]


@pytest.mark.parametrize("prop, op, inputs, lhs, rhs, checked", [
    ("commutativity", lambda x, y: x, (F(0), F(1, 2)), F(0), F(1, 2), 2),
    # the row scan: F(1/2, .) falls from 1/4 to 0 at y = 1
    ("monotonicity", lambda x, y: x * y if y < 1 else 0,
     (F(1, 2), F(1, 2), F(1)), F(1, 4), F(0), 4),
    # rows rise, so the column scan finds F(., 1/2) falling at x = 1
    ("monotonicity", lambda x, y: x * y if x < 1 else 0,
     (F(1, 2), F(1), F(1, 2)), F(1, 4), F(0), 10),
])
def test_first_counterexample_of_a_plain_callable(prop, op, inputs, lhs, rhs, checked):
    res = check_property(op, prop, HALVES)
    assert res.counterexample == Counterexample(prop, inputs, lhs, rhs)
    assert res.checked == checked


def test_neutral_one_fills_the_column_of_1_off_the_grid():
    pts = [F(0), F(1, 3), F(1, 2)]
    memo = _Memo(lambda x, y: x * y)
    assert check_property(memo, "neutral_one", pts) == CheckResult(True, checked=3)
    assert [memo.vals[v] for v in memo.grid(pts).col(memo.intern(ONE))] == pts
    res = check_property(lambda x, y: x * y / 2, "neutral_one", pts)
    assert res.counterexample == Counterexample("neutral_one", (F(1, 3),), F(1, 6), F(1, 3))
    assert res.checked == 2


# -- differential check: table oracle against a direct scan -------------------


def reference_check(op, prop, pts):
    """The laws scanned by calling f_eval on every pair, without tables,
    interning or memoisation: same order, same boundary rules."""
    F_ = lambda x, y: f_eval(op, x, y)  # noqa: E731
    count = undecided = 0
    pairs = list(zip(pts, pts[1:]))

    def cex(inputs, lhs, rhs):
        return CheckResult(False, Counterexample(prop, inputs, lhs, rhs),
                           checked=count)

    def cells():  # the inputs and compared values of each comparison
        if prop == "commutativity":
            return (((x, y), F_(x, y), F_(y, x)) for x in pts for y in pts)
        if prop == "monotonicity":
            return [((x, a, b), F_(x, a), F_(x, b)) for x in pts for a, b in pairs] + [
                ((a, b, y), F_(a, y), F_(b, y)) for y in pts for a, b in pairs]
        if prop == "bounded_by_min":
            return (((x, y), F_(x, y), min(x, y)) for x in pts for y in pts)
        if prop == "associativity":
            return (((x, y, z), F_(approx_diff(F_(x, y), ZERO)[0], z),
                     F_(x, approx_diff(F_(y, z), ZERO)[0]))
                    for x in pts for y in pts for z in pts)
        if prop == "neutral_one":
            return (((x,), F_(x, ONE), x) for x in pts)
        if prop in ("conditional_cancellation", "cancellation"):
            return (((x, pts[i], pts[j]), F_(x, pts[i]), F_(x, pts[j]))
                    for x in pts if prop != "cancellation" or x != 0
                    for i in range(len(pts)) for j in range(i + 1, len(pts)))
        return (((x, a, b), F_(x, a), F_(x, b)) for x in pts if x != 0
                for a, b in pairs)

    if prop == "archimedean_at":
        interior = [p for p in pts if 0 < p < 1]
        missing = []
        for x in interior:
            acc = x
            for _ in range(N_ITER):
                acc = approx_diff(F_(acc, x), ZERO)[0]
                count += 1
                if acc < min(interior):
                    break
            else:
                missing.append(x)
        note = "not witnessed at cap for x in " + ",".join(map(str, missing))
        return CheckResult(True, note=note if missing else None, checked=count)
    for inputs, a, b in cells():
        count += 1
        d, r = approx_diff(a, b)
        if prop in ("commutativity", "associativity", "neutral_one"):
            if abs(d) > r:
                return cex(inputs, a, b)
            undecided += d != 0
        elif prop in ("monotonicity", "bounded_by_min"):
            if d > r:
                return cex(inputs, a, b)
        elif prop == "strict_monotonicity":
            if d >= r:
                return cex(inputs, a, b)
        elif d == 0:
            va, ra = approx_diff(a, ZERO)
            if prop == "cancellation" or va > ra:
                return cex(inputs, a, b)
    note = f"{undecided} comparisons undecided within error radii" if undecided else None
    return CheckResult(True, note=note, checked=count)


@pytest.mark.parametrize("family", ["product", "hamacher2", "min", "halfprod",
                                    "gen:neglog", "gen:one-minus-log",
                                    "lambda:one-minus-log:2/5"])
@settings(max_examples=12, deadline=None)
@given(f=st.one_of(monotone_fns(), nonincreasing_fns()),
       rnd=st.randoms(use_true_random=False))
def test_table_oracle_matches_direct_scan(family, f, rnd):
    # the sorted grid, a shuffle of it and a copy with one point repeated:
    # the scans by class must find the same first counterexample whatever
    # the point order, with classes that need not be contiguous
    op = make_op(f, parse_tnorm(family))
    pts = grid(4, default_extra(f))
    repeated = list(pts)
    repeated.insert(rnd.randrange(len(pts) + 1), rnd.choice(pts))
    for layout in (pts, rnd.sample(pts, len(pts)), repeated):
        memo = _Memo(op)
        for law in PROPERTY_NAMES:
            got = check_property(memo, law, layout)
            want = reference_check(op, law, layout)
            assert got == want, (law, layout)


@pytest.mark.parametrize("family,n", [("product", 12), ("hamacher2", 12),
                                      ("min", 12), ("halfprod", 12),
                                      ("gen:neglog", 6)])
def test_table_oracle_matches_direct_scan_at_harness_scale(family, n):
    # the off-grid intermediates of grid(12) reach large denominators, and
    # gen:neglog's values are Approx; the scan gets its own op and caches
    t = parse_tnorm(family)
    for name, text in WORKED_EXAMPLES.items():
        f = parse_fn(text)
        pts = grid(n, default_extra(f))
        memo = _Memo(make_op(f, t))
        ref = make_op(f, t)
        for law in PROPERTY_NAMES:
            want = reference_check(ref, law, pts)
            assert check_property(memo, law, pts) == want, (name, law)


def test_scans_by_class_count_every_point_of_a_class():
    # 1/2 comes twice, so both copies form one class: commutativity scans
    # every point, and checked counts the tuples up to the failing one
    pts = [F(1, 2), F(1, 2), F(0)]
    res = check_property(lambda x, y: x, "commutativity", pts)
    assert res.counterexample == Counterexample(
        "commutativity", (F(1, 2), F(0)), F(1, 2), F(0))
    assert res.checked == 3
    # an undecided comparison counts once per tuple of its classes' points
    op = make_op(parse_fn(WORKED_EXAMPLES["identity"]), parse_tnorm("gen:neglog"))
    pts = [F(1, 2)] + grid(6)
    res = check_property(op, "associativity", pts)
    assert res == reference_check(op, "associativity", pts) and res.note
    assert check_property(op, "archimedean_at", pts) == reference_check(
        op, "archimedean_at", pts)


@pytest.mark.parametrize("family", ["product", "min", "gen:neglog"])
def test_one_memo_scanned_on_two_point_sets_in_turn(family):
    # every scan gets the other point set, so each one replaces the table
    # and rebuilds it, while the memo's interned ids and f values carry over
    t = parse_tnorm(family)
    for name, text in WORKED_EXAMPLES.items():
        f = parse_fn(text)
        extra = default_extra(f)
        memo, ref = _Memo(make_op(f, t)), make_op(f, t)
        for law in PROPERTY_NAMES:
            for pts in (grid(4, extra), grid(6, extra)):
                want = reference_check(ref, law, pts)
                assert check_property(memo, law, pts) == want, (name, law, len(pts))
                assert memo.table.pts == tuple(pts)


@pytest.mark.parametrize("family", ["product", "hamacher2", "min", "halfprod"])
@settings(max_examples=100, deadline=None)
@given(f=st.one_of(monotone_fns(), nonincreasing_fns()))
def test_harness_on_fuzzed_functions(family, f):
    rep = consistency_harness(f, parse_tnorm(family), n=12, arch_grid_n=8)
    assert rep.ok, rep.hard_failures


def test_identical_approx_values_are_not_strictly_ordered(f_shifted_jump):
    # F(1/6, 0) and F(1/6, 1/6) are the same Approx(0, r) with r > 0, so
    # d = 0 < 2r: no certain failure of strict monotonicity
    op = make_op(f_shifted_jump, parse_tnorm("gen:neglog"))
    pts = grid(6, default_extra(f_shifted_jump))
    a, b = f_eval(op, F(1, 6), F(0)), f_eval(op, F(1, 6), F(1, 6))
    assert isinstance(a, Approx) and a == b and a.radius > 0
    assert reference_check(op, "strict_monotonicity", pts) == CheckResult(
        True, checked=36)
    # through a plain callable and through the GeneratedOp path
    for memo in (op_for(f_shifted_jump, parse_tnorm("gen:neglog")), _Memo(op)):
        res = check_property(memo, "strict_monotonicity", pts)
        assert res == CheckResult(True, checked=36)


def test_equal_centres_count_as_equal():
    # the cancellation laws compare centres (d == 0), whatever the radii:
    # the first pair with equal centres is (0, 1/2), whose values differ
    r = F(1, 10 ** 20)

    def op(x, y):
        return Approx(F(1, 2), r if y == 0 else 2 * r)

    pts = [F(0), F(1, 2), F(1)]
    for law, x in (("cancellation", F(1, 2)), ("conditional_cancellation", F(0))):
        res = check_property(op, law, pts)
        assert res.counterexample == Counterexample(
            law, (x, F(0), F(1, 2)), op(x, F(0)), op(x, F(1, 2))), law
