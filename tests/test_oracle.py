"""Brute-force law checking and classifier/oracle agreement."""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (WORKED_EXAMPLES, _one_minus, approx_diff, lattice_fns, monotone_fns,
                      nonincreasing_fns, scan_continuity)
from subnormforge import (Verdict, classify, f_eval, generated, make_op, parse_fn,
                          parse_tnorm, pseudo_inverse, pwfn)
from subnormforge.generated import GeneratedOp
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
)
from subnormforge.tnorms import Approx, _key, _value

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


def _reference_grid(n, extra=()):
    """The grid as a sorted set of Fractions."""
    pts = {F(i, n) for i in range(n + 1)}
    pts.update(F(e) for e in extra)
    return sorted(p for p in pts if 0 <= p <= 1)


_grid_extras = st.lists(st.one_of(
    st.fractions(min_value=-1, max_value=2, max_denominator=40),
    st.integers(min_value=-2, max_value=3),
    st.fractions(min_value=0, max_value=1, max_denominator=40).map(
        lambda v: f"{v.numerator}/{v.denominator}")), max_size=12)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=24), _grid_extras)
def test_grid_matches_sorted_set(n, extra):
    extra = extra + extra[:3]  # duplicates among the extras
    pts = grid(n, extra)
    assert pts == _reference_grid(n, extra)
    assert all(type(p) is Fraction for p in pts)


def test_grid_rejects_floats_and_empty_steps():
    with pytest.raises(TypeError):
        grid(4, [0.5])
    with pytest.raises(ValueError):
        grid(0)


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


def test_archimedean_reports_an_exact_fixed_point(f_identity):
    # min is idempotent, so F(1/6, 1/6) = 1/6: the powers of the first
    # interior point never leave it
    for op in (op_for(f_identity, MINIMUM), make_op(f_identity, MINIMUM)):
        res = check_property(op, "archimedean_at", grid(6))
        assert res.counterexample == Counterexample(
            "archimedean_at", (F(1, 6), F(1, 6)), F(1, 6), F(1, 6))
        assert res.checked == 1


def test_archimedean_cap_is_only_a_note(f_identity):
    # the product's powers of 5/6 descend below 1/6, but slowly: a cap of
    # 4 steps leaves a note, not a counterexample
    op = make_op(f_identity, PRODUCT)
    with mock.patch("subnormforge.oracle.N_ITER", 4):
        res = check_property(op, "archimedean_at", grid(6))
    assert res.ok and res.note == "not witnessed at cap for x in 5/6"


def test_harness_flags_an_archimedean_yes_with_a_fixed_point():
    # a classifier Yes next to an exact fixed point is a hard failure
    f = parse_fn(WORKED_EXAMPLES["identity"])
    with mock.patch("subnormforge.classify.check_archimedean",
                    lambda op: Verdict.yes("assumed")):
        rep = consistency_harness(f, MINIMUM, n=6)
    assert rep.hard_failures == [
        "archimedean: classifier Yes but archimedean_at at (1/6,1/6): 1/6 vs 1/6"]


def test_scan_continuity_flags_jump(f_half_jump):
    op = op_for(f_half_jump, PRODUCT)
    flagged = scan_continuity(op, f_half_jump.breakpoints(), grid(8))
    assert any(a == 1 for a, b in flagged)


def test_scan_continuity_clean_for_identity(f_identity):
    op = op_for(f_identity, PRODUCT)
    assert scan_continuity(op, f_identity.breakpoints(), grid(8)) == []


def test_harness_plateau_product(f_plateau):
    rep = consistency_harness(f_plateau, PRODUCT, n=10)
    assert rep.ok
    by_prop = {row[0]: row for row in rep.rows}
    assert by_prop["t_subnorm"][2] == "ok"
    assert by_prop["cancellative"][2] == "counterexample"
    assert "no classifier/oracle contradictions" in rep.render()


def test_harness_step_product(f_step):
    # classifier No verdicts coexisting with oracle counterexamples are
    # agreement, not contradiction
    rep = consistency_harness(f_step, PRODUCT, n=12)
    assert rep.ok
    assert "conditionally_cancellative" in rep.counterexamples


def test_harness_reports_oracle_counters(f_step):
    rep = consistency_harness(f_step, PRODUCT, n=6)
    assert sorted(rep.stats) == ["compared", "op_evals"]
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


# op_evals of the harness at n=12 with product: the count of an oracle that
# evaluates F once per pair of classes, with one entry for F(u, p) and
# F(p, u) at an off-grid intermediate u, as T is symmetric
HARNESS_STATS = {"plateau": 118, "half_jump": 823, "gap": 932,
                 "shifted_jump": 169, "step": 100, "identity": 829}


@pytest.mark.parametrize("name", sorted(HARNESS_STATS))
def test_harness_counters_of_the_worked_examples(name):
    rep = consistency_harness(parse_fn(WORKED_EXAMPLES[name]), PRODUCT, n=12)
    assert rep.stats["op_evals"] == HARNESS_STATS[name]


def test_keys_of_exact_values_and_approx_values():
    # an exact value's key is its reduced pair, whatever form it comes in;
    # an Approx's is its centre's pair then its radius's, so two radii give
    # two keys with one centre
    assert _key(0) == _key(F(0, 5)) == _key("0") == (0, 1)
    assert _key(1) == _key(ONE) == _key("2/2") == (1, 1)
    r = F(1, 10 ** 20)
    a, b = _key(Approx(F(1, 3), r)), _key(Approx(F(1, 3), 2 * r))
    assert a == _key(Approx(F(1, 3), r)) and a != b
    assert a[:2] == b[:2] == _key(F(1, 3))
    with pytest.raises(TypeError):
        _key(0.5)


_radii = st.fractions(min_value=0, max_value=1, max_denominator=10 ** 30)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.fractions(min_value=0, max_value=1),
                 st.builds(Approx, st.fractions(min_value=0, max_value=1), _radii)))
def test_keys_give_back_their_values(v):
    back = _value(_key(v))
    assert back == v and type(back) is type(v)
    assert _key(back) == _key(v)


def test_the_pair_path_gives_reduced_keys():
    # f(3/4) = 2*3/4 - 1 comes out of f's line as the pair (2, 4), and
    # finv(y) = (y + 1)/2 at y = f(3/4) f(5/6) = 1/3 as (8, 12): the keys
    # are reduced, so equal values have equal keys
    f = parse_fn("monotone: nondecreasing\n"
                 "segment [0,1/2] const 0\n"
                 "segment (1/2,1] linear 2 -1\n")
    memo = _Memo(make_op(f, PRODUCT))
    assert memo.eval(_key(F(3, 4)), _key(F(5, 6))) == _key(F(2, 3)) == (2, 3)
    assert memo.class_of(_key(F(3, 4))) == (1, 2)
    assert memo(F(3, 4), "5/6") == F(2, 3)


@pytest.mark.parametrize("family", ["product", "gen:neglog"])
def test_the_oracle_reads_f_only_through_f_pair(family, monkeypatch):
    # the memo keeps no cache of f beside the op's: every f value of the
    # scans comes from f_pair, and finv's sweep over f's pieces is their
    # only other piece scan
    f = parse_fn(WORKED_EXAMPLES["gap"])
    op = make_op(f, parse_tnorm(family))
    read, f_pair = [], GeneratedOp.f_pair

    def counting(self, k):
        read.append(k)
        return f_pair(self, k)

    def no_f(*args):
        raise AssertionError("f read outside f_pair")

    swept = []
    monkeypatch.setattr(GeneratedOp, "f_pair", counting)
    monkeypatch.setattr(GeneratedOp, "f_at", no_f)
    monkeypatch.setattr(generated, "_first_args",
                        lambda fn, ys, closed: swept.append(fn) or pwfn._first_args(fn, ys, closed))
    memo = _Memo(op)
    pts = grid(12, default_extra(f))
    for law in PROPERTY_NAMES:
        check_property(memo, law, pts)
    assert set(map(_key, pts)) <= set(read) == set(op._f_cache)
    assert all(fn is f for fn in swept) and bool(swept) == op.t.exact
    # the memo's only dicts are its table's lists of F by class, f's
    # values: none maps an argument of f to anything
    dicts = {k: v for k, v in vars(memo).items() if isinstance(v, dict)}
    assert set(dicts) == {"_rows", "_part", "_cols"}
    classes = set(op._f_cache.values())
    for d in dicts.values():
        assert set(d) <= classes and all(type(r) is list for r in d.values())
    assert set(map(op.f_pair, map(_key, pts))) <= set(memo._rows)


@pytest.mark.parametrize("family", ["product", "gen:neglog"])
def test_a_direct_call_evaluates_afresh(family):
    # memo(x, y) is F(x, y) as f_eval gives it, and neither builds a table
    # nor touches the one the scans hold
    f = parse_fn(WORKED_EXAMPLES["half_jump"])
    op = make_op(f, parse_tnorm(family))
    memo = _Memo(op)
    pts = grid(6, default_extra(f))
    args = pts + [F(1, 7), "2/9", 1]
    for scanned in (False, True):
        if scanned:
            check_property(memo, "associativity", pts)
        table = memo.pts
        held = scanned and ({k: list(r) for k, r in memo._rows.items()},
                            {k: list(r) for k, r in memo._part.items()})
        evals = memo.evals
        for x in args:
            for y in args:
                assert memo(x, y) == f_eval(op, x, y), (x, y)
        assert memo.pts is table and (scanned or not hasattr(memo, "TC"))
        assert held == (scanned and (memo._rows, memo._part))
        assert memo.evals == evals + len(args) ** 2


def test_harness_builds_no_pseudo_inverse(monkeypatch):
    # every family's classify and the harness after them read finv from
    # f's pieces, so none builds its closed form
    built = []

    def counting(f):
        built.append(f)
        return pseudo_inverse(f)

    monkeypatch.setattr(pwfn, "pseudo_inverse", counting)
    f = parse_fn(WORKED_EXAMPLES["step"])
    assert built == []
    for family in ("product", "hamacher2", "min", "halfprod", "gen:neglog"):
        classify(f, parse_tnorm(family))
    consistency_harness(f, PRODUCT, n=6)
    assert built == []


@pytest.mark.parametrize("family", ["product", "hamacher2"])
def test_harness_never_builds_the_pseudo_inverse(family, monkeypatch):
    def refuse(f):
        raise AssertionError("the harness built the closed form of finv")

    monkeypatch.setattr(pwfn, "pseudo_inverse", refuse)
    t = parse_tnorm(family)
    for text in WORKED_EXAMPLES.values():
        consistency_harness(parse_fn(text), t, n=6)


@settings(max_examples=40, deadline=None)
@given(f=st.one_of(monotone_fns(), nonincreasing_fns()))
def test_make_op_uses_the_pseudo_inverse(f):
    # finv at a point and along a row, read from f's pieces, equal the
    # closed form at the sixteenths and f's values there, and at T's values
    # on those f values
    g = pseudo_inverse(f)
    xs = grid(16)
    fs = sorted({f(x) for x in xs})
    for family in ("product", "gen:neglog"):
        op = make_op(f, parse_tnorm(family))
        for y in sorted(set(xs) | set(fs)):
            assert op.finv_pair(_key(y)) == _key(pwfn.eval_fn(g, y)), y
    op = make_op(f, PRODUCT)
    keys = [_key(v) for v in fs]
    for w in fs:
        assert op.row(_key(w), keys) == [_key(pwfn.eval_fn(g, w * v)) for v in fs], w


def test_classify_and_harness_build_the_decomposition_once(f_step, monkeypatch):
    built, original = [], pwfn.Decomposition

    def counting(*fields):
        built.append(fields)
        return original(*fields)

    monkeypatch.setattr(pwfn, "Decomposition", counting)
    for family in ("product", "hamacher2", "min", "halfprod", "gen:neglog"):
        classify(f_step, parse_tnorm(family))
    consistency_harness(f_step, PRODUCT, n=6)
    assert len(built) == 1


def test_a_generated_op_keeps_one_list_per_class():
    # F(u, p) = F(p, u) for a GeneratedOp, as T is symmetric, so its grid
    # serves row(a) and col(a) from one list, for a grid point and for an
    # off-grid one; a plain callable keeps the two apart
    pts = grid(4)
    for op, shared in ((make_op(parse_fn(WORKED_EXAMPLES["gap"]), PRODUCT), True),
                       (lambda x, y: x * y, False)):
        memo = _Memo(op)
        g = memo.grid(pts)
        for x in (F(1, 4), F(1, 3)):
            a = _key(x)
            assert (g.row(a) is g.col(a)) == shared, x


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


@pytest.mark.parametrize("op", [lambda x, y: x, lambda x, y: y])
def test_associativity_reads_the_columns_of_a_plain_callable(op):
    # both projections are associative but not commutative: x(yz) is read
    # from the column of yz, F(p, yz), which differs from its row
    assert check_property(op, "associativity", HALVES) == CheckResult(True, checked=27)


def test_neutral_one_fills_the_column_of_1_off_the_grid():
    pts = [F(0), F(1, 3), F(1, 2)]
    memo = _Memo(lambda x, y: x * y)
    assert check_property(memo, "neutral_one", pts) == CheckResult(True, checked=3)
    assert [_value(v) for v in memo.grid(pts).col(_key(ONE))] == pts
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
            acc, exact = x, True
            for _ in range(N_ITER):
                v = F_(acc, x)
                count += 1
                if exact and v == acc:  # a fixed point after exact powers
                    return cex((x, min(interior)), v, min(interior))
                exact = exact and not isinstance(v, Approx)
                acc = approx_diff(v, ZERO)[0]
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


def entries_held(memo):
    """The values a GeneratedOp's memo holds in its table: its whole rows,
    TC's among them, and the entries evaluated so far of its other rows."""
    rows = {id(r): r for r in (*memo._rows.values(), *memo._part.values())}
    return sum(v is not None for r in rows.values() for v in r)


@pytest.mark.parametrize("family", ["product", "hamacher2", "min", "halfprod",
                                    "gen:neglog"])
@settings(max_examples=20, deadline=None)
@given(f=st.one_of(monotone_fns(), nonincreasing_fns()),
       rnd=st.randoms(use_true_random=False))
def test_no_entry_is_evaluated_twice(family, f, rnd):
    # all nine laws, on the sorted grid and a shuffle of it, in both orders:
    # the Archimedean scan's single entries then come before and after the
    # whole rows of associativity, which keeps the entries already there
    op = make_op(f, parse_tnorm(family))
    pts = grid(4, default_extra(f))
    for layout in (pts, rnd.sample(pts, len(pts))):
        for laws in (PROPERTY_NAMES, PROPERTY_NAMES[::-1]):
            memo = _Memo(op)
            for law in laws:
                check_property(memo, law, layout)
            assert memo.evals == entries_held(memo), (layout, laws)
            assert not memo._rows.keys() & memo._part.keys(), "a row begun and then whole"


LATTICE_SAMPLE = list(lattice_fns(3, 4))[::13]
CLASS_LAWS = ("commutativity", "monotonicity", "bounded_by_min",
              "conditional_cancellation", "cancellation", "strict_monotonicity")


@pytest.mark.parametrize("family", ["product", "hamacher2", "min", "halfprod",
                                    "gen:neglog"])
def test_laws_by_class_match_direct_scan_on_the_lattice(family):
    # every 13th lattice function and every 4th mirror, each on its sorted
    # grid, a fixed shuffle of it and a copy with one point repeated: the
    # laws decided on the class table find the direct scan's counterexample
    t = parse_tnorm(family)
    for idx, f in enumerate(LATTICE_SAMPLE + [_one_minus(g) for g in LATTICE_SAMPLE[::4]]):
        op = make_op(f, t)
        pts = grid(4, default_extra(f))
        rnd = random.Random(idx)
        repeated = list(pts)
        repeated.insert(rnd.randrange(len(pts) + 1), rnd.choice(pts))
        for layout in (pts, rnd.sample(pts, len(pts)), repeated):
            memo = _Memo(op)
            for law in CLASS_LAWS:
                want = reference_check(op, law, layout)
                assert check_property(memo, law, layout) == want, (idx, law, layout)


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


F_THREE_STEPS = """\
monotone: nondecreasing
segment [0,1/3] const 0
segment (1/3,2/3) const 1/2
segment [2/3,1] const 1
"""


def test_scans_by_class_count_every_point_of_a_class():
    # 1/2 comes twice, so both copies form one class: commutativity scans
    # every point, and checked counts the tuples up to the failing one
    pts = [F(1, 2), F(1, 2), F(0)]
    res = check_property(lambda x, y: x, "commutativity", pts)
    assert res.counterexample == Counterexample(
        "commutativity", (F(1, 2), F(0)), F(1, 2), F(0))
    assert res.checked == 3
    # an undecided comparison counts once per tuple of its classes' points;
    # gen:neglog's centres are exact, so the radii that leave comparisons
    # undecided are finv's spread across the steps of this f
    op = make_op(parse_fn(F_THREE_STEPS), parse_tnorm("gen:neglog"))
    pts = [F(1, 2)] + grid(6)
    res = check_property(op, "associativity", pts)
    assert res == reference_check(op, "associativity", pts) and res.note
    assert check_property(op, "archimedean_at", pts) == reference_check(
        op, "archimedean_at", pts)


@pytest.mark.parametrize("family", ["product", "min", "gen:neglog"])
def test_one_memo_scanned_on_two_point_sets_in_turn(family):
    # every scan gets the other point set, so each one replaces the table
    # and rebuilds it, while the op's f and finv values carry over
    t = parse_tnorm(family)
    for name, text in WORKED_EXAMPLES.items():
        f = parse_fn(text)
        extra = default_extra(f)
        memo, ref = _Memo(make_op(f, t)), make_op(f, t)
        for law in PROPERTY_NAMES:
            for pts in (grid(4, extra), grid(6, extra)):
                want = reference_check(ref, law, pts)
                assert check_property(memo, law, pts) == want, (name, law, len(pts))
                assert memo.pts == tuple(pts)


@pytest.mark.parametrize("family", ["product", "hamacher2", "min", "halfprod"])
@settings(max_examples=100, deadline=None)
@given(f=st.one_of(monotone_fns(), nonincreasing_fns()))
def test_harness_on_fuzzed_functions(family, f):
    rep = consistency_harness(f, parse_tnorm(family), n=12)
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


F_FALLING_STEPS = """\
monotone: nonincreasing
segment [0,1/3] const 1
segment (1/3,2/3] const 3/4
segment (2/3,1] const 1/2
"""


def test_bounded_by_min_searches_later_rows_from_their_first_column():
    # classes {1/3, 1/4, 0}, {1/2, 2/3}, {3/4, 1}; gen:neglog's radii are
    # finv's spread across f's steps, up to 1/3.  The first failing block
    # is F({1/3, 1/4, 0}, {3/4, 1}) = 2/3 +- 1/3, certainly above 0 only;
    # row 1/3 then holds no certain failure, and the first one, (1/2, 1/2),
    # lies in a later row and an earlier column than the block's
    op = make_op(parse_fn(F_FALLING_STEPS), parse_tnorm("gen:neglog"))
    pts = [F(1, 3), F(1, 2), F(3, 4), F(1), F(1, 4), F(0), F(2, 3)]
    res = check_property(op, "bounded_by_min", pts)
    assert res == reference_check(op, "bounded_by_min", pts)
    assert res.counterexample.inputs == (F(1, 2), F(1, 2)) and res.checked == 9


@pytest.mark.parametrize("op", [lambda x, y: x * y, lambda x, y: x, max, min,
                                lambda x, y: x * y if y < 1 else 0])
def test_compared_equals_checked_with_one_point_per_class(op):
    # distinct points of a plain callable are one class each, so every scan,
    # failing or not, compares exactly the tuples it checks
    for law in PROPERTY_NAMES:
        memo = _Memo(op)
        res = check_property(memo, law, grid(4))
        assert memo.compared == res.checked, law
