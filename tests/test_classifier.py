"""Three-valued classifier: verdicts, witnesses, and theorem routes."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import monotone_fns, nonincreasing_fns, random_strictly_increasing_fn
from subnormforge import classify, decompose, f_eval, make_op, parse_fn, parse_tnorm
from subnormforge.classify import (
    ARCH_CAP,
    _assoc_search,
    check_archimedean,
    check_cancellative,
    check_continuity,
    check_degenerate,
    check_inclusion_conditions,
    l_set_check,
    render_structured,
    render_text,
    Verdict,
)
from subnormforge.oracle import consistency_harness
from subnormforge.tnorms import approx_diff

F = Fraction

PRODUCT = parse_tnorm("product")
HAMACHER2 = parse_tnorm("hamacher2")
MINIMUM = parse_tnorm("min")
HALFPROD = parse_tnorm("halfprod")


def statuses(report):
    return {k: v.status for k, v in report.properties.items()}


# -- worked examples ---------------------------------------------------------


def test_plateau_product(f_plateau):
    r = classify(f_plateau, PRODUCT, arch_grid_n=8)
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
    r = classify(f_half_jump, HAMACHER2, arch_grid_n=8)
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
    assert check_inclusion_conditions(HALFPROD, decompose(f_gap)) == (F(1, 8), None)


def test_gap_halfprod_properties_unknown(f_gap):
    # halfprod is outside every theorem route, so algebraic properties
    # stay three-valued Unknown rather than guessing
    r = classify(f_gap, HALFPROD, arch_grid_n=8)
    s = statuses(r)
    assert s["conditionally_cancellative"] == "unknown"
    assert s["t_subnorm"] == "unknown"


def test_shifted_jump_min_gate(f_shifted_jump):
    # min is continuous but not strictly monotone: both inclusion
    # conditions hold yet F=min is not conditionally cancellative, so the
    # classifier must not upgrade this to Yes
    d = decompose(f_shifted_jump)
    assert check_inclusion_conditions(MINIMUM, d) == (None, None)
    r = classify(f_shifted_jump, MINIMUM, arch_grid_n=8)
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
    r = classify(f_step, PRODUCT, arch_grid_n=8)
    s = statuses(r)
    assert s["conditionally_cancellative"] == "no"
    assert s["t_subnorm"] == "no"
    assert s["cancellative"] == "no"
    assert s["proper"] == "no"


def test_identity_product(f_identity):
    r = classify(f_identity, PRODUCT, arch_grid_n=8)
    s = statuses(r)
    assert s["t_subnorm"] == "yes"
    assert s["t_norm"] == "yes"
    assert s["cancellative"] == "yes"
    assert s["continuous"] == "yes"
    assert s["archimedean"] == "yes"
    assert s["proper"] == "no"


def test_identity_min_archimedean_no(f_identity):
    r = classify(f_identity, MINIMUM, arch_grid_n=8)
    assert statuses(r)["archimedean"] == "no"
    assert statuses(r)["continuous"] == "yes"


# -- witness soundness -------------------------------------------------------


def recheck_no_witnesses(f, t, report):
    op = make_op(f, t)
    v = report.properties["conditionally_cancellative"]
    if v.status == "no" and v.witness and len(v.witness) == 3:
        x1, x2, y = v.witness
        a, b = f_eval(op, x1, y), f_eval(op, x2, y)
        assert a == b and a > 0 and x1 != x2
    v = report.properties["cancellative"]
    if v.status == "no" and v.witness and len(v.witness) == 3:
        x, y1, y2 = v.witness
        assert x != 0 and y1 != y2
        assert f_eval(op, x, y1) == f_eval(op, x, y2)
    v = report.properties["proper"]
    if v.status == "yes":
        top = f_eval(op, F(1), F(1))
        assert top < 1
    v = report.properties["t_norm"]
    if v.status == "no" and v.witness and len(v.witness) == 2:
        x, one = v.witness
        if one == 1:
            assert f_eval(op, x, F(1)) != x or \
                report.properties["t_subnorm"].status == "no"


def test_proper_reads_finv_of_one_when_t_has_neutral_one():
    # f = 1 everywhere and non-increasing: T(f(1), f(1)) = 1 exactly for
    # either family, so F(1,1) = finv(1) = 0, whatever gen:neglog's radius
    f = parse_fn("monotone: nonincreasing\nsegment [0,1] const 1\n")
    for tdesc in ("product", "gen:neglog"):
        v = classify(f, parse_tnorm(tdesc)).verdict("proper")
        assert (v.status, v.evidence) == ("yes", ("F(1,1)=0 < 1",)), tdesc


@pytest.mark.parametrize("name,tdesc", [
    ("plateau", "product"), ("half_jump", "hamacher2"),
    ("step", "product"), ("gap", "product")])
def test_witnesses_recheck(name, tdesc):
    from conftest import WORKED_EXAMPLES

    f = parse_fn(WORKED_EXAMPLES[name])
    t = parse_tnorm(tdesc)
    recheck_no_witnesses(f, t, classify(f, t, arch_grid_n=8))


# -- implications between verdicts ------------------------------------------


def test_verdict_implications_random():
    rng = random.Random(13)
    for _ in range(30):
        f = random_strictly_increasing_fn(rng)
        r = classify(f, PRODUCT, arch_grid_n=6)
        s = statuses(r)
        # cancellation implies conditional cancellation and associativity
        if s["cancellative"] == "yes":
            assert s["conditionally_cancellative"] == "yes"
            assert s["t_subnorm"] == "yes"
        if s["t_norm"] == "yes":
            assert s["t_subnorm"] == "yes"


def test_check_cancellative_needs_an_exact_family(f_identity):
    # classify decides inexact families by its corollary route and never
    # calls check_cancellative for them; a direct call cannot build T(M,M)
    op = make_op(f_identity, parse_tnorm("gen:neglog"))
    with pytest.raises(ValueError, match="exact families"):
        check_cancellative(op, decompose(f_identity))


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
        r = classify(f, PRODUCT, arch_grid_n=4)
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
        r = classify(f, PRODUCT, arch_grid_n=4)
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


def assoc_pts(f):
    """The search grid of classify's t_subnorm block."""
    return sorted(set(f.breakpoints()) | {F(i, 6) for i in range(7)})


@pytest.mark.parametrize("tdesc", ["product", "hamacher2"])
@settings(max_examples=25, deadline=None)
@given(f=monotone_fns())
def test_assoc_search_matches_direct_scan(tdesc, f):
    op = make_op(f, parse_tnorm(tdesc))
    pts = assoc_pts(f)
    assert _assoc_search(op, pts) == reference_assoc_search(op, pts)


@pytest.mark.parametrize("name,want", [
    ("gap", (F(1, 6), F(1, 4), F(5, 6))), ("plateau", None)])
def test_assoc_search_worked_examples(name, want):
    from conftest import WORKED_EXAMPLES

    f = parse_fn(WORKED_EXAMPLES[name])
    op = make_op(f, PRODUCT)
    assert _assoc_search(op, assoc_pts(f)) == want


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


@pytest.mark.parametrize("grid_n", [1, 0, -3])
def test_archimedean_grid_needs_an_interior_point(f_identity, grid_n):
    with pytest.raises(ValueError, match="grid_n must be >= 2"):
        check_archimedean(make_op(f_identity, PRODUCT), grid_n=grid_n)
    with pytest.raises(ValueError, match="grid_n must be >= 2"):
        classify(f_identity, PRODUCT, arch_grid_n=grid_n)


def reference_archimedean(op, grid_n):
    """check_archimedean with one power sequence per grid point."""
    ys = [F(i, grid_n) for i in range(1, grid_n)]
    y_min = ys[0]
    for x in ys:
        acc, prev = x, None
        for _ in range(ARCH_CAP):
            nxt, r = approx_diff(f_eval(op, acc, x), F(0))
            if nxt + r < y_min:
                break
            if r:
                if prev is not None and abs(nxt - prev) <= r:
                    return Verdict.unknown(
                        f"power sequence at x={x} stalls within the error radius")
                prev = nxt
            elif nxt == acc:
                return Verdict.no((x, y_min), note=f"powers of {x} stabilize at {acc}")
            acc = nxt
        else:
            return Verdict.unknown(
                f"powers of {x} did not descend below {y_min} within {ARCH_CAP} steps")
    return Verdict.yes(f"all grid powers descend below {y_min}",
                       note=f"grid n={grid_n}, cap {ARCH_CAP}")


@pytest.mark.parametrize("tdesc", ["product", "hamacher2", "min", "halfprod",
                                   "gen:neglog"])
@settings(max_examples=40, deadline=None)
@given(f=st.one_of(monotone_fns(), nonincreasing_fns()))
def test_archimedean_by_class_matches_per_point_scan(tdesc, f):
    # one power sequence per f-value class must give the whole Verdict of
    # a scan of every grid point
    for grid_n in (2, 6, 8, 20):
        want = reference_archimedean(make_op(f, parse_tnorm(tdesc)), grid_n)
        assert check_archimedean(make_op(f, parse_tnorm(tdesc)), grid_n) == want, grid_n


# the powers of 95/97 reach the plateau's lower end 11/16 and stay there,
# as F(11/16, 95/97) = 11/16 with product and halfprod
F_ARCH_TRAP = """\
monotone: nondecreasing
segment [0,11/16) linear 4/11 7/16
segment [11/16,13/16) const 3/4
segment [13/16,1] linear 1 -1/16
"""

# the powers of any x > 1/4 fall towards 1/4 without reaching it
F_ARCH_SLOW = """\
monotone: nondecreasing
segment [0,1/4] const 0
segment (1/4,1] linear 4/3 -1/3
"""

_SLOW_CAP = Verdict.unknown(
    f"powers of 3/8 did not descend below 1/8 within {ARCH_CAP} steps")


@pytest.mark.parametrize("fn, tdesc, grid_n, want", [
    (F_ARCH_TRAP, "product", 97,
     Verdict.no((F(95, 97), F(1, 97)), note="powers of 95/97 stabilize at 11/16")),
    (F_ARCH_TRAP, "halfprod", 97,
     Verdict.no((F(95, 97), F(1, 97)), note="powers of 95/97 stabilize at 11/16")),
    (F_ARCH_TRAP, "hamacher2", 97,
     Verdict.yes("all grid powers descend below 1/97", note=f"grid n=97, cap {ARCH_CAP}")),
    (F_ARCH_TRAP, "product", 2,
     Verdict.yes("all grid powers descend below 1/2", note=f"grid n=2, cap {ARCH_CAP}")),
    (F_ARCH_SLOW, "product", 8, _SLOW_CAP),
    (F_ARCH_SLOW, "hamacher2", 8, _SLOW_CAP),
    (F_ARCH_SLOW, "halfprod", 8, _SLOW_CAP),
    (F_ARCH_SLOW, "min", 8,
     Verdict.no((F(3, 8), F(1, 8)), note="powers of 3/8 stabilize at 3/8")),
    (F_ARCH_SLOW, "gen:neglog", 8,
     Verdict.unknown("power sequence at x=3/8 stalls within the error radius")),
])
def test_archimedean_power_loop_endings(fn, tdesc, grid_n, want):
    # each way a power sequence ends: descent, an exact fixed point, the
    # cap, and a stall within the error radius
    op = make_op(parse_fn(fn), parse_tnorm(tdesc))
    assert check_archimedean(op, grid_n) == want
    assert reference_archimedean(op, grid_n) == want


def test_classify_accepts_the_smallest_grid():
    r = classify(parse_fn(F_ARCH_TRAP), PRODUCT, arch_grid_n=2)
    assert r.properties["archimedean"] == Verdict.yes(
        "all grid powers descend below 1/2", note=f"grid n=2, cap {ARCH_CAP}")


# f(1) = 1/4 is a plateau value, so classify takes the degenerate-shape return
F_PLATEAU_AT_ONE = """\
monotone: nondecreasing
segment [0,1/2) linear 1/2 0
segment [1/2,1] const 1/4
"""


@pytest.mark.parametrize("shape", ["plateau_at_one", "identity"])
@pytest.mark.parametrize("kwargs, match", [
    ({"arch_grid_n": 1}, "arch_grid_n must be >= 2"),
    ({"arch_grid_n": 0}, "arch_grid_n must be >= 2"),
])
def test_classify_rejects_bad_arguments_for_every_f(f_identity, shape, kwargs, match):
    f = parse_fn(F_PLATEAU_AT_ONE) if shape == "plateau_at_one" else f_identity
    op = make_op(f, PRODUCT)
    degenerate = check_degenerate(op, f_eval(op, 1, 1)) is not None
    assert degenerate == (shape == "plateau_at_one")
    with pytest.raises(ValueError, match=match):
        classify(f, PRODUCT, **kwargs)
    with pytest.raises(ValueError, match=match):
        consistency_harness(f, PRODUCT, n=4, **kwargs)


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


# -- rendering ---------------------------------------------------------------


def test_render_text_mentions_all_properties(f_plateau):
    out = render_text(classify(f_plateau, PRODUCT, arch_grid_n=6))
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
archimedean: Unknown (powers of 3/10 did not descend below 1/20 within 256 steps)
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
    a = render_structured(classify(f_plateau, PRODUCT, arch_grid_n=6))
    b = render_structured(classify(f_plateau, PRODUCT, arch_grid_n=6))
    assert a == b
    assert "t_subnorm.status=yes" in a
