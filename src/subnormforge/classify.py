"""Three-valued classification of the generated operation F.

Each property gets a Verdict: Yes with a list of exactly verified
conditions, No with a witness that re-checks by direct evaluation, or
Unknown with the resolution reached.  Yes verdicts are only emitted on
routes where the characterization theorems apply (strictly monotone,
continuous t-norms with exact rational evaluation, plus a corollary route
for continuous strictly increasing f with f(0)=0); everything else falls
back to Unknown and the brute-force oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .generated import GeneratedOp, f_eval, make_op
from .intervals import Interval, IntervalSet, ONE, ZERO
from .pwfn import (
    Decomposition,
    PiecewiseMonotoneFn,
    decompose,
    eval_fn,
    side_limit,
)
from .tnorms import TNormDescriptor, approx_diff, t_eval, t_image, t_solve_x, t_preimage

PROPERTIES = (
    "t_subnorm",
    "t_norm",
    "conditionally_cancellative",
    "cancellative",
    "strictly_monotone_op",
    "archimedean",
    "continuous",
    "proper",
)


@dataclass(frozen=True)
class Verdict:
    status: str  # "yes" | "no" | "unknown"
    evidence: tuple = ()
    witness: Optional[tuple] = None
    resolution: Optional[str] = None
    note: Optional[str] = None

    @staticmethod
    def yes(*evidence, note=None) -> "Verdict":
        return Verdict("yes", tuple(evidence), note=note)

    @staticmethod
    def no(witness, note=None) -> "Verdict":
        return Verdict("no", witness=witness, note=note)

    @staticmethod
    def unknown(resolution, note=None) -> "Verdict":
        return Verdict("unknown", resolution=resolution, note=note)


@dataclass
class ClassificationReport:
    properties: dict
    decomposition: Optional[Decomposition]
    conditions_log: list = field(default_factory=list)

    def verdict(self, name: str) -> Verdict:
        return self.properties[name]


# -- small helpers ----------------------------------------------------------


def _pq_values(max_q: int = 32):
    """All p/q in (0,1] in ascending denominator order, deterministic."""
    seen = set()
    for q in range(1, max_q + 1):
        for p in range(1, q + 1):
            v = Fraction(p, q)
            if v not in seen:
                seen.add(v)
                yield v


def arg_with_value(f: PiecewiseMonotoneFn, v: Fraction, avoid=None):
    """Some x with f(x)=v, optionally distinct from `avoid`; None if v is
    not attained (or only attained at `avoid`)."""
    from .pwfn import Segment

    for p in f.pieces():
        if not isinstance(p, Segment):
            px, pv = p
            if pv == v and px != avoid:
                return px
            continue
        vals = p.attained_values()
        if not vals.contains(v):
            continue
        d = p.domain
        if p.is_const:
            for cand in (d.lo if d.lo_closed else None, d.midpoint(),
                         d.hi if d.hi_closed else None):
                if cand is not None and d.contains(cand) and cand != avoid:
                    return cand
        else:
            x = (v - p.intercept) / p.slope
            if x != avoid:
                return x
    return None


def _interval_low(hi: Fraction) -> IntervalSet:
    return IntervalSet.single(Interval.closed(ZERO, hi))


def _dense_samples(s: IntervalSet, k: int = 4) -> list:
    """Several interior points per part (plus closed endpoints), so that
    even a single open interval contributes multiple probes."""
    out = set()
    for p in s.parts:
        if p.lo_closed:
            out.add(p.lo)
        if p.hi_closed:
            out.add(p.hi)
        if p.lo < p.hi:
            for j in range(1, k + 1):
                out.add(p.lo + (p.hi - p.lo) * Fraction(j, k + 1))
    return sorted(out)


def _plateau_pair(f: PiecewiseMonotoneFn, values):
    """(value, x1, x2) with x1 != x2 and f(x1)=f(x2)=value, for the first of
    `values` attained twice; None when there is none."""
    for w in values:
        x1 = arg_with_value(f, w)
        if x1 is None:
            continue
        x2 = arg_with_value(f, w, avoid=x1)
        if x2 is not None:
            return w, x1, x2
    return None


# -- degenerate shapes ------------------------------------------------------


def check_degenerate(f: PiecewiseMonotoneFn, t: TNormDescriptor,
                     op: Optional[GeneratedOp] = None):
    """Forced verdicts when the generated operation collapses.

    Non-increasing f vanishing on (0,1] gives F identically 0; for
    non-decreasing f, a plateau value attained at 1 (or approached at 1
    with f(1) off the plateau) forces F to be zero away from (1,1) if the
    conditional cancellation law is to hold at all.  Returns a property
    dict, or None when none of these shapes apply.
    """
    if op is None:
        op = make_op(f, t)
    from .pwfn import plateau_set

    if not f.nondecreasing:
        # f is non-increasing with values in [0,1], so it vanishes on
        # (0,1] exactly when its limit at 0 from the right is 0
        if side_limit(f, ZERO, "right") == 0:
            return _vanishing_verdicts(op, "F identically 0", "f vanishes on (0,1]")
        out = {p: Verdict.unknown(
            "none", note="non-increasing f outside the vanishing case; "
            "use the oracle") for p in PROPERTIES}
        out["proper"] = _proper_verdict(op)
        return out

    q = plateau_set(f)
    f1 = eval_fn(f, ONE)
    if q.contains(f1):
        x1 = arg_with_value(f, f1)
        x2 = arg_with_value(f, f1, avoid=x1)
        return _plateau_at_one(op, f1, x1, x2, f_eval(op, ONE, ONE),
                               "F identically 0", "plateau value at 1 and F(1,1)=0")
    f1m = side_limit(f, ONE, "left")
    if q.contains(f1m):
        # plateau approached at 1 but f(1) above it: F must vanish off (1,1)
        x2 = arg_with_value(f, f1m)
        x1 = arg_with_value(f, f1m, avoid=x2)
        return _plateau_at_one(op, f1m, x1, x2, f_eval(op, x2, ONE),
                               "F vanishes off (1,1)", None)
    return None


def _plateau_at_one(op, w, x1, x2, probe, evidence, note):
    """Verdicts for a plateau value w at 1, which f takes at x1 and x2
    (either None when not located).  A probe value of F that is exactly 0
    makes F vanish off (1,1), with `evidence` and `note` naming the shape;
    a positive one with equal exact values F(x1,1)=F(x2,1) refutes
    conditional cancellation."""
    c, r = approx_diff(probe, ZERO)
    if (c, r) == (0, 0):
        return _vanishing_verdicts(op, evidence, note)
    out = {p: Verdict.unknown("none", note="degenerate shape undecided")
           for p in PROPERTIES}
    if abs(c) > r and x1 is not None and x2 is not None:
        v1 = f_eval(op, x1, ONE)
        if approx_diff(v1, f_eval(op, x2, ONE)) == (0, 0) and v1 > 0:
            out = {p: Verdict.unknown("none", note="degenerate shape; use the oracle")
                   for p in PROPERTIES}
            out["conditionally_cancellative"] = Verdict.no(
                (x1, x2, ONE),
                note=f"F({x1},1)=F({x2},1)={v1}>0 with f({x1})=f({x2})={w}")
            out["cancellative"] = Verdict.no((ONE, x1, x2),
                                             note="repeated f value")
            out["strictly_monotone_op"] = out["cancellative"]
    out["proper"] = _proper_verdict(op)
    return out


def _vanishing_verdicts(op, evidence, note):
    """F is 0 everywhere except possibly at (1,1)."""
    a = f_eval(op, ONE, ONE)
    half = Fraction(1, 2)
    out = {
        "t_subnorm": Verdict.yes(evidence, note=note),
        "t_norm": Verdict.no((half,), note="F(1/2,1)=0 != 1/2"),
        "conditionally_cancellative": Verdict.yes(evidence, note=note),
        "cancellative": Verdict.no((ONE, ZERO, half), note="F(1,0)=F(1,1/2)=0"),
        "strictly_monotone_op": Verdict.no((ONE, ZERO, half),
                                           note="F(1,0)=F(1,1/2)=0"),
        "archimedean": Verdict.yes(evidence),
        "proper": _proper_verdict(op),
    }
    if approx_diff(a, ZERO) == (0, 0):
        out["continuous"] = Verdict.yes("F identically 0")
    else:
        out["continuous"] = Verdict.no((ONE, ONE),
                                       note=f"isolated positive value {a} at (1,1)")
    return out


def _proper_verdict(op) -> Verdict:
    """Proper means F(1,1) < 1: the operation cannot have neutral element 1."""
    top = f_eval(op, ONE, ONE)
    c, r = approx_diff(top, ZERO)
    shown = f"{float(c):.12f}" if r else f"{c}"
    if c + r < 1:
        return Verdict.yes(f"F(1,1)={shown} < 1")
    if not r:
        return Verdict.no((ONE, ONE), note="F(1,1)=1")
    if op.t.neutral_one and eval_fn(op.f, ONE) == 1:
        return Verdict.no((ONE, ONE),
                          note="T has neutral element 1 and f(1)=1, "
                               "so F(1,1)=1 exactly")
    return Verdict.unknown("error radius overlaps 1",
                           note=f"F(1,1) approx {shown}")


# -- inclusion conditions ---------------------------------------------------


def check_inclusion_conditions(t: TNormDescriptor, d: Decomposition):
    """The two range-inclusion conditions driving conditional cancellation:

        (a) T(M\\C, M) subset of M union [0, f(0+)]
        (b) T(Q, M)   subset of [0, f(0+)]

    Both are decided exactly via interval images for exact t-norm
    families; failures carry a value-space witness (u, v, T(u,v)).
    """
    if not t.exact:
        u = Verdict.unknown("inexact t-norm evaluation",
                            note="interval images unavailable")
        return u, u
    low = _interval_low(d.f0plus)
    img_a = t_image(t, d.m_minus_c, d.m)
    ok_a, z_a = img_a.is_subset_of(d.m.union(low))
    if ok_a:
        va = Verdict.yes("T(M\\C,M) within M plus the low band")
    else:
        va = Verdict.no(_value_witness(t, d.m_minus_c, d.m, z_a),
                        note=f"image value {z_a} escapes")
    if d.q.is_empty:
        vb = Verdict.yes("no repeated values (Q empty)")
    else:
        img_b = t_image(t, d.q, d.m)
        ok_b, z_b = img_b.is_subset_of(low)
        if ok_b:
            vb = Verdict.yes("T(Q,M) within the low band")
        else:
            vb = Verdict.no(_value_witness(t, d.q, d.m, z_b),
                            note=f"image value {z_b} escapes")
    return va, vb


def _value_witness(t, a: IntervalSet, b: IntervalSet, z: Fraction):
    """(u, v, z) with u in a, v in b, T(u,v)=z, by deterministic search
    over small-denominator v; falls back to (None, None, z)."""
    for v in _pq_values(32):
        if not b.contains(v):
            continue
        for u in t_solve_x(t, v, z):
            if a.contains(u):
                return (u, v, z)
    for v in b.sample_points():
        for u in t_solve_x(t, v, z):
            if a.contains(u):
                return (u, v, z)
    return (None, None, z)


# -- gap-hull condition -----------------------------------------------------


def h_k_sets(t: TNormDescriptor, d: Decomposition) -> dict:
    """For each high gap [b_k,d_k] (those above the plateau maximum), the
    open hull of the kept boundary value together with the t-norm image of
    the range meeting that gap."""
    out = {}
    for k in d.k1:
        b, dd, c = d.s[k]
        gap = IntervalSet.single(Interval.closed(b, dd))
        inside = t_image(t, d.m, d.m).intersect(gap)
        out[k] = inside.union(IntervalSet.points([c])).o_hull()
    return out


def check_prop_sufficient(t: TNormDescriptor, d: Decomposition) -> Verdict:
    """The hull condition: T(union of H_k, M\\{0}) must avoid M\\C."""
    hk = h_k_sets(t, d)
    hull = IntervalSet.empty()
    for s in hk.values():
        hull = hull.union(s)
    if hull.is_empty:
        return Verdict.yes("all gap hulls empty")
    m_nz = d.m.minus(IntervalSet.points([ZERO]))
    bad = t_image(t, hull, m_nz).intersect(d.m_minus_c)
    if bad.is_empty:
        return Verdict.yes("gap-hull image avoids M\\C")
    p = bad.parts[0]
    w = p.lo if p.lo_closed else p.midpoint()
    return Verdict.no((w,), note=f"gap-hull image meets M\\C in {bad}")


# -- witness-set refutation for the associativity condition ------------------


def l_set_check(t: TNormDescriptor, d: Decomposition, resolution: int = 32) -> Verdict:
    """Exact refutation attempt of the full associativity condition over a
    finite witness set of y values (gap endpoints, kept values, range part
    endpoints, and an n-grid of the range).

    For each witness y and each pair of high gaps, builds the preimage
    sets {x in M : T(x,y) lands in the gap} / {... lands in M\\C}, their
    hulls, and intersects the resulting images with M\\C.  A nonempty
    exact intersection refutes associativity; otherwise Unknown at this
    resolution.
    """
    if t.family not in ("product", "hamacher2"):
        return Verdict.unknown("preimages unavailable for this family")
    ys = set()
    for b, dd, c in d.s:
        for v in (b, dd, c):
            if d.m.contains(v):
                ys.add(v)
    for p in d.m.parts:
        if p.lo_closed:
            ys.add(p.lo)
        if p.hi_closed:
            ys.add(p.hi)
    for i in range(resolution + 1):
        v = Fraction(i, resolution)
        if d.m.contains(v):
            ys.add(v)
    m_minus_c = d.m_minus_c
    for y in sorted(ys):
        if y == 0:
            continue
        m_y = IntervalSet.empty()
        for part in m_minus_c.parts:
            m_y = m_y.union(d.m.intersect(t_preimage(t, y, part)))
        gaps = {}
        for k in d.k1:
            b, dd, c = d.s[k]
            mk = d.m.intersect(t_preimage(t, y, Interval.closed(b, dd)))
            if not mk.is_empty:
                gaps[k] = mk
        for k, mk in gaps.items():
            c_k = d.s[k][2]
            i_k = t_image(t, mk, IntervalSet.points([y])).union(
                IntervalSet.points([c_k])).o_hull()
            if i_k.is_empty or m_y.is_empty:
                continue
            bad = t_image(t, i_k, m_y).intersect(m_minus_c)
            if not bad.is_empty:
                p = bad.parts[0]
                w = p.lo if p.lo_closed else p.midpoint()
                return Verdict.no((y, k, w),
                                  note="hull image at witness y meets M\\C")
        for k, mk in gaps.items():
            for l, ml in gaps.items():
                c_k, c_l = d.s[k][2], d.s[l][2]
                j = t_image(t, mk, IntervalSet.points([c_l])).union(
                    t_image(t, IntervalSet.points([c_k]), ml)).o_hull()
                bad = j.intersect(m_minus_c)
                if not bad.is_empty:
                    p = bad.parts[0]
                    w = p.lo if p.lo_closed else p.midpoint()
                    return Verdict.no((y, k, l, w),
                                      note="cross-gap hull meets M\\C")
    return Verdict.unknown(f"witness set at resolution {resolution} found no refutation")


# -- cancellation -----------------------------------------------------------


def check_cancellative(t: TNormDescriptor, f: PiecewiseMonotoneFn,
                       d: Decomposition, op: Optional[GeneratedOp] = None) -> Verdict:
    """Cancellative t-subnorm test: f strictly increasing and T(M,M)
    within M, both verified exactly."""
    if op is None:
        op = make_op(f, t)
    if not f.is_strictly_monotone:
        pair = _plateau_pair(f, d.q.sample_points())
        if pair is not None:
            w, x1, x2 = pair
            return Verdict.no((ONE, x1, x2),
                              note=f"f({x1})=f({x2})={w}, so F(1,{x1})=F(1,{x2})")
        return Verdict.unknown("repeated value not located")
    if not t.exact:
        if not _jumps(f) and eval_fn(f, ZERO) == 0 and t.strict:
            return Verdict.yes(
                "f continuous strictly increasing with f(0)=0",
                note="strict t-norm composed with a continuous strictly "
                     "increasing generator")
        return Verdict.unknown("inexact t-norm evaluation")
    ok, z = t_image(t, d.m, d.m).is_subset_of(d.m)
    if ok:
        return Verdict.yes("f strictly increasing", "T(M,M) within M")
    # (x, y1, y2) with F(x,y1)=F(x,y2), y1 != y2, x != 0
    witness = next(((x, y1, y2) for x, y1, y2, _ in _gap_collisions(op, d, d.m, z)
                    if x != 0), None)
    if witness is not None:
        return Verdict.no(witness,
                          note=f"image value {z} in a range gap collapses "
                               "distinct arguments")
    return Verdict.unknown(
        "T(M,M) escapes M but no cancellation counterexample was "
        f"constructed (escape value {z})")


def _gap_collisions(op, d: Decomposition, domain: IntervalSet, z: Fraction):
    """Yield (x, y1, y2, a) with y1 != y2 and F(x,y1) = F(x,y2) = a exactly,
    built from a t-norm image value z that falls in a range gap: f(y1) and
    f(y2) are taken from `domain` and sent into that gap by T(., f(x)).

    Only the strict exact families are searched, where F is symmetric, so
    the same collisions serve with x as the first or the second argument.
    """
    t = op.t
    if t.family not in ("product", "hamacher2"):
        return
    gap = None
    for b, dd, c in d.s:
        if b <= z <= dd:
            gap = (b, dd, c)
            break
    if gap is None:
        return
    b, dd, c = gap
    for v in _pq_values(32):
        if not d.m.contains(v):
            continue
        pre = domain.intersect(t_preimage(t, v, Interval.closed(b, dd)))
        us = [u for u in _dense_samples(pre) if t_eval(t, u, v) != c][:6]
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


def _cc_witness(op, d: Decomposition, which: str, z: Fraction):
    """(x1, x2, y) violating the conditional cancellation law, i.e.
    F(x1,y)=F(x2,y)>0 with x1 != x2, from a failed inclusion with escape
    value z; verified by evaluation.  Only runs for the strict exact
    families, so every value is an exact Fraction."""
    t = op.t
    if which == "plateau":
        # z = T(w, v) > f(0+) with w a repeated value
        for w in d.q.sample_points():
            for v in t_solve_x(t, w, z):
                if not d.m.contains(v):
                    continue
                x1 = arg_with_value(op.f, w)
                x2 = arg_with_value(op.f, w, avoid=x1)
                y = arg_with_value(op.f, v)
                if None in (x1, x2, y):
                    continue
                a1, a2 = f_eval(op, x1, y), f_eval(op, x2, y)
                if a1 == a2 and a1 > 0:
                    return (x1, x2, y)
        return None
    return next(((x1, x2, y) for y, x1, x2, a in _gap_collisions(op, d, d.m_minus_c, z)
                 if a > 0), None)


# -- continuity -------------------------------------------------------------


def _jumps(f: PiecewiseMonotoneFn):
    """(x0, lo, hi) at every discontinuity, using actual one-sided limits
    (the pseudo-inverse boundary conventions play no role here)."""
    out = []
    for x0 in f.breakpoints():
        v = eval_fn(f, x0)
        lo = v if x0 == 0 else side_limit(f, x0, "left")
        hi = v if x0 == 1 else side_limit(f, x0, "right")
        if lo != hi or lo != v:
            out.append((x0, min(lo, v), max(hi, v)))
    return out


def _approach_segment(f: PiecewiseMonotoneFn, x0: Fraction, side: str):
    for s in f.segments:
        d = s.domain
        if side == "left" and d.lo < x0 <= d.hi:
            return s
        if side == "right" and d.lo <= x0 < d.hi:
            return s
    return None


def _t_dir_limit(t: TNormDescriptor, v: Fraction, side: str, c: Fraction) -> Fraction:
    """lim T(u,c) as u -> v from `side`, for exact families."""
    if t.family == "halfprod" and side == "right" and v == Fraction(1, 2) \
            and 0 < c <= Fraction(1, 2):
        return c / 2  # the plain-product branch takes over just above 1/2
    return t_eval(t, v, c)


def _dir_limit(op: GeneratedOp, x0: Fraction, y0: Fraction, side: str):
    """Exact lim F(x, y0) as x -> x0 from `side`; None when not computable."""
    t = op.t
    if not t.exact:
        return None
    if (side == "left" and x0 == 0) or (side == "right" and x0 == 1):
        return None
    c = op.f_at(y0)
    if c == 0:
        return op.finv_at(ZERO)
    v = side_limit(op.f, x0, side)
    seg = _approach_segment(op.f, x0, side)
    if seg is None or seg.is_const:
        return op.finv_at(t_eval(t, v, c))
    if t.family == "minimum" and c < v:
        return op.finv_at(c)
    w = _t_dir_limit(t, v, side, c)
    if side == "left":
        if w == 0:
            return op.finv_at(ZERO)
        return side_limit(op.finv, w, "left")
    if w == 1:
        return op.finv_at(ONE)
    return side_limit(op.finv, w, "right")


def check_continuity(t: TNormDescriptor, f: PiecewiseMonotoneFn,
                     op: Optional[GeneratedOp] = None,
                     d: Optional[Decomposition] = None) -> Verdict:
    """Continuity of F on [0,1]^2.

    For strictly increasing f with a strictly monotone continuous exact
    t-norm, F is continuous iff no window [T(f(x-),f(y-)), T(f(x+),f(y+))]
    meets Ran(f) in more than one point; the window only degenerates away
    from jumps of f, so a finite sweep over jump pairs and critical second
    arguments decides the property exactly.  Otherwise a search for
    exactly computed one-sided limit mismatches can refute continuity,
    and anything undecided stays Unknown.
    """
    if op is None:
        op = make_op(f, t)
    if t.family == "lambda":
        segs = f.segments
        if (not f.points and len(segs) == 1 and not segs[0].is_const
                and segs[0].slope == t.lam and segs[0].intercept == 0):
            return Verdict.yes(
                "scaled-generator composition equals the additively "
                "generated operation, which is continuous")
        return Verdict.unknown("non-canonical generator composition")
    if d is None and f.nondecreasing:
        d = decompose(f)

    jumps = _jumps(f)
    if (f.nondecreasing and f.is_strictly_monotone and not jumps
            and t.continuous):
        # finv is continuous on [0, f(1)] for continuous strictly
        # increasing f, so F inherits continuity from T
        return Verdict.yes("f continuous strictly increasing, T continuous")
    if f.nondecreasing and f.is_strictly_monotone and t.exact and t.strict:
        # strict implies continuous, so f has a jump here
        m = d.m
        # jump x jump windows
        for (x1, a1, b1) in jumps:
            for (x2, a2, b2) in jumps:
                win = Interval.closed(t_eval(t, a1, a2), t_eval(t, b1, b2))
                hit = m.intersect(IntervalSet.single(win))
                if hit.has_multiple_points():
                    return Verdict.no((x1, x2),
                                      note=f"range meets [{win}] in {hit}")
        # jump x continuity-point windows: critical second arguments
        for (x1, a1, b1) in jumps:
            crits = set()
            for part in m.parts:
                for e in (part.lo, part.hi):
                    for side_val in (a1, b1):
                        if side_val > 0:
                            crits.update(t_solve_x(t, side_val, e))
            vs = sorted(c for c in crits if 0 < c <= 1)
            samples = set(v for v in vs if m.contains(v))
            for i in range(len(vs) - 1):
                mid = m.intersect(IntervalSet.single(
                    Interval.make(vs[i], vs[i + 1], False, False)))
                if not mid.is_empty:
                    samples.add(mid.parts[0].midpoint()
                                if not mid.parts[0].is_point else mid.parts[0].lo)
            for part in m.parts:
                samples.update(x for x in (part.lo, part.hi, part.midpoint())
                               if m.contains(x) and x > 0)
            for v in sorted(samples):
                win = Interval.closed(t_eval(t, a1, v), t_eval(t, b1, v))
                hit = m.intersect(IntervalSet.single(win))
                if hit.has_multiple_points():
                    y0 = arg_with_value(f, v)
                    return Verdict.no((x1, y0),
                                      note=f"range meets [{win}] in {hit}")
        return Verdict.yes("all discontinuity windows meet the range in "
                           "at most one point")

    if t.family == "generator":
        return Verdict.unknown("inexact t-norm with a discontinuous or "
                               "non-injective generator function")

    # refutation search via exact one-sided limits
    if t.exact and f.nondecreasing:
        cands_x = set(f.breakpoints())
        cands_y = set(f.breakpoints()) | {ONE}
        if d is not None:
            for q in d.q.sample_points():
                for y0 in sorted(cands_y):
                    for u in t_solve_x(t, op.f_at(y0), q):
                        xa = arg_with_value(f, u)
                        if xa is not None:
                            cands_x.add(xa)
        for x0 in sorted(cands_x):
            for y0 in sorted(cands_y):
                for (px, py) in ((x0, y0), (y0, x0)):
                    val = f_eval(op, px, py)
                    for side in ("left", "right"):
                        lim = _dir_limit(op, px, py, side)
                        if lim is not None and lim != val:
                            return Verdict.no(
                                (px, py),
                                note=f"{side} limit {lim} != value {val} "
                                     f"along the first argument")
    return Verdict.unknown("no exact limit mismatch found; criterion "
                           "preconditions unmet")


# -- Archimedean ------------------------------------------------------------


def check_archimedean(op: GeneratedOp, grid_n: int = 20, cap: int = 256) -> Verdict:
    """Grid-and-cap Archimedean check: every interior grid x must have a
    self-composition power dropping below every interior grid y.  An
    exactly stabilized power sequence above some y is a rigorous No;
    hitting the cap without stabilizing leaves Unknown."""
    ys = [Fraction(i, grid_n) for i in range(1, grid_n)]
    y_min = ys[0]
    for x in ys:
        acc = x
        floor_hit = False
        prev = None
        for _ in range(cap):
            nxt, r = approx_diff(f_eval(op, acc, x), ZERO)
            if nxt + r < y_min:
                floor_hit = True
                break
            if r:
                # an approximate power can be seen to stall, never to be
                # an exact fixed point
                if prev is not None and abs(nxt - prev) <= r:
                    return Verdict.unknown(
                        f"power sequence at x={x} stalls within the error radius")
                prev = nxt
            elif nxt == acc:
                # exact fixed point: powers never descend below acc
                bad_y = next((y for y in ys if y <= acc), None)
                if bad_y is not None:
                    return Verdict.no((x, bad_y),
                                      note=f"powers of {x} stabilize at {acc}")
                floor_hit = True
                break
            acc = nxt
        if not floor_hit:
            return Verdict.unknown(
                f"powers of {x} did not descend below {y_min} within {cap} steps")
    return Verdict.yes(f"all grid powers descend below {y_min}",
                       note=f"grid n={grid_n}, cap {cap}")


# -- orchestration ----------------------------------------------------------


def _assoc_search(op: GeneratedOp, pts):
    for x in pts:
        for y in pts:
            for z in pts:
                lhs = f_eval(op, f_eval(op, x, y), z)
                rhs = f_eval(op, x, f_eval(op, y, z))
                if lhs != rhs:
                    return (x, y, z)
    return None


def _neutral_search(op: GeneratedOp, pts):
    for x in pts:
        d, r = approx_diff(f_eval(op, x, ONE), x)
        if abs(d) > r:
            return x
    return None


def classify(f: PiecewiseMonotoneFn, t: TNormDescriptor,
             l_resolution: int = 32, arch_grid_n: int = 20) -> ClassificationReport:
    """Full property report for F(x,y) = finv(T(f(x),f(y)))."""
    op = make_op(f, t)
    log = []

    deg = check_degenerate(f, t, op)
    if deg is not None:
        log.append(("degenerate shape", "", "forced classification"))
        return ClassificationReport(
            {p: deg[p] for p in PROPERTIES},
            decompose(f) if f.nondecreasing else None, log)

    d = decompose(f)
    props = {}

    props["proper"] = _proper_verdict(op)
    props["archimedean"] = check_archimedean(op, grid_n=arch_grid_n)
    props["continuous"] = check_continuity(t, f, op=op, d=d)
    if props["continuous"].status == "yes":
        log.append(("continuity",
                    "Archimedean and conditional cancellation coincide for "
                    "continuous t-subnorms", "cross-check available"))

    cond_a = cond_b = None
    if t.exact:
        cond_a, cond_b = check_inclusion_conditions(t, d)
        log.append(("T(M\\C,M) within M plus [0,f(0+)]",
                    f"M={d.m} C={d.c_set} f(0+)={d.f0plus}", cond_a.status))
        log.append(("T(Q,M) within [0,f(0+)]", f"Q={d.q}", cond_b.status))

    if not (t.exact and t.strict):
        # corollary route for strict but inexact families
        if t.strict and f.is_strictly_monotone and not _jumps(f) \
                and eval_fn(f, ZERO) == 0:
            v = Verdict.yes("f continuous strictly increasing with f(0)=0",
                            "T strictly monotone and continuous")
            props["cancellative"] = v
            props["conditionally_cancellative"] = v
            props["t_subnorm"] = v
            props["strictly_monotone_op"] = v
        else:
            reason = ("preconditions unmet: t-norm not strictly monotone "
                      "and continuous with exact evaluation; run the oracle")
            for p in ("t_subnorm", "conditionally_cancellative",
                      "cancellative", "strictly_monotone_op"):
                props[p] = Verdict.unknown(reason)
        props["t_norm"] = _t_norm_verdict(op, f, t, props)
        return ClassificationReport({p: props[p] for p in PROPERTIES}, d, log)

    # strict exact path: product / hamacher2
    if cond_a.status == "yes" and cond_b.status == "yes":
        props["conditionally_cancellative"] = Verdict.yes(
            "T(M\\C,M) within M plus [0,f(0+)]", "T(Q,M) within [0,f(0+)]")
    else:
        bad, which = (cond_b, "plateau") if cond_b.status == "no" else (cond_a, "gap")
        z = bad.witness[2]
        triple = _cc_witness(op, d, which, z)
        if triple is not None:
            x1, x2, y = triple
            props["conditionally_cancellative"] = Verdict.no(
                triple, note=f"F({x1},{y})=F({x2},{y})>0")
        else:
            props["conditionally_cancellative"] = Verdict.unknown(
                f"inclusion fails at {z} but no argument-space witness "
                "was constructed")

    props["cancellative"] = check_cancellative(t, f, d, op)
    props["strictly_monotone_op"] = props["cancellative"]

    hk = check_prop_sufficient(t, d)
    log.append(("gap-hull condition", f"K1={d.k1}", hk.status))
    cc = props["conditionally_cancellative"]
    if props["cancellative"].status == "yes":
        props["t_subnorm"] = Verdict.yes("cancellative route")
    elif cc.status == "yes" and hk.status == "yes":
        props["t_subnorm"] = Verdict.yes(
            "gap-hull condition", "both inclusion conditions")
    elif cc.status != "yes" and f.is_strictly_monotone and hk.status == "yes":
        props["t_subnorm"] = Verdict.yes("gap-hull condition",
                                         note="f strictly increasing")
    else:
        pts = sorted(set(f.breakpoints())
                     | {Fraction(i, 6) for i in range(7)})
        triple = _assoc_search(op, pts)
        if triple is not None:
            props["t_subnorm"] = Verdict.no(triple,
                                            note="associativity fails")
        elif cc.status != "yes":
            props["t_subnorm"] = Verdict.unknown(
                "no sufficient route applies; run the oracle")
        elif eval_fn(f, ONE) == 1:
            props["t_subnorm"] = Verdict.unknown(
                "gap-hull condition refuted (necessary when f(1)=1) but no "
                "associativity counterexample found on the search grid",
                note=f"condition witness {hk.witness}")
        else:
            # the gap-hull condition fails (hk is No); the witness set
            # may refute associativity, but the grid above found no triple
            lv = l_set_check(t, d, resolution=l_resolution)
            log.append(("witness-set refutation", "", lv.status))
            if lv.status == "no":
                props["t_subnorm"] = Verdict.unknown(
                    "refutation found in the witness set but no "
                    "associativity counterexample on the search grid",
                    note=f"witness {lv.witness}")
            else:
                props["t_subnorm"] = lv

    props["t_norm"] = _t_norm_verdict(op, f, t, props)
    return ClassificationReport({p: props[p] for p in PROPERTIES}, d, log)


def _t_norm_verdict(op, f, t, props) -> Verdict:
    pts = sorted({Fraction(i, 8) for i in range(9)} | set(f.breakpoints()))
    bad = _neutral_search(op, pts)
    if bad is not None:
        v, _ = approx_diff(f_eval(op, bad, ONE), ZERO)
        return Verdict.no((bad, ONE), note=f"F({bad},1)={v} != {bad}")
    ts = props["t_subnorm"]
    if ts.status == "no":
        return Verdict.no(ts.witness, note="not a t-subnorm")
    if (ts.status == "yes" and f.is_strictly_monotone
            and eval_fn(f, ONE) == 1 and t.neutral_one):
        return Verdict.yes("t-subnorm with neutral element 1",
                           note="f strictly increasing onto 1")
    return Verdict.unknown("neutral element holds on the grid but no "
                           "theorem route confirms it")


# -- rendering --------------------------------------------------------------


_STATUS_TEXT = {"yes": "Yes", "no": "No", "unknown": "Unknown"}


def decomposition_fields(d: Decomposition) -> list:
    """The decomposition as (key, value) pairs, in display order."""
    return [
        ("M", str(d.m)),
        ("S", " ".join(f"[{b},{dd}]:c={c}" for b, dd, c in d.s)),
        ("C", str(d.c_set)),
        ("Q", str(d.q)),
        ("f0plus", str(d.f0plus)),
        ("f1minus", str(d.f1minus)),
        ("tau", str(d.tau)),
        ("upsilon", str(d.upsilon)),
        ("K1", "{" + ",".join(str(k) for k in d.k1) + "}" if d.k1 else "∅"),
    ]


def render_text(report: ClassificationReport) -> str:
    lines = []
    for name in PROPERTIES:
        v = report.properties[name]
        line = f"{name}: {_STATUS_TEXT[v.status]}"
        if v.status == "yes" and v.evidence:
            line += " (" + "; ".join(v.evidence) + ")"
        if v.status == "no" and v.witness is not None:
            line += " witness=" + ",".join(str(w) for w in v.witness)
        if v.status == "unknown" and v.resolution:
            line += " (" + v.resolution + ")"
        if v.note:
            line += f"  # {v.note}"
        lines.append(line)
    if report.decomposition is not None:
        lines.extend(f"{k}={v}" for k, v in decomposition_fields(report.decomposition))
    for name, values, outcome in report.conditions_log:
        lines.append(f"condition: {name} [{values}] -> {outcome}")
    return "\n".join(lines) + "\n"


def render_structured(report: ClassificationReport) -> str:
    lines = []
    for name in PROPERTIES:
        v = report.properties[name]
        lines.append(f"{name}.status={v.status}")
        if v.evidence:
            lines.append(f"{name}.evidence=" + "; ".join(v.evidence))
        if v.witness is not None:
            lines.append(f"{name}.witness=" +
                         ",".join(str(w) for w in v.witness))
        if v.resolution:
            lines.append(f"{name}.resolution={v.resolution}")
    if report.decomposition is not None:
        lines.extend(f"decomposition.{k.lower()}={v}"
                     for k, v in decomposition_fields(report.decomposition))
    return "\n".join(lines) + "\n"
