"""Three-valued classification of the generated operation F.

Each property gets a Verdict: Yes with a list of exactly verified
conditions, No with a witness that re-checks by direct evaluation, or
Unknown with the resolution reached.  Yes verdicts are only emitted on
routes where the characterization theorems apply (strictly monotone,
continuous t-norms with exact rational evaluation, plus a corollary route
for continuous strictly increasing f with f(0)=0, and the Archimedean
rules proved in ``check_archimedean``); everything else falls back to
Unknown and the brute-force oracle, whose scans the classifier does not
run: t_subnorm's No comes from a search that compares only where f∘finv
moves a value of T, for an associative T (``_assoc_search``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .generated import GeneratedOp, make_op
from .intervals import (IntervalSet, ONE, ZERO, _midpoint, _nonempty, _point, _span, reduced,
                        sorted_pairs)
from .pwfn import (
    Decomposition,
    PiecewiseMonotoneFn,
    _first_arg,
    _first_args,
    decompose,
    eval_pair,
    limit_pair,
    plateau_set,
)
from .tnorms import TNormDescriptor, _value, key_diff, t_image, t_solve_pairs, t_preimage

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


@dataclass(frozen=True, slots=True)
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
    conditions_log: list
    op: GeneratedOp = field(repr=False, compare=False)  # the operation classified

    @property
    def decomposition(self) -> Optional[Decomposition]:
        """f's range decomposition for non-decreasing f, else None: read
        from f, which caches it (``decompose``), so a route that does not
        read it never builds it."""
        f = self.op.f
        return decompose(f) if f.nondecreasing else None


# -- small helpers ----------------------------------------------------------


# All p/q in (0,1] with q <= 32, once each, as reduced pairs, in ascending
# denominator order: the witness builders' deterministic search order.
_PQ_VALUES = tuple(dict.fromkeys(reduced(p, q) for q in range(1, 33) for p in range(1, q + 1)))


def arg_with_value(f: PiecewiseMonotoneFn, v: Fraction, avoid=None):
    """Some x with f(x)=v, optionally distinct from `avoid`; None if v is
    not attained (or only attained at `avoid`): ``arg_pair`` built as a
    Fraction."""
    k = arg_pair(f, v.numerator, v.denominator,
                 None if avoid is None else (avoid.numerator, avoid.denominator))
    return None if k is None else Fraction(*k)


def arg_pair(f: PiecewiseMonotoneFn, vn: int, vd: int, avoid=None):
    """``arg_with_value`` on pairs, v = vn/vd with vd > 0 and `avoid` a pair
    or None: on the first piece whose values hold v (``contains_pair``),
    the first of its closed lower end, its midpoint and its closed upper
    end for a constant piece, or x = (v - c)/s on a line."""

    def allowed(n, d):  # n/d != avoid
        return avoid is None or n * avoid[1] != avoid[0] * d

    for p, vals in zip(f.segments, f._values):
        if not vals.contains_pair(vn, vd):
            continue
        if not p.sn:
            d = p.domain
            if d.lo_closed and allowed(d.ln, d.ld):
                return d.ln, d.ld
            mid = _midpoint(d.ln, d.ld, d.hn, d.hd)
            if allowed(*mid):
                return mid
            if d.hi_closed and allowed(d.hn, d.hd):
                return d.hn, d.hd
        else:
            n, d = (vn * p.cd - p.cn * vd) * p.sd, vd * p.cd * p.sn
            if allowed(n, d):
                return reduced(n, d)
    return None


def _fractions(*pairs) -> tuple:
    """The values of the integer pairs `pairs`, as Fractions: a witness."""
    return tuple(Fraction(*k) for k in pairs)


# Interior probes per part in _dense_samples.
DENSE_PROBES = 4


def _dense_samples(s: IntervalSet) -> list:
    """Several interior points per part (plus closed endpoints), so that
    even a single open interval contributes multiple probes: reduced pairs,
    sorted by integer keys over the lcm of their denominators."""
    out = set()
    k = DENSE_PROBES + 1
    for p in s.parts:
        if p.lo_closed:
            out.add((p.ln, p.ld))
        if p.hi_closed:
            out.add((p.hn, p.hd))
        w = p.hn * p.ld - p.ln * p.hd  # (hi - lo) * ld * hd
        if w > 0:
            # lo + (hi - lo) * j/k = (k * ln * hd + j * w) / (k * ld * hd)
            base, den = k * p.ln * p.hd, k * p.ld * p.hd
            for j in range(1, k):
                out.add(reduced(base + j * w, den))
    return sorted_pairs(out)


def _plateau_pair(f: PiecewiseMonotoneFn, k: tuple):
    """(x1, x2) with x1 != x2 and f(x1) = f(x2) = w, as reduced pairs, for
    a value w in plateau_set(f) given as its reduced pair k, found once
    per function and value and kept in f's ``__dict__`` (``_plateau_pairs``,
    keyed by k), so only a function with a plateau gets the dict.  When
    the only piece taking w is a constant piece open at both ends,
    ``arg_pair`` finds its midpoint x1 alone; then x2 is halfway between
    the piece's lower end and x1."""
    pairs = f.__dict__.setdefault("_plateau_pairs", {})
    pair = pairs.get(k)
    if pair is None:
        x1 = arg_pair(f, *k)
        x2 = arg_pair(f, *k, x1)
        if x2 is None:
            d = next(p.domain for p in f.segments if p.domain.contains_pair(*x1))
            x2 = _midpoint(d.ln, d.ld, *x1)
        pair = pairs[k] = x1, x2
    return pair


# -- f's facts --------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class _Facts:
    """f's facts beyond pwfn's caches, built once per function (``_facts``)
    and kept for its life, so without an instance dict: f(0), f(1), f(1-)
    as reduced pairs, rule Z's a0 = inf{x : f(x) > 0} where 0 is a plateau
    value of a non-decreasing f and f(a0+) = 0 (else None), and f's shape.
    `kind` is "vanishing" for a non-increasing f that vanishes on (0,1],
    "undecided" for any other non-increasing f, "at one" for a plateau
    value f(1) = f(1-), "approached" for a plateau value f(1-) below f(1),
    and "full" otherwise.  A plateau shape holds arguments x1 != x2 taking
    f(1-), the cancellative and strictly monotone No, and the conditional
    cancellation No's note with ``{}`` for F's value."""

    f0: tuple
    f1: tuple
    f1minus: tuple
    kind: str
    a0: Optional[tuple] = None
    x1: Optional[Fraction] = None
    x2: Optional[Fraction] = None
    canc: Optional[Verdict] = None
    cc_note: str = ""


def _facts(f: PiecewiseMonotoneFn) -> _Facts:
    """f's ``_Facts``, cached on f on first use, outside its dataclass
    fields, as pwfn's per-function structure is (a record is never false)."""
    return f.__dict__.get("_facts") or f.__dict__.setdefault("_facts", _build_facts(f))


def _build_facts(f: PiecewiseMonotoneFn) -> _Facts:
    """f's ``_Facts``: the only place where the classifier evaluates f at
    0 or 1, or takes its limits there, on integer pairs."""
    f0, f1 = reduced(*eval_pair(f, 0, 1)), reduced(*eval_pair(f, 1, 1))
    f1minus = reduced(*limit_pair(f, 1, 1, "left")[0])
    if not f.nondecreasing:
        # a non-increasing f vanishes on (0,1] exactly when f(0+) = 0
        return _Facts(f0, f1, f1minus,
                      "vanishing" if not limit_pair(f, 0, 1, "right")[0][0] else "undecided")
    q = plateau_set(f)
    a0 = reduced(*_first_arg(f, 0, 1, False)) if q.contains_pair(0, 1) else None
    if a0 is not None and limit_pair(f, *a0, "right")[0][0]:
        a0 = None
    if not q.contains_pair(*f1minus):
        return _Facts(f0, f1, f1minus, "full", a0)
    # a plateau value f(1) is f(1-); with f(1) above f(1-), F must vanish off (1,1)
    kind, (x1, x2) = "at one", _fractions(*_plateau_pair(f, f1minus))
    if f1 != f1minus:
        kind, x1, x2 = "approached", x2, x1
    return _Facts(f0, f1, f1minus, kind, a0, x1, x2,
                  Verdict.no((ONE, x1, x2), note="repeated f value"),
                  f"F({x1},1)=F({x2},1)={{}}>0 with f({x1})=f({x2})={_shown(f1minus)}")


def check_degenerate(op: GeneratedOp, top):
    """Forced verdicts when the generated operation collapses; `top` is
    F(1,1)'s key (``GeneratedOp.t_finv``).

    Non-increasing f vanishing on (0,1] gives F identically 0; for
    non-decreasing f, a plateau value attained at 1 (or approached at 1
    with f(1) off the plateau) forces F to be zero away from (1,1) if the
    conditional cancellation law is to hold at all.  Returns a dict of
    every property but ``proper``, which ``classify`` decides for every f,
    or None when none of these shapes apply.  What depends on f alone, the
    shape, its plateau value and arguments, f(1) and the verdict parts
    they give, is read from f's record (``_facts``); per operation, only
    the probe F(x2,1) of a plateau value approached at 1 is evaluated, and
    the verdicts that read it or `top` are built.

    A plateau value w at 1, which f takes at x1 != x2, is decided from the
    key `probe` of F(x1,1) = F(x2,1), as F sees its arguments only through
    f: an exact 0 makes F vanish off (1,1); an exact positive value refutes
    conditional cancellation; an Approx decides nothing.
    """
    s = _facts(op.f)
    if s.kind == "full":
        return None
    if s.kind == "vanishing":
        return _vanishing_verdicts(top, "F identically 0", "f vanishes on (0,1]")
    if s.kind == "undecided":
        return _undecided("non-increasing f outside the vanishing case; use the oracle")
    if s.kind == "at one":
        probe, evidence, note = top, "F identically 0", "plateau value at 1 and F(1,1)=0"
    else:
        # F(x2, 1) = finv(T(f(x2), f(1))), and f(x2) = f(1-) is the plateau value
        probe, evidence, note = op.t_finv(*s.f1minus, *s.f1), "F vanishes off (1,1)", None
    if len(probe) > 2:
        return _undecided("degenerate shape undecided")
    if not probe[0]:
        return _vanishing_verdicts(top, evidence, note)
    out = _undecided("degenerate shape; use the oracle")
    out["conditionally_cancellative"] = Verdict.no(
        (s.x1, s.x2, ONE), note=s.cc_note.format(_shown(probe)))
    out["cancellative"] = out["strictly_monotone_op"] = s.canc
    return out


def _shown(k) -> str:
    """The value of the key k as text: a reduced pair as ``str(Fraction)``
    writes it, without building the Fraction, and an Approx as its own
    ``str``."""
    if len(k) > 2:
        return str(_value(k))
    return f"{k[0]}/{k[1]}" if k[1] != 1 else str(k[0])


# _undecided's verdicts per note, built once: a Verdict is frozen, so units share them
_UNDECIDED = {}


def _undecided(note) -> dict:
    """Unknown for every property but ``proper``, as a dict the caller may edit."""
    out = _UNDECIDED.get(note)
    if out is None:
        out = _UNDECIDED[note] = {p: Verdict.unknown("none", note=note)
                                  for p in PROPERTIES if p != "proper"}
    return dict(out)


# _vanishing_verdicts' verdicts but continuous per (evidence, note), and
# continuous's Yes, built once and shared as _UNDECIDED's are
_VANISHING = {}
_F_ZERO = Verdict.yes("F identically 0")


def _vanishing_verdicts(top, evidence, note):
    """F is 0 everywhere except possibly at (1,1), where its key is `top`."""
    out = _VANISHING.get((evidence, note))
    if out is None:
        half = Fraction(1, 2)
        canc = Verdict.no((ONE, ZERO, half), note="F(1,0)=F(1,1/2)=0")
        out = _VANISHING[evidence, note] = {
            "t_subnorm": Verdict.yes(evidence, note=note),
            "t_norm": Verdict.no((half,), note="F(1/2,1)=0 != 1/2"),
            "conditionally_cancellative": Verdict.yes(evidence, note=note),
            "cancellative": canc,
            "strictly_monotone_op": canc,
            "archimedean": Verdict.yes(evidence),
        }
    out = dict(out)
    out["continuous"] = _F_ZERO if top == (0, 1) else Verdict.no(
        (ONE, ONE), note=f"isolated positive value {_shown(top)} at (1,1)")
    return out


# proper's No when F(1,1) = 1 exactly, shared as _UNDECIDED's verdicts are
_PROPER_NO = Verdict.no((ONE, ONE), note="F(1,1)=1")


def _proper_verdict(op, top) -> Verdict:
    """Proper means F(1,1) < 1, for `top` its key: the operation cannot
    have neutral element 1.  An exact `top` is below 1 when its numerator
    is below its denominator; an Approx one when its centre plus its
    radius is, by ``key_diff``'s sign rule."""
    if len(top) == 2:
        if top[0] < top[1]:
            return Verdict.yes(f"F(1,1)={_shown(top)} < 1")
        return _PROPER_NO
    shown = f"{top[0] / top[1]:.12f}"
    d, r = key_diff(top, (1, 1))
    if d < -r:
        return Verdict.yes(f"F(1,1)={shown} < 1")
    if op.t.neutral_one and _facts(op.f).f1 == (1, 1):
        # T(1,1) = 1 exactly, so F(1,1) = finv(1) exactly, whatever T's radius
        n, d = op.finv_pair((1, 1))
        if n < d:
            return Verdict.yes(f"F(1,1)={_shown((n, d))} < 1")
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

    Returns their escape values (z_a, z_b): None where the inclusion
    holds, else the image value outside the target set that
    ``IntervalSet.is_subset_of`` reports, as a reduced pair; z_b is None
    when Q is empty.  Both are decided exactly via interval images, so
    only for the exact t-norm families (``t_image`` raises ValueError for
    the others).
    """
    low = IntervalSet.single(_nonempty(0, 1, *d.f0plus, True, True))
    z_a = t_image(t, d.m_minus_c, d.m).is_subset_of(d.m.union(low))[1]
    z_b = None if d.q.is_empty else t_image(t, d.q, d.m).is_subset_of(low)[1]
    return z_a, z_b


# -- gap-hull condition -----------------------------------------------------


def check_prop_sufficient(t: TNormDescriptor, d: Decomposition, mm: IntervalSet) -> Verdict:
    """The hull condition: T(union of H_k, M\\{0}) must avoid M\\C.  For
    each high gap [b_k,d_k] (those above the plateau maximum), H_k is the
    open hull of the kept boundary value together with the part of
    mm = T(M,M) in that gap."""
    hull = IntervalSet.empty()
    for k in d.k1:
        b, dd, c = d.s[k]
        inside = mm.intersect(IntervalSet.single(_nonempty(*b, *dd, True, True)))
        hull = hull.union(inside.union(IntervalSet.single(_point(*c))).o_hull())
    if hull.is_empty:
        return Verdict.yes("all gap hulls empty")
    m_nz = d.m.minus(IntervalSet.single(_point(0, 1)))
    bad = t_image(t, hull, m_nz).intersect(d.m_minus_c)
    if bad.is_empty:
        return Verdict.yes("gap-hull image avoids M\\C")
    return Verdict.no((bad.first_member(),), note=f"gap-hull image meets M\\C in {bad}")


# -- witness-set refutation for the associativity condition ------------------


L_RESOLUTION = 32


def l_set_check(t: TNormDescriptor, d: Decomposition) -> Verdict:
    """Exact refutation attempt of the full associativity condition over a
    finite witness set of y values (gap endpoints, kept values, range part
    endpoints, and the range's points on the grid of step 1/L_RESOLUTION).

    For each witness y and each pair of high gaps, builds the preimage
    sets {x in M : T(x,y) lands in the gap} / {... lands in M\\C}, their
    hulls, and intersects the resulting images with M\\C.  A nonempty
    exact intersection refutes associativity; otherwise Unknown at this
    resolution.  Preimages exist for the strict exact families only
    (``t_preimage`` raises ValueError for the others).
    """
    ys = {v for g in d.s for v in g if d.m.contains_pair(*v)}
    for p in d.m.parts:
        if p.lo_closed:
            ys.add((p.ln, p.ld))
        if p.hi_closed:
            ys.add((p.hn, p.hd))
    ys.update(v for v in (reduced(i, L_RESOLUTION) for i in range(L_RESOLUTION + 1))
              if d.m.contains_pair(*v))
    m_minus_c = d.m_minus_c
    kept = {k: IntervalSet.single(_point(*d.s[k][2])) for k in d.k1}  # {c_k} per high gap
    for yk in sorted_pairs(ys):
        if not yk[0]:
            continue
        m_y = IntervalSet.empty()
        for part in m_minus_c.parts:
            m_y = m_y.union(d.m.intersect(t_preimage(t, yk, part)))
        gaps = {}
        for k in d.k1:
            b, dd, _ = d.s[k]
            mk = d.m.intersect(t_preimage(t, yk, _nonempty(*b, *dd, True, True)))
            if not mk.is_empty:
                gaps[k] = mk
        for k, mk in gaps.items():
            i_k = t_image(t, mk, IntervalSet.single(_point(*yk))).union(kept[k]).o_hull()
            if i_k.is_empty or m_y.is_empty:
                continue
            bad = t_image(t, i_k, m_y).intersect(m_minus_c)
            if not bad.is_empty:
                return Verdict.no((Fraction(*yk), k, bad.first_member()),
                                  note="hull image at witness y meets M\\C")
        for k, mk in gaps.items():
            for l, ml in gaps.items():
                j = t_image(t, mk, kept[l]).union(t_image(t, kept[k], ml)).o_hull()
                bad = j.intersect(m_minus_c)
                if not bad.is_empty:
                    return Verdict.no((Fraction(*yk), k, l, bad.first_member()),
                                      note="cross-gap hull meets M\\C")
    return Verdict.unknown(f"witness set at resolution {L_RESOLUTION} found no refutation")


# -- cancellation -----------------------------------------------------------


def check_cancellative(op: GeneratedOp, d: Decomposition, mm: IntervalSet) -> Verdict:
    """Cancellative t-subnorm test for an exact T: f strictly increasing
    and mm = T(M,M) within M, both verified exactly."""
    f, t = op.f, op.t
    if not f.is_strictly_monotone:
        w = d.q.parts[0]  # a point, as every plateau value is
        x1, x2 = _fractions(*_plateau_pair(f, (w.ln, w.ld)))
        return Verdict.no((ONE, x1, x2),
                          note=f"f({x1})=f({x2})={w.lo}, so F(1,{x1})=F(1,{x2})")
    ok, z = mm.is_subset_of(d.m)
    if ok:
        return Verdict.yes("f strictly increasing", "T(M,M) within M")
    # (x, y1, y2) with F(x,y1)=F(x,y2), y1 != y2, x != 0
    witness = next((_fractions(x, y1, y2) for x, y1, y2, _ in _gap_collisions(op, d, d.m, z)
                    if x[0]), None)
    if witness is not None:
        return Verdict.no(witness,
                          note=f"image value {_shown(z)} in a range gap collapses "
                               "distinct arguments")
    return Verdict.unknown(
        "T(M,M) escapes M but no cancellation counterexample was "
        f"constructed (escape value {_shown(z)})")


def _gap_collisions(op, d: Decomposition, domain: IntervalSet, z: tuple):
    """Yield (x, y1, y2, a), reduced integer pairs, with y1 != y2 and
    F(x,y1) = F(x,y2) = a exactly, built from a t-norm image value z, a
    reduced pair, that falls in a range gap: f(y1) and f(y2) are taken
    from `domain` and sent into that gap by T(., f(x)).

    Only the strict exact families reach here, where F is symmetric, so
    the same collisions serve with x as the first or the second argument.
    z lies outside the range M, so some gap holds it.  The values v = f(x)
    and samples u = f(y) are pairs, T read by ``eval_pair``; each u gets
    its y and F(x, y) = finv(T(v, u)) once, when a pair first needs them.
    Distinct samples give distinct y."""
    t, f = op.t, op.f
    zn, zd = z
    b, dd, (cn, cd) = next(g for g in d.s if g[0][0] * zd <= zn * g[0][1]
                           and zn * g[1][1] <= g[1][0] * zd)
    gap = _nonempty(*b, *dd, True, True)
    for v in _PQ_VALUES:
        vn, vd = v
        if not d.m.contains_pair(vn, vd):
            continue
        us = [u for u in _dense_samples(domain.intersect(t_preimage(t, v, gap)))
              if (w := t.eval_pair(*u, vn, vd))[0] * cd != cn * w[1]][:6]
        if len(us) < 2:
            continue
        x = arg_pair(f, vn, vd)
        if x is None:
            continue
        ys, fs = [], [None] * len(us)
        for i in range(len(us)):
            for j in range(i + 1, len(us)):
                while len(ys) <= j:
                    ys.append(arg_pair(f, *us[len(ys)]))
                if ys[i] is None or ys[j] is None:
                    continue
                for k in (i, j):
                    if fs[k] is None:
                        fs[k] = op.t_finv(vn, vd, *us[k])
                if fs[i] == fs[j]:
                    yield x, ys[i], ys[j], fs[i]


def _cc_witness(op, d: Decomposition, which: str, z: tuple):
    """(x1, x2, y) violating the conditional cancellation law, i.e.
    F(x1,y)=F(x2,y)>0 with x1 != x2, from the escape value z, a reduced
    pair, of a failed inclusion condition: T(Q,M)'s for `which`
    "plateau", T(M\\C,M)'s for "gap"; verified by evaluation on the op's
    keys (``t_finv``).  Only runs for the strict exact families, so every
    key is a reduced pair."""
    t, f_pair = op.t, op.f_pair
    if which == "plateau":
        # z = T(w, v) > f(0+) with w = p.ln/p.ld a repeated value
        for p in d.q.parts:
            x1, x2 = _plateau_pair(op.f, (p.ln, p.ld))
            for v in t_solve_pairs(t, p.ln, p.ld, *z):
                if not d.m.contains_pair(*v):
                    continue
                y = arg_pair(op.f, *v)  # v is in the range M
                a1, a2 = (op.t_finv(*f_pair(x), *f_pair(y)) for x in (x1, x2))
                if a1 == a2 and a1[0] > 0:
                    return _fractions(x1, x2, y)
        return None
    return next((_fractions(x1, x2, y) for y, x1, x2, a in
                 _gap_collisions(op, d, d.m_minus_c, z) if a[0] > 0), None)


# -- continuity -------------------------------------------------------------


def _dir_limit(op: GeneratedOp, x0: tuple, c: tuple, side: str, approach: dict):
    """Exact lim F(x, y0) as x -> x0 from `side`, for f(y0) = c, with x0 and
    c reduced pairs and the limit an integer pair; None when not computable.
    `approach` maps (x0, side) to ``limit_pair(f, x0, side)``, filled as
    asked: it does not depend on c.

    Where neither f nor T(., c) is constant on that side, T(f(x), c)
    approaches its limit w strictly from `side`, so F's limit is finv's
    limit at w from that side, which the scan of f's pieces gives (f is
    non-decreasing here): finv(y) = inf{x : f(x) >= y} is left-continuous,
    so its limit from the left is finv(w), and its limit from the right is
    inf{x : f(x) > w}, which is 1 at w = 1."""
    if x0[0] == (0 if side == "left" else x0[1]):
        return None
    if c[0] == 0:
        return op.finv_pair((0, 1))
    v_const = approach.get((x0, side))
    if v_const is None:
        v_const = approach[x0, side] = limit_pair(op.f, *x0, side)
    v, const = v_const
    if const:
        return op.t_finv(*v, *c)
    (n, d), const = op.t.dir_limit(v, side, c)
    if const:
        return op.finv_pair(reduced(n, d))
    return _first_arg(op.f, n, d, side == "left")


def check_continuity(op: GeneratedOp) -> Verdict:
    """Continuity of F on [0,1]^2.

    For strictly increasing f with a strictly monotone continuous exact
    t-norm, F is continuous iff no window [T(f(x-),f(y-)), T(f(x+),f(y+))]
    meets Ran(f) in more than one point; the window only degenerates away
    from jumps of f, so a finite sweep over jump pairs and critical second
    arguments decides the property exactly.  Otherwise a search for
    exactly computed one-sided limit mismatches can refute continuity,
    and anything undecided stays Unknown.
    """
    f, t = op.f, op.t
    if t.lam is not None:  # the lambda construction
        segs = f.segments
        if (len(segs) == 1 and not segs[0].is_const
                and segs[0].slope == t.lam and segs[0].intercept == 0):
            return Verdict.yes(
                "scaled-generator composition equals the additively "
                "generated operation, which is continuous")
        return Verdict.unknown("non-canonical generator composition")

    jumps = f._jumps
    if (f.nondecreasing and f.is_strictly_monotone and not jumps
            and t.continuous):
        # finv is continuous on [0, f(1)] for continuous strictly
        # increasing f, so F inherits continuity from T
        return Verdict.yes("f continuous strictly increasing, T continuous")
    if f.nondecreasing and f.is_strictly_monotone and t.exact and t.strict:
        # strict implies continuous, so f has a jump here.  The jumps, the
        # critical arguments and the samples are reduced pairs, and each
        # window's ends are T's values on them, reduced
        m = decompose(f).m

        def window(a, b, v, w):  # [T(a, v), T(b, w)], with T(a, v) <= T(b, w)
            return _nonempty(*reduced(*t.eval_pair(*a, *v)), *reduced(*t.eval_pair(*b, *w)),
                             True, True)

        # jump x jump windows
        for (x1, a1, b1) in jumps:
            for (x2, a2, b2) in jumps:
                win = window(a1, b1, a2, b2)
                hit = m.intersect(IntervalSet.single(win))
                if hit.has_multiple_points():
                    return Verdict.no(_fractions(x1, x2),
                                      note=f"range meets [{win}] in {hit}")
        # jump x continuity-point windows: critical second arguments
        for (x1, a1, b1) in jumps:
            crits = set()
            for part in m.parts:
                for e in ((part.ln, part.ld), (part.hn, part.hd)):
                    for side_val in (a1, b1):
                        if side_val[0] > 0:
                            crits.update(t_solve_pairs(t, *side_val, *e))
            vs = sorted_pairs([c for c in crits if 0 < c[0] <= c[1]])
            samples = set(v for v in vs if m.contains_pair(*v))
            for i in range(len(vs) - 1):
                mid = m.intersect(IntervalSet.single(_span(*vs[i], *vs[i + 1], False, False)))
                if not mid.is_empty:
                    p = mid.parts[0]
                    samples.add(_midpoint(p.ln, p.ld, p.hn, p.hd))
            for p in m.parts:
                lo, hi = (p.ln, p.ld), (p.hn, p.hd)
                samples.update(x for x in (lo, hi, _midpoint(*lo, *hi))
                               if m.contains_pair(*x) and x[0] > 0)
            for v in sorted_pairs(samples):
                win = window(a1, b1, v, v)
                hit = m.intersect(IntervalSet.single(win))
                if hit.has_multiple_points():
                    return Verdict.no(_fractions(x1, arg_pair(f, *v)),
                                      note=f"range meets [{win}] in {hit}")
        return Verdict.yes("all discontinuity windows meet the range in "
                           "at most one point")

    if not t.exact:  # a generator family: lambda returned above
        return Verdict.unknown("inexact t-norm with a discontinuous or "
                               "non-injective generator function")

    if f.nondecreasing:
        v = _limit_search(op)
        if v is not None:
            return v
    return Verdict.unknown("no exact limit mismatch found; criterion "
                           "preconditions unmet")


def _limit_search(op: GeneratedOp):
    """``check_continuity``'s refutation search for non-decreasing f and an
    exact T: the first pair (px, py) at which a one-sided limit along the
    first argument differs from F(px, py), as a No, else None.

    The search runs on reduced integer pairs: f and F through the op's
    caches (``f_pair``, ``t_finv``), the one-sided limits of f by
    ``limit_pair``, of finv by the scan of f's pieces and of T by the
    family's ``dir_limit``; only a No builds Fractions, for its witness
    and note.  The limit and F(px, py) depend on py only through f(py), so
    a pair whose (px, f(py)) was checked before is skipped: it would give
    the values of that earlier pair, which matched, so the first mismatch
    is unchanged.  The candidate arguments are f's breakpoints, 1 among
    them, and, first arguments only, an x with f(x) = u for each solution
    u of T(u, f(y0)) = q, q a plateau value; each distinct (q, f(y0)) is
    solved once and each u looked up once."""
    f, t = op.f, op.t
    ys = f._breakpoints
    cs = {op.f_pair(k) for k in ys}
    xs = set(ys)
    for u in {u for q in decompose(f).q.parts for c in cs
              for u in t_solve_pairs(t, *c, q.ln, q.ld)}:
        xa = arg_pair(f, *u)
        if xa is not None:
            xs.add(xa)
    approach = {}
    seen = set()  # (px, f(py)) of the pairs checked, as reduced pairs
    for x0 in sorted_pairs(xs):
        for y0 in ys:
            for kx, ky in ((x0, y0), (y0, x0)):
                c = op.f_pair(ky)
                key = kx, c
                if key in seen:
                    continue
                seen.add(key)
                vn, vd = op.t_finv(*op.f_pair(kx), *c)
                for side in ("left", "right"):
                    lim = _dir_limit(op, kx, c, side, approach)
                    if lim is not None and lim[0] * vd != vn * lim[1]:
                        return Verdict.no(
                            (Fraction(*kx), Fraction(*ky)),
                            note=f"{side} limit {Fraction(*lim)} != value "
                                 f"{Fraction(vn, vd)} along the first argument")
    return None


# -- Archimedean ------------------------------------------------------------


# A No witness (x, y) must show the powers of x reaching an exact fixed
# point, none of them below y, within this many steps.
ARCH_WITNESS_STEPS = 1024


def check_archimedean(op: GeneratedOp) -> Verdict:
    """The Archimedean property: the powers x, F(x,x), F(F(x,x),x), ...
    of every x in (0,1) fall below every y in (0,1).  Decided by rules on
    f's jumps, for non-decreasing f outside ``check_degenerate``'s shapes,
    without running the powers.

    Write f(p-) for the left limit at p, f(1-) for the one at 1, and
    a0 = inf{x : f(x) > 0}.  Outside the degenerate shapes f(1-) is not a
    plateau value, so f(x) < f(1-) <= 1 for every x < 1.  F(a, x) =
    finv(T(f(a), f(x))) is non-decreasing in a, and at most
    finv(f(a)) <= a, so the powers of x fall.

    - Rule J, a jump that traps: a p in (0,1) with f(p) > f(p-) and
      lim T(f(p), v) > f(p-) as v rises to f(1-).  Then some x in [p,1)
      has f(x) close enough to f(1-) that v = T(f(p), f(x)) lies in
      (f(p-), f(p)], so F(p, x) = p; every power of x then stays at or
      above F(p, x) = p.  No, with the witness (x, p) for the x of
      ``_trap_witness``, re-checked here; on a generator family, whose F
      is not exact, Unknown.
    - Rule M, an idempotent point: a p in (0,1) with F(p, p) = p, whose
      powers stay at p.  For min this is every p of a rising line with
      f(p) > 0, and one always exists outside the degenerate shapes.  It
      runs for the exact families that do not shrink (below).  No.
    - Rule Z, a zero plateau: a0 > 0 and f(a0+) = 0.  Then f(x) > 0 for
      some x < 1, T has no zero divisors, and every power of x has a
      positive f value, so it lies above a0.  An exact fixed point does
      not certify it, so Unknown.
    - Otherwise Yes, when T shrinks (``TNormDescriptor.shrinks``): T(u, .)
      is strictly increasing for u > 0, T(u, c) <= u, and lim sup T(u, c)
      < v as u falls to v, for v > 0 and c < 1.
      Proof.  Let x in (0,1), c = f(x) < 1, and let the powers a_n fall to
      L > 0; c > 0, as c = 0 makes F(x, x) = finv(0) = 0.  If a_n = L
      from some n on, F(L, x) = L: then w = T(f(L), c) has finv(w) = L,
      so f(L) > 0 (else w = 0), w < f(L), and f(t) < w for every t < L,
      so f(L-) <= w < f(L): L is a jump in (0,1) with x in [L,1), and
      T(f(L), f(x)) >= f(L-) with f(x) < f(1-) puts rule J's limit above
      f(L-), as a shrinking T(f(L), .) is strictly increasing.
      Otherwise a_n > L for every n, so finv(T(f(a_n), c)) > L and
      f(L+) <= T(f(a_n), c), while f(a_n) falls to f(L+); then f(L+) > 0
      contradicts the lim sup, and f(L+) = 0 with every f(a_n) > 0 (else
      the next power is 0) makes L = a0 and f(a0+) = 0, rule Z.  So when
      no rule applies, L = 0 for every x.

    Any other family gets Unknown.  Rule J compares T exactly, through
    the family's ``left_limit_above``.  The guards, by f's kind, f(1-)
    and a0 are read from f's record (``_facts``), with no decomposition.
    """
    f, t, facts = op.f, op.t, _facts(op.f)
    if facts.kind in ("vanishing", "undecided"):
        return Verdict.unknown("the rules cover non-decreasing f")
    if facts.kind != "full":
        return Verdict.unknown("f(1-) is a plateau value: a degenerate shape")
    if not t.shrinks:
        p = _idempotent_point(op) if t.exact else None
        if p is None:
            return Verdict.unknown("T does not shrink and no exact idempotent "
                                   "point was found")
        return Verdict.no((p, p), note=f"F({p},{p})={p}, so the powers of {p} stay at {p}")
    # (p, f(p), f(p-)) at each trapping jump in (0,1), as pairs; T <= min
    # keeps the limit at or below f(p), so only a jump with f(p) > f(p-)
    # passes
    traps = [(p, op.f_pair(p), fpm) for p, fpm, _ in f._jumps
             if 0 < p[0] < p[1] and t.left_limit_above(op.f_pair(p), facts.f1minus, fpm)]
    if traps:
        at = Fraction(*traps[0][0])
        if not t.exact:
            return Verdict.unknown(
                f"the jump at {at} traps the powers, but an inexact F "
                "cannot show their fixed point")
        found = _trap_witness(op, traps)
        if found is None:
            return Verdict.unknown(
                f"the jump at {at} traps the powers, but no witness "
                f"stabilizes within {ARCH_WITNESS_STEPS} steps")
        x, p, v = found
        return Verdict.no((x, p), note=f"powers of {x} stabilize at {v}; "
                                       f"F({p},{x})={p} at the jump {p}")
    if facts.a0 is not None:
        a0 = _shown(facts.a0)
        return Verdict.unknown(
            f"f vanishes up to {a0} with f({a0}+)=0, so the powers stay "
            f"above {a0}; no fixed point certifies it")
    return Verdict.yes("no jump of f traps the powers", "no zero plateau ends "
                       "at a zero limit", "T shrinks positive values")


def _idempotent_point(op: GeneratedOp):
    """The first p in (0,1) with F(p, p) = p, in x order, among the closed
    lower ends of f's pieces and the midpoints of its lines, as pairs, for
    an exact family; None when none of them is."""
    for s in op.f.segments:
        d = s.domain
        for k in ([(d.ln, d.ld)] if d.lo_closed else []) + (
                [_midpoint(d.ln, d.ld, d.hn, d.hd)] if s.sn else []):
            if 0 < k[0] < k[1] and op.t_finv(*op.f_pair(k), *op.f_pair(k)) == k:
                return Fraction(*k)
    return None


# Halvings that move _trap_witness's least trapped candidate towards the
# least x that F(p, .) sends to p, and the nearest 1 - 2^-k it tries.
TRAP_HALVINGS = 16
TRAP_NEAR_ONE = 64


def _trap_witness(op: GeneratedOp, traps):
    """(x, p, v) for the rule-J jumps (p, f(p), f(p-)), reduced pairs, in
    `traps` of an exact family: an x in [p,1) with F(p, x) = p whose powers
    reach the exact fixed point v in the fewest steps, at most
    ``ARCH_WITNESS_STEPS``; None when no candidate x does.

    X = {x in [p,1) : F(p, x) = p} runs up to 1, as F(p, .) does not
    fall, and the powers of a smaller x are no larger, so the candidates
    lie near inf X.  For each p they are p, finv(v) and inf{x : f(x) > v}
    for the solutions v of T(v, f(p)) = f(p-), where F(p, .) reaches p,
    f's breakpoints in (p,1), and the midpoints between these points and
    1.  Where T(f(p), .) jumps over f(p-), no v solves it; then the least
    trapped candidate, or the first trapped 1 - 2^-k, moves towards inf X
    by halving.  The candidates found in X run in order of denominator,
    each capped at one step fewer than the best so far.

    It runs on reduced pairs, ordered by cross products and integer keys;
    a midpoint lies strictly between its neighbours, so the candidates need
    no sort of their own.  Only a best (x, p, v) is built of Fractions."""
    f, t = op.f, op.t
    best, cap = None, ARCH_WITNESS_STEPS
    for kp, fkp, fpm in traps:
        pn, pd = kp

        def trapped(k):  # F(p, k) = p
            return op.t_finv(*fkp, *op.f_pair(k)) == kp

        xs = {kp, *f._breakpoints}
        for v in t_solve_pairs(t, *fkp, *fpm):
            xs.update((op.finv_pair(v), reduced(*_first_arg(f, *v, False))))
        ends = sorted_pairs([x for x in xs if x[0] * pd >= pn * x[1] and x[0] < x[1]])
        cands = []
        for a, b in zip(ends, ends[1:] + [(1, 1)]):
            cands += [a, _midpoint(*a, *b)]
        hits = [x for x in cands if trapped(x)]
        hi = hits[0] if hits else next(
            (h for h in ((2 ** k - 1, 2 ** k) for k in range(1, TRAP_NEAR_ONE + 1))
             if trapped(h)), None)
        if hi is None:
            continue
        hits = set(hits) | {hi}
        lo = next((x for x in reversed(cands) if x[0] * hi[1] < hi[0] * x[1]), None)
        if lo is not None:  # a candidate outside X, as all below hi are
            for _ in range(TRAP_HALVINGS):
                mid = _midpoint(*lo, *hi)
                if trapped(mid):
                    hi = mid
                    hits.add(hi)
                else:
                    lo = mid
        for x in sorted(hits, key=lambda k: (k[1], k[0])):
            run = _stabilizes(op, x, kp, cap)
            if run is not None:
                best, cap = _fractions(x, kp, run[1]), run[0] - 1
                if not cap:
                    return best
    return best


def _stabilizes(op: GeneratedOp, x: tuple, y: tuple, cap: int):
    """(steps, v) when the powers of x reach the exact fixed point v within
    `cap` steps, none of them below y; else None.  x, y and v are reduced
    pairs, and the powers run on the op's ``t_finv``."""
    fx = op.f_pair(x)
    acc = x
    for steps in range(1, cap + 1):
        nxt = op.t_finv(*op.f_pair(acc), *fx)
        if nxt[0] * y[1] < y[0] * nxt[1]:
            return None
        if nxt == acc:
            return steps, nxt
        acc = nxt
    return None


# -- orchestration ----------------------------------------------------------


# The steps of the neutral-element and associativity search grids, and
# each grid's points k/n as reduced pairs, which every function's grid shares
NEUTRAL_GRID, ASSOC_GRID = 8, 6
_GRID_POINTS = {n: tuple(reduced(i, n) for i in range(n + 1)) for n in (NEUTRAL_GRID, ASSOC_GRID)}


def _search_grid(f: PiecewiseMonotoneFn, n: int) -> tuple:
    """The points k/n of ``_GRID_POINTS`` and f's breakpoints, ascending, as
    reduced pairs: the points of a search, built once per function and step
    and kept in f's ``__dict__`` (``_search_grids``).  Both lists ascend
    from 0 to 1, so one merge by cross products builds it, a point in both
    taken once, and both lists run out together, at 1."""
    grids = f.__dict__.setdefault("_search_grids", {})
    pts = grids.get(n)
    if pts is None:
        a, b, i, j, out = f._breakpoints, _GRID_POINTS[n], 0, 0, []
        while i < len(a):
            c = a[i][0] * b[j][1] - b[j][0] * a[i][1]  # the sign of a[i] - b[j]
            out.append(a[i] if c <= 0 else b[j])
            i += c <= 0
            j += c >= 0
        pts = grids[n] = tuple(out)
    return pts


def _assoc_search(op: GeneratedOp, pts):
    """The first (x, y, z) of pts^3, in lexicographic order, with
    F(F(x,y),z) != F(x,F(y,z)), for pts ascending reduced pairs, as a
    triple of them; None when there is none.  Only for a T
    associative and commutative on exact rationals, as product and
    hamacher2 are, the t-norms of ``_strict_exact_verdicts``.

    Points of one f value form a class, and the first failing triple is
    that of its classes' first points (``oracle.check_property``).  With
    a, b, s = f(x), f(y), f(z) and h = f∘finv, F(F(x,y),z) =
    finv(T(h(T(a,b)), s)) and F(x,F(y,z)) = finv(T(a, h(T(b,s)))): both
    are finv(T(a,T(b,s))) where h fixes T(a,b) and T(b,s), as T is
    associative.  So only class triples whose first or second pair moves,
    h(T) != T, are compared.  finv(T(w, .)) is evaluated whole, as one row
    (``GeneratedOp.row``), for a moved w that such a triple reads, and a
    fixed value's entry alone, by ``op.t_finv``.
    """
    f, f_pair, t_finv, t = op.f, op.f_pair, op.t_finv, op.t.eval_pair
    first, fs = [], []  # each class's first point and f value a_c
    for p in pts:
        a = f_pair(p)
        if a not in fs:
            first.append(p)
            fs.append(a)
    n = len(fs)
    ws = [[None] * n for _ in range(n)]  # ws[c][d] = h(T(a_c, a_d))
    moves = [[False] * n for _ in range(n)]
    for c, (an, ad) in enumerate(fs):  # each pair once, as T is commutative
        ts = [t(an, ad, *b) for b in fs[c:]]
        for d, u, (p, q) in zip(range(c, n), _first_args(f, ts, True), ts):
            w = ws[c][d] = ws[d][c] = f_pair(reduced(*u))
            moves[c][d] = moves[d][c] = w[0] * q != p * w[1]
    movers = [[e for e in range(n) if m[e]] for m in moves]
    rows = {}  # a moved value w -> [finv(T(w, a_e)) for each class e]
    row = rows.get

    def new_row(w):
        r = rows[w] = op.row(w, fs)
        return r

    for c in range(n):
        for d in range(n):
            w, ws_d, moves_d = ws[c][d], ws[d], moves[d]
            if moves[c][d]:
                lhs = row(w) or new_row(w)
                for e in range(n):
                    v = ws_d[e]
                    if lhs[e] != ((row(v) or new_row(v))[c] if moves_d[e]
                                  else t_finv(*fs[c], *v)):
                        return first[c], first[d], first[e]
            else:
                for e in movers[d]:
                    v = ws_d[e]
                    if t_finv(*w, *fs[e]) != (row(v) or new_row(v))[c]:
                        return first[c], first[d], first[e]
    return None


def _neutral_search(op: GeneratedOp, pts):
    """The first x of pts, reduced pairs, with F(x,1) != x beyond the error
    radius, and F(x,1)'s key; None when there is none.  F(x,1) is read as
    its key through the op's caches (``f_pair``, ``t_finv``), f(1) from f's
    record: a key other than x itself is an exact value that differs from
    x, or an Approx, which ``key_diff`` compares with x."""
    c = _facts(op.f).f1
    for x in pts:
        v = op.t_finv(*op.f_pair(x), *c)
        if v != x:
            d, r = key_diff(v, x)
            if abs(d) > r:
                return x, v
    return None


# The properties that the cancellation routes decide.
_ROUTED = ("t_subnorm", "conditionally_cancellative", "cancellative",
           "strictly_monotone_op")


def classify(f: PiecewiseMonotoneFn, t: TNormDescriptor) -> ClassificationReport:
    """Full property report for F(x,y) = finv(T(f(x),f(y))).

    This is where the routes are chosen: the inclusion conditions run for
    the exact families, the strict exact route for product and hamacher2,
    and a corollary route for the other strict families.
    """
    op = make_op(f, t)
    facts = _facts(f)
    top = op.t_finv(*facts.f1, *facts.f1)  # F(1,1)'s key
    log = []
    props = check_degenerate(op, top)
    if props is not None:
        log.append(("degenerate shape", "", "forced classification"))
    else:
        props = {"archimedean": check_archimedean(op),
                 "continuous": check_continuity(op)}
        if props["continuous"].status == "yes":
            log.append(("continuity",
                        "Archimedean and conditional cancellation coincide for "
                        "continuous t-subnorms", "cross-check available"))
        if t.exact:
            d = decompose(f)  # outside the degenerate shapes f is non-decreasing
            z_a, z_b = check_inclusion_conditions(t, d)
            m, c, q, f0plus = d.text
            log.append(("T(M\\C,M) within M plus [0,f(0+)]", f"M={m} C={c} f(0+)={f0plus}",
                        "yes" if z_a is None else "no"))
            log.append(("T(Q,M) within [0,f(0+)]", f"Q={q}", "yes" if z_b is None else "no"))
        if t.exact and t.strict:
            props.update(_strict_exact_verdicts(op, d, z_a, z_b, log))
        elif t.strict and f.is_strictly_monotone and not f._jumps and not facts.f0[0]:
            # corollary route for strict but inexact families
            props.update(dict.fromkeys(_ROUTED, Verdict.yes(
                "f continuous strictly increasing with f(0)=0",
                "T strictly monotone and continuous")))
        else:
            props.update(dict.fromkeys(_ROUTED, Verdict.unknown(
                "preconditions unmet: t-norm not strictly monotone and "
                "continuous with exact evaluation; run the oracle")))
        props["t_norm"] = _t_norm_verdict(op, props)
        props = {p: props[p] for p in PROPERTIES if p != "proper"}
    # check_degenerate's dicts come in PROPERTIES order already, and
    # proper is last
    props["proper"] = _proper_verdict(op, top)
    return ClassificationReport(props, log, op)


def _strict_exact_verdicts(op, d: Decomposition, z_a, z_b, log) -> dict:
    """The properties in ``_ROUTED`` for product and hamacher2, from the
    escape values z_a and z_b of the two inclusion conditions (None where
    one holds); appends the conditions it checks to `log`.  t_subnorm's
    No comes from ``_assoc_search``, which needs T associative; it only
    refutes, so a None leaves Unknown or ``l_set_check``, never a Yes."""
    f, t = op.f, op.t
    if z_a is None and z_b is None:
        cc = Verdict.yes("T(M\\C,M) within M plus [0,f(0+)]", "T(Q,M) within [0,f(0+)]")
    else:
        z, which = (z_b, "plateau") if z_b is not None else (z_a, "gap")
        triple = _cc_witness(op, d, which, z)
        if triple is not None:
            x1, x2, y = triple
            cc = Verdict.no(triple, note=f"F({x1},{y})=F({x2},{y})>0")
        else:
            cc = Verdict.unknown(f"inclusion fails at {_shown(z)} but no argument-space "
                                 "witness was constructed")

    mm = t_image(t, d.m, d.m)
    canc = check_cancellative(op, d, mm)
    hk = check_prop_sufficient(t, d, mm)
    log.append(("gap-hull condition", f"K1={d.k1}", hk.status))
    if canc.status == "yes":
        ts = Verdict.yes("cancellative route")
    elif cc.status == "yes" and hk.status == "yes":
        ts = Verdict.yes("gap-hull condition", "both inclusion conditions")
    elif cc.status != "yes" and f.is_strictly_monotone and hk.status == "yes":
        ts = Verdict.yes("gap-hull condition", note="f strictly increasing")
    else:
        triple = _assoc_search(op, _search_grid(f, ASSOC_GRID))
        if triple is not None:
            ts = Verdict.no(_fractions(*triple), note="associativity fails")
        elif cc.status != "yes":
            ts = Verdict.unknown("no sufficient route applies; run the oracle")
        elif _facts(f).f1 == (1, 1):
            ts = Verdict.unknown(
                "gap-hull condition refuted (necessary when f(1)=1) but no "
                "associativity counterexample found on the search grid",
                note=f"condition witness {hk.witness}")
        else:
            # the gap-hull condition fails (hk is No); the witness set
            # may refute associativity, but the grid above found no triple
            ts = l_set_check(t, d)
            log.append(("witness-set refutation", "", ts.status))
            if ts.status == "no":
                ts = Verdict.unknown(
                    "refutation found in the witness set but no "
                    "associativity counterexample on the search grid",
                    note=f"witness {ts.witness}")
    return {"conditionally_cancellative": cc, "cancellative": canc,
            "strictly_monotone_op": canc, "t_subnorm": ts}


def _t_norm_verdict(op, props) -> Verdict:
    f, t = op.f, op.t
    bad = _neutral_search(op, _search_grid(f, NEUTRAL_GRID))
    if bad is not None:
        x, v = Fraction(*bad[0]), bad[1]
        return Verdict.no((x, ONE), note=f"F({x},1)={_shown(v[:2])} != {x}")
    ts = props["t_subnorm"]
    if ts.status == "no":
        return Verdict.no(ts.witness, note="not a t-subnorm")
    if (ts.status == "yes" and f.is_strictly_monotone
            and _facts(f).f1 == (1, 1) and t.neutral_one):
        return Verdict.yes("t-subnorm with neutral element 1",
                           note="f strictly increasing onto 1")
    return Verdict.unknown("neutral element holds on the grid but no "
                           "theorem route confirms it")


# -- rendering --------------------------------------------------------------


_STATUS_TEXT = {"yes": "Yes", "no": "No", "unknown": "Unknown"}


def decomposition_fields(d: Decomposition) -> list:
    """The decomposition as (key, value) pairs, in display order, each
    value of d's pairs shown as a Fraction; M, C, Q and f(0+) as d holds
    their text (``Decomposition.text``)."""
    m, c, q, f0plus = d.text
    return [
        ("M", m),
        ("S", " ".join("[{},{}]:c={}".format(*_fractions(*g)) for g in d.s)),
        ("C", c),
        ("Q", q),
        ("f0plus", f0plus),
        ("f1minus", str(Fraction(*d.f1minus))),
        ("tau", str(Fraction(*d.tau))),
        ("upsilon", str(Fraction(*d.upsilon))),
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
