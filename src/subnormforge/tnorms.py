"""T-norm families, one class each: exact evaluation on rationals where
possible, interval images for the exact families, and the error-radius
values (``Approx``) of the additive-generator families.

Every family evaluates T(a/b, c/d) on integers (``eval_pair``) and returns
the key of the value (``_key``): a pair (n, d) with d > 0 for an exact
value, and for an ``Approx`` its centre's reduced pair followed by its
radius's, four ints.  ``t_eval`` builds the value of that key
(``_value``), a Fraction or an Approx, after a domain check that compares
numerators with denominators.  ``key_diff`` compares two keys, exact or
not, by integer cross products.  Box images and preimages read the
``Interval``s' pairs and build their results from pairs, and
``t_solve_pairs`` takes each family's solution candidates as pairs
(``solve_candidates``) and checks them by ``eval_pair``; ``t_solve_x``
builds its solutions as Fractions.

The generator families (``Generator`` and ``Lambda``) evaluate their
closed form min(1, xy·κ), with κ = e^(-g(1)) / λ, on the pairs of κ and
the arguments: κ is exact for neglog, and for one-minus-log it holds a
rational just below 1/e.  Each value off a zero argument (``Generator``)
or the boundary of the unit square (``Lambda``) is the key of an
``Approx`` of radius ``RADIUS`` around that rational centre
(``_GeneratorFamily``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .intervals import Interval, IntervalSet, ONE, ZERO, _span, frac, parse_rational, reduced
from .pwfn import DomainError


@dataclass(frozen=True)
class Approx:
    """A high-precision value with a conservative error radius."""

    value: Fraction
    radius: Fraction

    def __float__(self):
        return float(self.value)


def _key(v) -> tuple:
    """The key of value v: (numerator, denominator) after ``frac``, which
    reduces it (so 0, Fraction(0, 5) and "0" share one) and raises
    TypeError for a float; for an ``Approx``, its centre's pair followed by
    its radius's."""
    if isinstance(v, Approx):
        c, r = v.value, v.radius
        return c.numerator, c.denominator, r.numerator, r.denominator
    v = frac(v)
    return v.numerator, v.denominator


def _value(k: tuple):
    """The value of key k: a ``Fraction``, or an ``Approx`` for four ints."""
    if len(k) == 2:
        return Fraction(*k)
    return Approx(Fraction(k[0], k[1]), Fraction(k[2], k[3]))


def key_diff(a: tuple, b: tuple) -> tuple:
    """(d, r), ints, with a - b in [(d - r)/D, (d + r)/D] for some D > 0,
    for the values of keys a and b (``_key``), exact or Approx: d/D is the
    difference of the centres and r/D the sum of the radii, over the
    product D of the denominators.

    Every comparison of values that may be Approx is a sign test on d
    against r; the caller picks the boundary rule.  An exact value has
    radius 0, so key_diff(k, (0, 1)) has the signs of k's centre and
    radius, and (0, 0) means that a and b are equal exact values.
    """
    rn, rd = a[2:] or (0, 1)  # an exact key's radius is 0/1
    sn, sd = b[2:] or (0, 1)
    return (a[0] * b[1] - b[0] * a[1]) * rd * sd, (rn * sd + sn * rd) * a[1] * b[1]


# the error radius that every inexact value of a generator family carries,
# and its pair
RADIUS = Fraction(1, 10 ** 25)
_RADIUS_PAIR = RADIUS.numerator, RADIUS.denominator


# -- families ---------------------------------------------------------------

HALF = Fraction(1, 2)


def _box_image_mono(phi, A: Interval, B: Interval) -> Interval:
    """Image of a box under a continuous t-norm branch that is strictly
    increasing in each argument on positive arguments and vanishes only
    when an argument vanishes.  phi is the branch on integer pairs, as
    ``eval_pair`` is, applied to the corners' pairs, and the image's ends
    are those pairs reduced."""
    lo, hi = phi(A.ln, A.ld, B.ln, B.ld), phi(A.hn, A.hd, B.hn, B.hd)
    lo_att = (A.lo_closed and B.lo_closed) or (
        lo[0] == 0 and ((A.ln == 0 and A.lo_closed) or (B.ln == 0 and B.lo_closed))
    )
    hi_att = (A.hi_closed and B.hi_closed) or hi[0] == 0
    iv = _span(*reduced(*lo), *reduced(*hi), lo_att, hi_att)
    if iv is None:
        raise AssertionError("inconsistent box image")  # degenerate unattained point
    return iv


@dataclass(frozen=True)
class TNormDescriptor:
    """A t-norm family, one subclass each, equal when family and parameters
    are.  The flags are class attributes; each family owns ``eval_pair``
    (see above) and, if exact, its box image, its solution candidates and
    its one-sided limits.  The defaults fit an exact family
    that is continuous and strictly increasing in each argument, with
    neutral element 1.

    ``shrinks`` says that T(u, .) is strictly increasing for u > 0, that
    T(u, c) <= u, and that lim sup T(u, c) < v as u falls to v, for every
    v > 0 and c < 1: what the Archimedean route's proof uses
    (``classify.check_archimedean``).  min lacks it, as min(v, c) = v for
    v <= c."""

    exact = True
    continuous = True
    strict = True  # continuous and strictly monotone
    neutral_one = True
    shrinks = True
    lam = None  # the scale of the lambda construction

    def __str__(self) -> str:
        return self.name

    def box_image(self, A: Interval, B: Interval) -> list:
        """T(A,B) for one box, as a list of intervals."""
        return [_box_image_mono(self.eval_pair, A, B)]

    def dir_limit(self, v: tuple, side: str, c: tuple) -> tuple:
        """(lim T(u,c) as u -> v from `side`, whether T(u,c) is constant
        for u on that side of v), for an exact family, with v, c and the
        limit as integer pairs (n, d), d > 0, as ``eval_pair`` takes them."""
        return self.eval_pair(*v, *c), False

    def left_limit_above(self, u: tuple, v: tuple, z: tuple) -> bool:
        """Whether lim T(u, w) as w rises to v exceeds z, decided exactly,
        for u, v and z integer pairs (n, d), d > 0; T is symmetric, so this
        is ``dir_limit`` from the left with c = u."""
        (n, d), _ = self.dir_limit(v, "left", u)
        return n * z[1] > z[0] * d


class Product(TNormDescriptor):
    name = "product"

    def eval_pair(self, a: int, b: int, c: int, d: int) -> tuple:
        """ac/(bd) for x = a/b and y = c/d."""
        return a * c, b * d

    def solve_candidates(self, yn: int, yd: int, zn: int, zd: int) -> list:
        """x = z/y."""
        return [(zn * yd, zd * yn)]


class Hamacher2(TNormDescriptor):
    name = "hamacher2"

    def eval_pair(self, a: int, b: int, c: int, d: int) -> tuple:
        """xy/(2 - x - y + xy) = ac/(2bd - ad - bc + ac) for x = a/b and
        y = c/d, whose denominator is bd((1-x)(1-y) + 1) > 0."""
        ac = a * c
        return ac, 2 * b * d - a * d - b * c + ac

    def solve_candidates(self, yn: int, yd: int, zn: int, zd: int) -> list:
        """x = z(2 - y)/(y + z - zy), whose denominator is y + z(1 - y) > 0."""
        return [(zn * (2 * yd - yn), yn * zd + zn * yd - zn * yn)]


class Minimum(TNormDescriptor):
    name = "min"
    strict = False
    shrinks = False

    def eval_pair(self, a: int, b: int, c: int, d: int) -> tuple:
        """The lesser of a/b and c/d, by the sign of ad - cb."""
        return (a, b) if a * d <= c * b else (c, d)

    def box_image(self, A: Interval, B: Interval) -> list:
        # each end is the lesser of the two ends, found by the sign of a
        # cross product; on a tie the lower end is closed if either is, the
        # upper end only if both are
        c = A.ln * B.ld - B.ln * A.ld  # the sign of A.lo - B.lo
        a = A if c <= 0 else B
        lo_closed = a.lo_closed if c else A.lo_closed or B.lo_closed
        c = A.hn * B.hd - B.hn * A.hd  # the sign of A.hi - B.hi
        b = A if c <= 0 else B
        hi_closed = b.hi_closed if c else A.hi_closed and B.hi_closed
        return [_span(a.ln, a.ld, b.hn, b.hd, lo_closed, hi_closed)]

    def solve_candidates(self, yn: int, yd: int, zn: int, zd: int) -> list:
        """z, y, 1 and (y + 1)/2."""
        return [(zn, zd), (yn, yd), (1, 1), (yn + yd, 2 * yd)]

    def dir_limit(self, v: tuple, side: str, c: tuple) -> tuple:
        # min(u,c) = c for every u near v once c < v, and for u > v once c = v;
        # s has the sign of c - v
        s = c[0] * v[1] - v[0] * c[1]
        return self.eval_pair(*v, *c), s < 0 or (s == 0 and side == "right")


_LOWER_HALF = Interval.closed(0, HALF)
_UPPER_HALF = Interval.make(HALF, 1, False, True)


class Halfprod(TNormDescriptor):
    """xy/2 on [0,1/2]^2 and xy elsewhere: commutative, strictly monotone
    and bounded by min, but neither continuous nor associative."""

    name = "halfprod"
    continuous = False
    strict = False

    def eval_pair(self, a: int, b: int, c: int, d: int) -> tuple:
        """ac/(2bd) when 2a <= b and 2c <= d (x, y <= 1/2), else ac/(bd),
        for x = a/b and y = c/d."""
        if 2 * a <= b and 2 * c <= d:
            return a * c, 2 * b * d
        return a * c, b * d

    def box_image(self, A: Interval, B: Interval) -> list:
        # split along the branch boundary.  Each branch keeps its own
        # formula: a sub-box open at 1/2 takes the limit of xy there, where
        # eval at 1/2 would give xy/2
        a_lo, a_hi = A.intersect(_LOWER_HALF), A.intersect(_UPPER_HALF)
        b_lo, b_hi = B.intersect(_LOWER_HALF), B.intersect(_UPPER_HALF)
        out = []
        if a_lo and b_lo:
            out.append(_box_image_mono(lambda a, b, c, d: (a * c, 2 * b * d), a_lo, b_lo))
        for A2, B2 in ((a_lo, b_hi), (a_hi, b_lo), (a_hi, b_hi)):
            if A2 and B2:
                out.append(_box_image_mono(PRODUCT.eval_pair, A2, B2))
        return out

    def solve_candidates(self, yn: int, yd: int, zn: int, zd: int) -> list:
        """x = 2z/y on the halved branch and z/y on the plain one."""
        return [(2 * zn * yd, zd * yn), (zn * yd, zd * yn)]

    def dir_limit(self, v: tuple, side: str, c: tuple) -> tuple:
        # just above 1/2 the plain-product branch takes over; for c = 0 its
        # limit c/2 is T(1/2, c) = 0, so c > 0 need not be asked
        (a, b), (m, n) = v, c
        if side == "right" and 2 * a == b and 2 * m <= n:
            return (m, 2 * n), False
        return super().dir_limit(v, side, c)


PRODUCT = Product()
MINIMUM = Minimum()
HAMACHER2 = Hamacher2()
HALFPROD = Halfprod()


# -- the additive-generator families ---------------------------------------

# name: g(1), for the registered generators g(x) = g(1) - ln x
_GENERATORS = {"neglog": 0, "one-minus-log": 1}


@dataclass(frozen=True)
class GeneratorSpec:
    """A registered decreasing generator g:[0,1]->[0,inf] with g(0)=inf,
    g(x) = g(1) - ln x; the registry is closed."""

    name: str

    def __post_init__(self):
        if self.name not in _GENERATORS:
            raise ValueError(f"unknown generator {self.name!r}")

    @property
    def g1_zero(self) -> bool:
        """Whether g(1) = 0, i.e. the generated operation has neutral 1."""
        return _GENERATORS[self.name] == 0


def _e_sums():
    """(s_n, 1/(n n!)) for n = 1, 2, ...: the partial sums s_n = 1/0! +
    ... + 1/n! of e, which satisfy s_n < e < s_n + 1/(n n!)."""
    s, term, n = Fraction(2), Fraction(1), 1  # s_1 and 1/1!
    while True:
        yield s, term / n
        n += 1
        term /= n
        s += term


def _e_below(r: Fraction) -> bool:
    """Whether e < r, decided exactly from ``_e_sums``: e is irrational, so
    refining them until r falls outside (s_n, s_n + 1/(n n!)) always ends."""
    for s, w in _e_sums():
        if not s < r < s + w:
            return r > s


# 1/E for the first upper bound E = s_n + w of e with w = 1/(n n!) <= RADIUS
# (n = 24): a rational below 1/e with 1 - e/E < RADIUS (``_GeneratorFamily``)
_INV_E = next(1 / (s + w) for s, w in _e_sums() if w <= RADIUS)


class _GeneratorFamily(TNormDescriptor):
    """A family built on the registered generator ``gen``.

    g(x) = k - ln x with k = g(1), so g^(-1)(g(x) + g(y)) = xy e^(-k), and
    inside the unit square T is min(1, xy e^(-k) / lam), with lam = 1 for
    ``Generator``, whose ``lam`` is None.  There ``eval_pair`` returns the
    key of an Approx of radius RADIUS (``_inside``) whose centre is
    min(1, xy·kappa), kappa = e^(-k) / lam taken as ``_INV_E`` / lam for
    one-minus-log (k = 1) and exactly 1 / lam for neglog (k = 0), computed
    on the pairs of x, y and kappa.  The bound: with a = xy e^(-k) / lam and
    e^(-1) replaced by 1/E, E = s_n + w > e, the centre is min(1, a e/E)
    and T is min(1, a).  For a <= 1, T - centre = a (1 - e/E); for a > 1,
    T = 1 and the centre is at least e/E.  So 0 <= T - centre <= 1 - e/E
    = (E - e)/E < w/E < w <= RADIUS, whatever lam is: a tiny lam from
    ``lambda_decompose`` included.  As ``_INV_E`` < 1/e, the clamp at 1
    binds only for a ``Lambda`` that is not a t-norm.  ``left_limit_above``
    decides T's order exactly from the closed form."""

    exact = False

    @cached_property
    def kappa(self) -> tuple:
        """e^(-g(1)) / lam as a reduced pair: exact for neglog, from
        ``_INV_E`` for one-minus-log."""
        k = (ONE if self.gen.g1_zero else _INV_E) / (self.lam or 1)
        return k.numerator, k.denominator

    def _inside(self, a: int, b: int, c: int, d: int) -> tuple:
        """The key of T(a/b, c/d) inside the unit square: the reduced pair
        of min(1, ac·kappa/(bd)) and RADIUS's."""
        kn, kd = self.kappa
        e = b * d * kd
        return (*reduced(min(a * c * kn, e), e), *_RADIUS_PAIR)

    def left_limit_above(self, u: tuple, v: tuple, z: tuple) -> bool:
        """Whether lim T(u, w) as w rises to v exceeds z, for integer pairs
        u in [0,1), v in (0,1] and z in [0,1): the closed form w = uv / lam
        at v, the clamp aside as z < 1, against z; with g(1) = 1 the form is
        w/e, which exceeds z > 0 exactly when e < w/z."""
        lam = self.lam or ONE
        wn, wd = u[0] * v[0] * lam.denominator, u[1] * v[1] * lam.numerator
        if self.gen.g1_zero or not z[0]:
            return wn * z[1] > z[0] * wd
        return _e_below(Fraction(wn * z[1], wd * z[0]))


@dataclass(frozen=True)
class Generator(_GeneratorFamily):
    """The additively generated operation g^(-1)(g(x)+g(y)); a strict
    t-norm when g is a bijection onto [0,inf] (g(1)=0)."""

    gen: GeneratorSpec

    @property
    def neutral_one(self) -> bool:
        return self.gen.g1_zero

    def eval_pair(self, a: int, b: int, c: int, d: int) -> tuple:
        """The key of T(a/b, c/d): exactly 0 when an argument is 0, else
        inexact."""
        if not a or not c:
            return 0, 1
        return self._inside(a, b, c, d)

    def __str__(self) -> str:
        return f"gen:{self.gen.name}"


@dataclass(frozen=True)
class Lambda(_GeneratorFamily):
    """The strictly monotone operation built from the scaled generator
    g(x/lam): min on the boundary of the unit square and
    lam * g^(-1)(g(x/lam) + g(y/lam)) inside."""

    gen: GeneratorSpec
    lam: Fraction = field()  # no default: the base's lam = None is not one
    continuous = False
    strict = False

    def __post_init__(self):
        if not (0 < self.lam < 1):
            raise ValueError(f"lambda must lie in (0,1), got {self.lam}")

    @property
    def shrinks(self) -> bool:
        """Inside the unit square T is uc / (lam e^g(1)), below u for c < 1
        once lam e^g(1) >= 1, and min on its boundary: so T shrinks exactly
        when it is a t-norm."""
        return self.is_t_norm

    def eval_pair(self, a: int, b: int, c: int, d: int) -> tuple:
        """The key of T(a/b, c/d): exactly min(x, y) on the boundary of the
        unit square (an argument's numerator 0 or its denominator), else
        inexact."""
        if not a or a == b or not c or c == d:
            return (a, b) if a * d <= c * b else (c, d)
        return self._inside(a, b, c, d)

    @property
    def is_t_norm(self) -> bool:
        """Whether the operation is a t-norm.  Inside the unit square it is
        min(1, xy e^(-g(1)) / lam), at most min(x, y) only when lam e^g(1) >= 1:
        never for neglog (g(1) = 0, lam < 1); for one-minus-log when lam e >= 1."""
        if self.gen.g1_zero:
            return False
        return not _e_below(1 / self.lam)  # lam e != 1, as e is irrational

    def __str__(self) -> str:
        return f"lambda:{self.gen.name}:{self.lam}"


def parse_tnorm(desc: str) -> TNormDescriptor:
    desc = desc.strip()
    plain = {str(t): t for t in (PRODUCT, MINIMUM, HAMACHER2, HALFPROD)}
    if desc in plain:
        return plain[desc]
    if desc.startswith("gen:"):
        return Generator(GeneratorSpec(desc[4:]))
    if desc.startswith("lambda:"):
        try:
            _, gen, lam = desc.split(":")
            lam = parse_rational(lam)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad lambda descriptor {desc!r}") from None
        t = Lambda(GeneratorSpec(gen), lam)
        if not t.is_t_norm:
            raise ValueError(f"{desc!r} is not a t-norm: it needs one-minus-log, lambda >= 1/e")
        return t
    raise ValueError(f"unknown t-norm descriptor {desc!r}")


# -- evaluation -------------------------------------------------------------


def t_eval(t: TNormDescriptor, x, y):
    """T(x,y): a Fraction for exact families, an Approx otherwise."""
    x, y = frac(x), frac(y)
    if not (0 <= x.numerator <= x.denominator and 0 <= y.numerator <= y.denominator):
        raise DomainError(f"t-norm arguments ({x},{y}) outside [0,1]^2")
    return _value(t.eval_pair(x.numerator, x.denominator, y.numerator, y.denominator))


def t_power(t: TNormDescriptor, x, n: int):
    """n-fold self-composition x_T^(n), left-associated."""
    if n < 1:
        raise ValueError("n must be >= 1")
    x = frac(x)
    acc = x
    radius = ZERO
    for _ in range(n - 1):
        r = t_eval(t, acc, x)
        if isinstance(r, Approx):
            acc, radius = r.value, radius + r.radius
        else:
            acc = r
    if radius:
        return Approx(acc, radius)
    return acc


# -- interval images and solutions (exact families only) ----------------------


def t_image(t: TNormDescriptor, a: IntervalSet, b: IntervalSet) -> IntervalSet:
    """Exact image T(A,B) = {T(x,y) | x in A, y in B}."""
    if not t.exact:
        raise ValueError("interval images are only available for exact families")
    return IntervalSet.of([iv for A in a.parts for B in b.parts
                           for iv in t.box_image(A, B)])


def t_solve_x(t: TNormDescriptor, y: Fraction, z: Fraction) -> list:
    """Verified solutions x in [0,1] of T(x,y) = z for exact families, for
    y and z in [0,1], in the order of the family's candidates:
    ``t_solve_pairs`` built as Fractions."""
    if not t.exact:
        return []
    return [Fraction(*k) for k in t_solve_pairs(t, y.numerator, y.denominator,
                                                z.numerator, z.denominator)]


def t_solve_pairs(t: TNormDescriptor, yn: int, yd: int, zn: int, zd: int) -> list:
    """``t_solve_x`` on integer pairs, for an exact family and y = yn/yd,
    z = zn/zd with positive denominators: each candidate is checked by the
    family's ``eval_pair``, and each solution is a reduced pair."""
    if yn:
        candidates = t.solve_candidates(yn, yd, zn, zd)  # positive denominators for y > 0
    elif not zn:
        candidates = [(0, 1), (1, 2), (1, 1)]
    else:
        return []
    out = []
    for xn, xd in candidates:
        if 0 <= xn <= xd:
            n, d = t.eval_pair(xn, xd, yn, yd)
            if n * zd == zn * d:
                k = reduced(xn, xd)
                if k not in out:
                    out.append(k)
    return out


def t_preimage(t: TNormDescriptor, y: tuple, z_iv: Interval) -> IntervalSet:
    """{x in [0,1] : T(x,y) in Z} for the strict exact families, where
    T(.,y) is continuous and strictly increasing for y > 0; y is a reduced
    pair (yn, yd), yd > 0.  Z's ends are compared with top = T(1, y) by
    cross products of their pairs."""
    if not (t.exact and t.strict):
        raise ValueError("preimages are only available for strict exact families")
    yn, yd = y
    if not yn:
        return IntervalSet.unit() if z_iv.contains_pair(0, 1) else IntervalSet.empty()
    tn, td = t.eval_pair(1, 1, yn, yd)  # = y for these families
    if z_iv.ln * td > tn * z_iv.ld:  # Z starts above top
        return IntervalSet.empty()
    xs = t_solve_pairs(t, yn, yd, z_iv.ln, z_iv.ld)
    x_lo, lo_closed = (xs[0], z_iv.lo_closed) if xs else ((0, 1), True)
    c = z_iv.hn * td - tn * z_iv.hd  # the sign of Z's upper end - top
    if c >= 0:
        x_hi, hi_closed = (1, 1), True if c > 0 else z_iv.hi_closed
    else:
        xs = t_solve_pairs(t, yn, yd, z_iv.hn, z_iv.hd)
        if not xs:
            raise AssertionError("preimage endpoint did not solve")
        x_hi, hi_closed = xs[0], z_iv.hi_closed
    return IntervalSet.single(_span(*x_lo, *x_hi, lo_closed, hi_closed))
