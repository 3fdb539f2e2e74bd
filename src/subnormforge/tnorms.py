"""T-norm families, one class each: exact evaluation on rationals where
possible, interval images for the exact families, and additive-generator
based constructions evaluated in high precision with a carried radius.

The exact families evaluate T(a/b, c/d) on integers, as a pair (n, d)
with d > 0 (``eval_pair``), which ``eval`` builds as one Fraction; the
domain check of ``t_eval`` compares numerators with denominators.

The generator families evaluate on ``mpmath.libmp`` values, the
(sign, mantissa, exponent, bitcount) tuples that mpmath's ``mpf`` numbers
wrap, at ``PREC`` bits rounded to nearest.  Each step is the libmp
operation that mpmath's own ``mpf`` arithmetic runs at ``workdps(DIGITS)``,
so the values are bit for bit those of ``-mpmath.ln(mpmath.mpf(p) / q)``
and ``mpmath.e ** -u``, with no ``mpf`` object built and no precision
context entered.  A caller may hand ``t_eval`` a dict that it keeps for one
operation (``memo``): the generator families keep g of each argument
there, keyed by the argument's reduced pair, as one operation meets the
same arguments again and again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from mpmath.libmp import (dps_to_prec, fone, from_int, fzero, mpf_add, mpf_div,
                         mpf_e, mpf_exp, mpf_gt, mpf_log, mpf_lt, mpf_mul, mpf_neg,
                         mpf_pow, mpf_sub, round_nearest, to_rational)

from .intervals import Interval, IntervalSet, ONE, ZERO, frac
from .pwfn import DomainError


@dataclass(frozen=True)
class Approx:
    """A high-precision value with a conservative error radius."""

    value: Fraction
    radius: Fraction

    def __float__(self):
        return float(self.value)


def approx_diff(a, b):
    """(d, r) with a - b in [d - r, d + r], for a and b exact or Approx:
    d is the difference of the centres and r the sum of the radii.

    Every comparison of values that may be Approx is a sign test on d
    against r; the caller picks the boundary rule.  An exact value has
    radius 0, so approx_diff(v, ZERO) is v's centre and radius, and (0, 0)
    means that a and b are equal exact values.
    """
    if isinstance(a, Approx):
        if isinstance(b, Approx):
            return a.value - b.value, a.radius + b.radius
        # b == 0 is the common centre-and-radius case; skip the subtraction
        return (a.value - b if b else a.value), a.radius
    if isinstance(b, Approx):
        return a - b.value, b.radius
    return (a - b if b else a), ZERO


# -- generator registry -----------------------------------------------------

# Generator families evaluate at DIGITS significant digits, which is PREC
# bits rounded to nearest as in ``mpmath.workdps(DIGITS)``, and carry the
# error radius RADIUS.
DIGITS = 30
RADIUS = Fraction(1, 10 ** (DIGITS - 5))
PREC = dps_to_prec(DIGITS)
_RND = round_nearest
_E = mpf_e(PREC, _RND)
_LOG_E = mpf_log(_E, PREC + 10, _RND)  # as libmp.mpf_pow takes it, below


def _from_pair(p: int, q: int) -> tuple:
    """p/q as ``mpmath.mpf(p) / q`` computes it: p rounded to PREC bits,
    then the quotient rounded.  That rounds twice, where ``from_rational``
    would round once, and the low bits differ."""
    return mpf_div(from_int(p, PREC, _RND), from_int(q), PREC, _RND)


def _e_pow(w: tuple) -> tuple:
    """``mpmath.e ** w``, which is ``libmp.mpf_pow(e, w)``: an integer or
    half-integer w (exponent >= 0 or -1) takes its power or square-root
    branch, and any other w its general branch exp(w * log e), with log e
    at PREC + 10 bits taken once, in ``_LOG_E``."""
    if w[2] >= 0 or w[2] == -1:
        return mpf_pow(_E, w, PREC, _RND)
    return mpf_exp(mpf_mul(w, _LOG_E), PREC, _RND)


@dataclass(frozen=True)
class GeneratorSpec:
    """A registered decreasing generator g:[0,1]->[0,inf] with g(0)=inf.

    The registry is closed; each entry carries the forward formula (valid
    beyond 1 where the scaled construction needs it), the unclamped formula
    inverse, and whether g(1)=0 (i.e. the generated operation has neutral 1).
    """

    name: str

    def __post_init__(self):
        if self.name not in _GENERATORS:
            raise ValueError(f"unknown generator {self.name!r}")

    @property
    def g1_zero(self) -> bool:
        return _GENERATORS[self.name][2]

    def g(self, v: tuple) -> tuple:
        """g(v) for a positive libmp value v; g(0) = inf is the caller's
        case."""
        return _GENERATORS[self.name][0](v)

    def g_inv(self, u: tuple) -> tuple:
        """Unclamped formula inverse of a finite libmp value u; the caller
        applies the pseudo-inverse clamp to the relevant domain."""
        return _GENERATORS[self.name][1](u)


_GENERATORS = {
    # name: (g, formula inverse, g(1) == 0), on libmp values: -ln v and
    # e**-u, 1 - ln v and e**(1 - u), each step as mpmath rounds it
    "neglog": (lambda v: mpf_neg(mpf_log(v, PREC, _RND), PREC, _RND),
               lambda u: _e_pow(mpf_neg(u, PREC, _RND)), True),
    "one-minus-log": (lambda v: mpf_sub(fone, mpf_log(v, PREC, _RND), PREC, _RND),
                      lambda u: _e_pow(mpf_sub(fone, u, PREC, _RND)), False),
}


# -- families ---------------------------------------------------------------

HALF = Fraction(1, 2)


def _box_image_mono(phi, A: Interval, B: Interval) -> Interval:
    """Image of a box under a continuous t-norm branch that is strictly
    increasing in each argument on positive arguments and vanishes only
    when an argument vanishes."""
    lo, hi = phi(A.lo, B.lo), phi(A.hi, B.hi)
    lo_att = (A.lo_closed and B.lo_closed) or (
        lo == 0 and ((A.lo == 0 and A.lo_closed) or (B.lo == 0 and B.lo_closed))
    )
    hi_att = (A.hi_closed and B.hi_closed) or hi == 0
    iv = Interval.make(lo, hi, lo_att, hi_att)
    if iv is None:
        raise AssertionError("inconsistent box image")  # degenerate unattained point
    return iv


@dataclass(frozen=True)
class TNormDescriptor:
    """A t-norm family, one subclass each, equal when family and parameters
    are.  The flags are class attributes; each family owns ``eval_pair``
    (exact families, see above) or ``eval``, its box image, its solution
    candidates and its one-sided limits.  The defaults fit an exact family
    that is continuous and strictly increasing in each argument, with
    neutral element 1."""

    exact = True
    continuous = True
    strict = True  # continuous and strictly monotone
    neutral_one = True
    lam = None  # the scale of the lambda construction

    def __str__(self) -> str:
        return self.name

    def eval(self, x: Fraction, y: Fraction, memo=None) -> Fraction:
        """T(x, y); an exact family keeps nothing in `memo`."""
        return Fraction(*self.eval_pair(x.numerator, x.denominator,
                                        y.numerator, y.denominator))

    def box_image(self, A: Interval, B: Interval) -> list:
        """T(A,B) for one box, as a list of intervals."""
        return [_box_image_mono(self.eval, A, B)]

    def dir_limit(self, v: Fraction, side: str, c: Fraction) -> tuple:
        """(lim T(u,c) as u -> v from `side`, whether T(u,c) is constant
        for u on that side of v)."""
        return self.eval(v, c), False


class Product(TNormDescriptor):
    name = "product"

    def eval_pair(self, a: int, b: int, c: int, d: int) -> tuple:
        """ac/(bd) for x = a/b and y = c/d."""
        return a * c, b * d

    def solve_candidates(self, y: Fraction, z: Fraction) -> list:
        return [z / y]


class Hamacher2(TNormDescriptor):
    name = "hamacher2"

    def eval_pair(self, a: int, b: int, c: int, d: int) -> tuple:
        """xy/(2 - x - y + xy) = ac/(2bd - ad - bc + ac) for x = a/b and
        y = c/d, whose denominator is bd((1-x)(1-y) + 1) > 0."""
        ac = a * c
        return ac, 2 * b * d - a * d - b * c + ac

    def solve_candidates(self, y: Fraction, z: Fraction) -> list:
        den = y + z - z * y
        return [z * (2 - y) / den] if den != 0 else []


class Minimum(TNormDescriptor):
    name = "min"
    strict = False

    def eval_pair(self, a: int, b: int, c: int, d: int) -> tuple:
        """The lesser of a/b and c/d, by the sign of ad - cb."""
        return (a, b) if a * d <= c * b else (c, d)

    def box_image(self, A: Interval, B: Interval) -> list:
        # each end is the lesser of the two ends; on a tie the lower end is
        # closed if either is, the upper end only if both are
        lo, lo_open = min((A.lo, not A.lo_closed), (B.lo, not B.lo_closed))
        hi, hi_closed = min((A.hi, A.hi_closed), (B.hi, B.hi_closed))
        return [Interval.make(lo, hi, not lo_open, hi_closed)]

    def solve_candidates(self, y: Fraction, z: Fraction) -> list:
        return [z, y, ONE, (y + 1) / 2]

    def dir_limit(self, v: Fraction, side: str, c: Fraction) -> tuple:
        # min(u,c) = c for every u near v once c < v, and for u > v once c = v
        return self.eval(v, c), c < v or (c == v and side == "right")


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
            out.append(_box_image_mono(lambda x, y: x * y / 2, a_lo, b_lo))
        for A2, B2 in ((a_lo, b_hi), (a_hi, b_lo), (a_hi, b_hi)):
            if A2 and B2:
                out.append(_box_image_mono(lambda x, y: x * y, A2, B2))
        return out

    def solve_candidates(self, y: Fraction, z: Fraction) -> list:
        return [2 * z / y, z / y]

    def dir_limit(self, v: Fraction, side: str, c: Fraction) -> tuple:
        if side == "right" and v == HALF and 0 < c <= HALF:
            return c / 2, False  # the plain-product branch takes over just above 1/2
        return super().dir_limit(v, side, c)


def _clamped(v: tuple) -> Approx:
    """The libmp value v clamped to [0,1], by the comparisons that
    ``min(max(v, mpf(0)), mpf(1))`` makes, as an Approx."""
    if mpf_gt(fzero, v):
        v = fzero
    if mpf_lt(fone, v):
        v = fone
    return Approx(Fraction(*to_rational(v)), RADIUS)


def _g_sum(memo, x: Fraction, y: Fraction, g_at) -> tuple:
    """g_at(p, q) + g_at(r, s) at PREC bits for x = p/q and y = r/s, each
    term kept in `memo` (when given) under its argument's reduced pair."""
    if memo is None:
        memo = {}
    kx, ky = (x.numerator, x.denominator), (y.numerator, y.denominator)
    gx = memo.get(kx)
    if gx is None:
        gx = memo[kx] = g_at(*kx)
    gy = memo.get(ky)
    if gy is None:
        gy = memo[ky] = g_at(*ky)
    return mpf_add(gx, gy, PREC, _RND)


@dataclass(frozen=True)
class Generator(TNormDescriptor):
    """The additively generated operation g^(-1)(g(x)+g(y)); a strict
    t-norm when g is a bijection onto [0,inf] (g(1)=0)."""

    gen: GeneratorSpec
    exact = False

    @property
    def neutral_one(self) -> bool:
        return self.gen.g1_zero

    def _g_at(self, p: int, q: int) -> tuple:
        return self.gen.g(_from_pair(p, q))

    def eval(self, x: Fraction, y: Fraction, memo=None):
        """T(x, y) as an Approx, with g of x and y kept in `memo`."""
        if x == 0 or y == 0:
            return ZERO
        return _clamped(self.gen.g_inv(_g_sum(memo, x, y, self._g_at)))

    def __str__(self) -> str:
        return f"gen:{self.gen.name}"


@dataclass(frozen=True)
class Lambda(TNormDescriptor):
    """The strictly monotone operation built from the scaled generator
    g(x/lam): min on the boundary of the unit square and
    lam * g^(-1)(g(x/lam) + g(y/lam)) inside."""

    gen: GeneratorSpec
    lam: Fraction = field()  # no default: the base's lam = None is not one
    exact = False
    continuous = False
    strict = False

    def __post_init__(self):
        if not (0 < self.lam < 1):
            raise ValueError(f"lambda must lie in (0,1), got {self.lam}")

    @cached_property
    def _lam(self) -> tuple:
        return _from_pair(self.lam.numerator, self.lam.denominator)

    def _g_at(self, p: int, q: int) -> tuple:
        return self.gen.g(mpf_div(_from_pair(p, q), self._lam, PREC, _RND))

    def eval(self, x: Fraction, y: Fraction, memo=None):
        """T(x, y): exact on the boundary of the unit square, else an
        Approx, with g(x/lam) and g(y/lam) kept in `memo`."""
        if x in (0, 1) or y in (0, 1):  # the boundary of the unit square
            return min(x, y)
        return _clamped(mpf_mul(self._lam, self.gen.g_inv(_g_sum(memo, x, y, self._g_at)),
                                PREC, _RND))

    @property
    def is_t_norm(self) -> bool:
        """Whether the operation is a t-norm.  Inside the unit square it is
        min(1, xy e^(-g(1)) / lam), at most min(x, y) only when lam e^g(1) >= 1:
        never for neglog (g(1) = 0, lam < 1); for one-minus-log when lam e >= 1."""
        if self.gen.g1_zero:
            return False
        # s_n = 1/0! + ... + 1/n! < e < s_n + 1/(n n!), and lam e != 1
        lam, s, term, n = self.lam, Fraction(2), Fraction(1), 1  # s_1 and 1/1!
        while lam * s < 1 < lam * (s + term / n):
            n += 1
            term /= n
            s += term
        return lam * s >= 1

    def __str__(self) -> str:
        return f"lambda:{self.gen.name}:{self.lam}"


PRODUCT = Product()
MINIMUM = Minimum()
HAMACHER2 = Hamacher2()
HALFPROD = Halfprod()


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
            lam = Fraction(lam)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad lambda descriptor {desc!r}") from None
        t = Lambda(GeneratorSpec(gen), lam)
        if not t.is_t_norm:
            raise ValueError(f"{desc!r} is not a t-norm: it needs one-minus-log, lambda >= 1/e")
        return t
    raise ValueError(f"unknown t-norm descriptor {desc!r}")


# -- evaluation -------------------------------------------------------------


def t_eval(t: TNormDescriptor, x, y, memo=None):
    """T(x,y): a Fraction for exact families, an Approx otherwise.  `memo`
    is a dict that the caller keeps for one operation, in which a family
    may keep values of its arguments (the generator families keep g)."""
    x, y = frac(x), frac(y)
    if not (0 <= x.numerator <= x.denominator and 0 <= y.numerator <= y.denominator):
        raise DomainError(f"t-norm arguments ({x},{y}) outside [0,1]^2")
    return t.eval(x, y, memo)


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
    """Verified solutions x in [0,1] of T(x,y) = z for exact families."""
    if not t.exact:
        return []
    candidates = []
    if y != 0:
        candidates = t.solve_candidates(y, z)
    elif z == 0:
        candidates = [ZERO, HALF, ONE]
    out = []
    for x in candidates:
        if 0 <= x <= 1 and t_eval(t, x, y) == z and x not in out:
            out.append(x)
    return out


def t_preimage(t: TNormDescriptor, y: Fraction, z_iv: Interval) -> IntervalSet:
    """{x in [0,1] : T(x,y) in Z} for the strict exact families, where
    T(.,y) is continuous and strictly increasing for y > 0."""
    if not (t.exact and t.strict):
        raise ValueError("preimages are only available for strict exact families")
    y = frac(y)
    if y == 0:
        return IntervalSet.unit() if z_iv.contains(ZERO) else IntervalSet.empty()
    top = t_eval(t, ONE, y)  # = y for these families
    if z_iv.lo > top:
        return IntervalSet.empty()
    xs = t_solve_x(t, y, z_iv.lo)
    x_lo, lo_closed = (xs[0], z_iv.lo_closed) if xs else (ZERO, True)
    if z_iv.hi >= top:
        x_hi, hi_closed = ONE, True if z_iv.hi > top else z_iv.hi_closed
    else:
        xs = t_solve_x(t, y, z_iv.hi)
        if not xs:
            raise AssertionError("preimage endpoint did not solve")
        x_hi, hi_closed = xs[0], z_iv.hi_closed
    return IntervalSet.single(Interval.make(x_lo, x_hi, lo_closed, hi_closed))
