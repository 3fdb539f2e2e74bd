"""The additive-generator t-norm families and their libmp kernel: the only
module of the package that imports mpmath.

``tnorms.parse_tnorm`` imports it for a ``gen:`` or ``lambda:``
descriptor, ``generated`` for ``additive_generated`` and
``lambda_decompose``, and the CLI for ``construct-subnorm``; so a run
that uses the exact families alone never loads mpmath.

The generator families evaluate T(a/b, c/d) on integers (``approx_pair``):
the arguments come in as reduced pairs, and T's centre goes out as a
reduced pair, the clamped libmp value's ``to_rational``, with whether it
is exact; ``eval`` builds a Fraction or an ``Approx`` of radius
``tnorms.RADIUS`` from it.  In between they run on ``mpmath.libmp``
values, the (sign, mantissa, exponent, bitcount) tuples that mpmath's
``mpf`` numbers wrap, at ``PREC`` bits rounded to nearest.  Each step is
the libmp operation that mpmath's own ``mpf`` arithmetic runs at
``workdps(DIGITS)``, so the values are bit for bit those of
``-mpmath.ln(mpmath.mpf(p) / q)`` and ``mpmath.e ** -u``, with no ``mpf``
object built and no precision context entered.  A caller may hand
``t_eval`` or ``approx_pair`` a dict that it keeps for one operation
(``memo``): the generator families keep g of each argument there, keyed
by the argument's reduced pair, as one operation meets the same arguments
again and again.  ``GeneratedOp`` keeps it as ``_g_cache``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from mpmath.libmp import (dps_to_prec, fone, from_int, fzero, mpf_add, mpf_div,
                         mpf_e, mpf_exp, mpf_gt, mpf_log, mpf_lt, mpf_mul, mpf_neg,
                         mpf_pow, mpf_sub, round_nearest, to_rational)

from .tnorms import DIGITS, RADIUS, Approx, TNormDescriptor

# Generator families evaluate at DIGITS significant digits, which is PREC
# bits rounded to nearest as in ``mpmath.workdps(DIGITS)``, and carry the
# error radius RADIUS.
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


def _clamped_pair(v: tuple) -> tuple:
    """The libmp value v clamped to [0,1], by the comparisons that
    ``min(max(v, mpf(0)), mpf(1))`` makes, as a reduced pair: libmp keeps
    mantissas odd, so ``to_rational`` gives one."""
    if mpf_gt(fzero, v):
        v = fzero
    if mpf_lt(fone, v):
        v = fone
    return to_rational(v)


# -- generator registry -----------------------------------------------------


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


def _e_below(r: Fraction) -> bool:
    """Whether e < r, decided exactly from the partial sums s_n = 1/0! +
    ... + 1/n! of e, which satisfy s_n < e < s_n + 1/(n n!): e is
    irrational, so refining them until r falls outside that interval
    always ends."""
    s, term, n = Fraction(2), Fraction(1), 1  # s_1 and 1/1!
    while s < r < s + term / n:
        n += 1
        term /= n
        s += term
    return r > s


class _GeneratorFamily(TNormDescriptor):
    """A family built on the registered generator ``gen``, evaluated on
    integer pairs by ``approx_pair(a, b, c, d, memo)``: for x = a/b and
    y = c/d, each a reduced pair, the reduced pair of T's centre and
    whether that value is exact; an inexact value carries the radius
    RADIUS.  ``eval`` wraps it.

    Inside the unit square T has the closed form min(1, xy e^(-g(1)) /
    lam), with lam = 1 for ``Generator``, whose ``lam`` is None: g(x) =
    k - ln x for both registered generators, so g^(-1)(g(x) + g(y)) =
    xy e^(-k) with k = g(1).  The clamp binds only for a ``Lambda`` that
    is not a t-norm.  ``left_limit_above`` decides T's order exactly
    from this form."""

    exact = False

    def eval(self, x: Fraction, y: Fraction, memo=None):
        """T(x, y): a Fraction where exact, else an Approx, with g of x
        and y kept in `memo`."""
        n, d, exact = self.approx_pair(x.numerator, x.denominator,
                                       y.numerator, y.denominator, memo)
        return Fraction(n, d) if exact else Approx(Fraction(n, d), RADIUS)

    def _g_sum(self, a: int, b: int, c: int, d: int, memo) -> tuple:
        """g_at(a, b) + g_at(c, d) at PREC bits, each term kept in `memo`
        (when given) under its argument's reduced pair."""
        if memo is None:
            memo = {}
        gx = memo.get((a, b))
        if gx is None:
            gx = memo[a, b] = self._g_at(a, b)
        gy = memo.get((c, d))
        if gy is None:
            gy = memo[c, d] = self._g_at(c, d)
        return mpf_add(gx, gy, PREC, _RND)

    def left_limit_above(self, u: Fraction, v: Fraction, z: Fraction) -> bool:
        """Whether lim T(u, w) as w rises to v exceeds z, for u in [0,1),
        v in (0,1] and z in [0,1): the closed form w = uv / lam at v, the
        clamp aside as z < 1, against z; with g(1) = 1 the form is w/e,
        which exceeds z > 0 exactly when e < w/z."""
        w = u * v / (self.lam or 1)
        if self.gen.g1_zero or not z:
            return w > z
        return _e_below(w / z)


@dataclass(frozen=True)
class Generator(_GeneratorFamily):
    """The additively generated operation g^(-1)(g(x)+g(y)); a strict
    t-norm when g is a bijection onto [0,inf] (g(1)=0)."""

    gen: GeneratorSpec

    @property
    def neutral_one(self) -> bool:
        return self.gen.g1_zero

    def _g_at(self, p: int, q: int) -> tuple:
        return self.gen.g(_from_pair(p, q))

    def approx_pair(self, a: int, b: int, c: int, d: int, memo) -> tuple:
        """T(a/b, c/d) as a reduced pair and whether it is exact: exactly
        0 when an argument is 0."""
        if a == 0 or c == 0:
            return 0, 1, True
        return (*_clamped_pair(self.gen.g_inv(self._g_sum(a, b, c, d, memo))), False)

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

    @cached_property
    def _lam(self) -> tuple:
        return _from_pair(self.lam.numerator, self.lam.denominator)

    def _g_at(self, p: int, q: int) -> tuple:
        return self.gen.g(mpf_div(_from_pair(p, q), self._lam, PREC, _RND))

    def approx_pair(self, a: int, b: int, c: int, d: int, memo) -> tuple:
        """T(a/b, c/d) as a reduced pair and whether it is exact: exactly
        min(a/b, c/d) on the boundary of the unit square, else inexact, with
        g(x/lam) and g(y/lam) kept in `memo`."""
        if a == 0 or a == b or c == 0 or c == d:
            return (a, b, True) if a * d <= c * b else (c, d, True)
        v = self.gen.g_inv(self._g_sum(a, b, c, d, memo))
        return (*_clamped_pair(mpf_mul(self._lam, v, PREC, _RND)), False)

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
