"""Generated operations F(x,y) = finv(T(f(x), f(y))) and the additive /
scaled-generator constructions.

``GeneratedOp`` owns the exact evaluation of F, on reduced integer pairs
(numerator, denominator): f and finv run on pairs (``pwfn.eval_pair``), and
for an exact t-norm family so does T (the family's ``eval_pair``).  Each op
caches f by its argument's reduced pair and finv by T's reduced pair, and
holds each value as its reduced pair, plus its Fraction once the value has
been read as one (``f_at``, ``finv_at``, ``f_eval``).  So an evaluation on
pairs builds no ``Fraction``, cached or not, and its keys are tuples of
ints, which hash in C where a ``Fraction`` rehashes in Python.  The
oracle's ``_Memo`` reads the pairs only and keys its ids by them.
Inexact families go through ``f_compose``, which carries T's error radius
through the pseudo-inverse (``_spread``): it evaluates finv at T's centre
and at either end of its radius on integer pairs too, and builds only the
centre and the radius as Fractions.  It hands T's family the op's ``_g_cache``, where a generator
family keeps g of each f value by its reduced pair, so an f value that
recurs, as f(x) does at every step of a power sequence of x, costs g once
per op.  The classifier's power sequences run outside the f cache, one
step per call on pairs alone: ``power_step`` for an exact family, and
``approx_step`` for a generator family, which takes T's centre pair from
the family's ``approx_pair``, reads g(f(x)) from ``_g_cache``, and returns
``_spread``'s centre and radius as pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .intervals import Interval, frac
from .pwfn import PiecewiseMonotoneFn, Segment, eval_pair
from .tnorms import (RADIUS, Approx, Generator, GeneratorSpec, Lambda, TNormDescriptor,
                     t_eval)


def value_key(v) -> tuple:
    """A value's cache key: (numerator, denominator), and for an Approx its
    value's pair then its radius's.  Unlike ``Fraction``, which recomputes
    its hash in Python on every call, a tuple of ints hashes in C."""
    if isinstance(v, Approx):
        return value_key(v.value) + value_key(v.radius)
    return v.numerator, v.denominator


def _entry(pair: tuple) -> list:
    """A cache entry for the value of an integer pair: [its reduced pair,
    None], the None replaced by the value's Fraction when first read."""
    n, d = pair
    g = gcd(n, d)
    return [(n // g, d // g), None]


def _fraction(entry: list) -> Fraction:
    """The Fraction of a cache entry, built on first read."""
    v = entry[1]
    if v is None:
        v = entry[1] = Fraction(*entry[0])
    return v


@dataclass
class GeneratedOp:
    """F(x,y) = finv(T(f(x), f(y))), with f and finv evaluated once per
    argument: ``_f_cache`` maps the reduced pair of x to f(x), and
    ``_finv_cache`` the reduced pair of y to finv(y), each value held as
    its reduced pair and, once ``f_at`` or ``finv_at`` has read it, its
    Fraction (``_entry``).  ``_g_cache`` is the memo that ``f_compose`` and
    ``approx_step`` hand to T's family with each evaluation; a generator
    family keeps g of each f value there."""

    f: PiecewiseMonotoneFn
    finv: PiecewiseMonotoneFn
    t: TNormDescriptor
    _f_cache: dict = field(default_factory=dict, repr=False)
    _finv_cache: dict = field(default_factory=dict, repr=False)
    _g_cache: dict = field(default_factory=dict, repr=False)

    def _f_entry(self, k: tuple) -> list:
        """The ``_f_cache`` entry of f(p/q), for the reduced pair k = (p, q)."""
        v = self._f_cache.get(k)
        if v is None:
            v = self._f_cache[k] = _entry(eval_pair(self.f, *k))
        return v

    def _finv_entry(self, k: tuple) -> list:
        """The ``_finv_cache`` entry of finv(p/q), for the reduced pair k = (p, q)."""
        v = self._finv_cache.get(k)
        if v is None:
            v = self._finv_cache[k] = _entry(eval_pair(self.finv, *k))
        return v

    def f_pair(self, k: tuple) -> tuple:
        """f(p/q) as a reduced pair, for the reduced pair k = (p, q)."""
        return self._f_entry(k)[0]

    def t_finv(self, a: int, b: int, c: int, d: int) -> list:
        """finv(T(a/b, c/d)) as its ``_finv_cache`` entry, for an exact
        family and f values a/b, c/d: T's pair, reduced, is the key.  No
        domain check, as f's values lie in [0,1]."""
        n, e = self.t.eval_pair(a, b, c, d)
        g = gcd(n, e)
        return self._finv_entry((n // g, e // g))

    def power_step(self, k: tuple, fx: tuple) -> tuple:
        """finv(T(f(p/q), fx)) as a reduced pair, for an exact family and the
        reduced pairs k = (p, q) and fx, outside the caches: a power sequence
        F(acc, x) meets each acc once, so a cached value would not be read."""
        n, d = eval_pair(self.f, *k)
        g = gcd(n, d)
        n, d = self.t.eval_pair(n // g, d // g, *fx)
        g = gcd(n, d)
        n, d = eval_pair(self.finv, n // g, d // g)
        g = gcd(n, d)
        return n // g, d // g

    def approx_step(self, k: tuple, fx: tuple) -> tuple:
        """finv(T(f(p/q), fx)) for an inexact family, as (cn, cd, sn, sd):
        the centre, a reduced pair, and the radius sn/sd, which is 0/1 where
        T's value is exact, for the reduced pairs k = (p, q) and fx.  f(p/q)
        is evaluated outside ``_f_cache``, as in ``power_step``; g of both
        f values is kept in ``_g_cache``, where g(fx) is read at every step
        of a power sequence of x."""
        n, d = eval_pair(self.f, *k)
        g = gcd(n, d)
        n, d, exact = self.t.approx_pair(n // g, d // g, *fx, self._g_cache)
        if exact:
            return (*self._finv_entry((n, d))[0], 0, 1)
        return _spread(self.finv, n, d, RADIUS.numerator, RADIUS.denominator)

    def f_at(self, x: Fraction) -> Fraction:
        """f(x) for an exact x."""
        return _fraction(self._f_entry((x.numerator, x.denominator)))

    def finv_at(self, y: Fraction) -> Fraction:
        """finv(y) for an exact y."""
        return _fraction(self._finv_entry((y.numerator, y.denominator)))

    def __call__(self, x, y):
        return f_eval(self, x, y)


def make_op(f: PiecewiseMonotoneFn, t: TNormDescriptor) -> GeneratedOp:
    """F for f and T, on f's pseudo-inverse, which f builds once and every
    operation on f shares."""
    return GeneratedOp(f, f._pseudo_inverse, t)


def f_eval(op: GeneratedOp, x, y):
    """F(x,y) = finv(T(f(x), f(y))): on integer pairs (``t_finv``) for an
    exact family, else through ``f_compose``."""
    x, y = frac(x), frac(y)
    if op.t.exact:
        return _fraction(op.t_finv(*op.f_pair((x.numerator, x.denominator)),
                                   *op.f_pair((y.numerator, y.denominator))))
    return f_compose(op, op.f_at(x), op.f_at(y))


def f_compose(op: GeneratedOp, fx, fy):
    """finv(T(fx, fy)), so F(x,y) from fx = f(x) and fy = f(y), for an
    inexact family: an Approx whose radius accounts for the local variation
    of the pseudo-inverse (``_spread``), or an exact Fraction where T's
    value is exact."""
    tv = t_eval(op.t, fx, fy, op._g_cache)
    if not isinstance(tv, Approx):
        return op.finv_at(tv)
    v, r = tv.value, tv.radius
    cn, cd, sn, sd = _spread(op.finv, v.numerator, v.denominator, r.numerator, r.denominator)
    return Approx(Fraction(cn, cd), Fraction(sn, sd))


def _spread(finv: PiecewiseMonotoneFn, p: int, q: int, m: int, n: int) -> tuple:
    """finv at T's value p/q with radius m/n, as (cn, cd, sn, sd): the
    centre finv(p/q), a reduced pair, and the radius sn/sd, the larger of
    m/n and the spread of finv over [p/q - m/n, p/q + m/n].

    finv is taken at p/q and at p/q - m/n and p/q + m/n, clamped to [0,1],
    on integer pairs over the common denominator qn (``eval_pair``), and
    the spread is the larger distance from finv(p/q) to either side, each
    comparison made by cross-multiplying."""
    cn, cd = eval_pair(finv, p, q)
    g = gcd(cn, cd)
    cn, cd = cn // g, cd // g
    den = q * n
    ln, ld = eval_pair(finv, max(0, p * n - m * q), den)
    hn, hd = eval_pair(finv, min(den, p * n + m * q), den)
    # finv is non-increasing when f is, so each side's distance is taken
    # as an absolute value
    sn, sd = abs(cn * ld - ln * cd), cd * ld
    bn, bd = abs(hn * cd - cn * hd), hd * cd
    if bn * sd > sn * bd:
        sn, sd = bn, bd
    if sn * n <= m * sd:
        sn, sd = m, n
    return cn, cd, sn, sd


def additive_generated(gen: GeneratorSpec):
    """(x,y) -> g^(-1)(g(x)+g(y)) with the pseudo-inverse clamp to [0,1];
    a continuous cancellative t-subnorm when g(0) = inf."""
    t = Generator(gen)
    return lambda x, y: t_eval(t, x, y)


def lambda_decompose(gen: GeneratorSpec, lam) -> tuple:
    """Split the additively generated operation into (f, T) with
    f(x) = lam*x and the strictly monotone operation built from the scaled
    generator t(x) = g(x/lam) for x < 1, t(1) = 0, which is a t-norm only
    where ``Lambda.is_t_norm`` says so.

    Composing f_eval over the result reproduces the additively generated
    operation on the whole square.
    """
    t = Lambda(gen, frac(lam))
    f = PiecewiseMonotoneFn(True, (Segment.linear(Interval.closed(0, 1), t.lam, 0),))
    return f, t
