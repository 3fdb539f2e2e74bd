"""Generated operations F(x,y) = finv(T(f(x), f(y))) and the additive /
scaled-generator constructions."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .intervals import Interval, ONE, ZERO, frac
from .pwfn import PiecewiseMonotoneFn, Segment, eval_fn, pseudo_inverse
from .tnorms import Approx, Generator, GeneratorSpec, Lambda, TNormDescriptor, t_eval


def value_key(v) -> tuple:
    """A value's cache key: (numerator, denominator), and for an Approx its
    value's pair then its radius's.  Unlike ``Fraction``, which recomputes
    its hash in Python on every call, a tuple of ints hashes in C."""
    if isinstance(v, Approx):
        return value_key(v.value) + value_key(v.radius)
    return v.numerator, v.denominator


@dataclass
class GeneratedOp:
    """F(x,y) = finv(T(f(x), f(y))), with f and finv evaluated once per
    value: cached by ``value_key``, since ``Fraction`` rehashes per call."""

    f: PiecewiseMonotoneFn
    finv: PiecewiseMonotoneFn
    t: TNormDescriptor
    _f_cache: dict = field(default_factory=dict, repr=False)
    _finv_cache: dict = field(default_factory=dict, repr=False)

    def f_at(self, x: Fraction) -> Fraction:
        k = value_key(x)
        v = self._f_cache.get(k)
        if v is None:
            v = self._f_cache[k] = eval_fn(self.f, x)
        return v

    def finv_at(self, y: Fraction) -> Fraction:
        k = value_key(y)
        v = self._finv_cache.get(k)
        if v is None:
            v = self._finv_cache[k] = eval_fn(self.finv, y)
        return v

    def __call__(self, x, y):
        return f_eval(self, x, y)


def make_op(f: PiecewiseMonotoneFn, t: TNormDescriptor) -> GeneratedOp:
    return GeneratedOp(f, pseudo_inverse(f), t)


def f_eval(op: GeneratedOp, x, y):
    """F(x,y) = finv(T(f(x), f(y))); see ``f_compose``."""
    return f_compose(op, op.f_at(frac(x)), op.f_at(frac(y)))


def f_compose(op: GeneratedOp, fx, fy):
    """finv(T(fx, fy)), so F(x,y) from fx = f(x) and fy = f(y): an exact
    Fraction for exact t-norm families; otherwise an Approx whose radius
    accounts for the local variation of the pseudo-inverse."""
    tv = t_eval(op.t, fx, fy)
    if isinstance(tv, Approx):
        center = op.finv_at(tv.value)
        lo = op.finv_at(max(ZERO, tv.value - tv.radius))
        hi = op.finv_at(min(ONE, tv.value + tv.radius))
        spread = max(center - lo, hi - center)
        return Approx(center, max(tv.radius, spread))
    return op.finv_at(tv)


def additive_generated(gen: GeneratorSpec):
    """(x,y) -> g^(-1)(g(x)+g(y)) with the pseudo-inverse clamp to [0,1];
    a continuous cancellative t-subnorm when g(0) = inf."""
    t = Generator(gen)
    return lambda x, y: t_eval(t, x, y)


def lambda_decompose(gen: GeneratorSpec, lam) -> tuple:
    """Split the additively generated operation into (f, T) with
    f(x) = lam*x and the strictly monotone t-norm built from the scaled
    generator t(x) = g(x/lam) for x < 1, t(1) = 0.

    Composing f_eval over the result reproduces the additively generated
    operation on the whole square.
    """
    t = Lambda(gen, frac(lam))
    f = PiecewiseMonotoneFn(True, (Segment.linear(Interval.closed(0, 1), t.lam, 0),))
    return f, t
