"""Generated operations F(x,y) = finv(T(f(x), f(y))) and the additive /
scaled-generator constructions."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .intervals import Interval, ONE, ZERO, frac
from .pwfn import PiecewiseMonotoneFn, Segment, eval_fn, pseudo_inverse
from .tnorms import Approx, GeneratorSpec, TNormDescriptor, generator_tnorm, t_eval


@dataclass
class GeneratedOp:
    """F(x,y) = finv(T(f(x), f(y))) with the pseudo-inverse cached."""

    f: PiecewiseMonotoneFn
    finv: PiecewiseMonotoneFn
    t: TNormDescriptor
    _f_cache: dict = field(default_factory=dict, repr=False)
    _finv_cache: dict = field(default_factory=dict, repr=False)

    @property
    def exact(self) -> bool:
        return self.t.exact

    def f_at(self, x: Fraction) -> Fraction:
        v = self._f_cache.get(x)
        if v is None:
            v = eval_fn(self.f, x)
            self._f_cache[x] = v
        return v

    def finv_at(self, y: Fraction) -> Fraction:
        v = self._finv_cache.get(y)
        if v is None:
            v = eval_fn(self.finv, y)
            self._finv_cache[y] = v
        return v

    def __call__(self, x, y):
        return f_eval(self, x, y)


def make_op(f: PiecewiseMonotoneFn, t: TNormDescriptor) -> GeneratedOp:
    return GeneratedOp(f, pseudo_inverse(f), t)


def f_eval(op: GeneratedOp, x, y):
    """Exact Fraction for exact t-norm families; otherwise an Approx whose
    radius accounts for the local variation of the pseudo-inverse."""
    x, y = frac(x), frac(y)
    tv = t_eval(op.t, op.f_at(x), op.f_at(y))
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
    t = generator_tnorm(gen)
    return lambda x, y: t_eval(t, x, y)


def lambda_decompose(gen: GeneratorSpec, lam) -> tuple:
    """Split the additively generated operation into (f, T) with
    f(x) = lam*x and the strictly monotone t-norm built from the scaled
    generator t(x) = g(x/lam) for x < 1, t(1) = 0.

    Composing f_eval over the result reproduces the additively generated
    operation on the whole square.
    """
    lam = frac(lam)
    if not (0 < lam < 1):
        raise ValueError(f"lambda must lie in (0,1), got {lam}")
    f = PiecewiseMonotoneFn(
        True, (Segment.linear(Interval.closed(0, 1), lam, 0),), ()
    )
    t = TNormDescriptor("lambda", gen=gen, lam=lam)
    return f, t
