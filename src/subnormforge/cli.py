"""Command-line front end.

    subnorm-forge <command> --fn <path> --tnorm <desc>
                  [--grid-n N] [--x p/q --y p/q]
                  [--format text|structured] [--out path]

Commands: eval, classify, decompose, oracle, grid, construct-subnorm.
Exit status for classify: 0 when no verdict is No and none Unknown,
2 when any property is No, else 3 when any is Unknown.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .classify import classify, decomposition_fields, render_structured, render_text
from .fnformat import load_fn, render_fn
from .generated import f_eval, lambda_decompose, make_op, additive_generated
from .intervals import ZERO
from .oracle import consistency_harness
from .pwfn import decompose
from .tnorms import GeneratorSpec, approx_diff, parse_tnorm


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="subnorm-forge",
        description="Build F(x,y)=finv(T(f(x),f(y))) from a piecewise "
                    "monotone f and a t-norm, and verify its algebra.")
    p.add_argument("command",
                   choices=["eval", "classify", "decompose", "oracle",
                            "grid", "construct-subnorm"])
    p.add_argument("--fn", help="function description file")
    p.add_argument("--tnorm", help="t-norm descriptor, e.g. product, min, "
                                   "hamacher2, halfprod, gen:neglog, "
                                   "lambda:one-minus-log:1/2")
    p.add_argument("--grid-n", type=int, default=12)
    p.add_argument("--x", help="first argument as p/q")
    p.add_argument("--y", help="second argument as p/q")
    p.add_argument("--gen", help="generator name for construct-subnorm")
    p.add_argument("--lam", help="lambda as p/q for construct-subnorm")
    p.add_argument("--format", choices=["text", "structured"],
                   default="text")
    p.add_argument("--out", help="output file (default: stdout)")
    return p


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _require(args, *names):
    for name in names:
        if getattr(args, name.replace("-", "_")) is None:
            raise SystemExit(f"error: --{name} is required for this command")


def _rational(text: str, opt: str) -> Fraction:
    """The p/q text of option --opt as a Fraction; bad text, a zero
    denominator included, is a ValueError."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--{opt}: bad rational {text!r}") from None


def _fmt_value(v) -> str:
    c, r = approx_diff(v, ZERO)
    if r:
        return f"{float(c):.12f} (+-{float(r):.2e})"
    return f"{v} = {float(v):.12f}"


def cmd_eval(args) -> int:
    _require(args, "fn", "tnorm", "x", "y")
    op = make_op(load_fn(args.fn), parse_tnorm(args.tnorm))
    v = f_eval(op, _rational(args.x, "x"), _rational(args.y, "y"))
    _emit(_fmt_value(v) + "\n", args.out)
    return 0


def cmd_decompose(args) -> int:
    _require(args, "fn")
    d = decompose(load_fn(args.fn))
    _emit("".join(f"{k}={v}\n" for k, v in decomposition_fields(d)), args.out)
    return 0


def cmd_classify(args) -> int:
    _require(args, "fn", "tnorm")
    report = classify(load_fn(args.fn), parse_tnorm(args.tnorm))
    text = (render_structured(report) if args.format == "structured"
            else render_text(report))
    _emit(text, args.out)
    statuses = [v.status for v in report.properties.values()]
    if "no" in statuses:
        return 2
    if "unknown" in statuses:
        return 3
    return 0


def cmd_oracle(args) -> int:
    _require(args, "fn", "tnorm")
    rep = consistency_harness(load_fn(args.fn), parse_tnorm(args.tnorm),
                              n=args.grid_n)
    _emit(rep.render(), args.out)
    return 0 if rep.ok else 1


def cmd_grid(args) -> int:
    _require(args, "fn", "tnorm")
    t = parse_tnorm(args.tnorm)
    n = args.grid_n
    op = make_op(load_fn(args.fn), t)
    lines = ["x,y,F,F_exact" if t.exact else "x,y,F"]
    for i in range(n + 1):
        for j in range(n + 1):
            x, y = Fraction(i, n), Fraction(j, n)
            v = f_eval(op, x, y)
            # float() of an Approx is its centre; only exact values are
            # also written as p/q
            line = f"{float(x):.12f},{float(y):.12f},{float(v):.12f}"
            lines.append(f"{line},{v}" if t.exact else line)
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_construct_subnorm(args) -> int:
    _require(args, "gen", "lam")
    gen = GeneratorSpec(args.gen)
    lam = _rational(args.lam, "lam")
    f, t = lambda_decompose(gen, lam)
    direct = additive_generated(gen)
    op = make_op(f, t)
    dev = 0.0
    for i in range(51):
        for j in range(51):
            x, y = Fraction(i, 50), Fraction(j, 50)
            dev = max(dev, abs(float(direct(x, y)) - float(f_eval(op, x, y))))
    lines = [render_fn(f).rstrip("\n"), f"tnorm={t}",
             f"max_roundtrip_deviation={dev:.3e}"]
    if gen.g1_zero:
        lines.append("warning: generator has g(1)=0, so the generated "
                     "operation has neutral element 1 and is not proper")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


_COMMANDS = {
    "eval": cmd_eval,
    "classify": cmd_classify,
    "decompose": cmd_decompose,
    "oracle": cmd_oracle,
    "grid": cmd_grid,
    "construct-subnorm": cmd_construct_subnorm,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.grid_n < 1:
            raise ValueError(f"--grid-n must be >= 1, got {args.grid_n}")
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as e:
        # bad input: ParseError, InvalidFunction and DomainError are
        # ValueErrors, and an unreadable --fn file is an OSError
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
