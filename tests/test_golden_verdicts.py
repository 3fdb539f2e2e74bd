"""Golden verdicts: every Verdict field of every property, and the
consistency harness rows, for the worked examples; and a per-unit digest
of the same fields over seeded random functions.

The golden file pins the classifier's evidence texts, notes, witnesses and
Approx values (written as their exact centre and radius), which the
rendered golden CSVs do not cover for the generator families.  The digest
file holds one line per (function, family) unit: a short hash of every
Verdict field and of the conditions log, for 100 functions from
``random_nondecreasing_fn`` on a fixed seed and the mirrors 1 - f of the
first 20.  Regenerate both only for an intended verdict change:

    PYTHONPATH=src python tests/test_golden_verdicts.py
"""

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

from conftest import WORKED_EXAMPLES, _one_minus, random_nondecreasing_fn
from subnormforge import classify, consistency_harness, parse_fn, parse_tnorm
from subnormforge.classify import PROPERTIES
from subnormforge.tnorms import Approx

GOLDEN = Path(__file__).parent / "golden" / "verdicts.json"
DIGESTS = Path(__file__).parent / "golden" / "verdict_digests.txt"

CLASSIFY_TNORMS = ("product", "hamacher2", "min", "halfprod", "gen:neglog",
                   "lambda:one-minus-log:1/2")
HARNESS_TNORMS = ("product", "gen:neglog")
DIGEST_TNORMS = ("product", "hamacher2", "min", "halfprod", "gen:neglog")
DIGEST_SEED = 20240823


def _encode(v):
    """JSON form that keeps Fraction, int, str and Approx apart."""
    if v is None or isinstance(v, (bool, int, str)):
        return v
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, Approx):
        return {"value": _encode(v.value), "radius": _encode(v.radius)}
    if isinstance(v, tuple):
        return [_encode(x) for x in v]
    raise TypeError(f"unexpected value {v!r} of type {type(v).__name__}")


def _fields(report) -> dict:
    return {
        prop: {
            "status": v.status,
            "evidence": _encode(v.evidence),
            "witness": _encode(v.witness),
            "resolution": v.resolution,
            "note": v.note,
        }
        for prop, v in ((p, report.verdict(p)) for p in PROPERTIES)
    }


def _verdicts():
    out = {}
    for name, text in WORKED_EXAMPLES.items():
        f = parse_fn(text)
        for desc in CLASSIFY_TNORMS:
            out[f"{name} x {desc}"] = _fields(classify(f, parse_tnorm(desc)))
    return out


def _harness():
    out = {}
    for name, text in WORKED_EXAMPLES.items():
        f = parse_fn(text)
        for desc in HARNESS_TNORMS:
            rep = consistency_harness(f, parse_tnorm(desc), n=6, arch_grid_n=6)
            out[f"{name} x {desc}"] = {
                "rows": [list(row) for row in rep.rows],
                "hard_failures": list(rep.hard_failures),
            }
    return out


def _current():
    return {"verdicts": _verdicts(), "harness": _harness()}


def _digest_fns() -> list:
    """f0..f99 from random_nondecreasing_fn, then f100..f119 = 1 - f0..f19."""
    rng = random.Random(DIGEST_SEED)
    fns = [random_nondecreasing_fn(rng) for _ in range(100)]
    return fns + [_one_minus(f) for f in fns[:20]]


def _digests() -> dict:
    """{"f<index> <family>": short hash of the unit's verdicts and log}."""
    out = {}
    for i, f in enumerate(_digest_fns()):
        for desc in DIGEST_TNORMS:
            report = classify(f, parse_tnorm(desc))
            text = json.dumps([_fields(report), report.conditions_log],
                              ensure_ascii=False, sort_keys=True)
            out[f"f{i} {desc}"] = hashlib.sha256(text.encode()).hexdigest()[:16]
    return out


def _dump(data) -> str:
    return json.dumps(data, indent=1, ensure_ascii=False, sort_keys=True) + "\n"


def test_golden_verdicts():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    current = _current()
    assert sorted(current["verdicts"]) == sorted(golden["verdicts"])
    for key, props in golden["verdicts"].items():
        assert current["verdicts"][key] == props, key
    assert current["harness"] == golden["harness"]


def test_golden_verdict_digests():
    golden = dict(line.rsplit(" ", 1)
                  for line in DIGESTS.read_text(encoding="utf-8").splitlines())
    current = _digests()
    assert sorted(current) == sorted(golden)
    changed = [unit for unit in current if current[unit] != golden[unit]]
    assert not changed, "verdicts changed for (function, family): " + "; ".join(changed)


def test_neglog_verdicts_match_product():
    """-ln generates the product t-norm, exp(-(-ln x - ln y)) = xy, so a
    decisive gen:neglog verdict must equal product's verdict on the same
    f.  gen:neglog runs through the generator family's radius-carrying
    evaluation and product through exact rationals, so this checks the
    two paths against each other."""
    fns = _digest_fns() + [parse_fn(text) for text in WORKED_EXAMPLES.values()]
    product, neglog = parse_tnorm("product"), parse_tnorm("gen:neglog")
    decisive, conflicts = 0, []
    for i, f in enumerate(fns):
        want, got = classify(f, product), classify(f, neglog)
        for prop in PROPERTIES:
            status = got.verdict(prop).status
            if status != "unknown":
                decisive += 1
                if status != want.verdict(prop).status:
                    conflicts.append(f"f{i} {prop}: neglog {status}, "
                                     f"product {want.verdict(prop).status}")
    assert not conflicts, "; ".join(conflicts)
    assert decisive >= 100, decisive  # 217 when written: not a vacuous pass


if __name__ == "__main__":
    GOLDEN.write_text(_dump(_current()), encoding="utf-8")
    DIGESTS.write_text("".join(f"{unit} {h}\n" for unit, h in _digests().items()),
                       encoding="utf-8")
