"""Render digests: one sha256 per t-norm family over ``render_text`` of
every (function, family) unit of three fixed sets, in this order:

- ``corpus(1, 1500)``, imported read-only from ``bench/corpus.py`` (1,506
  functions);
- ``lattice_fns(3, 4)``, every non-decreasing f with breakpoints k/3 and
  values k/4 (1,001 functions);
- the mirrors 1 - f of that lattice.

That is 17,540 units, which pin every verdict, witness and note, and the
decomposition and conditions log, far beyond the worked examples of the
goldens.  Harness digests, one per family under ``harness:<family>``, do
the same for ``consistency_harness(f, t, n=12).render()``: over
``corpus(1, 300)`` and the lattice with product and hamacher2, and over
the lattice alone with min, halfprod and gen:neglog (the last of which
the oracle evaluates entry by entry, as its values are inexact); 5,617
units.  ``render_digests.json`` holds the digests.  Regenerate it only
for an intended output change, and name each changed unit in CHANGES.md:

    PYTHONPATH=src python tests/test_render_digests.py --against OTHER/src

renders every unit with the package under OTHER/src too (a checkout of the
parent commit, say), prints the units whose text differs, and writes this
tree's digests.  Without ``--against`` it only writes the digests.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
sys.path.append(str(TESTS.parent / "bench"))

from conftest import _one_minus, lattice_fns  # noqa: E402
from corpus import corpus  # noqa: E402
from subnormforge import classify, consistency_harness, parse_fn, parse_tnorm  # noqa: E402
from subnormforge.classify import render_text  # noqa: E402

DIGESTS = TESTS / "render_digests.json"
FAMILIES = ("product", "hamacher2", "min", "halfprod", "gen:neglog")
HARNESS_CORPUS_FAMILIES = ("product", "hamacher2")  # over corpus(1, 300) too


def units():
    """(name, f) for every function of the three sets, in order."""
    lattice = list(lattice_fns(3, 4))
    yield from ((f"corpus:{name}", parse_fn(text)) for name, text in corpus(1, 1500))
    yield from ((f"lattice:{i}", f) for i, f in enumerate(lattice))
    yield from ((f"mirror:{i}", _one_minus(f)) for i, f in enumerate(lattice))


def rendered() -> dict:
    """{family: [(unit name, render_text), ...]} over ``units()``."""
    ts = {fam: parse_tnorm(fam) for fam in FAMILIES}
    out = {fam: [] for fam in FAMILIES}
    for name, f in units():
        for fam, t in ts.items():
            out[fam].append((name, render_text(classify(f, t))))
    return out


def harness_rendered() -> dict:
    """{"harness:" + family: [(unit name, harness render), ...]}: the
    lattice with every family, after ``corpus(1, 300)`` with product and
    hamacher2."""
    lattice = [(f"lattice:{i}", f) for i, f in enumerate(lattice_fns(3, 4))]
    fns = [(f"corpus:{name}", parse_fn(text)) for name, text in corpus(1, 300)]
    out = {}
    for fam in FAMILIES:
        t = parse_tnorm(fam)
        sets = fns + lattice if fam in HARNESS_CORPUS_FAMILIES else lattice
        out["harness:" + fam] = [(name, consistency_harness(f, t, n=12).render())
                                 for name, f in sets]
    return out


def digests(texts: dict) -> dict:
    """One sha256 per family over its units' texts, concatenated in order."""
    return {fam: hashlib.sha256("".join(text for _, text in rows).encode()).hexdigest()
            for fam, rows in texts.items()}


def test_render_digests():
    # Budget: 3 s; about 2 s on a 2-core host
    got = digests(rendered())
    want = json.loads(DIGESTS.read_text())
    assert got == {fam: want[fam] for fam in FAMILIES}, (
        "render_text changed; see this module's docstring to name the units")


def test_harness_digests():
    # Budget: 5 s; about 3.6 s on a 2-core host, 1.4 s of it gen:neglog's
    got = digests(harness_rendered())
    want = json.loads(DIGESTS.read_text())
    assert got == {fam: want[fam] for fam in got}, (
        "the harness render changed; see this module's docstring to name the units")


def _unit_hashes(texts: dict) -> dict:
    return {f"{name} {fam}": hashlib.sha256(text.encode()).hexdigest()
            for fam, rows in texts.items() for name, text in rows}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", metavar="SRC",
                    help="another tree's src directory to name the changed units against")
    ap.add_argument("--unit-hashes", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    texts = {**rendered(), **harness_rendered()}
    if args.unit_hashes:  # the --against child: this tree's units, as JSON
        json.dump(_unit_hashes(texts), sys.stdout)
        return
    if args.against:
        env = dict(os.environ, PYTHONPATH=os.path.abspath(args.against))
        theirs = json.loads(subprocess.run(
            [sys.executable, __file__, "--unit-hashes"], env=env, check=True,
            capture_output=True, text=True).stdout)
        changed = [u for u, h in _unit_hashes(texts).items() if theirs.get(u) != h]
        print(f"{len(changed)} units changed")
        for u in changed:
            print(f"  {u}")
    DIGESTS.write_text(json.dumps(digests(texts), indent=1) + "\n")
    print(f"wrote {DIGESTS}")


if __name__ == "__main__":
    main()
