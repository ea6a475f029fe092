"""Benchmark workloads: input generators, the job each workload runs, and the
checks that decide whether a job's output is correct.

Every job returns its canonical text output.  The benchmark compares the
SHA-256 of that text with the digest recorded in the catalogue when the
catalogue was built, and every job also runs property checks of its own, so
a wrong answer fails even where no digest applies.

The generators are used only by ``build_catalog.py``; a benchmark run draws
its inputs from the committed catalogue (see NOTES.md for why).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import statistics
from fractions import Fraction
from pathlib import Path

from toricdeg import fixtures as fx
from toricdeg.degeneration import family_ideal, fiber, hilbert_witness, projection_limit
from toricdeg.intlat import IntMatrix
from toricdeg.ioformats import ideal_to_text, parse_ideal_text
from toricdeg.momentmap import image_vs_polytope, sample_moment_image
from toricdeg.toric import PolytopeQ, hull_vertices, toric_ideal, torus_point

CATALOG_DIR = Path(__file__).resolve().parent / "catalog"
WORKLOADS = ("fixtures", "families", "lattices", "moment")

FAMILY_HILBERT_DEGREE = 6
LATTICE_HILBERT_DEGREE = 8
MOMENT_SAMPLES = 4
MOMENT_EPS = 1e-9
STRATUM_SIZE = 4


class CheckFailed(Exception):
    """A job ran to the end but one of its property checks did not hold."""


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# input generators (catalogue build only)


def _monomial(rng: random.Random, nvars: int, degree: int) -> tuple:
    e = [0] * nvars
    for _ in range(degree):
        e[rng.randrange(nvars)] += 1
    return tuple(e)


def _monomial_text(e, names) -> str:
    return "*".join(v if k == 1 else f"{v}^{k}" for v, k in zip(names, e) if k)


def gen_family(rng: random.Random) -> dict:
    """Random homogeneous ideal as text: 5-6 variables, 3-4 generators of
    degree 2-3 with 3-4 terms each, coefficients in +-{1,2,3}; weight vector
    in [0,4]^n."""
    n = rng.randint(5, 6)
    names = [f"x{i}" for i in range(n)]
    lines = ["vars: " + ",".join(names)]
    for _ in range(rng.randint(3, 4)):
        d = rng.randint(2, 3)
        exps = set()
        target = rng.randint(3, 4)
        while len(exps) < target:
            exps.add(_monomial(rng, n, d))
        terms = []
        for e in sorted(exps, reverse=True):
            c = rng.choice((1, 2, 3)) * rng.choice((1, -1))
            terms.append(("- " if c < 0 else "+ ") + f"{abs(c)}*{_monomial_text(e, names)}")
        lines.append(" ".join(terms).removeprefix("+ "))
    return {"text": "\n".join(lines) + "\n", "w": [rng.randint(0, 4) for _ in range(n)]}


def gen_lattice(rng: random.Random) -> dict:
    """All-ones row plus 1-2 value rows, 6-8 distinct columns; 1-2 coordinates
    dropped by the projection; an exact torus point for the vanishing check."""
    n = rng.randint(6, 8)
    k = rng.randint(1, 2)
    if k == 1:
        # distinct columns need at least n distinct values in the single row
        cols = [(v,) for v in rng.sample(range(n + 3), n)]
    else:
        cols = rng.sample([(a, b) for a in range(4) for b in range(4)], n)
    rows = [[1] * n] + [[c[i] for c in cols] for i in range(k)]
    dropped = sorted(rng.sample(range(n), rng.randint(1, 2)))
    t = [[rng.randint(1, 5), rng.randint(1, 5)] for _ in range(k + 1)]
    return {"matrix": rows, "dropped": dropped, "torus_t": t}


def gen_moment(rng: random.Random) -> dict:
    """Weight matrix with 2 or 3 rows and 4-6 distinct columns (at most 5
    with 3 rows), entries in [0,3]; a seed for the sampler."""
    r = rng.randint(2, 3)
    c = rng.randint(4, 6 if r == 2 else 5)
    cols = rng.sample(list(itertools.product(range(4), repeat=r)), c)
    rows = [[col[i] for col in cols] for i in range(r)]
    return {"matrix": rows, "sample_seed": rng.randrange(2**31)}


GENERATORS = {"families": gen_family, "lattices": gen_lattice, "moment": gen_moment}


# ---------------------------------------------------------------------------
# jobs


def _names(n: int):
    return tuple(f"x{i}" for i in range(n))


def _witness_text(wit) -> str:
    return "".join(f"hilbert {m}: {a} {b}\n" for m, a, b in wit)


def run_family(inp: dict) -> str:
    J = parse_ideal_text(inp["text"])
    F = family_ideal(J, inp["w"])
    f0 = fiber(F, 0)
    f1 = fiber(F, 1)
    wit = hilbert_witness(f1, f0, range(FAMILY_HILBERT_DEGREE + 1))
    _require(all(a == b for _, a, b in wit), "fibers t=0 and t=1 differ in Hilbert function")
    return ideal_to_text(f0) + ideal_to_text(f1) + _witness_text(wit)


def run_lattice(inp: dict) -> str:
    A = IntMatrix(inp["matrix"])
    names = _names(A.cols)
    T = toric_ideal(A, names)
    pt = torus_point(A, [Fraction(a, b) for a, b in inp["torus_t"]])
    _require(all(g.evaluate(pt) == 0 for g in T.gens), "toric ideal does not vanish on the torus point")
    kept = [v for i, v in enumerate(names) if i not in inp["dropped"]]
    pr = projection_limit(T, kept)
    _require(pr.scheme_check, "projection scheme_check failed")
    wit = hilbert_witness(T, pr.limit, range(LATTICE_HILBERT_DEGREE + 1))
    _require(all(a == b for _, a, b in wit), "flat limit differs from the toric ideal in Hilbert function")
    return (ideal_to_text(T) + ideal_to_text(pr.limit) + ideal_to_text(pr.cone_part)
            + ideal_to_text(pr.closure) + _witness_text(wit))


def run_moment(inp: dict) -> str:
    A = IntMatrix(inp["matrix"])
    samples = sample_moment_image(A, MOMENT_SAMPLES, inp["sample_seed"])
    verts = hull_vertices(A.columns())
    res = image_vs_polytope(samples, PolytopeQ(verts, A.rows), MOMENT_EPS)
    _require(res["inside_fraction"] == 1.0, f"inside_fraction {res['inside_fraction']} != 1.0")
    # coverage_gap is floating point and may differ in the last digits across
    # numpy builds, so it is not part of the canonical text
    return "".join("vertex " + " ".join(str(x) for x in v) + "\n" for v in verts) + \
        f"inside_fraction {res['inside_fraction']}\n"


def _check_text(c) -> str:
    # the elliptic fixture's sample extremes are floats from the sampler; keep
    # only exact computed values in the canonical text
    computed = "~" if _is_float(c.computed) else c.computed
    return f"{c.name} {c.passed} {computed}\n"


def _is_float(s: str) -> bool:
    try:
        float(s)
    except ValueError:
        return False
    return not s.lstrip("-").isdigit()


def run_fixture_pass(inp: dict) -> str:
    """One pass of the seven bundled fixtures, as `toricdeg fixtures run all`."""
    out = []
    for name in fx.FIXTURE_NAMES:
        rep = fx.run_fixture(name)
        failed = [c.name for c in rep.checks if not c.passed]
        _require(not failed, f"fixture {name}: checks failed: {failed}")
        out.append(f"[{name}]\n" + "".join(_check_text(c) for c in rep.checks))
    return "".join(out)


RUNNERS = {
    "fixtures": run_fixture_pass,
    "families": run_family,
    "lattices": run_lattice,
    "moment": run_moment,
}


def input_sizes(workload: str, inp: dict, out: str | None) -> dict:
    """Sizes recorded per job in the traced output; `out` is the job's
    canonical text, None when the job failed."""
    if workload == "families":
        gens = [ln for ln in inp["text"].splitlines()[1:] if ln.strip()]
        return {"vars": len(inp["w"]), "gens": len(gens), "order": "weight"}
    if workload == "lattices":
        return {"vars": len(inp["matrix"][0]), "rows": len(inp["matrix"]),
                "dropped": len(inp["dropped"])}
    if workload == "moment":
        vertices = None if out is None else out.count("vertex ")
        return {"dim": len(inp["matrix"]), "columns": len(inp["matrix"][0]), "vertices": vertices}
    return {"fixtures": len(fx.FIXTURE_NAMES)}


# ---------------------------------------------------------------------------
# catalogue and per-seed job schedule


def load_catalog(workload: str) -> dict:
    with open(CATALOG_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _spread(n: int):
    """0..n-1 in bit-reversed order: every prefix is spread over the range."""
    bits = max(1, (n - 1).bit_length())
    rev = (int(format(i, f"0{bits}b")[::-1], 2) for i in range(1 << bits))
    return [r for r in rev if r < n]


def schedule(workload: str, seed: int, catalog: dict):
    """The seed's job list, in rounds of one job from each cost stratum.

    Entries are ranked by their recorded cost and cut into strata of
    STRATUM_SIZE; the seed picks the order in which each stratum's entries
    are used.  Within a round the strata come in a fixed order that spreads
    cheap and costly ones, so the cost mix of a run, also of its last partial
    round, does not depend on the seed.
    """
    rng = random.Random(f"{workload}:{seed}")
    ranked = sorted(catalog["entries"], key=lambda e: e["cost_s"])
    strata = [ranked[i:i + STRATUM_SIZE] for i in range(0, len(ranked), STRATUM_SIZE)]
    for members in strata:
        rng.shuffle(members)
    order = _spread(len(strata))
    return [strata[s][r] for r in range(min(map(len, strata))) for s in order]


def job_count(catalog: dict, seconds: float) -> int:
    """How many jobs take `seconds` at the catalogue's mean job cost."""
    mean = statistics.fmean(e["cost_s"] for e in catalog["entries"])
    return max(1, round(seconds / mean))

