"""The benchmark's workloads: the CLI steps each one runs, and the
seeded input generator for ``analyze-batch``.

Every workload runs the ``icosahedral`` CLI as a user would, one child
process per step.  The program sees only the generated argv and files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

# Check ids each suite reports; a step whose report has a different set
# fails, so deleting a check cannot buy speed.
SUITE_CHECK_IDS = {
    "icosa": ("fundamental-identity", "invariance-S", "invariance-T",
              "invariance-U", "resolvent-grid"),
    "klein-link": ("fixed-samples", "random-samples"),
    "qcurve": ("isogeny-codomain", "isogeny-composition", "published-model-j",
               "j-equation-t1", "j-equation-family", "hyperelliptic-points"),
    "repn": ("varpi-identities", "group-order", "faithful", "relations",
             "homomorphism", "congruence"),
    "hecke": ("sigma-identity", "square-identity", "positive-units",
              "value-group"),
    "localfield": ("artin-schreier", "square-unit-table", "hypothesis-triple",
                   "family-squares"),
    "table": tuple(f"row-{i}" for i in range(1, 6)),
}
ALL_SUITES = ("icosa", "klein-link", "qcurve", "repn", "hecke", "localfield")

# analyze-batch input size.  Height 30 keeps the per-record cost even: at
# height 100 the slowest 1% of records (large factorisations) took 55% of
# the time, so wall time would follow a few records and the seed.
ANALYZE_INPUT = "analyze-input.jsonl"
ANALYZE_RECORDS = 8000
ANALYZE_HEIGHT = 30
A_SHARE = 0.25
# Random B and C almost never give a defined t, so a small share of the
# records are family quintics q_t with t = p/q, 1 <= p, q <= FAMILY_HEIGHT,
# whose t and hypothesis the oracle then checks.
FAMILY_SHARE = 0.02
FAMILY_HEIGHT = 9
# Records the program must answer with "status": "error": delta = 0 (the
# j-equation degenerates) or A = C = 0 (t is undefined).  They sit at fixed
# positions so every seed has the same handful.
DEGENERATE = (
    (0, 0, 1),
    (5, 5, 0),
    (1, 1, Fraction(4, 25)),
    (0, 7, 0),
    (0, 0, 0),
)


@dataclass(frozen=True)
class Step:
    """One CLI process: its name, argv after ``icosahedral``, and the
    check ids its report must hold (empty for ``analyze``)."""

    name: str
    argv: tuple
    check_ids: frozenset

    @property
    def is_analyze(self) -> bool:
        return self.argv[0] == "analyze"


def _ids(*suites) -> frozenset:
    return frozenset(f"{s}/{c}" for s in suites for c in SUITE_CHECK_IDS[s])


def steps(workload: str, seed: int, data_dir) -> list:
    """The steps of a workload; output paths are filled in by the caller."""
    s = str(seed)
    if workload == "verify-all":
        return [Step("verify-all", ("verify", "all", "--seed", s),
                     _ids(*ALL_SUITES))]
    if workload == "verify-scaled":
        return [
            Step("klein-link", ("verify", "klein-link", "--samples", "150",
                                "--seed", s), _ids("klein-link")),
            Step("qcurve", ("verify", "qcurve", "--samples", "200",
                            "--height", "1500", "--seed", s), _ids("qcurve")),
            Step("repn", ("verify", "repn", "--samples", "10000",
                          "--seed", s), _ids("repn")),
            Step("localfield", ("verify", "localfield", "--samples", "500",
                                "--seed", s), _ids("localfield")),
            Step("hecke", ("verify", "hecke", "--seed", s), _ids("hecke")),
            Step("table", ("table",), _ids("table")),
        ]
    if workload == "analyze-batch":
        path = data_dir / ANALYZE_INPUT
        return [Step("analyze", ("analyze", "--file", str(path), "--json",
                                 "--seed", s), frozenset())]
    raise KeyError(workload)


WORKLOADS = ("verify-all", "verify-scaled", "analyze-batch")


def _rational(rng: random.Random, height: int) -> Fraction:
    num = rng.randint(1, height) * rng.choice((-1, 1))
    return Fraction(num, rng.randint(1, height))


def _delta_num(a, b, c) -> Fraction:
    return a ** 4 - 5 * b ** 3 + 25 * a * b * c


def _disc(a, b, c) -> Fraction:
    return (-27 * a ** 4 * b ** 2 + 108 * a ** 5 * c - 1600 * a * b ** 3 * c
            + 2250 * a ** 2 * b * c ** 2 + 256 * b ** 5 + 3125 * c ** 4)


def analyze_records(seed: int, count: int = ANALYZE_RECORDS,
                    height: int = ANALYZE_HEIGHT) -> list:
    """Seeded records {"label", "A", "B", "C", "expect"}.

    B and C are nonzero with numerators and denominators bounded by
    ``height``; about a quarter of the records carry a nonzero A.  About
    FAMILY_SHARE of them are family trinomials q_t instead.  Random
    records with delta = 0 or a vanishing discriminant are redrawn, so
    only the fixed DEGENERATE records expect an error.
    """
    rng = random.Random(seed)
    slots = {(k + 1) * count // (len(DEGENERATE) + 1): abc
             for k, abc in enumerate(DEGENERATE)}
    records = []
    for i in range(count):
        if i in slots:
            a, b, c = (Fraction(v) for v in slots[i])
            expect = "error"
        elif rng.random() < FAMILY_SHARE:
            t = Fraction(rng.randint(1, FAMILY_HEIGHT),
                         rng.randint(1, FAMILY_HEIGHT))
            k = (9 - 5 * t * t) / (t * t)
            a, b, c = Fraction(0), k, 4 * k / 5
            expect = "ok"
        else:
            while True:
                a = (_rational(rng, height) if rng.random() < A_SHARE
                     else Fraction(0))
                b, c = _rational(rng, height), _rational(rng, height)
                if _delta_num(a, b, c) and _disc(a, b, c):
                    break
            expect = "ok"
        records.append({"label": f"r{i:05d}", "A": a, "B": b, "C": c,
                        "expect": expect})
    return records


def write_records(records, path) -> None:
    """Write records as JSON lines; A is omitted when zero (its default)."""
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            obj = {"label": r["label"]}
            if r["A"]:
                obj["A"] = str(r["A"])
            obj["B"], obj["C"] = str(r["B"]), str(r["C"])
            fh.write(json.dumps(obj) + "\n")
