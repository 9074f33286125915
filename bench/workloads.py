"""Seeded inputs and output checks for the four benchmark workloads.

Every workload is a fixed list of CLI invocations.  The seed draws the law
parameters, the statistic and the urn seed from small pools of rationals with
small numerators and denominators, so the cost of a workload varies little
from seed to seed; the program only sees the generated specs and files.
Why each workload exists is recorded in BENCHMARK.json and bench/NOTES.md:
two sweeps that use the criterion layers differently (exact zeros, serial;
nonzero rationals, process pool), a projection workload for decomp and
linalg, and an urn workload for urnsim.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

K_SWEEP_HLS, N_SWEEP_HLS = 4, 6
K_SWEEP_MIX, N_SWEEP_MIX = 3, 9
K_PROJECT, STAT_ORDER = 4, 8
URN_SAMPLES, URN_N = 50000, 4

# Parameter pools.  Small numerators and denominators keep the cost of a
# workload nearly the same from seed to seed.  Where the cost was seen to
# move with the parameters (mixture, Polya, urn), the seed only picks among
# values with one common denominator, or an order of fixed values.
PI_NU = ("1/2", "1", "3/2", "2", "5/2", "3")
ALPHA = ("1/6", "1/5", "1/4", "1/3", "2/5")
WEIGHTS = ("1/3", "2/3")
POLYA_ALPHA = ("1/2", "1", "3/2", "2")
URN_ALPHA = ("1/4", "1/3")
URN_PI_NU = (1, 2)

Check = Callable[[int, bytes], Optional[str]]


@dataclass
class Invocation:
    label: str
    argv: list[str]
    check: Check
    jobs: int = 1


@dataclass
class Workload:
    name: str
    invocations: list[Invocation]
    # untimed CLI runs made once per benchmark run: (argv, expected exit code)
    side_checks: list[tuple[list[str], int]] = field(default_factory=list)


def _spec(values) -> str:
    return ",".join(str(Fraction(v)) for v in values)


def _hls_spec(rng: random.Random, colors: int) -> str:
    pi, nu = rng.choice(PI_NU), rng.choice(PI_NU)
    alpha = [rng.choice(ALPHA) for _ in range(colors - 2)]
    return f"hls:K={colors},pi={pi},nu={nu},alpha={_spec(alpha)}"


def _iid_vectors() -> list[tuple[Fraction, Fraction, Fraction]]:
    den = 5
    return [
        (Fraction(a, den), Fraction(b, den), Fraction(den - a - b, den))
        for a in range(1, den - 1)
        for b in range(1, den - a)
    ]


def _mixture_spec(rng: random.Random) -> str:
    # The two components differ, and so do their color-2 : color-3 ratios: a
    # mixture whose components share that ratio has the HLS shape.
    vectors = _iid_vectors()
    while True:
        p1, p2 = rng.sample(vectors, 2)
        if p1[1] * p2[2] != p2[1] * p1[2]:
            break
    w = Fraction(rng.choice(WEIGHTS))
    return f"mixture:w={_spec((w, 1 - w))};p1={_spec(p1)};p2={_spec(p2)}"


def sweep_entries(colors: int, n_max: int) -> int:
    """Closed-form tuple count: sum_n (n-1) C(n+K-2, K-1) C(n+K-2, K-2)."""
    return sum(
        (n - 1) * math.comb(n + colors - 2, colors - 1) * math.comb(n + colors - 2, colors - 2)
        for n in range(2, n_max + 1)
    )


def _load(out: bytes) -> dict:
    return json.loads(out.decode("utf-8"))


def _check_sweep_hls(code: int, out: bytes) -> Optional[str]:
    if code != 0:
        return f"exit {code}, expected 0"
    report = _load(out)
    want = sweep_entries(K_SWEEP_HLS, N_SWEEP_HLS)
    if len(report["entries"]) != want:
        return f"{len(report['entries'])} entries, closed form gives {want}"
    if report["all_zero"] is not True or report["first_nonzero"] is not None:
        return "report does not claim all_zero"
    if any(Fraction(e["value"]) != 0 for e in report["entries"]):
        return "a nonzero entry in an all_zero report"
    return None


def _check_sweep_mixture(code: int, out: bytes) -> Optional[str]:
    if code != 1:
        return f"exit {code}, expected 1"
    report = _load(out)
    want = sweep_entries(K_SWEEP_MIX, N_SWEEP_MIX)
    if len(report["entries"]) != want:
        return f"{len(report['entries'])} entries, closed form gives {want}"
    first = report["first_nonzero"]
    if report["all_zero"] is not False or first is None or Fraction(first["value"]) == 0:
        return "no nonzero witness"
    if first != next(e for e in report["entries"] if Fraction(e["value"]) != 0):
        return "first_nonzero is not the first nonzero entry"
    return None


def _check_decompose(statistic: dict[tuple[int, ...], Fraction]) -> Check:
    def check(code: int, out: bytes) -> Optional[str]:
        if code != 0:
            return f"exit {code}, expected 0"
        report = _load(out)
        if report["n"] != STAT_ORDER or len(report["components"]) != STAT_ORDER + 1:
            return "wrong order or component count"
        sums = {comp: Fraction(0) for comp in statistic}
        for part in report["components"]:
            for item in part["values"]:
                sums[tuple(item["composition"])] += Fraction(item["value"])
        if sums != statistic:
            return "components do not sum to the statistic"
        return None

    return check


def _check_oracle(code: int, out: bytes) -> Optional[str]:
    if code != 0:
        return f"exit {code}, expected 0"
    report = _load(out)
    if report["weakly_independent"] is not True or len(report["results"]) != 5:
        return "oracle report does not confirm weak independence for n = 2..6"
    return None


def _check_urn(code: int, out: bytes) -> Optional[str]:
    report = _load(out)
    cells = report["estimates"]
    if len(cells) != math.comb(URN_N + 3, 3):
        return f"{len(cells)} cells, expected {math.comb(URN_N + 3, 3)}"
    if sum(c["count"] for c in cells) != URN_SAMPLES:
        return "counts do not sum to --samples"
    if sum(Fraction(c["exact"]) for c in cells) != 1:
        return "exact class probabilities do not sum to 1"
    all_within = True
    for c in cells:
        phat, p = Fraction(c["count"], URN_SAMPLES), Fraction(c["exact"])
        if Fraction(c["estimate"]) != phat:
            return f"estimate {c['estimate']} is not count/samples"
        dev = (phat - p) ** 2 * URN_SAMPLES
        if (dev <= 16 * p * (1 - p)) != c["within_four_sigma"]:
            return f"within_four_sigma flag wrong at {c['composition']}"
        # a 4-sigma miss is a legitimate 1-in-1000 draw; beyond 6 sigma is not
        if dev > 36 * p * (1 - p):
            return f"estimate more than six sigma off at {c['composition']}"
        all_within = all_within and c["within_four_sigma"]
    if report["all_within_four_sigma"] != all_within or code != (0 if all_within else 1):
        return f"exit {code} disagrees with all_within_four_sigma={all_within}"
    return None


def build(name: str, seed: int, workdir: str) -> Workload:
    """The workload's invocations; input files are written into workdir,
    which is given relative to the directory the CLI runs in."""
    rng = random.Random(f"{name}:{seed}")
    if name == "sweep-hls":
        law = _hls_spec(rng, K_SWEEP_HLS)
        argv = ["verify", "--law", law, "--n-max", str(N_SWEEP_HLS), "--jobs", "1"]
        return Workload(name, [Invocation("verify", argv, _check_sweep_hls)])
    if name == "sweep-mixture":
        law = _mixture_spec(rng)
        argv = ["verify", "--law", law, "--n-max", str(N_SWEEP_MIX), "--jobs", "2"]
        return Workload(
            name,
            [Invocation("verify", argv, _check_sweep_mixture, jobs=2)],
            side_checks=[(["oracle", "--law", law, "--n-max", "3"], 1)],
        )
    if name == "project":
        alpha = rng.sample(POLYA_ALPHA, len(POLYA_ALPHA))
        comps = _compositions(STAT_ORDER, K_PROJECT)
        statistic = {
            c: Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))) for c in comps
        }
        path = f"{workdir}/statistic.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "order": STAT_ORDER,
                    "K": K_PROJECT,
                    "values": [
                        {"composition": list(c), "value": str(v)} for c, v in statistic.items()
                    ],
                },
                fh,
            )
        oracle_law = _hls_spec(rng, K_PROJECT)
        return Workload(
            name,
            [
                Invocation(
                    "decompose",
                    ["decompose", "--law", f"polya:alpha={_spec(alpha)}", "--statistic", path],
                    _check_decompose(statistic),
                ),
                Invocation("oracle", ["oracle", "--law", oracle_law, "--n-max", "6"], _check_oracle),
            ],
        )
    if name == "urn":
        alpha = rng.sample(URN_ALPHA, len(URN_ALPHA))
        pi, nu = rng.sample(URN_PI_NU, 2)
        argv = [
            "simulate", "--urn", "hls", "--alpha", _spec(alpha),
            "--pi", str(pi), "--nu", str(nu),
            "--samples", str(URN_SAMPLES), "--n", str(URN_N),
            "--compare-exact", "--seed", str(rng.randrange(1, 2**31)),
        ]
        return Workload(name, [Invocation("simulate", argv, _check_urn)])
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("sweep-hls", "sweep-mixture", "project", "urn")


def _compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    if parts == 1:
        return [(total,)]
    return [
        (first, *rest)
        for first in range(total, -1, -1)
        for rest in _compositions(total - first, parts - 1)
    ]
