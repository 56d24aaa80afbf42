"""Seeded argv generators for the three benchmark workloads.

Each workload is a `Plan`: `plan.call(i)` makes the i-th call of a run from
(workload, seed, i) alone, so the timed child builds each call just before
it runs it and the parent rebuilds the same call to check its output.  No
two calls of a run share argv.  `plan.probes` are calls that run exactly
once per run, before the timed calls.  The program under test only ever
sees the generated argv.

Every value goes on the command line as `--flag=value`.  The split form
`--flag value` breaks on negative numbers: argparse reads `--h -0.5,1,2,3`
as a missing argument, because `-0.5,...` looks like an option.

Floats are written with 17 significant digits, so the reference reads back
exactly the numbers the program parsed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

NAMES = ("evolve_trajectory", "conformance_sweep", "diag_mix")

# Rows per evolve call.  Long enough that the per-row path dominates the
# fixed per-call cost (argparse, config, field set-up), short enough that a
# 38-second run makes over 500 calls, so at least 10 lie beyond the 98th
# percentile that the timing metrics use; see README.md.
EVOLVE_ROWS = 100
# Randomized draws per conformance suite and call (3 suites draw: 3 * count),
# sized like EVOLVE_ROWS.
CONFORMANCE_COUNT = 75
# Conformance seeds are 1 + (base + i * stride) mod (2^31 - 1): a prime
# modulus, so the seeds of one run are distinct for i < 2^31 - 1.
SEED_MODULUS = 2**31 - 1
SEED_STRIDE = 1_000_003
# conformance_sweep probes: checked evolve calls with JSON output, the only
# calls that run the oracle's expectation_matrix and u_vector_closed_form.
CHECKED_PROBES = 4
CHECKED_ROWS = 100

# diag_mix shares, per block of 20 calls.
DIAG_BLOCK = (
    ("generic",) * 14
    + ("degenerate",) * 2
    + ("axis_plus", "axis_minus")
    + ("tiny_h0", "offset_h0")
)
# Probes, run once per run: "wide" puts all four coefficients at one
# decimal exponent, stratified over the finite double range; "offset" puts
# h0 at 10^k times |h|.  Both find defects of gatss 0.1.0 (README.md),
# so their failures are counted and classified but do not make a run
# incorrect.
DIAG_PROBE_KINDS = ("wide", "offset")
WIDE_STRATA = 40
OFFSET_EXPONENTS = range(1, 16)
WIDE_FIXED = (
    (0.0, 1e200, 1e200, 0.0),
    (0.0, 1e-200, 0.0, 1e-200),
    (1e10, 1e10, 1e10, 1e10),
)


def fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass
class Call:
    """One `gatss.cli.main(argv)` invocation and what the reference needs."""

    argv: list[str]
    kind: str
    params: dict = field(default_factory=dict)


@dataclass
class Plan:
    workload: str
    seed: int
    probes: list[Call]
    # items per call: trajectory rows, randomized draws, or 1 diag call
    items_per_call: int

    def call(self, i: int) -> Call:
        """The i-th timed call of a run."""
        if self.workload == "conformance_sweep":
            base = random.Random(f"{self.workload}:{self.seed}").randrange(SEED_MODULUS)
            s = 1 + (base + i * SEED_STRIDE) % SEED_MODULUS
            return Call(["conformance", f"--seed={s}", f"--count={CONFORMANCE_COUNT}"],
                        "conformance", {"seed": s, "count": CONFORMANCE_COUNT})
        rng = random.Random(f"{self.workload}:{self.seed}:{i}")
        if self.workload == "evolve_trajectory":
            return _evolve_call(rng, EVOLVE_ROWS)
        kind = DIAG_BLOCK[i % len(DIAG_BLOCK)]
        # csv and json alternate, and swap places every block, so every
        # kind of input runs in both formats
        fmt_kind = "json" if (i + i // len(DIAG_BLOCK)) % 2 else "csv"
        return _diag_call(kind, _diag_h(kind, rng), fmt_kind)


def _tilted_field(rng: random.Random) -> tuple[float, float, float]:
    """Field with all three components nonzero: each at least 10% of |B|."""
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        n = math.sqrt(sum(x * x for x in v))
        if n > 0.0 and min(abs(x) for x in v) >= 0.1 * n:
            mag = rng.uniform(0.5, 2.0)
            return tuple(mag * x / n for x in v)


def _evolve_call(rng: random.Random, rows: int, checked: bool = False) -> Call:
    b = _tilted_field(rng)
    t_start = rng.uniform(0.0, 10.0)
    # many Larmor periods (omega = |B| with q = m = hbar = 1)
    t_end = t_start + rng.uniform(200.0, 400.0)
    argv = [
        "evolve",
        f"--B={fmt(b[0])},{fmt(b[1])},{fmt(b[2])}",
        f"--t-start={fmt(t_start)}",
        f"--t-end={fmt(t_end)}",
        f"--steps={rows}",
    ]
    if checked:
        argv += ["--check", "--check-rabi", "--format=json"]
    return Call(argv, "evolve", {"B": b, "t_start": t_start, "t_end": t_end, "steps": rows,
                                 "format": "json" if checked else "csv"})


def _diag_call(kind: str, h: tuple[float, float, float, float], fmt_kind: str) -> Call:
    argv = ["diag", "--h=" + ",".join(fmt(x) for x in h)]
    if fmt_kind == "json":
        argv.append("--format=json")
    return Call(argv, kind, {"h": h, "format": fmt_kind})


def _diag_h(kind: str, rng: random.Random) -> tuple[float, float, float, float]:
    u = lambda: rng.uniform(-5.0, 5.0)  # noqa: E731
    if kind == "generic":
        return (u(), u(), u(), u())
    if kind == "degenerate":
        return (u(), 0.0, 0.0, 0.0)
    if kind == "axis_plus":
        return (u(), 0.0, 0.0, rng.uniform(0.1, 5.0))
    if kind == "axis_minus":
        return (u(), 0.0, 0.0, -rng.uniform(0.1, 5.0))
    if kind == "tiny_h0":
        return (u() * 1e-6, u(), u(), u())
    if kind == "offset_h0":
        return (u() * 10.0, u(), u(), u())
    raise ValueError(kind)


def _diag_probes(rng: random.Random) -> list[Call]:
    probes = []
    lo, hi = -306.0, 306.0
    width = (hi - lo) / WIDE_STRATA
    for k in range(WIDE_STRATA):
        e = lo + width * (k + rng.random())
        h = tuple(
            rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 9.0) * 10.0 ** e for _ in range(4)
        )
        probes.append(_diag_call("wide", h, "json" if k % 2 else "csv"))
    for k, h in enumerate(WIDE_FIXED):
        probes.append(_diag_call("wide", h, "json" if k % 2 else "csv"))
    for k in OFFSET_EXPONENTS:
        h = [rng.uniform(-5.0, 5.0) for _ in range(3)]
        h0 = rng.choice((-1.0, 1.0)) * 10.0 ** k * math.hypot(*h)
        probes.append(_diag_call("offset", (h0, *h), "json" if k % 2 else "csv"))
    return probes


def make_plan(workload: str, seed: int) -> Plan:
    if workload not in NAMES:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(NAMES)}")
    rng = random.Random(f"{workload}:{seed}:probes")
    if workload == "evolve_trajectory":
        return Plan(workload, seed, [], EVOLVE_ROWS)
    if workload == "conformance_sweep":
        probes = [_evolve_call(rng, CHECKED_ROWS, checked=True) for _ in range(CHECKED_PROBES)]
        return Plan(workload, seed, probes, 3 * CONFORMANCE_COUNT)
    return Plan(workload, seed, _diag_probes(rng), 1)
