"""Independent reference for the benchmark's outputs.

Written with `math` and `numpy` only; it never imports `gatss`, so it shares
no arithmetic with the program it checks.  Nothing is compared byte for
byte: each printed number is compared with a closed form under an absolute
or scaled tolerance, so a change that only moves roundoff still passes.

Each `check_*` returns a `Verdict` for one operation.  An operation fails
when it raised, when it exited nonzero although the reference answer is
finite, or when a printed value disagrees with the reference.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

# Evolve: |printed - closed form| for probabilities, spins and axis.
EVOLVE_TOL = 1e-9
# Diag: |e - (h0 +/- |h|)| relative to max(1, |h0|, |h|) for ordinary
# inputs, and to max(|h0|, |h|) for probes.
DIAG_REL_TOL = 1e-12

CONFORMANCE_SUITES = ("homomorphism", "associativity", "commutators", "rabi_triangle")


@dataclass
class Verdict:
    attempted: int = 1
    failures: list[str] = field(default_factory=list)  # a class per failed op
    max_abs_err: float = 0.0
    items: int = 0


def _program_failure(code, exc) -> str | None:
    """Failure class for a call that raised or exited nonzero."""
    if exc is not None:
        return "raised:" + exc.split(":", 1)[0]
    if code != 0:
        return f"exit{code}"
    return None


# ----------------------------------------------------------------- evolve

def evolve_closed_form(b: tuple[float, float, float], t: np.ndarray) -> dict[str, np.ndarray]:
    """Columns for a start in eps_plus with q = m = hbar = 1.

    H = -(1/2) B.sigma turns the Bloch vector by -|B| t about B/|B|
    (Rodrigues' formula applied to e3); the Rabi formula gives p_minus and
    the spin is (hbar/2) times the axis.
    """
    b_norm = math.hypot(*b)
    k1, k2, k3 = (x / b_norm for x in b)
    alpha = b_norm * t
    ca, sa = np.cos(alpha), np.sin(alpha)
    u1 = k1 * k3 * (1.0 - ca) - k2 * sa
    u2 = k2 * k3 * (1.0 - ca) + k1 * sa
    u3 = ca + k3 * k3 * (1.0 - ca)
    p_minus = 0.5 * (k1 * k1 + k2 * k2) * (1.0 - ca)
    return {
        "p_minus": p_minus,
        "p_plus": 1.0 - p_minus,
        "u1": u1, "u2": u2, "u3": u3,
        "s1": 0.5 * u1, "s2": 0.5 * u2, "s3": 0.5 * u3,
    }


# Columns that `evolve --check` adds: the program's own deviations from its
# matrix oracle, which the reference expects to be zero within EVOLVE_TOL.
EVOLVE_DEV_COLUMNS = ("dev_p", "dev_s", "dev_u")


def _parse_evolve(text: str, fmt_kind: str) -> dict[str, np.ndarray]:
    if fmt_kind == "json":
        return {name: np.array(col, dtype=float) for name, col in json.loads(text).items()}
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return {name: rows[:, i] for i, name in enumerate(header)}


def check_evolve(params: dict, code, exc, out: str) -> Verdict:
    steps = params["steps"]
    failure = _program_failure(code, exc)
    if failure:
        return Verdict(failures=[failure], items=steps)
    try:
        cols = _parse_evolve(out, params["format"])
        t = cols["t"]
        if t.shape != (steps,):
            return Verdict(failures=["wrong:rows"], items=steps)
        grid = np.linspace(params["t_start"], params["t_end"], steps)
        if np.max(np.abs(t - grid)) > 1e-12 * max(1.0, abs(params["t_end"])):
            return Verdict(failures=["wrong:t"], items=steps)
        ref = evolve_closed_form(tuple(params["B"]), t)
        errs = [np.max(np.abs(cols[name] - ref[name])) for name in ref]
        errs.append(np.max(np.abs(cols["p_plus"] + cols["p_minus"] - 1.0)))
        if params["format"] == "json":
            errs += [np.max(np.abs(cols[name])) for name in EVOLVE_DEV_COLUMNS]
    except (KeyError, ValueError, IndexError, TypeError):
        return Verdict(failures=["malformed"], items=steps)
    worst = float(max(errs))
    return Verdict(failures=["wrong"] if not worst <= EVOLVE_TOL else [],
                   max_abs_err=worst, items=steps)


# ------------------------------------------------------------------- diag

def diag_closed_form(h: tuple[float, float, float, float]) -> tuple[float, float, bool]:
    """(e_plus, e_minus, degenerate) = (h0 + |h|, h0 - |h|, h == 0)."""
    r = math.hypot(h[1], h[2], h[3])
    return h[0] + r, h[0] - r, r == 0.0


def _parse_diag(text: str, fmt_kind: str) -> tuple[float, float, bool]:
    if fmt_kind == "json":
        d = json.loads(text)
        return float(d["e_plus"]), float(d["e_minus"]), d["degenerate"] is True
    d = dict(line.split(" = ", 1) for line in text.splitlines() if " = " in line)
    return float(d["e_plus"]), float(d["e_minus"]), d["degenerate"] == "true"


def check_diag(params: dict, code, exc, out: str, probe: bool) -> Verdict:
    h = tuple(params["h"])
    e_plus, e_minus, degenerate = diag_closed_form(h)
    failure = _program_failure(code, exc)
    if failure:
        return Verdict(failures=[failure], items=1)
    try:
        got_plus, got_minus, got_degenerate = _parse_diag(out, params["format"])
    except (KeyError, ValueError, TypeError):
        return Verdict(failures=["malformed"], items=1)
    scale = max(abs(h[0]), math.hypot(*h[1:]), 0.0 if probe else 1.0)
    err = max(abs(got_plus - e_plus), abs(got_minus - e_minus))
    # probe errors scale with the input; only ordinary inputs contribute
    # to the absolute error
    verdict = Verdict(items=1, max_abs_err=0.0 if probe else err)
    if got_degenerate != degenerate:
        verdict.failures.append("wrong:degenerate")
    elif not err <= DIAG_REL_TOL * scale:
        verdict.failures.append("wrong:eigenvalue")
    return verdict


# ------------------------------------------------------------ conformance

def check_conformance(params: dict, code, exc, out: str) -> Verdict:
    """One operation per suite line; all must PASS with `count` draws."""
    n = len(CONFORMANCE_SUITES)
    items = 3 * params["count"]
    failure = _program_failure(code, exc)
    if failure:
        return Verdict(attempted=n, failures=[failure] * n, items=items)
    lines = {}
    for line in out.splitlines():
        fields = line.split()
        if fields and fields[0] in CONFORMANCE_SUITES:
            lines[fields[0]] = fields
    failures = []
    for suite in CONFORMANCE_SUITES:
        fields = lines.get(suite)
        try:
            kv = dict(f.split("=", 1) for f in fields[2:])
            want = 9 if suite == "commutators" else params["count"]
            ok = (fields[1] == "PASS" and int(kv["count"]) == want
                  and float(kv["worst"]) <= float(kv["tol"]))
        except (TypeError, KeyError, ValueError, IndexError):
            ok = False
        if not ok:
            failures.append(f"wrong:{suite}")
    if f"overall: PASS (seed={params['seed']})" not in out:
        failures = failures or ["wrong:overall"]
    return Verdict(attempted=n, failures=failures, items=items)
