"""Command line front end: diag | evolve | conformance.

A command's arguments get one argparse pass, by that command's parser; the
top-level parser reads only an argv that starts with no command (none, -h
or an unknown command), and writes the usage error for arguments left over
after a command.  Flags must be spelled in full: no parser takes an
abbreviation.

Exit codes, which `main` alone decides: 0 on success, 1 for usage or
input errors, 2 when a numerical cross-check exceeds its tolerance or an
internal check fails (ArithmeticError, such as a row kernel that
disagrees with the object API).  Each subcommand returns its checks, as
`conformance.SuiteResult`s, and `main` maps them to 0 or 2 by `_passed`,
the verdict that conformance's overall line also reads.  Every number,
from a flag (each comma-separated part of --h and --B included) or from
the config file, is cast by the library's rule, `algebra._real`, which
for text is float.

csv, diag's text and the check lines write each number with 17
significant digits, JSON writes Python's shortest repr that reads back as
the same double, and conformance's summary rounds to 4 digits; all of it
is locale independent, so identical invocations produce byte-identical
bytes.  csv is written one row at a time, as the trajectory's columns
give them; the row kernels alone choose their block size.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import re
import sys
from collections.abc import Sequence

from . import conformance
from .algebra import _real
from .spinor import AlgebraicSpinor, basis_eps, to_amplitudes
from .twostate import (
    FieldConfig,
    Hamiltonian,
    eigensystem,
    polar_angles,
    polar_state,
    time_grid,
    trajectory,
)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; remap that to 1 so exit
    code 2 stays reserved for tolerance failures."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")  # a value: --h -0.5,1,2,3

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _json_floats(values, sep: str) -> str:
    """The floats joined by sep, each as json writes it: float.__repr__,
    with nan, inf and -inf as NaN, Infinity and -Infinity."""
    text = sep.join(map(float.__repr__, values))
    # among the reprs of floats, only nan and inf hold an "n"
    return text.replace("nan", "NaN").replace("inf", "Infinity") if "n" in text else text


def _json(value, indent: str = "\n") -> str:
    """value in the layout that the json module's dumps(value, indent=2)
    writes, for the values gatss writes: dicts with plain ASCII keys, lists
    of floats, floats, bools and plain ASCII strings.  indent is the line
    break and indentation of value's level."""
    if isinstance(value, float):
        return float.__repr__(value) if math.isfinite(value) else _json_floats((value,), "")
    inner = indent + "  "
    if isinstance(value, dict):
        items = ("," + inner).join(f'"{k}": {_json(v, inner)}' for k, v in value.items())
        return "{" + inner + items + indent + "}" if value else "{}"
    if isinstance(value, list):
        return "[" + inner + _json_floats(value, "," + inner) + indent + "]" if value else "[]"
    if isinstance(value, bool):
        return "true" if value else "false"
    return f'"{value}"'


# Casts turn a flag, config or default value into a checked setting; `name`
# is the setting's key, written with dashes in messages as on the command
# line.


def _number(value, name: str, low: float = -math.inf) -> float:
    label = name.replace("_", "-")
    try:
        out = _real(value, label)
    except (TypeError, ValueError):
        raise ValueError(f"{label} must be a number, got {value!r}") from None
    if not math.isfinite(out):
        raise ValueError(f"{label} must be finite")
    if out < low:  # -0.0 passes a low of 0
        raise ValueError(f"{label} must be at least {low:g}")
    return out


def _integer(value, name: str, low: float = -math.inf) -> int:
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer")
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be at least {low}")
    return value


def _boolean(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{name.replace('_', '-')} must be true or false, got {value!r}")
    return value


def _format(value, name: str) -> str:
    if value not in _FORMATS:
        raise ValueError('format must be "csv" or "json"')
    return value


def _numbers(n: int):
    """Cast of n numbers, given as "a,b,..." text or as a config list."""

    def cast(value, name: str) -> tuple[float, ...]:
        if isinstance(value, str):
            parts = [p.strip() for p in value.split(",")]
            if len(parts) != n:
                raise ValueError(
                    f"--{name} needs {n} comma-separated numbers, got {len(parts)}"
                )
            try:
                vals = tuple(_real(p, name) for p in parts)
            except ValueError as exc:
                raise ValueError(f"--{name}: {exc}") from None
            if not all(math.isfinite(v) for v in vals):
                raise ValueError(f"--{name} must be finite")
            return vals
        if not isinstance(value, (list, tuple)) or len(value) != n:
            raise ValueError(f"config {name} must be a list of {n} numbers")
        return tuple(_number(v, name) for v in value)

    return cast


_FORMATS = ("csv", "json")
_FLOAT = {"type": float}
_INT = {"type": int}
_REQUIRED = object()

# Every setting: its argparse keywords (None: config file only), its cast
# (None: kept as given) and its default in each subcommand that takes it.
# The order builds the flags, and so --help, and is the order in which
# settings are resolved and their errors reported.
_SETTINGS: dict[str, tuple[dict[str, object] | None, object, dict[str, object]]] = {
    "h": ({"metavar": "h0,h1,h2,h3", "help": "Hamiltonian coefficients"},
          _numbers(4), {"diag": _REQUIRED}),
    "B": ({"metavar": "b1,b2,b3", "help": "magnetic field components"},
          _numbers(3), {"evolve": _REQUIRED}),
    "q": (_FLOAT, _number, {"evolve": 1.0}),
    "m": (_FLOAT, _number, {"evolve": 1.0}),
    "hbar": (_FLOAT, _number, {"evolve": 1.0}),
    # cast along with the state, once the field is known to be valid
    "theta0": (_FLOAT, None, {"evolve": None}),
    "t_start": (_FLOAT, _number, {"evolve": 0.0}),
    "t_end": (_FLOAT, _number, {"evolve": _REQUIRED}),
    "steps": (_INT, functools.partial(_integer, low=1), {"evolve": _REQUIRED}),
    "seed": (_INT, _integer, {"conformance": 0}),
    "count": (_INT, _integer, {"conformance": 1000}),
    "format": ({"choices": _FORMATS}, _format, {"diag": "csv", "evolve": "csv"}),
    "check": ({"action": "store_true", "default": None,
               "help": "append matrix-oracle deviation columns"}, _boolean, {"evolve": False}),
    "check_rabi": ({"action": "store_true", "default": None,
                    "help": "compare p_minus against the closed Rabi formula"},
                   _boolean, {"evolve": False}),
    "config": ({"metavar": "PATH"}, None, {"diag": None, "evolve": None, "conformance": None}),
    # every worst value is at least 0, so a negative tol would fail every check
    "tol": (_FLOAT, functools.partial(_number, low=0.0), {"diag": 1e-9, "evolve": 1e-10}),
    "state": (None, None, {"evolve": None}),
}

# A config key that names the other subcommand's input is a mix-up.
_FOREIGN = {
    "diag": ("B", "diag takes a Hamiltonian, not a field; drop B"),
    "evolve": ("h", "evolve takes a field, not a Hamiltonian; drop h"),
}


def _load_config(path: str | None) -> dict[str, object]:
    if path is None:
        return {}
    import json  # only a config file is parsed, so only it loads json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # a decode error, bytes that are not UTF-8, an integer past int()'s
        # digit limit, or nesting past the recursion limit
        raise ValueError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return data


def _settings(args: argparse.Namespace) -> dict[str, object]:
    """The subcommand's settings: a flag overrides the config file, which
    overrides the default."""
    command = args.command
    config = _load_config(args.config)
    if command in _FOREIGN and config.get(_FOREIGN[command][0]) is not None:
        raise ValueError(_FOREIGN[command][1])
    settings: dict[str, object] = {}
    for name, (flag, cast, defaults) in _SETTINGS.items():
        if command not in defaults:
            continue
        value = getattr(args, name, None)
        if value is None:
            value = config.get(name)
        if value is None:
            value = defaults[command]
        if value is _REQUIRED:
            text = f"{command} needs --{name.replace('_', '-')}"
            if "metavar" in flag:
                text += f" {flag['metavar']} (or {name} in the config file)"
            raise ValueError(text)
        settings[name] = value if cast is None else cast(value, name)
        # the grid is complete with steps; check it before format and tol
        if name == "steps" and settings["t_end"] < settings["t_start"]:
            raise ValueError("t-end must not precede t-start")
    return settings


def _initial_state(theta0, state) -> AlgebraicSpinor:
    eps_plus, eps_minus = basis_eps()
    if theta0 is not None and state is not None:
        raise ValueError("give either theta0 or an explicit state, not both")
    if theta0 is not None:
        return polar_state(_number(theta0, "theta0"))
    if state is None or state == "plus":
        return eps_plus
    if state == "minus":
        return eps_minus
    if isinstance(state, dict):
        try:
            psi = AlgebraicSpinor.from_json_dict(state)
        except ValueError as exc:
            raise ValueError(f"bad state: {exc}") from None
        if not psi.is_normalized():
            raise ValueError("state must be normalized")
        return psi
    raise ValueError(
        'state must be "plus", "minus" or {"c_plus": [re, ps], "c_minus": [re, ps]}'
    )


def _brackets(n: int) -> str:
    """The % template of a list of n floats in diag's text report."""
    return "[" + ", ".join(["%.17g"] * n) + "]"


def _text_line(key: str, value) -> str:
    """One line of diag's text report, `key = value`, or `key: k = value,
    ...` for a dict of lists, written by one % template: a float with 17
    significant digits, a list of floats in brackets and a bool as true or
    false."""
    if isinstance(value, bool):
        return f"{key} = {'true' if value else 'false'}"
    if isinstance(value, str):
        return f"{key} = {value}"
    if isinstance(value, float):
        return f"{key} = %.17g" % value
    if isinstance(value, list):
        return f"{key} = {_brackets(len(value))}" % tuple(value)
    template = ", ".join(f"{k} = {_brackets(len(v))}" for k, v in value.items())
    return f"{key}: {template}" % tuple(itertools.chain(*value.values()))


def _passed(checks) -> bool:
    """The verdict of a command's checks, which `main`'s exit code and
    conformance's overall line both read: every check passed."""
    return all(check.passed for check in checks)


def _cmd_diag(s: dict[str, object]) -> list[conformance.SuiteResult]:
    ham = Hamiltonian(s["h"][0], s["h"][1:])
    es = eigensystem(ham)
    theta, phi = polar_angles(ham)
    residuals = conformance.eigensystem_residuals(ham, es)
    check = conformance.check("diag", [list(residuals.values())], s["tol"])
    report = {
        "e_plus": es.e_plus,
        "e_minus": es.e_minus,
        "degenerate": es.degenerate,
        "theta": theta,
        "phi": phi,
        "rotor": es.rotor.mv.to_json(),
        "psi_plus": es.psi_plus.to_json_dict(),
        "psi_minus": es.psi_minus.to_json_dict(),
        **residuals,
        "tol": s["tol"],
        "status": "ok" if check.passed else "tolerance-exceeded",
    }
    if s["format"] == "json":
        print(_json(report))
    else:
        print("\n".join(itertools.starmap(_text_line, report.items())))
    return [check]


def _cmd_evolve(s: dict[str, object]) -> list[conformance.SuiteResult]:
    cfg = FieldConfig(B=s["B"], q=s["q"], m=s["m"], hbar=s["hbar"])
    psi0 = _initial_state(s["theta0"], s["state"])
    if s["check_rabi"] and to_amplitudes(psi0)[1] != 0:
        raise ValueError("check-rabi assumes the initial state eps_plus")

    table = trajectory(cfg, psi0, time_grid(s["t_start"], s["t_end"], s["steps"]))
    checks = []
    if s["check"]:
        devs = conformance.trajectory_deviations(cfg, psi0, table)
        table.update(devs)
        checks.append(conformance.check("check", devs.values(), s["tol"]))
    if s["check_rabi"]:
        gaps = conformance.rabi_deviation(cfg, table)
        checks.append(conformance.check("check-rabi", [gaps], s["tol"]))

    if s["format"] == "csv":
        print(",".join(table))
        # one template per row, each value with 17 significant digits
        template = ",".join(["%.17g"] * len(table)) + "\n"
        sys.stdout.writelines(map(template.__mod__, zip(*table.values())))
    else:
        print(_json(table))
    for check in checks:
        print("%s: max_deviation = %.17g" % (check.name, check.worst), file=sys.stderr)
    return checks


def _cmd_conformance(s: dict[str, object]) -> list[conformance.SuiteResult]:
    results = conformance.run_all(s["seed"], s["count"])
    for r in results:
        print(
            f"{r.name:<14} {'PASS' if r.passed else 'FAIL'}  "
            f"worst={r.worst:.3e}  tol={r.tol:.1e}  count={r.count}"
        )
    print(f"overall: {'PASS' if _passed(results) else 'FAIL'} (seed={s['seed']})")
    return results


_COMMANDS = {
    "diag": ("diagonalize a two-state Hamiltonian and cross-check it", _cmd_diag),
    "evolve": ("emit a trajectory in a static field", _cmd_evolve),
    "conformance": ("run the randomized invariant suites", _cmd_conformance),
}


@functools.cache
def _parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The top-level parser and the command parsers by name, built on the
    first call and then reused; help text reads the terminal width only
    when it is printed."""
    parser = _Parser(prog="gatss", allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _) in _COMMANDS.items():
        cmd = sub.add_parser(command, help=help_text, allow_abbrev=False)
        for name, (flag, _, defaults) in _SETTINGS.items():
            if flag is not None and command in defaults:
                cmd.add_argument("--" + name.replace("_", "-"), **flag)
    return parser, sub.choices


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """The namespace of argv, by one argparse pass.  Arguments left over
    after a command get the top-level parser's error, as its nested pass
    gave them."""
    parser, commands = _parser()
    if not argv or argv[0] not in commands:
        return parser.parse_args(argv)
    args, extras = commands[argv[0]].parse_known_args(argv[1:])
    if extras:
        parser.error("unrecognized arguments: " + " ".join(extras))
    args.command = argv[0]
    return args


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        # argparse raises SystemExit for both --help (code 0) and usage
        # errors (remapped to 1 above)
        return int(exc.code or 0)
    try:
        checks = _COMMANDS[args.command][1](_settings(args))
        sys.stdout.flush()
        return 0 if _passed(checks) else 2
    except (ValueError, MemoryError, ArithmeticError) as exc:
        # an input error or a size the process cannot hold (1), or a failed
        # internal check, a defect rather than an input error (2)
        print(f"gatss {args.command}: error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ArithmeticError) else 1
    except BrokenPipeError:
        # the reader of stdout has gone, as in `gatss evolve ... | head`: as
        # the Python docs advise for SIGPIPE, point stdout at devnull so
        # that the interpreter's last flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
