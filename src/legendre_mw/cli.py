"""Command line interface: construct the explicit points and run the
verification suites, emitting deterministic JSON (or a plain table).

Exit codes: 0 all checks pass, 1 a verification failed, 2 invalid
parameters (including an --out file that cannot be written).
"""

from __future__ import annotations

import gc
import json
import os
import re
import sys

from .gf import validate_q
from .legendre import FamilyParams, make_family, point_P, torsion_points


def _params_obj(params: FamilyParams, q: int, m: int) -> dict:
    return {
        "p": params.p, "f": params.f, "d": params.d, "q": q, "m": m,
        "field": params.ctx.to_obj(),
        "zeta": params.zeta.to_obj(),
        "t": "u^%d" % params.d,
    }


# ----------------------------------------------------------------------
# Rendering.  Payloads hold Fractions, which print as str(v) in both
# formats; tuples print as lists.

def _json_default(v):
    # json calls this only for what it cannot encode: in a payload, a
    # Fraction, made by a section that has loaded fractions already
    from fractions import Fraction

    if isinstance(v, Fraction):
        return str(v)
    raise TypeError("Object of type %s is not JSON serializable"
                    % type(v).__name__)


def _render_table(obj, indent=0, out=None):
    pad = "  " * indent
    lines = out if out is not None else []
    if isinstance(obj, dict):
        for key in obj:
            val = obj[key]
            if isinstance(val, (dict, list, tuple)):
                lines.append("%s%s:" % (pad, key))
                _render_table(val, indent + 1, lines)
            else:
                lines.append("%s%-28s %s" % (pad, key + ":", val))
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            if isinstance(item, (dict, list, tuple)):
                lines.append("%s-" % pad)
                _render_table(item, indent + 1, lines)
            else:
                lines.append("%s- %s" % (pad, item))
    else:
        lines.append("%s%s" % (pad, obj))
    return lines


def _emit(doc: dict, fmt: str, out_path: str | None):
    if fmt == "json":
        text = json.dumps(doc, indent=2, sort_keys=True, default=_json_default)
    else:
        text = "\n".join(_render_table(doc))
    if out_path is not None:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ----------------------------------------------------------------------

def _check_out_path(path: str):
    """Refuse an --out file whose directory is missing or unwritable, or
    whose name is longer than that directory's file system allows,
    before any work is done; opening it may still fail later, and
    `main` reports that too."""
    folder, name = os.path.split(os.path.abspath(path))
    if not path or os.path.isdir(path) or not os.path.isdir(folder) \
            or not os.access(folder, os.W_OK) or _name_too_long(folder, name):
        raise ValueError("cannot write --out file %s" % path)


def _name_too_long(folder: str, name: str) -> bool:
    """Whether name is longer than folder's file system takes; False
    where the platform cannot say, and opening the file reports it."""
    try:
        limit = os.pathconf(folder, "PC_NAME_MAX")
    except (AttributeError, OSError, ValueError):
        return False
    return 0 <= limit < len(os.fsencode(name))


# ----------------------------------------------------------------------
# The command line: one positional command, seven options that each
# take one value, and -h/--help.  The parser keeps argparse's rules for
# this grammar, which tests/parser_reference.py holds as its oracle:
# an option may be given as a unique prefix and as --opt=value, a
# token after "--" is positional, a first positional is the command and
# a later one an error, a repeated option keeps its last value, and an
# error exits 2 with the usage on stderr.

COMMANDS = ("points", "gram", "invariants", "isogeny", "rb", "all")

# option -> (its type, int or str, or the tuple of its choices; its default)
_OPTIONS = {
    "--p": (int, None),
    "--f": (int, 1),
    "--q": (int, None),
    "--m": (int, 1),
    "--depth": (("quick", "full"), "full"),
    "--format": (("json", "table"), "json"),
    "--out": (str, None),
}
_HELP = ("-h", "--help")
_LONG = ("--help",) + tuple(_OPTIONS)

USAGE = """\
usage: legendre-mw [-h] --p P [--f F] [--q Q] [--m M] [--depth {quick,full}]
                   [--format {json,table}] [--out OUT]
                   {points,gram,invariants,isogeny,rb,all}
"""

HELP = USAGE + """
Explicit points, heights and BSD bookkeeping for y^2 = x(x+1)(x+u^d), d = p^f
+ 1, over F_q(u).

positional arguments:
  {points,gram,invariants,isogeny,rb,all}

options:
  -h, --help            show this help message and exit
  --p P                 odd prime p
  --f F                 d = p^f + 1 (default 1)
  --q Q                 field of constants, a power p^j (default p^(2f), p
                        when f = 0)
  --m M                 claimed index of the P_i lattice (default 1)
  --depth {quick,full}  quick trims the gram computation to 4 points
  --format {json,table}
  --out OUT             write output to a file
"""


class _UsageError(Exception):
    pass


def _option(tok: str):
    """(option, its value in the token or None) for an option-like
    token, (None, None) for an unknown option, and None for a
    positional: one not starting with "-", a lone "-", and, unless it
    names an option, a negative number or a token with a space."""
    if tok in _OPTIONS or tok in _HELP:
        return tok, None
    if len(tok) < 2 or tok[0] != "-":
        return None
    name, eq, value = tok.partition("=")
    if eq and (name in _OPTIONS or name in _HELP):
        return name, value
    if tok[1] == "-":
        found = [opt for opt in _LONG if opt.startswith(name)]
        if len(found) > 1:
            raise _UsageError("ambiguous option: %s could match %s"
                              % (tok, ", ".join(found)))
        if found:
            return found[0], value if eq else None
    elif tok.startswith("-h"):   # -h with more letters after it
        return "-h", tok[2:]
    if re.match(r"^-\d+$|^-\d*\.\d+$", tok) or " " in tok:
        return None
    return None, None


def _value(label: str, kind, value: str):
    """value as an int, or checked against its choices."""
    if kind is int:
        try:
            return int(value)
        except ValueError:
            raise _UsageError("argument %s: invalid int value: %r" % (label, value)) from None
    if kind is not str and value not in kind:
        raise _UsageError("argument %s: invalid choice: %r (choose from %s)"
                          % (label, value, ", ".join(map(repr, kind))))
    return value


def _parse(argv: list[str]) -> dict:
    # tokens before the first "--" are classified at once, so an
    # ambiguous prefix is refused before any other token is read
    end = argv.index("--") if "--" in argv else len(argv)
    kinds = [_option(tok) for tok in argv[:end]]
    last = max((i for i, kind in enumerate(kinds) if kind), default=-1)
    args = {name[2:]: default for name, (_, default) in _OPTIONS.items()}
    args["command"] = None
    extras = []
    i = 0
    while i <= last:
        tok, kind = argv[i], kinds[i]
        i += 1
        if kind is None:   # a positional between options
            if args["command"] is None:
                args["command"] = _value("command", COMMANDS, tok)
            else:
                extras.append(tok)
            continue
        name, value = kind
        if name is None:
            extras.append(tok)
        elif name in _HELP:
            # -hh... is -h repeated; -h takes no other value (as argparse
            # before 3.13, which takes -hx as -h and -x)
            if value is None or (name == "-h" and value and not value.strip("h")):
                sys.stdout.write(HELP)
                raise SystemExit(0)
            raise _UsageError("argument -h/--help: ignored explicit argument %r" % value)
        else:
            if value is None:
                if i >= end or kinds[i] is not None:
                    raise _UsageError("argument %s: expected one argument" % name)
                value, i = argv[i], i + 1
            args[name[2:]] = _value(name, _OPTIONS[name][0], value)
    # after the last option, a command still missing takes the next
    # token, together with the "--" just before or after it
    rest = argv[i:]
    at = 1 if i == end else 0
    if args["command"] is None and len(rest) > at:
        args["command"] = _value("command", COMMANDS, rest[at])
        rest = rest[at + 1 + (i + 1 == end):]
    extras += rest
    missing = ["--p"] * (args["p"] is None) + ["command"] * (args["command"] is None)
    if missing:
        raise _UsageError("the following arguments are required: %s" % ", ".join(missing))
    if extras:
        raise _UsageError("unrecognized arguments: %s" % " ".join(extras))
    return args


def parse_args(argv: list[str]) -> dict:
    """The options and command of a command line, by dest, with their
    defaults.  Exits 0 after printing the help for -h/--help, and 2
    with the usage and the error on stderr for a command line it
    refuses."""
    try:
        return _parse(argv)
    except _UsageError as exc:
        sys.stderr.write("%slegendre-mw: error: %s\n" % (USAGE, exc))
        raise SystemExit(2) from None


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
    cmd, m, out = args["command"], args["m"], args["out"]
    # parameter validation: anything wrong here is exit code 2
    try:
        params = make_family(args["p"], args["f"])
        q = args["q"] if args["q"] is not None else params.ctx.order
        if m < 1:
            raise ValueError("m must be >= 1")
        # q = p^j is prime to d = p^f + 1, as the rank formula needs
        validate_q(q, args["p"], 0)
        if cmd in ("invariants", "all"):
            validate_q(q, args["p"], args["f"])
        if cmd == "rb" and params.f != 1:
            raise ValueError("the rb command needs f = 1")
        if out is not None:
            _check_out_path(out)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    # one set of points for all sections; isogeny and quick gram use P_0..P_3
    quick = cmd == "isogeny" or (cmd, args["depth"]) == ("gram", "quick")
    n = min(4, params.d) if quick else params.d
    pts = [point_P(params, i) for i in range(n)] if cmd != "invariants" else []
    tors = torsion_points(params) if cmd in ("points", "isogeny", "all") else None

    # each section's module is imported only by the commands that run it
    sections: dict[str, tuple[dict, dict]] = {}
    if cmd in ("points", "all"):
        from .sections.points import run_points
        sections["points"] = run_points(params, pts, tors)
    if cmd in ("gram", "all"):
        from .sections.gram import run_gram
        sections["gram"] = run_gram(params, pts, q, args["depth"])
    if cmd in ("invariants", "all"):
        from .sections.invariants import run_invariants
        sections["invariants"] = run_invariants(params, q, m)
    if cmd in ("isogeny", "all"):
        from .sections.isogeny import run_isogeny
        sections["isogeny"] = run_isogeny(params, pts, tors)
    if cmd == "rb" or (cmd == "all" and params.f == 1):
        from .sections.rb import run_rb
        sections["rb"] = run_rb(params, pts)

    checks = {}
    doc = {"params": _params_obj(params, q, m), "command": cmd}
    for name, (payload, section_checks) in sections.items():
        doc[name] = payload
        for key, val in section_checks.items():
            checks["%s.%s" % (name, key)] = val
    doc["checks"] = checks
    doc["ok"] = all(checks.values())
    try:
        _emit(doc, args["format"], out)
    except OSError as exc:  # e.g. --out in a missing directory
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return 0 if doc["ok"] else 1


def entry():
    """Process entry of `python -m legendre_mw.cli` and the `legendre-mw`
    script: exit with main's code after `gc.freeze()`.  The document is
    written by then, and the full collections of interpreter shutdown
    skip frozen objects; stdout is still flushed and atexit still runs.
    `main` leaves GC state alone for callers that run it in-process."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
