"""Command line interface: construct the explicit points and run the
verification suites, emitting deterministic JSON (or a plain table).

Each section of the document has a runner, `run_points`, `run_gram`,
`run_invariants`, `run_isogeny` and `run_rb`, which returns
(payload_dict, checks_dict); `main` calls only the runners its command
runs, and each runner imports the modules beyond `legendre` that it
uses when it runs, so a command loads only what it runs.

Exit codes: 0 all checks pass, 1 a verification failed, 2 invalid
parameters (including an --out file that cannot be written).
"""

from __future__ import annotations

import gc
import json
import sys

from .gf import validate_q
from .legendre import (FamilyParams, admissible_b_values, make_family, matching_index,
                       point_P, point_R, substitute_zeta_u, torsion_points, trace_point)


def _params_obj(params: FamilyParams, q: int, m: int) -> dict:
    return {
        "p": params.p, "f": params.f, "d": params.d, "q": q, "m": m,
        "field": params.ctx.to_obj(),
        "zeta": params.zeta.to_obj(),
        "t": "u^%d" % params.d,
    }


# ----------------------------------------------------------------------
# The section runners, in document order.

def _point_obj(P, extra=None) -> dict:
    if P.is_infinity:
        obj = {"x": None, "y": None, "infinity": True}
    else:
        obj = {"x": str(P.x), "y": str(P.y)}
    obj.update(extra or {})
    return obj


def run_points(params: FamilyParams, pts, tors) -> tuple[dict, dict]:
    """The P_i and the eight torsion sections."""
    from .heights import is_torsion_point, point_order

    d = params.d
    curve = params.curve
    pts_torsion = [is_torsion_point(P) for P in pts]
    orders = {label: point_order(P) for label, P in tors.items()}

    galois_ok = all(substitute_zeta_u(params, pts[i]) == pts[(i + 1) % d]
                    for i in range(d))
    torsion_profile_ok = sorted(orders.values()) == [1, 2, 2, 2, 4, 4, 4, 4]
    # rank d - 2: the P_i are torsion exactly when d = 2
    pts_nontorsion = all(t == (d == 2) for t in pts_torsion)

    payload = {
        "points": [
            _point_obj(P, {"label": "P%d" % i, "is_torsion": pts_torsion[i]})
            for i, P in enumerate(pts)
        ],
        "torsion": [
            _point_obj(P, {"label": label, "order": orders[label]})
            for label, P in tors.items()
        ],
    }
    if params.f > 1:
        tr = trace_point(params, pts, 1)
        payload["trace_of_P1"] = _point_obj(tr)
    checks = {
        "points_on_curve": all(curve.on_curve(P) for P in pts + list(tors.values())),
        "galois_shift_permutes_points": galois_ok,
        "torsion_order_profile": torsion_profile_ok,
        "explicit_points_nontorsion": pts_nontorsion,
    }
    return payload, checks


def run_gram(params: FamilyParams, pts, q: int, depth: str) -> tuple[dict, dict]:
    """The height pairing's Gram matrix against its closed form, and with
    `--depth full` its determinant, rank, kernel and Frobenius-orbit rank."""
    from .heights import combination, expected_gram, gram_matrix, is_torsion_point

    d = params.d
    indices = list(range(min(4, d) if depth == "quick" else d))
    labels = ["P%d" % i for i in indices]
    G = gram_matrix(pts[:len(indices)])
    expected = expected_gram(d, indices)

    payload = {
        "indices": indices,
        "gram": {"labels": labels, "entries": G},
        "expected": {"labels": labels, "entries": expected},
        "heights": [G[i][i] for i in range(len(indices))],
    }
    checks = {"entries_match_closed_form": G == expected}

    if depth == "full":
        from . import invariants as inv
        from .exact_linalg import determinant, kernel_basis, rank

        # P_0 .. P_{d-3} span the lattice; pts holds every P_j
        n = d - 2
        det = determinant([row[:n] for row in G[:n]])
        want_det = inv.regulator_coefficient(d, 1)
        kern = kernel_basis(G)
        realized = [is_torsion_point(combination(pts, v)) for v in kern]
        payload["basis_indices"] = list(range(n))
        payload["lattice_det"] = det
        payload["expected_lattice_det"] = want_det
        g_rank = len(G) - len(kern)
        payload["rank"] = g_rank
        payload["kernel"] = kern
        checks["lattice_det_matches"] = det == want_det
        checks["rank_is_d_minus_2"] = g_rank == n
        checks["kernel_relations_are_torsion"] = all(realized)

        # the pairing is bilinear, so the Gram of the orbit sums is C G C^T
        orbits = inv.frobenius_orbits(d, q)
        og = [[sum(G[i][j] for i in a for j in b) for b in orbits] for a in orbits]
        payload["frobenius_orbits"] = orbits
        og_rank, want_rank = rank(og), inv.rank_formula(d, q)
        payload["orbit_gram_rank"] = og_rank
        payload["rank_formula"] = want_rank
        checks["orbit_rank_matches_formula"] = og_rank == want_rank
    return payload, checks


def run_invariants(params: FamilyParams, q: int, m: int) -> tuple[dict, dict]:
    """The BSD ratio, the bad-fibre audit and the discriminant."""
    from . import invariants as inv

    d = params.d
    bsd = inv.bsd_report(params.p, params.f, q, m)
    audit = inv.fiber_audit(d)

    t = params.t
    disc = params.curve.discriminant()
    disc_ok = disc == 16 * t * t * (t - 1) * (t - 1)
    deg_ok = disc.deg == 4 * d

    payload = {
        "bsd": bsd,
        "fibers": audit,
        "discriminant": {
            "value": str(disc),
            "degree": int(disc.deg),
            "expected_degree": 4 * d,
        },
    }
    checks = {
        "bsd_ratio_is_one": bsd["bsd_ratio"] == 1,
        "index_is_admissible": bsd["m_is_admissible"],
        "fiber_data_consistent": audit["consistent"],
        "discriminant_is_16_t2_tm1_2": disc_ok,
        "discriminant_degree": deg_ok,
    }
    return payload, checks


def run_isogeny(params: FamilyParams, pts, tors) -> tuple[dict, dict]:
    """The 2-isogeny chain onto the Legendre-form curve, its round trip
    and its homomorphism check."""
    from .isogeny import IsogenyChain

    chain = IsogenyChain(params.t)
    samples = pts[:4]
    samples.append(params.curve.add(samples[0], samples[1 % len(samples)]))
    samples.append(params.curve.smul(2, samples[0]))
    samples.extend(tors.values())

    back = [chain.backward(R) for R in samples]
    imgs = [chain.forward(S) for S in back]
    round_trip = [img == params.curve.smul(2, R) for R, img in zip(samples, imgs)]
    hom_ok = [chain.forward(back[i] + back[i + 1]) == imgs[i] + imgs[i + 1]
              for i in range(0, len(back) - 1, 2)]

    payload = {
        "source": chain.source.to_obj(),
        "first_display": chain.mid.to_obj(),
        "second_display": chain.quotient.to_obj(),
        "legendre": chain.legendre.to_obj(),
        "isogeny": chain.phi.to_obj(),
        "samples": [
            {"on_legendre": _point_obj(R), "pullback": _point_obj(S)}
            for R, S in zip(samples, back)
        ],
    }
    checks = {
        "chain_reaches_legendre_form": chain.legendre == params.curve,
        "round_trip_is_multiplication_by_2": all(round_trip),
        "forward_is_homomorphism": all(hom_ok),
    }
    return payload, checks


def run_rb(params: FamilyParams, pts) -> tuple[dict, dict]:
    """(f = 1) The descended points R_b, their closed form against the
    group law, and the descended rank."""
    from .exact_linalg import rank
    from .heights import gram_matrix, is_torsion_point

    p, d = params.p, params.d
    bs = admissible_b_values(params)
    rows, rpts, match_ok, frob_ok = [], [], [], []
    for b in bs:
        R = point_R(params, b)
        i = matching_index(params, b)
        S = pts[i] + pts[d - i]
        match_ok.append(R.x == S.x)
        frob_ok.append(R.x.frobenius() == R.x and R.y.frobenius() == R.y)
        rows.append({"b": b.code(), "index": i, "x": str(R.x), "y": str(R.y),
                     "is_torsion": is_torsion_point(R)})
        rpts.append(R)
    # R_b together with the rational points P_0, P_{d/2} realize the
    # descended rank
    rational = rpts + [pts[0], pts[d // 2]]
    labels = ["R%d" % r["b"] for r in rows] + ["P0", "P%d" % (d // 2)]
    G = gram_matrix(rational)
    g_rank, want_rank = rank(G), (p - 1) // 2
    payload = {
        "admissible_b": [b.code() for b in bs],
        "points": rows,
        "descended_gram": {"labels": labels, "entries": G},
        "descended_rank": g_rank,
        "expected_rank": want_rank,
    }
    checks = {
        "closed_form_matches_group_law": all(match_ok),
        "coordinates_frobenius_fixed": all(frob_ok),
        "descended_rank_matches": g_rank == want_rank,
    }
    return payload, checks


# ----------------------------------------------------------------------
# Rendering.  Payloads hold Fractions, which print as str(v) in both
# formats; tuples print as lists.

def _json_default(v):
    # json calls this only for what it cannot encode: in a payload, a
    # Fraction, made by a runner that has loaded fractions already
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
# The command line: one positional command and seven options that each
# take one value.  `_plain` reads a plain line, and argparse, imported
# only then, every other line: -h/--help, a prefix such as --dep,
# --opt=value, "--", a value that starts with "-" and every mistake, so
# help, usage and errors are argparse's own on every interpreter.
# tests/parser_reference.py keeps an argparse parser as the oracle.

COMMANDS = ("points", "gram", "invariants", "isogeny", "rb", "all")

# option -> (its type, int or str, or the tuple of its choices; its
# default; its help)
_OPTIONS = {
    "--p": (int, None, "odd prime p"),
    "--f": (int, 1, "d = p^f + 1 (default 1)"),
    "--q": (int, None, "field of constants, a power p^j (default p^(2f), p when f = 0)"),
    "--m": (int, 1, "claimed index of the P_i lattice (default 1)"),
    "--depth": (("quick", "full"), "full", "quick trims the gram computation to 4 points"),
    "--format": (("json", "table"), "json", None),
    "--out": (str, None, "write output to a file"),
}


def _plain(argv: list[str]) -> dict | None:
    """The values of a plain command line: exact option names, each
    followed by a value that does not start with "-" and that converts
    with int or is one of the option's choices, and exactly one
    command, with --p given; a repeated option keeps its last value.
    None for any other line."""
    args = {name[2:]: default for name, (_, default, _) in _OPTIONS.items()}
    args["command"] = None
    tokens = iter(argv)
    for tok in tokens:
        if tok in _OPTIONS:
            # a missing value reads as "-", which argparse must report
            kind, value = _OPTIONS[tok][0], next(tokens, "-")
            if value.startswith("-"):
                return None
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    return None
            elif kind is not str and value not in kind:
                return None
            args[tok[2:]] = value
        elif tok in COMMANDS and args["command"] is None:
            args["command"] = tok
        else:
            return None
    return args if args["command"] and args["p"] is not None else None


def parse_args(argv: list[str]) -> dict:
    """The options and command of a command line, by dest, with their
    defaults.  Exits 0 after printing the help for -h/--help, and 2
    with the usage and the error on stderr for a command line it
    refuses."""
    args = _plain(argv)
    if args is not None:
        return args
    import argparse

    ap = argparse.ArgumentParser(
        prog="legendre-mw",
        description="Explicit points, heights and BSD bookkeeping for "
                    "y^2 = x(x+1)(x+u^d), d = p^f + 1, over F_q(u).")
    for name, (kind, default, text) in _OPTIONS.items():
        spec = {"type": kind} if kind in (int, str) else {"choices": kind}
        ap.add_argument(name, default=default, required=name == "--p", help=text, **spec)
    ap.add_argument("command", choices=COMMANDS)
    return vars(ap.parse_args(argv))


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
            # opened before any work, in append mode so that an existing
            # file keeps its content until the document is written
            open(out, "a").close()
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    # one set of points for all sections; isogeny and quick gram use P_0..P_3
    quick = cmd == "isogeny" or (cmd, args["depth"]) == ("gram", "quick")
    n = min(4, params.d) if quick else params.d
    pts = [point_P(params, i) for i in range(n)] if cmd != "invariants" else []
    tors = torsion_points(params) if cmd in ("points", "isogeny", "all") else None

    # the sections the command runs, each imports what it needs
    sections: dict[str, tuple[dict, dict]] = {}
    if cmd in ("points", "all"):
        sections["points"] = run_points(params, pts, tors)
    if cmd in ("gram", "all"):
        sections["gram"] = run_gram(params, pts, q, args["depth"])
    if cmd in ("invariants", "all"):
        sections["invariants"] = run_invariants(params, q, m)
    if cmd in ("isogeny", "all"):
        sections["isogeny"] = run_isogeny(params, pts, tors)
    if cmd == "rb" or (cmd == "all" and params.f == 1):
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
    except OSError as exc:  # e.g. --out on a full device
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
