"""The argparse parser the command line had before `cli.parse_args`,
kept as the oracle the parser tests compare it with."""

import argparse


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="legendre-mw",
        description="Explicit points, heights and BSD bookkeeping for "
                    "y^2 = x(x+1)(x+u^d), d = p^f + 1, over F_q(u).")
    ap.add_argument("--p", type=int, required=True, help="odd prime p")
    ap.add_argument("--f", type=int, default=1, help="d = p^f + 1 (default 1)")
    ap.add_argument("--q", type=int, default=None,
                    help="field of constants, a power p^j (default p^(2f), p when f = 0)")
    ap.add_argument("--m", type=int, default=1,
                    help="claimed index of the P_i lattice (default 1)")
    ap.add_argument("--depth", choices=("quick", "full"), default="full",
                    help="quick trims the gram computation to 4 points")
    ap.add_argument("--format", choices=("json", "table"), default="json")
    ap.add_argument("--out", default=None, help="write output to a file")
    ap.add_argument("command", choices=("points", "gram", "invariants",
                                        "isogeny", "rb", "all"))
    return ap
