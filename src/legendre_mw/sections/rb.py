"""The `rb` section (f = 1): the descended points R_b, their closed form
against the group law, and the descended rank."""

from __future__ import annotations

from ..legendre import FamilyParams, admissible_b_values, matching_index, point_R


def run_rb(params: FamilyParams, pts) -> tuple[dict, dict]:
    from ..exact_linalg import rank
    from ..heights import gram_matrix, is_torsion_point

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
