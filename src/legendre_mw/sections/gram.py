"""The `gram` section: the height pairing's Gram matrix against its closed
form, and with `--depth full` its determinant, rank, kernel and
Frobenius-orbit rank."""

from __future__ import annotations

from ..legendre import FamilyParams


def run_gram(params: FamilyParams, pts, q: int, depth: str) -> tuple[dict, dict]:
    from ..heights import combination, expected_gram, gram_matrix, is_torsion_point

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
        from .. import invariants as inv
        from ..exact_linalg import determinant, kernel_basis, rank

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
