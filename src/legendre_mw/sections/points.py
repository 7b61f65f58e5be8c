"""The `points` section: the P_i and the eight torsion sections."""

from __future__ import annotations

from ..legendre import FamilyParams, substitute_zeta_u, trace_point
from . import _point_obj


def run_points(params: FamilyParams, pts, tors) -> tuple[dict, dict]:
    from ..heights import is_torsion_point, point_order

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
