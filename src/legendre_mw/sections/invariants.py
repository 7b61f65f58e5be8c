"""The `invariants` section: the BSD ratio, the bad-fibre audit and the
discriminant."""

from __future__ import annotations

from ..legendre import FamilyParams


def run_invariants(params: FamilyParams, q: int, m: int) -> tuple[dict, dict]:
    from .. import invariants as inv

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
