"""The `isogeny` section: the 2-isogeny chain onto the Legendre-form
curve, its round trip and its homomorphism check."""

from __future__ import annotations

from ..legendre import FamilyParams
from . import _point_obj


def run_isogeny(params: FamilyParams, pts, tors) -> tuple[dict, dict]:
    from ..isogeny import IsogenyChain

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
