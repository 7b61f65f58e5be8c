"""The sections of a legendre-mw run, one module per command: each
`run_*` returns (payload_dict, checks_dict), and `cli.main` imports only
the sections its command runs.  A section imports the modules beyond
`legendre` that it uses when it runs, and never `legendre_mw.cli`:
under `python -m legendre_mw.cli` that module runs as `__main__`, so
importing it would compile it a second time."""


def _point_obj(P, extra=None) -> dict:
    if P.is_infinity:
        obj = {"x": None, "y": None, "infinity": True}
    else:
        obj = {"x": str(P.x), "y": str(P.y)}
    obj.update(extra or {})
    return obj
