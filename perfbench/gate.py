"""Output-correctness gate applied to every report the benchmark receives.

A report passes when it is certified, its torsor verdict is the one the
paper's theorem gives for the prime, its conductor certificate vanishes at
``n``, and its JSON holds no float (every number in the package's interfaces
is an int or a ``"num/den"`` string).
"""

from __future__ import annotations

import json


def expected_certificate(p: int, n: int) -> dict:
    """The certificate fields the theorem fixes for a cover of degree p^n."""
    if p == 2:
        return {"kind": "SplitsZ4", "count": 2 ** (n - 2),
                "first_upper_jump": 1}
    return {"kind": "SplitsArtinSchreier", "count": p ** (n - 1),
            "conductor": 2}


def _floats(doc, path="$"):
    if isinstance(doc, float):
        yield path
    elif isinstance(doc, dict):
        for key, value in doc.items():
            yield from _floats(value, f"{path}.{key}")
    elif isinstance(doc, (list, tuple)):
        for i, value in enumerate(doc):
            yield from _floats(value, f"{path}[{i}]")


def check_report(p: int, n: int, report) -> list:
    """Violations of the gate by the report of the cover (p, n, a, b)."""
    if not isinstance(report, dict):
        return [f"report is a {type(report).__name__}, not a dict"]
    out = []
    if report.get("certified") is not True:
        out.append(f"certified is {report.get('certified')!r}")
    cert = report.get("certificate") or {}
    for key, want in expected_certificate(p, n).items():
        if cert.get(key) != want:
            out.append(f"certificate {key} is {cert.get(key)!r}, "
                       f"expected {want!r}")
    conductor = report.get("conductor") or {}
    if conductor.get("vanishes_at_n") is not True:
        out.append("conductor.vanishes_at_n is "
                   f"{conductor.get('vanishes_at_n')!r}")
    out.extend(f"float at {path}" for path in _floats(report))
    try:
        json.dumps(report, allow_nan=False)
    except (TypeError, ValueError) as exc:
        out.append(f"report is not plain JSON: {exc}")
    return out
