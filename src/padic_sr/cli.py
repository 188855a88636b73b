"""Command-line interface: analysis, certification, graph validation,
conductor certificates, prime-to-p signatures, and batch grids.

All numeric output is exact: rationals are rendered as "num/den" strings.
Exit codes: 0 success / all certified, 1 violations or failed certification,
2 usage errors.
"""

from __future__ import annotations

import json
import sys

import click

from .analyzer import (
    analyze,
    branch_signature,
    certify_tail,
    conductor_bound,
    stab_field_tower,
)
from .errors import ArtifactError
from .graph import (
    DecoratedGraph,
    check_vanishing_cycles,
    export_graph,
    tail_invariant_checks,
    validate_structure,
)
from .metacyclic import MetacyclicSpec, moduli_and_tails_note
from .tower import check_prime


def _echo_json(doc, path=None):
    text = json.dumps(doc, indent=2)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


def _fail(exc: ArtifactError):
    click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
    sys.exit(1)


def _prime(ctx, param, value):
    """Option callback: a --p that is not a prime is a usage error."""
    try:
        check_prime(value)
    except ValueError as exc:
        raise click.BadParameter(str(exc), ctx, param) from None
    return value


@click.group()
def main():
    """Stable reduction of three-point cyclic p^n-covers of the line."""
    # An admissible a or b, and a report's integers such as the indices
    # p^n, can have more digits than the 4300 that int() and str() take by
    # default since Python 3.10.7; the group runs before its command parses
    # an option, so the limit is lifted for both.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)


@main.command("analyze")
@click.option("--p", type=int, required=True, callback=_prime)
@click.option("--n", type=click.IntRange(min=1), required=True)
@click.option("--a", type=int, required=True)
@click.option("--b", type=int, required=True)
@click.option("--json", "json_path", type=click.Path(writable=True),
              default=None, help="write the report to this file")
@click.option("--dot", "dot_path", type=click.Path(writable=True),
              default=None, help="write the reduction graph in DOT format")
def analyze_cmd(p, n, a, b, json_path, dot_path):
    """Full self-certifying report for y^(p^n) = x^a (x-1)^b."""
    try:
        report = analyze(p, n, a, b)
    except ArtifactError as exc:
        _fail(exc)
    _echo_json(report, json_path)
    if json_path:
        click.echo(f"report written to {json_path}")
    if dot_path:
        g = DecoratedGraph.from_json(report["graph"])
        with open(dot_path, "w") as fh:
            fh.write(export_graph(g))
        click.echo(f"graph written to {dot_path}")
    sys.exit(0 if report["certified"] else 1)


@main.command("certify")
@click.option("--p", type=int, required=True, callback=_prime)
@click.option("--n", type=click.IntRange(min=1), required=True)
@click.option("--a", type=int, required=True)
@click.option("--b", type=int, required=True)
def certify_cmd(p, n, a, b):
    """Certify the reduction type of the new etale tail only."""
    try:
        spec = branch_signature(p, n, a, b)
        verdict = certify_tail(spec)
    except ArtifactError as exc:
        _fail(exc)
    _echo_json({"spec": spec.to_json(), "certificate": verdict.to_json()})
    sys.exit(0 if verdict.kind.startswith("Splits") else 1)


@main.command("validate-graph")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
def validate_graph_cmd(file):
    """Check the structural rules on a decorated graph JSON file."""
    try:
        with open(file) as fh:
            g = DecoratedGraph.from_json(json.load(fh))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        click.echo(f"error: malformed graph file: {exc}", err=True)
        sys.exit(1)
    violations = validate_structure(g) + tail_invariant_checks(g)
    out = {"violations": [{"code": c, "detail": d} for c, d in violations]}
    try:
        out["vanishing_cycles_residual"] = str(check_vanishing_cycles(g))
    except ArtifactError:
        pass
    _echo_json(out)
    sys.exit(0 if not violations else 1)


@main.command("conductor")
@click.option("--p", type=int, required=True, callback=_prime)
@click.option("--n", type=click.IntRange(min=1), required=True)
@click.option("--a", type=int, required=True)
@click.option("--b", type=int, required=True)
def conductor_cmd(p, n, a, b):
    """Field tower of the stable model and the conductor certificate."""
    try:
        spec = branch_signature(p, n, a, b)
        ft = stab_field_tower(spec)
        cb = conductor_bound(spec)
    except ArtifactError as exc:
        _fail(exc)
    _echo_json({
        "tower": ft.to_json(),
        "vanishes_at_n": cb["vanishes_at_n"],
        "conductor": cb["conductor"].to_json(),
        "detail": cb["detail"],
    })
    sys.exit(0 if cb["vanishes_at_n"] else 1)


@main.command("signature")
@click.option("--p", type=int, required=True, callback=_prime)
@click.option("--n", type=click.IntRange(min=1), required=True)
@click.option("--m", type=int, required=True)
@click.option("--a1", type=int, required=True)
@click.option("--a2", type=int, required=True)
@click.option("--a3", type=int, required=True)
def signature_cmd(p, n, m, a1, a2, a3):
    """Signatures and the moduli-field report for a nontrivial
    prime-to-p action."""
    try:
        report = moduli_and_tails_note(MetacyclicSpec(p, n, m, (a1, a2, a3)))
    except ArtifactError as exc:
        _fail(exc)
    _echo_json(report)


def _batch_pairs(p, n):
    """A few admissible (a, b, s) per degree: full case plus one pair per
    partial s, avoiding degenerate square radicands when p = 2."""
    out = []
    if p > 2:
        out.append((1, 1, n))  # full case
    for s in range(1, n):
        b0 = 3 if p != 3 else 4
        out.append((1, b0 * p ** (n - s), s))
    return out


@main.command("batch")
@click.option("--p", type=int, required=True, callback=_prime)
@click.option("--n-max", type=click.IntRange(min=1), required=True)
def batch_cmd(p, n_max):
    """Analyze a grid of covers and print a summary table."""
    rows = []
    all_ok = True
    n_min = 2 if p == 2 else 1
    for n in range(n_min, n_max + 1):
        for a, b, s in _batch_pairs(p, n):
            try:
                rep = analyze(p, n, a, b)
                ok = rep["certified"]
                kind = rep["certificate"]["kind"]
                cond = rep["conductor"]["conductor"]["value"]
            except ArtifactError as exc:
                ok, kind, cond = False, type(exc).__name__, "-"
            all_ok = all_ok and ok
            rows.append((p, n, s, a, b, kind, cond,
                         "certified" if ok else "FAILED"))
    header = ("p", "n", "s", "a", "b", "verdict", "conductor", "status")
    widths = [max(len(str(r[i])) for r in rows + [header])
              for i in range(len(header))]
    for r in [header] + rows:
        click.echo("  ".join(str(x).ljust(w) for x, w in zip(r, widths)))
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
