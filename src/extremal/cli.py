"""Command-line surface.

Exit codes: 0 ok, 2 parse, usage or file error, 3 budget exceeded, 4 counterexample
found under ``scan --expect-clean``.  All randomness hangs off the single
``--seed`` option, so equal invocations produce byte-identical outputs.
Every computing subcommand hands its params and output paths to
``workbench.run``, which refuses an unusable path before the work and writes
every file; ``make`` does no work before it writes, and writes its own.
"""

from __future__ import annotations

import functools
import sys
from typing import Optional

import click

from . import hgr, workbench
from .errors import BudgetError, FormatError
from .workbench import canonical_json, fmt_float

EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_COUNTEREXAMPLE = 4


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (FormatError, OSError, ValueError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_PARSE)
        except BudgetError as exc:
            click.echo(f"budget exceeded: {exc}", err=True)
            sys.exit(EXIT_BUDGET)

    return wrapper


@click.group()
@click.option("--seed", type=int, default=0, show_default=True, help="Seed for all randomness.")
@click.pass_context
def main(ctx: click.Context, seed: int) -> None:
    """Desk-scale extremal hypergraph workbench."""
    ctx.obj = {"seed": seed}


def _run(command: str, params: dict, outputs: dict[str, Optional[str]]) -> dict:
    """Run one computing subcommand through ``workbench.run`` under the
    group's seed.  Its path options are named by output kind (see
    ``workbench._OUTPUTS``), so each one given is an output ``run`` writes."""
    seed = click.get_current_context().obj["seed"]
    paths = {kind: path for kind, path in outputs.items() if path}
    config = workbench.ExperimentConfig(command, params, seed, paths)
    return workbench.run(config).outputs["payload"]


@main.command()
@click.argument("tag")
@click.argument("params", nargs=-1)
@click.option("-o", "--output", required=True, help="Output .hgr path.")
@_guarded
def make(tag: str, params: tuple[str, ...], output: str) -> None:
    """Generate a named construction (turan, turanr, complete, gentriangle,
    hinge, matching, sunflower, semibip, turanplus, expansion <file>)."""
    g = workbench.op_make(tag, params)
    hgr.dump(g, output)
    click.echo(f"wrote {output}: r={g.r} n={g.n} m={len(g.edges)}")


@main.command()
@click.argument("path")
@click.option("--class", "target", default=None, help="Class spec, e.g. krl:3:3 or bipartite.")
@click.option("--family", default=None, help="Family spec, e.g. k3 or sigma:3.")
@click.option("--json", default=None, help="Write the report as JSON.")
@_guarded
def check(path: str, target: Optional[str], family: Optional[str], **outputs: Optional[str]) -> None:
    """Report hull membership / freeness of a graph file."""
    payload = _run("check", {"input": path, "class": target, "family": family}, outputs)
    for key in ("in_hull", "member", "free"):
        if key in payload:
            click.echo(f"{key}: {payload[key]}")


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--family", required=True)
@click.option("--method", type=click.Choice(["brute", "patterns", "both"]),
              default=workbench.default("ex", "method"), show_default=True)
@click.option("--pmax", type=int, default=None, help="Pattern size cap for the pattern route.")
@click.option("--json", default=None)
@click.option("--witness-dir", "hgr_dir", default=None,
              help="Directory for extremal witness .hgr files.")
@_guarded
def ex(n: int, family: str, method: str, pmax: Optional[int], **outputs: Optional[str]) -> None:
    """Exact Turan number with extremal witnesses."""
    payload = _run("ex", {"n": n, "family": family, "method": method, "pmax": pmax}, outputs)
    click.echo(f"ex(n={n}, {family}) = {payload['value']} "
               f"[{payload['method']}, {len(payload['witnesses'])} witness(es)]")


@main.command()
@click.argument("path")
@click.option("--supports", is_flag=True, help="Force full support enumeration.")
@click.option("--restarts", type=int, default=workbench.default("lagrangian", "restarts"),
              show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
@click.option("--json", default=None)
@_guarded
def lagrangian(path: str, supports: bool, restarts: int, fmt: str,
               **outputs: Optional[str]) -> None:
    """Maximize the edge polynomial of a graph file over the simplex."""
    params = {"input": path, "supports": supports, "restarts": restarts}
    payload = _run("lagrangian", params, outputs)
    if fmt == "json":
        click.echo(canonical_json(payload), nl=False)
    else:
        maximizer = ";".join(fmt_float(w) for w in payload["maximizer"])
        click.echo("value,gap,method,maximizer")
        click.echo(f"{fmt_float(payload['value'])},{fmt_float(payload['gap'])},"
                   f"{payload['method']},{maximizer}")


@main.command()
@click.argument("path")
@click.option("--family", required=True)
@click.option("--mode", type=click.Choice(["class", "vertex"]),
              default=workbench.default("symmetrize", "mode"), show_default=True)
@click.option("--trace", "json", default=None, help="Write the step trace as JSON.")
@click.option("-o", "--output", "hgr", default=None, help="Write the final graph as .hgr.")
@_guarded
def symmetrize(path: str, family: str, mode: str, **outputs: Optional[str]) -> None:
    """Run symmetrization to a fixed point."""
    payload = _run("symmetrize", {"input": path, "family": family, "mode": mode}, outputs)
    click.echo(f"{len(payload['steps'])} step(s); final has {len(payload['final']['edges'])} edges")


@main.command()
@click.option("--family", required=True)
@click.option("--class", "target", required=True)
@click.option("--kind", type=click.Choice(["degree", "vertex", "edge"]),
              default=workbench.default("scan", "kind"), show_default=True)
@click.option("--n", "n_range", required=True, help="Vertex range A..B (e.g. 5..7).")
@click.option("--eps", required=True, help="A decimal or a fraction, e.g. 0.1 or 13/441.")
@click.option("--delta", default=workbench.default("scan", "delta"), show_default=True)
@click.option("--piref", default=None,
              help="Reference density; defaults to the family preset when known.")
@click.option("--expect-clean", is_flag=True,
              help="Exit with status 4 if any counterexample is found.")
@click.option("--json", default=None)
@click.option("--csv", default=None, help="Write the counterexample table as CSV.")
@_guarded
def scan(family: str, target: str, kind: str, n_range: str, eps: str, delta: str,
         piref: Optional[str], expect_clean: bool, **outputs: Optional[str]) -> None:
    """Exhaustive stability scan over all family-free graphs in a vertex range."""
    try:
        lo, hi = (int(tok) for tok in n_range.split(".."))
    except ValueError as exc:
        raise FormatError(f"bad --n range {n_range!r}, expected A..B") from exc
    params = {"family": family, "class": target, "kind": kind, "n_lo": lo, "n_hi": hi,
              "eps": eps, "delta": delta, "pi_ref": piref}
    payload = _run("scan", params, outputs)
    click.echo(payload["summary"])
    if expect_clean and payload["counterexamples"]:
        sys.exit(EXIT_COUNTEREXAMPLE)


@main.command()
@click.argument("path")
@click.option("--v", "vertex", type=int, required=True)
@click.option("--class", "target", required=True)
@click.option("--zeta", required=True)
@click.option("--piref", required=True)
@click.option("--json", default=None)
@_guarded
def extendable(path: str, vertex: int, target: str, zeta: str, piref: str,
               **outputs: Optional[str]) -> None:
    """Vertex-extendability verdict for one graph and one vertex."""
    params = {"input": path, "vertex": vertex, "class": target, "zeta": zeta, "pi_ref": piref}
    payload = _run("extendable", params, outputs)
    click.echo(f"{payload['status']} (degree_ok={payload['degree_ok']}, "
               f"base_in_hull={payload['base_in_hull']}, self_in_hull={payload['self_in_hull']})")


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--r", "uniformity", type=int, required=True)
@click.option("--family", default=None, help="Restrict to family-free graphs.")
@click.option("-o", "--outdir", "hgr_dir", default=None,
              help="Dump one .hgr per isomorphism class.")
@click.option("--json", default=None)
@_guarded
def enum(n: int, uniformity: int, family: Optional[str], **outputs: Optional[str]) -> None:
    """Isomorph-free enumeration."""
    payload = _run("enum", {"n": n, "r": uniformity, "family": family}, outputs)
    click.echo(f"{payload['count']} isomorphism class(es)")


if __name__ == "__main__":
    main()
