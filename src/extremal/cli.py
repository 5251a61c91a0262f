"""Command-line surface.

Exit codes: 0 ok, 2 parse, usage or file error, 3 budget exceeded, 4 counterexample
found under ``scan --expect-clean``.  All randomness hangs off the single
``--seed`` option, so equal invocations produce byte-identical outputs.
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path
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


def _run(command: str, params: dict, json_path: Optional[str]) -> dict:
    """Run one computing subcommand through ``workbench.run`` under the
    group's seed, writing the payload to ``json_path`` when one is given."""
    seed = click.get_current_context().obj["seed"]
    outputs = {"json": json_path} if json_path else {}
    config = workbench.ExperimentConfig(command, params, seed, outputs)
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
@click.option("--json", "json_path", default=None, help="Write the report as JSON.")
@_guarded
def check(path: str, target: Optional[str], family: Optional[str], json_path: Optional[str]) -> None:
    """Report hull membership / freeness of a graph file."""
    payload = _run("check", {"input": path, "class": target, "family": family}, json_path)
    for key in ("in_hull", "member", "free"):
        if key in payload:
            click.echo(f"{key}: {payload[key]}")


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--family", required=True)
@click.option("--method", type=click.Choice(["brute", "patterns", "both"]),
              default=workbench.default("ex", "method"), show_default=True)
@click.option("--pmax", type=int, default=None, help="Pattern size cap for the pattern route.")
@click.option("--json", "json_path", default=None)
@click.option("--witness-dir", default=None, help="Directory for extremal witness .hgr files.")
@_guarded
def ex(n: int, family: str, method: str, pmax: Optional[int], json_path: Optional[str],
       witness_dir: Optional[str]) -> None:
    """Exact Turan number with extremal witnesses."""
    payload = _run("ex", {"n": n, "family": family, "method": method, "pmax": pmax}, json_path)
    if witness_dir:
        out = Path(witness_dir)
        out.mkdir(parents=True, exist_ok=True)
        for i, obj in enumerate(payload["witnesses"]):
            hgr.dump(hgr.from_json_obj(obj), out / f"ex_n{n}_w{i}.hgr")
    click.echo(f"ex(n={n}, {family}) = {payload['value']} "
               f"[{payload['method']}, {len(payload['witnesses'])} witness(es)]")


@main.command()
@click.argument("path")
@click.option("--supports", is_flag=True, help="Force full support enumeration.")
@click.option("--restarts", type=int, default=workbench.default("lagrangian", "restarts"),
              show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
@click.option("--json", "json_path", default=None)
@_guarded
def lagrangian(path: str, supports: bool, restarts: int, fmt: str,
               json_path: Optional[str]) -> None:
    """Maximize the edge polynomial of a graph file over the simplex."""
    params = {"input": path, "supports": supports, "restarts": restarts}
    payload = _run("lagrangian", params, json_path)
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
@click.option("--trace", "trace_path", default=None, help="Write the step trace as JSON.")
@click.option("-o", "--output", default=None, help="Write the final graph as .hgr.")
@_guarded
def symmetrize(path: str, family: str, mode: str, trace_path: Optional[str],
               output: Optional[str]) -> None:
    """Run symmetrization to a fixed point."""
    payload = _run("symmetrize", {"input": path, "family": family, "mode": mode}, trace_path)
    if output:
        hgr.dump(hgr.from_json_obj(payload["final"]), output)
    final = payload["final"]
    click.echo(f"{len(payload['steps'])} step(s); final has {len(final['edges'])} edges")


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
@click.option("--json", "json_path", default=None)
@click.option("--csv", "csv_path", default=None, help="Write the counterexample table as CSV.")
@_guarded
def scan(family: str, target: str, kind: str, n_range: str, eps: str, delta: str,
         piref: Optional[str], expect_clean: bool, json_path: Optional[str],
         csv_path: Optional[str]) -> None:
    """Exhaustive stability scan over all family-free graphs in a vertex range."""
    try:
        lo, hi = (int(tok) for tok in n_range.split(".."))
    except ValueError as exc:
        raise FormatError(f"bad --n range {n_range!r}, expected A..B") from exc
    params = {"family": family, "class": target, "kind": kind, "n_lo": lo, "n_hi": hi,
              "eps": eps, "delta": delta, "pi_ref": piref}
    payload = _run("scan", params, json_path)
    if csv_path:
        rows = ["n,min_degree,edges,distance,bound"]
        for c in payload["counterexamples"]:
            dist = "" if c["distance"] is None else str(c["distance"])
            bound = "" if c["bound"] is None else fmt_float(c["bound"])
            rows.append(f"{c['n']},{c['min_degree']},{c['edges']},{dist},{bound}")
        Path(csv_path).write_text("\n".join(rows) + "\n")
    click.echo(payload["summary"])
    if expect_clean and payload["counterexamples"]:
        sys.exit(EXIT_COUNTEREXAMPLE)


@main.command()
@click.argument("path")
@click.option("--v", "vertex", type=int, required=True)
@click.option("--class", "target", required=True)
@click.option("--zeta", required=True)
@click.option("--piref", required=True)
@click.option("--json", "json_path", default=None)
@_guarded
def extendable(path: str, vertex: int, target: str, zeta: str, piref: str,
               json_path: Optional[str]) -> None:
    """Vertex-extendability verdict for one graph and one vertex."""
    params = {"input": path, "vertex": vertex, "class": target, "zeta": zeta, "pi_ref": piref}
    payload = _run("extendable", params, json_path)
    click.echo(f"{payload['status']} (degree_ok={payload['degree_ok']}, "
               f"base_in_hull={payload['base_in_hull']}, self_in_hull={payload['self_in_hull']})")


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--r", "uniformity", type=int, required=True)
@click.option("--family", default=None, help="Restrict to family-free graphs.")
@click.option("-o", "--outdir", default=None, help="Dump one .hgr per isomorphism class.")
@click.option("--json", "json_path", default=None)
@_guarded
def enum(n: int, uniformity: int, family: Optional[str], outdir: Optional[str],
         json_path: Optional[str]) -> None:
    """Isomorph-free enumeration."""
    payload = _run("enum", {"n": n, "r": uniformity, "family": family}, json_path)
    if outdir:
        out = Path(outdir)
        out.mkdir(parents=True, exist_ok=True)
        for i, obj in enumerate(payload["graphs"]):
            hgr.dump(hgr.from_json_obj(obj), out / f"g{i:05d}.hgr")
    click.echo(f"{payload['count']} isomorphism class(es)")


if __name__ == "__main__":
    main()
