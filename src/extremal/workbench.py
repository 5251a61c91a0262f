"""Experiment configs, result records, and the command implementations.

``run`` is the one way into the ``op_*`` functions: it checks a config's
params against ``_PARAMS``, fills in the defaults, reads every number param
as an exact ``Fraction`` and dispatches.  Every computing CLI subcommand
builds such a config, so a config plus a seed fully determines the outputs,
and a threshold is exact from either.  Payloads print those numbers as
floats.  Output JSON is canonical (sorted keys, two-space indent, trailing
newline) and CSV floats carry 12 significant digits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from . import constructions as cons
from . import hgr
from .errors import FormatError
from .isomorphism import enumerate_rgraphs
from .lagrangian import maximize
from .morphism import (
    CANCELLATIVE,
    EXPLICIT,
    GEN_TRIANGLE,
    FamilySpec,
    cancellative_family,
    explicit_family,
    free_representatives,
    generalized_triangles,
    is_free,
    single_graph,
    weak_expansions,
)
from .rgraph import RGraph
from .stability import (
    ClassSpec,
    check_vertex_extendable,
    class_membership,
    complete_blowups,
    in_hull,
    scan_stability,
    semibipartite_class,
    two_covered_systems,
)
from .symmetrization import ex, symmetrize


def fmt_float(x: float) -> str:
    return f"{float(x):.12g}"


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# family and class parsing (the CLI surface names)


def parse_family(text: str) -> FamilySpec:
    """CLI family syntax: ``k<L>`` for a single complete graph, ``sigma:<r>``,
    ``cancellative:<r>``, ``weakexp:<path>``, ``file:<path>``, ``list:<dir>``.
    """
    text = text.strip()
    if text.startswith("k") and text[1:].isdigit():
        return single_graph(cons.complete_graph(int(text[1:])))
    for name, family in (("sigma", generalized_triangles), ("cancellative", cancellative_family)):
        if text.startswith(name):
            arg = text.split(":", 1)[1] if ":" in text else text[len(name) :]
            if not arg.isdigit():
                raise FormatError(f"bad family spec {text!r}: expected {name}:<r>")
            return family(int(arg))
    if text.startswith("weakexp:"):
        return weak_expansions(hgr.load(text.split(":", 1)[1]))
    if text.startswith("file:"):
        return single_graph(hgr.load(text.split(":", 1)[1]))
    if text.startswith("list:"):
        directory = Path(text.split(":", 1)[1])
        members = [hgr.load(p) for p in sorted(directory.glob("*.hgr"))]
        if not members:
            raise FormatError(f"no .hgr files in {directory}")
        return explicit_family(members)
    raise FormatError(f"unknown family spec {text!r}")


def parse_class(text: str) -> ClassSpec:
    """CLI class syntax: ``krl:<r>:<parts>`` (alias ``bipartite``),
    ``semibip:<r>``, ``twocov:<r>[:<pmax>]``."""
    text = text.strip()
    if text == "bipartite":
        return complete_blowups(2, 2)
    parts = text.split(":")
    try:
        if parts[0] == "krl" and len(parts) == 3:
            return complete_blowups(int(parts[1]), int(parts[2]))
        if parts[0] == "semibip" and len(parts) == 2:
            return semibipartite_class(int(parts[1]))
        if parts[0] == "twocov" and len(parts) in (2, 3):
            return two_covered_systems(*(int(x) for x in parts[1:]))
    except ValueError as exc:
        raise FormatError(f"bad class spec {text!r}") from exc
    raise FormatError(f"unknown class spec {text!r}")


def preset_pi(fam: FamilySpec) -> Optional[Fraction]:
    """Exact limiting densities for the stock families, None when unknown."""
    if fam.kind == EXPLICIT and len(fam.members) == 1:
        f = fam.members[0]
        if f.r == 2 and len(f.edges) == (f.n * (f.n - 1)) // 2 and f.n >= 3:
            return 1 - Fraction(1, f.n - 1)  # complete graph on f.n vertices
    if fam.kind in (GEN_TRIANGLE, CANCELLATIVE) and fam.r in (3, 4):
        return Fraction(factorial(fam.r), fam.r**fam.r)
    return None


# ---------------------------------------------------------------------------
# command implementations: ``make`` for the CLI, the rest through run()

MAKE_TAGS = {
    "turan": (cons.turan_graph, 2),
    "turanr": (cons.turan_rgraph, 3),
    "complete": (cons.complete_rgraph, 2),
    "gentriangle": (cons.gen_triangle, 1),
    "hinge": (cons.hinge_graph, 2),
    "matching": (cons.matching, 2),
    "sunflower": (cons.sunflower, 2),
    "semibip": (cons.complete_semibipartite, 3),
    "turanplus": (cons.turan_plus, 2),
}


def op_make(tag: str, params: Sequence[str]) -> RGraph:
    """The named construction from its command-line arguments."""
    if tag == "expansion":
        if len(params) != 1:
            raise FormatError("expansion takes one argument: the base graph file")
        return cons.expansion(hgr.load(params[0]))
    try:
        ints = [int(x) for x in params]
    except ValueError as exc:
        raise FormatError(f"construction parameters must be integers: {exc}") from exc
    if tag not in MAKE_TAGS:
        raise FormatError(f"unknown construction {tag!r}; choose from {sorted(MAKE_TAGS)}")
    fn, arity = MAKE_TAGS[tag]
    if len(ints) != arity:
        raise FormatError(f"{tag} takes {arity} integer parameter(s), got {len(ints)}")
    try:
        return fn(*ints)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def op_ex(p: dict, seed: int) -> dict:
    res = ex(p["n"], parse_family(p["family"]), p["method"], p["pmax"])
    return {
        "n": p["n"],
        "family": p["family"],
        "method": res.method,
        "value": res.value,
        "witnesses": [hgr.to_json_obj(w) for w in res.witnesses],
    }


def op_lagrangian(p: dict, seed: int) -> dict:
    g = hgr.load(p["input"])
    res = maximize(g, restarts=p["restarts"], seed=seed, all_supports=p["supports"])
    return {
        "input": p["input"],
        "value": res.value,
        "method": res.method,
        "gap": res.gap,
        "converged": res.converged,
        "maximizer": list(res.maximizer.weights),
    }


def op_symmetrize(p: dict, seed: int) -> dict:
    trace = symmetrize(hgr.load(p["input"]), parse_family(p["family"]), p["mode"])
    return {
        "input": p["input"],
        "family": p["family"],
        "mode": p["mode"],
        "steps": [
            {
                "kind": s.kind,
                "absorbed": list(s.absorbed),
                "donor": list(s.donor),
                "edges": [s.edges_before, s.edges_after],
                "energy": [s.energy_before, s.energy_after],
            }
            for s in trace.steps
        ],
        "final": hgr.to_json_obj(trace.final),
    }


def op_scan(p: dict, seed: int) -> dict:
    fam = parse_family(p["family"])
    spec = parse_class(p["class"])
    pi_val = preset_pi(fam) if p["pi_ref"] is None else p["pi_ref"]
    if pi_val is None:
        raise FormatError("no density preset for this family; pass --piref explicitly")
    n_range = (p["n_lo"], p["n_hi"])
    verdict = scan_stability(fam, spec, p["kind"], n_range, p["eps"], p["delta"], pi_val)
    return {
        "family": p["family"],
        "class": p["class"],
        "kind": p["kind"],
        "n_range": list(n_range),
        "eps": float(p["eps"]),
        "delta": float(p["delta"]),
        "pi_ref": float(pi_val),
        "scanned": verdict.scanned,
        "max_distance": verdict.max_distance,
        "heuristic": verdict.heuristic,
        "summary": verdict.summary(),
        "counterexamples": [
            {
                "n": c.n,
                "graph": hgr.to_json_obj(c.graph),
                "min_degree": c.min_degree,
                "edges": c.edge_count,
                "distance": c.distance,
                "bound": None if c.bound is None else float(c.bound),
            }
            for c in verdict.counterexamples
        ],
    }


def op_check(p: dict, seed: int) -> dict:
    g = hgr.load(p["input"])
    out: dict[str, Any] = {"input": p["input"], "r": g.r, "n": g.n, "edges": len(g.edges)}
    if p["class"] is not None:
        spec = parse_class(p["class"])
        out["class"] = p["class"]
        out["in_hull"] = in_hull(g, spec)
        out["member"] = class_membership(g, spec)
    if p["family"] is not None:
        out["family"] = p["family"]
        out["free"] = is_free(g, parse_family(p["family"]))
    return out


def op_extendable(p: dict, seed: int) -> dict:
    g = hgr.load(p["input"])
    verdict = check_vertex_extendable(g, p["vertex"], parse_class(p["class"]), p["zeta"],
                                      p["pi_ref"])
    return {
        "input": p["input"],
        "vertex": p["vertex"],
        "class": p["class"],
        "zeta": float(p["zeta"]),
        "pi_ref": float(p["pi_ref"]),
        "status": verdict.status,
        "degree_ok": verdict.degree_ok,
        "base_in_hull": verdict.base_in_hull,
        "self_in_hull": verdict.self_in_hull,
        "threshold": float(verdict.threshold),
    }


def op_enum(p: dict, seed: int) -> dict:
    if p["family"] is not None:
        reps = free_representatives(p["n"], parse_family(p["family"]))
    else:
        reps = enumerate_rgraphs(p["n"], p["r"])
    return {
        "n": p["n"],
        "r": p["r"],
        "family": p["family"],
        "count": len(reps),
        "graphs": [hgr.to_json_obj(g) for g in reps],
    }


# ---------------------------------------------------------------------------
# configs and records

_CONFIG_KEYS = {"command", "params", "seed", "outputs"}


@dataclass
class ExperimentConfig:
    command: str
    params: dict
    seed: int = 0
    outputs: dict = field(default_factory=dict)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid config JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise FormatError("config must be a JSON object")
        unknown = obj.keys() - _CONFIG_KEYS
        if unknown:
            raise FormatError(f"unknown config keys: {sorted(unknown)}")
        missing = {"command", "params"} - obj.keys()
        if missing:
            raise FormatError(f"config missing keys: {sorted(missing)}")
        if not isinstance(obj["command"], str) or not isinstance(obj["params"], dict):
            raise FormatError("config field types: command=str, params=object")
        outputs = obj.get("outputs", {})
        if not isinstance(outputs, dict):
            raise FormatError("config field types: outputs=object")
        return cls(obj["command"], obj["params"], obj.get("seed", 0), outputs)


@dataclass
class ResultRecord:
    """What ``run`` returns: ``outputs == {"payload": payload}``, the shape
    the benchmark reads."""

    outputs: dict


# JSON types of params.  A bool is not an int or a number, though Python
# makes it both.  A number may also be spelled as a string, such as "13/441".
_JSON_TYPES: dict[str, tuple[type, ...]] = {
    "int": (int,), "str": (str,), "bool": (bool,), "number": (int, float, str),
}

# command -> (required params with their JSON types, optional params with
# their JSON types and defaults); None passes only where it is the default
_PARAMS: dict[str, tuple[dict[str, str], dict[str, tuple[str, Any]]]] = {
    "ex": ({"n": "int", "family": "str"}, {"method": ("str", "both"), "pmax": ("int", None)}),
    "lagrangian": ({"input": "str"}, {"supports": ("bool", False), "restarts": ("int", 64)}),
    "symmetrize": ({"input": "str", "family": "str"}, {"mode": ("str", "class")}),
    "scan": ({"family": "str", "class": "str", "n_lo": "int", "n_hi": "int", "eps": "number"},
             {"kind": ("str", "degree"), "delta": ("number", 0), "pi_ref": ("number", None)}),
    "check": ({"input": "str"}, {"class": ("str", None), "family": ("str", None)}),
    "extendable": ({"input": "str", "vertex": "int", "class": "str", "zeta": "number",
                    "pi_ref": "number"}, {}),
    "enum": ({"n": "int", "r": "int"}, {"family": ("str", None)}),
}


def default(command: str, name: str) -> str:
    """The default of an optional param, as the text of a CLI option."""
    return str(_PARAMS[command][1][name][1])


_DISPATCH: dict[str, Callable[[dict, int], dict]] = {
    "ex": op_ex, "lagrangian": op_lagrangian, "symmetrize": op_symmetrize, "scan": op_scan,
    "check": op_check, "extendable": op_extendable, "enum": op_enum,
}


def _exact(command: str, name: str, value: int | float | str) -> Fraction:
    """A number param as an exact rational.  A float reads as the decimal it
    prints as, so 0.1 is 1/10 and not the binary value nearest it; nan, inf
    and strings that name no rational raise ``FormatError``."""
    try:
        return Fraction(repr(value) if isinstance(value, float) else value)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"{command} param {name!r} must be number, got {value!r}") from exc


def run(config: ExperimentConfig) -> ResultRecord:
    """Execute a config, write the payload if asked, and return it.

    ``outputs`` maps logical names to path strings.  The one name is
    ``json``, which stores the canonical payload; any other name or a path
    that is not a string raises ``FormatError``, as does a seed that is not
    a JSON integer of at least 0, a missing or unknown name in ``params`` or
    a value of the wrong JSON type, before the command runs.  Number params
    reach the command as ``Fraction``s (see ``_exact``).  The payload is the
    command's, with its name under ``command``.
    """
    if config.command not in _DISPATCH:
        raise FormatError(f"unknown command {config.command!r}")
    for name, path in config.outputs.items():
        if name != "json":
            raise FormatError(f"unknown output kind {name!r}")
        if not isinstance(path, str):
            raise FormatError(f"output {name!r} must be a path string, got {path!r}")
    if not hgr.is_json_int(config.seed) or config.seed < 0:
        raise FormatError(f"seed must be a JSON integer of at least 0, got {config.seed!r}")
    required, optional = _PARAMS[config.command]
    missing = [k for k in required if k not in config.params]
    if missing:
        raise FormatError(f"{config.command} params missing: {missing}")
    unknown = sorted(config.params.keys() - required.keys() - optional.keys())
    if unknown:
        raise FormatError(f"unknown {config.command} params: {unknown}")
    kinds = {**required, **{name: kind for name, (kind, _) in optional.items()}}
    for name, value in sorted(config.params.items()):
        # a required param has no default, so None never passes it
        kind, default = optional[name] if name in optional else (required[name], ...)
        if value is None and default is None:
            continue
        if not isinstance(value, _JSON_TYPES[kind]) or (isinstance(value, bool) and kind != "bool"):
            raise FormatError(f"{config.command} param {name!r} must be {kind}, got {value!r}")
    params = {**{name: default for name, (_, default) in optional.items()}, **config.params}
    for name, value in params.items():
        if kinds[name] == "number" and value is not None:
            params[name] = _exact(config.command, name, value)
    payload = {"command": config.command, **_DISPATCH[config.command](params, config.seed)}
    if "json" in config.outputs:
        Path(config.outputs["json"]).write_text(canonical_json(payload))
    return ResultRecord({"payload": payload})
