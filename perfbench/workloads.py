"""The four benchmark workloads: their inputs, jobs and reference checks.

A workload is built in two steps.  ``build`` runs during set-up: it makes the
inputs from the seed with the benchmark's own generators (``gen``), writes the
graph files the jobs read, and returns the job list.  Each job then calls the
program through its public names only, looked up on the module at call time
so that the tracer's wrappers are seen, and hands the output to a reference
check.  A check that fails raises ``ReferenceMismatch``; the child counts that
job as failed and carries on.

Why each workload exists is written up in README.md.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from math import comb
from pathlib import Path
from typing import Any, Callable

import gen

REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())

# Motzkin-Straus and lambda_complete comparisons; the maximizer's own
# stopping tolerance is 1e-10 on the projected gradient.
LAMBDA_TOL = 1e-9


class ReferenceMismatch(Exception):
    """A job's output disagrees with the workload's reference."""


@dataclass
class Job:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], None]


@dataclass
class Workload:
    jobs: list[Job]
    # counters the checks fill in, reported with the run (e.g. Lagrangian misses)
    tally: dict[str, int] = field(default_factory=dict)


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise ReferenceMismatch(message)


def write_hgr(path: Path, graph: gen.Graph) -> str:
    """Write the documented HGR text format: header ``r n m``, one edge a line."""
    r, n, edges = graph
    lines = [f"{r} {n} {len(edges)}"] + [" ".join(map(str, e)) for e in edges]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _run_config(command: str, params: dict, seed: int = 0, json_out: str | None = None):
    """One job through ``workbench.run``, the path every CLI subcommand takes:
    config parsed from JSON, payload written as canonical JSON."""
    from extremal import workbench

    text = json.dumps({"command": command, "params": params, "seed": seed,
                       "outputs": {"json": json_out} if json_out else {}})
    return workbench.run(workbench.ExperimentConfig.from_json(text)).outputs["payload"]


# ---------------------------------------------------------------------------
# enum: unconstrained isomorph-free enumeration


def build_enum(seed: int, workdir: Path) -> Workload:
    oeis = REFERENCE["oeis_class_counts"]
    jobs = []
    # The small job first, on a small heap: after the graph job the heap holds
    # canonical_form's cache, and whether one full garbage collection (~80 ms)
    # fell into the small job would decide job_p50_ms.  No graphs on fewer
    # vertices: enumerating 7 vertices canonicalizes them again, so such a job
    # would share work with it.
    for key, n, r in (("A000665", 5, 3), ("A000088", 7, 2)):
        want = oeis[key][str(n)]

        def check(payload, want=want, key=key, n=n):
            _expect(payload["count"] == want == len(payload["graphs"]),
                    f"{key}({n}) = {want}, enumerated {payload['count']}")

        out = str(workdir / f"enum_n{n}_r{r}.json")
        jobs.append(Job(f"enum n={n} r={r}",
                        lambda n=n, r=r, out=out: _run_config("enum", {"n": n, "r": r}, seed, out),
                        check))
    return Workload(jobs)


# ---------------------------------------------------------------------------
# turan: exact Turan numbers by both routes, then degree scans


def turan_graph_edges(n: int, parts: int) -> int:
    """Edges of the balanced complete ``parts``-partite graph (Turan's theorem)."""
    sizes = [n // parts + (1 if i < n % parts else 0) for i in range(parts)]
    return sum(a * b for a, b in itertools.combinations(sizes, 2))


def turan3_edges(n: int) -> int:
    """|T3(n,3)|: edges of the balanced complete 3-partite 3-graph."""
    sizes = [n // 3 + (1 if i < n % 3 else 0) for i in range(3)]
    return sizes[0] * sizes[1] * sizes[2]


# One job a family: its ex sweep, then its degree scan, which reuses the free
# representatives the sweep cached.  A job is the study of one family, as a
# user would run it.  Single ex calls made poor jobs: half of them took
# 1-40 ms, a span in which the host's speed swings by a quarter that the
# reference clock cannot follow, and job_p50_ms fell on one of them.  The
# short Sigma3 job comes first, since the probe children run the first job.
# Sigma3 stops at n = 6: ex at n = 7 alone takes ~6 s, and a run would hold
# a single child.
TURAN_SWEEP = (("sigma:3", range(5, 7), turan3_edges),
               ("k3", range(5, 9), lambda n: turan_graph_edges(n, 2)),
               ("k4", range(5, 8), lambda n: turan_graph_edges(n, 3)))


def build_turan(seed: int, workdir: Path) -> Workload:
    scans = {scan["params"]["family"]: scan for scan in REFERENCE["scans"]}
    jobs = []
    for family, ns, formula in TURAN_SWEEP:
        name = family.replace(":", "")
        steps = [("ex", {"n": n, "family": family, "method": "both"},
                  str(workdir / f"ex_{name}_{n}.json")) for n in ns]
        scan = scans.get(family)
        if scan:
            steps.append(("scan", scan["params"], str(workdir / f"scan_{name}.json")))

        def check(payloads, family=family, ns=ns, formula=formula, scan=scan):
            for n, payload in zip(ns, payloads):
                _expect(payload["method"] == "both-agree", f"ex({n}, {family}) routes disagree")
                _expect(payload["value"] == formula(n),
                        f"ex({n}, {family}) = {payload['value']}, reference {formula(n)}")
            if scan:
                payload = payloads[-1]
                got = (payload["scanned"], len(payload["counterexamples"]))
                want = (scan["scanned"], scan["counterexamples"])
                _expect(got == want, f"scan {scan['params']}: (scanned, counterexamples) "
                                     f"= {got}, reference {want}")

        label = f"ex n={ns[0]}..{ns[-1]} {family}" + (f", scan vs {scan['params']['class']}"
                                                      if scan else "")
        jobs.append(Job(label, lambda steps=steps: [_run_config(command, params, seed, out)
                                                    for command, params, out in steps],
                        check))
    return Workload(jobs)


# ---------------------------------------------------------------------------
# instances: per-instance stability and symmetrization analysis


@dataclass(frozen=True)
class InstanceKind:
    family: str
    target: str  # class spec
    parts: int
    pi_ref: float
    sizes: tuple[int, ...]
    keeps: tuple[float, ...]  # share of Turan-structure pairs kept before greedy growth
    count: int  # instances per child

    def make(self, rng: random.Random, n: int, keep: float) -> gen.Graph:
        if self.family == "sigma:3":
            return gen.random_sigma_free(rng, n, keep, accept=0.8)
        return gen.random_clique_free(rng, n, int(self.family[1:]), keep, accept=0.8)

    def is_free(self, graph: gen.Graph) -> bool:
        r, n, edges = graph
        if self.family == "sigma:3":
            return gen.is_sigma_free(r, edges)
        return gen.is_k_free(n, edges, int(self.family[1:]))


# Strata are fixed (vertex count and how close to the Turan structure each
# instance starts), only the graphs themselves are random: the cost of one
# instance varies far less within a stratum than across, which keeps the run
# time steady from seed to seed.  Several instances per stratum and child
# average out the heavy tails that remain.  Sizes stop where one instance's
# cost starts to swing with the seed: K3-free at n = 15 (vertex deletion
# distance at n = 16 costs 87 ms on average, coefficient of variation 0.74),
# K4-free at n = 12 (edge deletion distance at n = 13: 73 ms, 0.78) and
# Sigma3-free at n = 10 (edge deletion distance at n = 11: 117 ms, 0.45).
# Sigma3-free graphs grown around a 3-partition are left out: their edge
# deletion distance now and then takes 3 s, ten times the usual.  Within the
# strata the cost still varies from graph to graph (the deletion distances of
# one seed's Sigma3-free graphs summed to 0.2 s, another's to 0.4 s), so a
# child holds 117 instances.  Over eight seeds, the quartile spread of one
# child's summed job time was 0.11 with 39 instances and 0.04 with 117, and
# that of its p90 job latency 0.12 and 0.06.
INSTANCE_KINDS = (
    InstanceKind("k3", "bipartite", 2, 0.5, (12, 13, 14, 15), (0.0, 0.5), 48),
    InstanceKind("k4", "krl:2:3", 3, 2 / 3, (12,), (0.0, 0.5), 24),
    InstanceKind("sigma:3", "krl:3:3", 3, 2 / 9, (8, 9, 10), (0.0,), 45),
)
ZETA = 0.1


def _symmetrized(graph: gen.Graph) -> bool:
    """Every two vertices with different links share an edge."""
    r, n, edges = graph
    links = [set() for _ in range(n)]
    covered = set()
    for e in edges:
        for v in e:
            links[v].add(tuple(u for u in e if u != v))
        covered.update(itertools.combinations(e, 2))
    return all(links[u] == links[v] or (u, v) in covered
               for u, v in itertools.combinations(range(n), 2))


def _instance_jobs(kind: InstanceKind, graph: gen.Graph, path: str, tag: str) -> list[Job]:
    from extremal import rgraph, stability

    r, n, edges = graph
    seen: dict[str, Any] = {}

    def as_rgraph():
        return rgraph.RGraph(r, n, edges)

    def spec():
        return stability.complete_blowups(r, kind.parts)

    def check_sym(payload):
        final = payload["final"]
        out = (final["r"], final["n"], tuple(tuple(e) for e in final["edges"]))
        _expect(kind.is_free(out), f"{tag}: symmetrized graph is not {kind.family}-free")
        _expect(_symmetrized(out), f"{tag}: output of symmetrize is not symmetrized")
        _expect(len(out[2]) >= len(edges), f"{tag}: symmetrize lost edges")

    def check_check(payload):
        _expect(payload["free"], f"{tag}: check reports a free input as not free")
        seen["in_hull"] = payload["in_hull"]

    def coloring():
        h = as_rgraph()
        return (stability.krl_coloring(h, kind.parts) is not None,
                stability.rainbow_partition(h, kind.parts) is not None)

    def check_coloring(result):
        krl, rainbow = result
        _expect(krl == rainbow, f"{tag}: krl_coloring {krl} but rainbow_partition {rainbow}")
        _expect(krl == seen["in_hull"], f"{tag}: coloring {krl} but in_hull {seen['in_hull']}")

    def check_extendable(payload):
        _expect(payload["self_in_hull"] == seen["in_hull"],
                f"{tag}: extendable self_in_hull disagrees with in_hull")

    def check_vertex_distance(dist):
        _expect((dist == 0) == seen["in_hull"],
                f"{tag}: vertex deletion distance {dist} but in_hull {seen['in_hull']}")

    def check_edge_distance(result):
        dist, exact = result
        # an inexact value is only an upper bound, so 0 is then the one wrong answer
        ok = (dist == 0) == seen["in_hull"] if exact else (dist > 0 or seen["in_hull"])
        _expect(ok, f"{tag}: edge deletion distance {result} but in_hull {seen['in_hull']}")

    fam, target = kind.family, kind.target
    jobs = [
        Job(f"{tag} symmetrize class",
            lambda: _run_config("symmetrize", {"input": path, "family": fam, "mode": "class"}),
            check_sym),
        Job(f"{tag} symmetrize vertex",
            lambda: _run_config("symmetrize", {"input": path, "family": fam, "mode": "vertex"}),
            check_sym),
        Job(f"{tag} check",
            lambda: _run_config("check", {"input": path, "class": target, "family": fam}),
            check_check),
        Job(f"{tag} coloring", coloring, check_coloring),
    ]
    for v in range(n):
        params = {"input": path, "vertex": v, "class": target, "zeta": ZETA,
                  "pi_ref": kind.pi_ref}
        jobs.append(Job(f"{tag} extendable v={v}",
                        lambda params=params: _run_config("extendable", params),
                        check_extendable))
    jobs.append(Job(f"{tag} vertex_deletion_distance",
                    lambda: stability.vertex_deletion_distance(as_rgraph(), spec()),
                    check_vertex_distance))
    jobs.append(Job(f"{tag} edge_deletion_distance",
                    lambda: stability.edge_deletion_distance(as_rgraph(), spec()),
                    check_edge_distance))
    return jobs


def build_instances(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    jobs = []
    for kind in INSTANCE_KINDS:
        for i in range(kind.count):
            n = kind.sizes[i % len(kind.sizes)]
            keep = kind.keeps[(i // len(kind.sizes)) % len(kind.keeps)]
            graph = kind.make(rng, n, keep)
            tag = f"{kind.family}#{i} n={n}"
            path = write_hgr(workdir / f"{kind.family.replace(':', '')}_{i}.hgr", graph)
            jobs.extend(_instance_jobs(kind, graph, path, tag))
    return Workload(jobs)


# ---------------------------------------------------------------------------
# lagrangian: simplex maximization by both methods


SUPPORT_LIMIT = 12  # op_lagrangian enumerates supports up to this many vertices

# (r, vertex counts, densities, graphs per child, graphs drawn from the seed);
# None density = complete graph.  Random 3-graphs stay small: support
# enumeration on m >= 6, or multistart below density 0.8, runs the ascent to
# its 10,000-iteration cap for about one graph in six, and a few such graphs
# cost as much as the rest of a child, so their number would decide the run
# (README.md gives the measurements).  The capped ascent is measured on
# CAPPED_ASCENT instead.  The heaviest random strata (over ~100 ms a graph)
# draw the same graphs on every seed: which of them a seed drew decided
# job_p90_ms, whose quartile spread over ten seeds was 0.32.  So do the
# random 3-graphs at m = 5: about one in ten reaches the cap there (0.6 s
# against ~15 ms), and whether a seed drew one moved wall_s by up to 15 %.
# The seed still picks the 2-graphs at m = 6, the multistart 2-graphs and
# every multistart's restarts.
LAGRANGIAN_STRATA = (
    (2, (6,), (0.3, 0.5, 0.7), 6, True),           # support enumeration, Motzkin-Straus exact
    (2, (7,), (0.3, 0.5, 0.7), 6, False),
    (2, (8,), (0.5,), 2, False),                    # (m = 8 costs ~3x m = 7, so fewer)
    (3, (5,), (0.4, 0.6), 6, False),                # support enumeration
    (2, tuple(range(13, 21)), (0.3, 0.5, 0.7), 24, True),  # multistart, Motzkin-Straus bound
    (3, (13, 14), (0.8,), 4, False),                # multistart
    (2, tuple(range(13, 21)), (None,), 8, True),    # complete, multistart
    (3, (5, 6, 7, 8, 9, 10), (None,), 6, True),     # complete, support enumeration
    (3, (13, 14, 15, 16), (None,), 4, True),        # complete, multistart
)
FIXED_GRAPHS_SEED = 0
RESTARTS = 16

# Every triple through vertex 0 plus the triple 123: at the seed commit,
# support enumeration runs the ascent to its iteration cap on it and returns
# converged=False in ~0.5 s.  One fixed graph, so the capped ascent is timed
# and lagrangian.maximize.converged_ratio stays below 1 on every seed.
CAPPED_ASCENT = (3, 5, ((0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 4), (0, 3, 4),
                        (1, 2, 3)))


def motzkin_straus(n: int, edges) -> float:
    """lambda(G) = (1 - 1/omega(G)) / 2 for a 2-graph with an edge."""
    omega = gen.clique_number(n, edges)
    return (1 - 1 / omega) / 2


def _lagrangian_inputs(seed: int):
    """(tag, graph, exact value or None, complete) for every job of a child."""
    seeded, fixed = random.Random(seed), random.Random(FIXED_GRAPHS_SEED)
    for s, (r, sizes, densities, count, from_seed) in enumerate(LAGRANGIAN_STRATA):
        rng = seeded if from_seed else fixed
        for i in range(count):
            m = sizes[i % len(sizes)]
            density = densities[(i // len(sizes)) % len(densities)]
            tag = f"lagrangian s{s}#{i} r={r} m={m}"
            if density is None:
                yield tag, gen.complete_rgraph(m, r), comb(m, r) / m**r, True
            else:
                graph = gen.random_rgraph(rng, m, r, density)
                yield tag, graph, motzkin_straus(m, graph[2]) if r == 2 else None, False
    yield "lagrangian capped ascent r=3 m=5", CAPPED_ASCENT, None, False


def build_lagrangian(seed: int, workdir: Path) -> Workload:
    workload = Workload([], {"misses": 0, "referenced_multistart": 0})
    tally = workload.tally
    for k, (tag, graph, exact, complete) in enumerate(_lagrangian_inputs(seed)):
        r, m, _ = graph
        upper = comb(m, r) / m**r  # lambda_complete(m, r), the most any r-graph reaches
        multistart = m > SUPPORT_LIMIT
        path = write_hgr(workdir / f"lag_{k}.hgr", graph)
        lower = len(graph[2]) / m**r  # the uniform point, always evaluated

        def check(payload, tag=tag, exact=exact, multistart=multistart, lower=lower,
                  upper=upper, complete=complete):
            value = payload["value"]
            _expect(lower - LAMBDA_TOL <= value <= upper + LAMBDA_TOL,
                    f"{tag}: value {value} outside [{lower}, {upper}]")
            if exact is None:
                return
            _expect(value <= exact + LAMBDA_TOL, f"{tag}: value {value} above exact {exact}")
            if multistart and not complete:
                tally["referenced_multistart"] += 1
                tally["misses"] += value < exact - LAMBDA_TOL
            else:
                _expect(value >= exact - LAMBDA_TOL, f"{tag}: value {value} below exact {exact}")

        params = {"input": path, "supports": False, "restarts": RESTARTS}
        job_seed = seed * 1000 + len(workload.jobs)
        workload.jobs.append(Job(tag, lambda params=params, job_seed=job_seed:
                                 _run_config("lagrangian", params, job_seed), check))
    return workload


BUILDERS = {
    "enum": build_enum,
    "turan": build_turan,
    "instances": build_instances,
    "lagrangian": build_lagrangian,
}


def build(name: str, seed: int, workdir: Path) -> Workload:
    """The workload's jobs for one child; the same seed always gives the same
    inputs.  enum and turan are exhaustive and use the seed only for the
    config's ``seed`` field."""
    return BUILDERS[name](seed, workdir)
