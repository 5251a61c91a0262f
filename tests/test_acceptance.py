"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.

Criterion 10's K4 scan is checked at the sharp threshold.  By Andrasfai, Erdos
and Sos (Discrete Math. 8, 1974) a K_{r+1}-free graph with minimum degree above
(3r-4)/(3r-1) n is r-partite, and this is tight; for K4 the value is 5/8, so
degree stability towards 3-partite graphs holds exactly for eps < 2/3 - 5/8 =
1/24.  The test asserts the exact eps = 1/24 scan clean and the originally
specified eps = 0.1 scan dirty, with the complement of C7 (n = 7, 4-regular)
among its counterexamples and a worst min_degree/n of exactly 5/8 (C5 joined to
an independent set of size 3, n = 8, min degree 5), so both sides of eps* are
pinned.
"""

import random
import time
from fractions import Fraction

import numpy as np
from click.testing import CliRunner

from extremal import constructions as cons, hgr
from extremal.cli import main as cli_main
from extremal.isomorphism import enumerate_rgraphs
from extremal.lagrangian import (
    evaluate,
    gradient,
    lambda_complete,
    maclaurin_residual,
    maximize,
    semibipartite_residual,
)
from extremal.morphism import (
    check_blowup_invariance,
    generalized_triangles,
    is_free,
    single_graph,
)
from extremal.rgraph import RGraph, class_energy, is_symmetrized
from extremal.stability import (
    COUNTEREXAMPLE,
    check_vertex_extendable,
    complete_blowups,
    in_hull,
    krl_coloring,
    rainbow_partition,
    scan_stability,
)
from extremal.symmetrization import (
    ex_bruteforce,
    ex_via_patterns,
    free_representatives,
    symmetrize,
)

from conftest import are_isomorphic, cycle, random_free_rgraph, random_rgraph

K3FAM = single_graph(cons.complete_graph(3))
SIGMA3 = generalized_triangles(3)


def report(num: int, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())


def test_criterion_01_turan_agreement_graphs():
    started = time.monotonic()
    failures = []
    for n in range(3, 9):
        res = ex_bruteforce(n, K3FAM)
        if res.value != n * n // 4:
            failures.append(f"value(n={n})={res.value}")
        if len(res.witnesses) != 1 or not are_isomorphic(res.witnesses[0], cons.turan_graph(n, 2)):
            failures.append(f"witness(n={n})")
    elapsed = time.monotonic() - started
    if elapsed >= 60:
        failures.append(f"too slow: {elapsed:.1f}s")
    report(1, not failures, f"ex(n,K3)=floor(n^2/4), unique Turan witness, n in [3,8] ({elapsed:.1f}s)")
    assert not failures, failures


def test_criterion_02_cancellative_agreement():
    started = time.monotonic()
    failures = []
    for n in range(4, 7):
        res = ex_bruteforce(n, SIGMA3)
        want = len(cons.turan_rgraph(n, 3, 3).edges)
        if res.value != want:
            failures.append(f"value(n={n})={res.value}, want {want}")
        if len(res.witnesses) != 1 or not are_isomorphic(
            res.witnesses[0], cons.turan_rgraph(n, 3, 3)
        ):
            failures.append(f"witness(n={n})")
    elapsed = time.monotonic() - started
    if elapsed >= 600:
        failures.append(f"too slow: {elapsed:.1f}s")
    report(2, not failures, f"ex(n,Sigma3)=|T3(n,3)| with unique witness, n in [4,6] ({elapsed:.1f}s)")
    assert not failures, failures


def test_criterion_03_symmetrization_soundness():
    rng = random.Random(2024)
    violations = 0
    runs = 0
    for fam, n_lo, n_hi in ((K3FAM, 3, 8), (SIGMA3, 4, 6)):
        for _ in range(500):
            h = random_free_rgraph(rng, rng.randint(n_lo, n_hi), fam)
            for mode in ("class", "vertex"):
                runs += 1
                trace = symmetrize(h, fam, mode)  # raises on any per-step violation
                ok = (
                    is_symmetrized(trace.final)
                    and is_free(trace.final, fam)
                    and len(trace.final.edges) >= len(h.edges)
                )
                prev = (len(h.edges), class_energy(h))
                for s in trace.steps:
                    step_pair = (s.edges_after, s.energy_after)
                    if step_pair < (s.edges_before, s.energy_before):
                        ok = False
                    if mode == "vertex" and step_pair <= (s.edges_before, s.energy_before):
                        ok = False
                if not ok:
                    violations += 1
    report(3, violations == 0, f"{runs} traces over 500 random inputs per family, {violations} violations")
    assert violations == 0


def test_criterion_04_route_agreement():
    failures = []
    for n in range(3, 9):
        if ex_via_patterns(n, K3FAM, n).value != ex_bruteforce(n, K3FAM).value:
            failures.append(f"K3 n={n}")
    for n in range(4, 7):
        if ex_via_patterns(n, SIGMA3, n).value != ex_bruteforce(n, SIGMA3).value:
            failures.append(f"Sigma3 n={n}")
    report(4, not failures, "pattern route equals brute force on criteria 1-2 ranges")
    assert not failures, failures


def test_criterion_05_lagrangian_benchmarks():
    started = time.monotonic()
    worst = 0.0
    for m in range(2, 9):
        for r in range(2, m + 1):
            res = maximize(cons.complete_rgraph(m, r))
            worst = max(worst, abs(res.value - float(lambda_complete(m, r))))
    matching_err = abs(maximize(cons.matching(3, 2)).value - 1 / 27)
    elapsed = time.monotonic() - started
    ok = worst <= 1e-9 and matching_err <= 1e-9 and elapsed < 60
    report(5, ok, f"complete-graph worst error {worst:.2e}, matching error {matching_err:.2e} ({elapsed:.1f}s)")
    assert ok


def test_criterion_06_inequality_sweeps():
    rng = np.random.default_rng(2024)
    worst_mac = 0.0
    for m, r in ((3, 2), (4, 3), (5, 3), (6, 4)):
        for _ in range(10_000):
            worst_mac = min(worst_mac, maclaurin_residual(m, r, rng.dirichlet(np.ones(m))))
    worst_semi = 0.0
    worst_zero = 0.0
    for r in range(2, 9):
        for x in np.linspace(0.0, 1.0, 10_000):
            worst_semi = min(worst_semi, semibipartite_residual(r, float(x)))
        worst_zero = max(
            worst_zero,
            abs(semibipartite_residual(r, 1 / r)),
            abs(semibipartite_residual(r, 1.0)),
        )
    ok = worst_mac >= -1e-12 and worst_semi >= -1e-12 and worst_zero <= 1e-12
    report(
        6,
        ok,
        f"maclaurin min {worst_mac:.2e}, semibipartite min {worst_semi:.2e}, "
        f"equality-point error {worst_zero:.2e}",
    )
    assert ok


def test_criterion_07_gradient_check():
    rng = random.Random(7)
    gen = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        r = rng.choice([2, 3, 4])
        n = rng.randint(r, 7)
        g = random_rgraph(rng, n, r, 0.5)
        x = gen.dirichlet(np.ones(n))
        grad = gradient(g, x)
        h = 1e-6
        for v in range(n):
            hi = x.copy()
            hi[v] += h
            lo = x.copy()
            lo[v] -= h
            fd = (evaluate(g, hi) - evaluate(g, lo)) / (2 * h)
            worst = max(worst, abs(grad[v] - fd))
    ok = worst <= 1e-6
    report(7, ok, f"100 random (G, x) pairs, max |analytic - central difference| = {worst:.2e}")
    assert ok


def test_criterion_08_colorability_oracle_equivalence():
    disagreements = 0
    checked = 0
    for n in range(1, 8):
        for g in enumerate_rgraphs(n, 2):
            for parts in (2, 3):
                checked += 1
                if (krl_coloring(g, parts) is None) != (rainbow_partition(g, parts) is None):
                    disagreements += 1
    for n in range(3, 7):
        for g in enumerate_rgraphs(n, 3):
            for parts in (3, 4):
                checked += 1
                if (krl_coloring(g, parts) is None) != (rainbow_partition(g, parts) is None):
                    disagreements += 1
    ok = disagreements == 0
    report(8, ok, f"{checked} colorability instances (graphs n<=7, 3-graphs n<=6), {disagreements} disagreements")
    assert ok


def test_criterion_09_extendability_scans():
    bad = []
    for n in range(1, 10):
        for g in free_representatives(n, K3FAM):
            for v in range(n):
                verdict = check_vertex_extendable(g, v, complete_blowups(2, 2), 0.1, 0.5)
                if verdict.status == COUNTEREXAMPLE:
                    bad.append(("k3", n, g, v))
    for n in range(1, 7):
        for g in free_representatives(n, SIGMA3):
            for v in range(n):
                verdict = check_vertex_extendable(g, v, complete_blowups(3, 3), 0.05, 2 / 9)
                if verdict.status == COUNTEREXAMPLE:
                    bad.append(("sigma3", n, g, v))
    report(9, not bad, "zero counterexamples: (K3, bipartite, zeta=0.1, n<=9) and (Sigma3, K^3_3 blowups, zeta=0.05, n<=6)")
    assert not bad, bad


def test_criterion_10_degree_stability_scans():
    k4fam = single_graph(cons.complete_graph(4))
    three_partite = complete_blowups(2, 3)
    verdicts = [
        scan_stability(K3FAM, complete_blowups(2, 2), "degree", (5, 9), 0.1, 0.0, 0.5),
        scan_stability(SIGMA3, complete_blowups(3, 3), "degree", (6, 6), 0.05, 0.0, 2 / 9),
        # eps* = 2/3 - 5/8 (Andrasfai-Erdos-Sos): the strict threshold is 5/8 n
        scan_stability(
            k4fam, three_partite, "degree", (6, 8), Fraction(1, 24), 0.0, Fraction(2, 3)
        ),
    ]
    failures = [
        (v.summary(), [c.graph.edges for c in v.counterexamples]) for v in verdicts if not v.clean
    ]

    # above eps*, K4-freeness no longer forces 3-partiteness
    dirty = scan_stability(k4fam, three_partite, "degree", (6, 8), 0.1, 0.0, 2 / 3)
    c7_complement = RGraph(
        2, 7, tuple((i, j) for i in range(7) for j in range(i + 2, 7) if j - i != 6)
    )
    for c in dirty.counterexamples:
        if not (
            is_free(c.graph, k4fam)
            and c.min_degree > (Fraction(2, 3) - Fraction(1, 10)) * c.n
            and not in_hull(c.graph, three_partite)
        ):
            failures.append(("not a counterexample at eps=0.1", c.graph.edges))
    if not any(are_isomorphic(c.graph, c7_complement) for c in dirty.counterexamples):
        failures.append("complement of C7 missing at eps=0.1")
    worst = max((Fraction(c.min_degree, c.n) for c in dirty.counterexamples), default=None)
    if worst != Fraction(5, 8):
        failures.append(f"worst min_degree/n at eps=0.1 is {worst}, want 5/8")

    summaries = [v.summary() for v in verdicts] + [f"{dirty.summary()}, worst ratio {worst}"]
    report(10, not failures, "; ".join(summaries))
    assert not failures, failures


def test_criterion_11_blowup_invariance_verdicts():
    rep_k3 = check_blowup_invariance(K3FAM, 6)
    rep_sigma = check_blowup_invariance(SIGMA3, 5)
    rep_c5 = check_blowup_invariance(single_graph(cycle(5)), 5)
    ok = rep_k3.invariant and rep_sigma.invariant and not rep_c5.invariant
    detail = "K3 invariant to n=6, Sigma3 to n=5, C5 counterexample "
    detail += f"{rep_c5.counterexample[0].edges if rep_c5.counterexample else None}"
    report(11, ok, detail)
    assert ok


def _prepare_workdir(tmp_path, subdir: str):
    workdir = tmp_path / subdir
    workdir.mkdir()
    hgr.dump(cycle(5), workdir / "c5.hgr")
    hgr.dump(cons.complete_graph(3), workdir / "k3.hgr")
    big = __import__("extremal.rgraph", fromlist=["blowup"]).blowup(
        cons.complete_graph(3), [5, 4, 4]
    )
    hgr.dump(big, workdir / "big.hgr")
    return workdir


def _cli_bytes(workdir, args: list[str], outputs: list[str]) -> bytes:
    runner = CliRunner()
    resolved = [a.format(dir=workdir) for a in args]
    res = runner.invoke(cli_main, resolved, catch_exceptions=False)
    assert res.exit_code == 0, (resolved, res.output)
    blob = res.output.encode()
    for rel in outputs:
        blob += (workdir / rel).read_bytes()
    return blob


def test_criterion_12_reproducibility(tmp_path):
    commands = {
        "make": (["make", "turanr", "6", "3", "3", "-o", "{dir}/t.hgr"], ["t.hgr"]),
        "check": (["check", "{dir}/c5.hgr", "--family", "k3", "--class", "bipartite",
                   "--json", "{dir}/check.json"], ["check.json"]),
        "ex": (["ex", "--n", "5", "--family", "k3", "--json", "{dir}/ex.json",
                "--witness-dir", "{dir}/wit"], ["ex.json", "wit/ex_n5_w0.hgr"]),
        "lagrangian": (["--seed", "11", "lagrangian", "{dir}/big.hgr", "--restarts", "8",
                        "--json", "{dir}/lag.json"], ["lag.json"]),
        "symmetrize": (["symmetrize", "{dir}/c5.hgr", "--family", "k3", "--mode", "vertex",
                        "--trace", "{dir}/tr.json", "-o", "{dir}/final.hgr"],
                       ["tr.json", "final.hgr"]),
        "scan": (["scan", "--family", "k3", "--class", "bipartite", "--kind", "degree",
                  "--n", "4..6", "--eps", "0.1", "--json", "{dir}/scan.json",
                  "--csv", "{dir}/scan.csv"], ["scan.json", "scan.csv"]),
        "extendable": (["extendable", "{dir}/c5.hgr", "--v", "0", "--class", "bipartite",
                        "--zeta", "0.05", "--piref", "0.5", "--json", "{dir}/ext.json"],
                       ["ext.json"]),
        "enum": (["enum", "--n", "5", "--r", "2", "--family", "k3", "-o", "{dir}/graphs",
                  "--json", "{dir}/enum.json"], ["enum.json", "graphs/g00000.hgr"]),
    }
    unstable = []
    for name, (args, outputs) in commands.items():
        workdir = _prepare_workdir(tmp_path, name)
        first = _cli_bytes(workdir, args, outputs)
        second = _cli_bytes(workdir, args, outputs)
        if first != second:
            unstable.append(name)
    report(12, not unstable, f"{len(commands)} subcommands run twice with fixed seed, byte-identical")
    assert not unstable, unstable
