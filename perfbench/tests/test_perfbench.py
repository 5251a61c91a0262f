"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

They import ``extremal`` from ``src`` and the benchmark's modules from
``perfbench``; the two traced runs take a few seconds each.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import child  # noqa: E402
import clock  # noqa: E402
import gen  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from extremal import constructions as cons  # noqa: E402
from extremal.lagrangian import maximize  # noqa: E402
from extremal.morphism import generalized_triangles, is_free, single_graph  # noqa: E402
from extremal.rgraph import RGraph  # noqa: E402


def _run_child(workload: str, seed: int, *flags: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "--workload", workload, "--seed", str(seed),
         "--started", repr(time.monotonic()), "--workdir", str(BENCH / "out"), *flags],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture
def restore_extremal():
    """Undo the tracer's rebinding so later tests see the plain program."""
    saved = {name: dict(mod.__dict__) for name, mod in sys.modules.items()
             if name == "extremal" or name.startswith("extremal.")}
    yield
    for name, attrs in saved.items():
        sys.modules[name].__dict__.update(attrs)


# ---------------------------------------------------------------------------
# generators


def _instance_graphs(seed: int) -> list:
    rng = random.Random(seed)
    return [kind.make(rng, n, keep)
            for kind in workloads.INSTANCE_KINDS for n in kind.sizes for keep in kind.keeps]


def test_generators_are_deterministic_per_seed():
    assert _instance_graphs(3) == _instance_graphs(3)
    assert _instance_graphs(3) != _instance_graphs(4)
    a, b = random.Random(9), random.Random(9)
    assert gen.random_rgraph(a, 15, 3, 0.4) == gen.random_rgraph(b, 15, 3, 0.4)


def test_generators_do_not_import_extremal():
    script = ("import sys; sys.path.insert(0, sys.argv[1]); import gen; "
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'extremal'))")
    out = subprocess.run([sys.executable, "-c", script, str(BENCH)], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_generated_instances_are_free_by_the_program():
    families = {"k3": single_graph(cons.complete_graph(3)),
                "k4": single_graph(cons.complete_graph(4)),
                "sigma:3": generalized_triangles(3)}
    rng = random.Random(5)
    for kind in workloads.INSTANCE_KINDS:
        for n, keep in zip(kind.sizes, kind.keeps * len(kind.sizes)):
            r, n, edges = kind.make(rng, n, keep)
            assert is_free(RGraph(r, n, edges), families[kind.family])


def test_motzkin_straus_reference_matches_support_enumeration():
    rng = random.Random(2)
    for m in (4, 5, 6):
        r, n, edges = gen.random_rgraph(rng, m, 2, 0.5)
        assert abs(maximize(RGraph(r, n, edges)).value - workloads.motzkin_straus(n, edges)) < 1e-9


def test_turan_formulas_match_constructions():
    for n in range(2, 10):
        assert workloads.turan_graph_edges(n, 2) == len(cons.turan_graph(n, 2).edges)
        assert workloads.turan_graph_edges(n, 3) == len(cons.turan_graph(n, 3).edges)
        assert workloads.turan3_edges(n) == len(cons.turan_rgraph(n, 3, 3).edges)


def test_turan_job_checks_every_step_of_a_family(tmp_path):
    jobs = workloads.build_turan(1, tmp_path).jobs
    assert [job.name.split()[2].rstrip(",") for job in jobs] == [
        family for family, _, _ in workloads.TURAN_SWEEP]
    scans = {scan["params"]["family"]: scan for scan in workloads.REFERENCE["scans"]}
    for job, (family, ns, formula) in zip(jobs, workloads.TURAN_SWEEP):
        payloads = [{"method": "both-agree", "value": formula(n)} for n in ns]
        if family in scans:
            payloads.append({"scanned": scans[family]["scanned"],
                             "counterexamples": [None] * scans[family]["counterexamples"]})
        job.check(payloads)
        payloads[-2 if family in scans else -1] = {"method": "both-agree", "value": -1}
        with pytest.raises(workloads.ReferenceMismatch):
            job.check(payloads)


# ---------------------------------------------------------------------------
# failures are counted, not fatal


def test_failing_reference_check_counts_as_failed_job():
    def mismatch(_):
        raise workloads.ReferenceMismatch("wrong answer")

    def boom():
        raise RuntimeError("program raised")

    ran = []
    jobs = [workloads.Job("wrong", lambda: 1, mismatch),
            workloads.Job("raises", boom, lambda _: None),
            workloads.Job("fine", lambda: ran.append(1), lambda _: None)]
    out = child.run_jobs(workloads.Workload(jobs), jobs, trace=False, spans_path=None)
    assert out["attempted"] == 3
    assert len(out["failures"]) == 2
    assert ran == [1]
    assert len(out["jobs"]) == 3


# ---------------------------------------------------------------------------
# tracer


def test_tracer_rebinds_every_binding(restore_extremal):
    from extremal import isomorphism, lagrangian, symmetrization, workbench

    t = tracer.Tracer().install()
    assert t.absent == []
    assert symmetrization.canonical_form is isomorphism.canonical_form
    assert isomorphism.canonical_form.__name__ == "wrapper"
    assert workbench.symmetrize is symmetrization.symmetrize
    assert workbench.symmetrize.__name__ == "wrapper"
    from extremal.lagrangian import maximize as late  # symmetrization's call-time import

    assert late is lagrangian.maximize and late.__name__ == "wrapper"
    symmetrization.ex_via_patterns(5, single_graph(cons.complete_graph(3)))
    m = t.metrics({})
    assert m["symmetrization.ex_via_patterns.calls"] == 1
    assert m["isomorphism.canonical_form.calls"] > 0
    assert m["isomorphism.enumerate_rgraphs.calls"] > 0
    assert set(m) == set(tracer.metric_names())


def test_tracer_reports_missing_names_as_absent(restore_extremal):
    from extremal import stability

    del stability.scan_stability
    t = tracer.Tracer().install()
    assert t.absent == ["stability.scan_stability"]
    m = t.metrics({})
    assert not any(k.startswith("stability.scan_stability.") for k in m)
    assert "stability.in_hull.calls" in m


def test_self_time_excludes_wrapped_children(restore_extremal):
    from extremal import symmetrization

    t = tracer.Tracer().install()
    symmetrization.ex_bruteforce(6, single_graph(cons.complete_graph(3)))
    (root,) = [s for s in t.spans if s[1] == -1]
    total = root[4] - root[3]
    self_sum = sum(st.self_s for st in t.stats.values())
    assert abs(self_sum - total) < 1e-6


def test_two_traced_runs_give_identical_counts():
    import run

    first = _run_child("instances", 7, "--trace")
    second = _run_child("instances", 7, "--trace")
    assert run.counts(first["per_layer"]) == run.counts(second["per_layer"])
    assert first["per_layer"]["symmetrization.symmetrize.calls"] > 0
    assert first["failures"] == second["failures"] == []


# ---------------------------------------------------------------------------
# run.py and the reference clock


def test_reference_clock_converts_at_the_measured_speed():
    unit = clock.REFERENCE_UNIT_S
    # a sample every 0.1 s: reference speed on [0, 10), half speed on [10, 20)
    samples = [(i * 0.1, unit if i < 100 else 2 * unit) for i in range(200)]
    ref = clock.ReferenceClock(samples)
    assert ref.speed(2.0, 3.0) == pytest.approx(1.0)
    assert ref.speed(15.0, 16.0) == pytest.approx(0.5)
    # the sampling inside an interval is not counted
    assert ref.reference_s(2.0, 3.0) == pytest.approx(1.0 - 10 * unit)
    assert ref.reference_s(15.01, 15.06) == pytest.approx(0.05 * 0.5)
    # away from the samples the nearest one counts
    assert ref.speed(-10.0, -9.0) == pytest.approx(1.0)
    assert ref.speed(30.0, 31.0) == pytest.approx(0.5)


def test_reference_clock_averages_speed_over_time():
    unit = clock.REFERENCE_UNIT_S
    # speed alternates between 1 and 1/2 from one sample to the next
    samples = [(i * 0.1, unit if i % 2 else 2 * unit) for i in range(60)]
    assert clock.ReferenceClock(samples).speed(2.0, 4.0) == pytest.approx(0.75, rel=0.02)


def test_sampler_times_units_while_a_job_runs():
    sampler = clock.Sampler().start()
    try:
        end = time.monotonic() + 0.35
        while time.monotonic() < end:
            pass
    finally:
        samples = sampler.stop()
    assert len(sampler.burst) == clock.BURST
    assert len(samples) >= 2
    assert all(d > 0 for _, d in sampler.burst + samples)


def test_job_quantiles_are_observed_samples():
    import run

    two_kinds = sorted([10.0] * 4 + [1000.0] * 4)
    assert run.nearest_rank(two_kinds, 0.5) == 10.0
    assert run.nearest_rank(two_kinds, 0.9) == 1000.0
    assert run.nearest_rank([3.0], 0.9) == 3.0


def test_probes_add_samples_of_the_first_job_only():
    import run

    def child_result(latencies, wall=1.0):
        return {"setup_s": 0.2, "raw_setup_s": 0.25, "latencies_ms": latencies,
                "wall_s": wall, "raw_wall_s": wall, "peak_rss_mib": 30.0}

    runs = [child_result([100.0, 5000.0]), child_result([300.0, 5100.0])]
    probes = [child_result([110.0]) for _ in range(3)]
    metrics, samples = run.end_to_end(runs, probes)
    # the first job: lower median of 110, 110, 110, 100 and 300
    assert metrics["job_p50_ms"]["value"] == 110.0
    # the second job ran in the two children only; with two, the faster counts
    assert metrics["job_p90_ms"]["value"] == 5000.0
    assert samples["first_job_samples"] == 5 and samples["setup_samples"] == 5


def test_run_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "enum", "--seed",
                           "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_every_metric():
    import run

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["name"] for m in bench["per_layer"]] == tracer.metric_names() + [
        "trace.overhead_s", "trace.overhead_ratio"]
