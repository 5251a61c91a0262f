import inspect
import json
import re
from fractions import Fraction

import pytest
from click.testing import CliRunner

from conftest import are_isomorphic, cycle

from extremal import constructions as cons, errors, hgr
from extremal.cli import main
from extremal.errors import FormatError
from extremal.lagrangian import maximize
from extremal.morphism import is_free, single_graph
from extremal.stability import COUNTEREXAMPLE, VACUOUS, check_vertex_extendable
from extremal.symmetrization import ex, symmetrize
from extremal.workbench import (
    _DISPATCH,
    _PARAMS,
    ExperimentConfig,
    canonical_json,
    parse_class,
    parse_family,
    preset_pi,
    run,
)


@pytest.fixture()
def runner():
    return CliRunner()


class TestParsers:
    def test_family_names(self):
        assert parse_family("k3").members[0] == cons.complete_graph(3)
        assert parse_family("sigma:3").kind == "generalized-triangle"
        assert parse_family("cancellative:4").r == 4

    def test_family_files(self, tmp_path):
        p = tmp_path / "f.hgr"
        hgr.dump(cons.matching(3, 2), p)
        fam = parse_family(f"weakexp:{p}")
        assert fam.base == cons.matching(3, 2)
        d = tmp_path / "members"
        d.mkdir()
        hgr.dump(cons.complete_graph(3), d / "a.hgr")
        hgr.dump(cons.complete_graph(4), d / "b.hgr")
        assert len(parse_family(f"list:{d}").members) == 2

    def test_bad_family(self):
        with pytest.raises(FormatError):
            parse_family("mystery")

    def test_class_names(self):
        assert parse_class("bipartite").parts == 2
        assert parse_class("krl:3:3").kind == "complete-blowups"
        assert parse_class("semibip:4").kind == "semibipartite"
        assert parse_class("twocov:3:5").max_pattern == 5

    def test_bad_class(self):
        with pytest.raises(FormatError):
            parse_class("krl:x:y")

    def test_pi_presets(self):
        from fractions import Fraction

        assert preset_pi(parse_family("k3")) == Fraction(1, 2)
        assert preset_pi(parse_family("k4")) == Fraction(2, 3)
        assert preset_pi(parse_family("sigma:3")) == Fraction(2, 9)
        assert preset_pi(parse_family("sigma:4")) == Fraction(3, 32)


class TestConfig:
    def test_reads_a_config(self):
        text = ('{"command": "ex", "params": {"n": 5, "family": "k3"}, "seed": 7, '
                '"outputs": {"json": "r.json"}}')
        assert ExperimentConfig.from_json(text) == ExperimentConfig(
            "ex", {"n": 5, "family": "k3"}, seed=7, outputs={"json": "r.json"})
        assert ExperimentConfig.from_json('{"command": "enum", "params": {}}') == (
            ExperimentConfig("enum", {}, seed=0, outputs={}))

    def test_unknown_keys_rejected(self):
        with pytest.raises(FormatError):
            ExperimentConfig.from_json('{"command": "ex", "params": {}, "extra": 1}')

    def test_missing_keys_rejected(self):
        with pytest.raises(FormatError):
            ExperimentConfig.from_json('{"params": {}}')

    def test_outputs_must_be_an_object(self):
        with pytest.raises(FormatError, match="outputs=object"):
            ExperimentConfig.from_json('{"command": "ex", "params": {}, "outputs": []}')

    def test_a_config_with_a_non_string_output_path_is_refused(self, monkeypatch):
        # from_json checks only that outputs is an object; run refuses the path
        calls = []
        monkeypatch.setitem(_DISPATCH, "enum", lambda p, seed: calls.append(p) or {})
        cfg = ExperimentConfig.from_json(
            '{"command": "enum", "params": {"n": 4, "r": 2}, "outputs": {"json": 5}}')
        with pytest.raises(FormatError, match="'json' must be a path string, got 5"):
            run(cfg)
        assert calls == []


# every number param of every command, with the other params of a valid config
NUMBER_PARAMS = sorted(
    (command, name)
    for command, (required, optional) in _PARAMS.items()
    for name, kind in {**required, **{k: kind for k, (kind, _) in optional.items()}}.items()
    if kind == "number"
)
NUMBER_BASE = {
    "scan": {"family": "k3", "class": "bipartite", "n_lo": 4, "n_hi": 5, "eps": 0},
    "extendable": {"input": "g.hgr", "vertex": 0, "class": "bipartite", "zeta": 0, "pi_ref": 0},
}


class TestRun:
    def test_run_ex_and_reproduce(self, tmp_path):
        out = tmp_path / "out.json"
        cfg = ExperimentConfig(
            "ex", {"n": 5, "family": "k3", "method": "brute"}, outputs={"json": str(out)}
        )
        rec = run(cfg)
        first = out.read_bytes()
        assert first == canonical_json(rec.outputs["payload"]).encode()
        assert rec.outputs == {"payload": json.loads(first)}
        run(cfg)
        assert out.read_bytes() == first
        assert rec.outputs["payload"]["value"] == 6

    @pytest.mark.parametrize("seed", ["true", "false", "-1"])
    def test_seed_must_be_a_json_integer(self, monkeypatch, seed):
        calls = []
        monkeypatch.setitem(_DISPATCH, "enum", lambda p, seed: calls.append(p) or {})
        cfg = ExperimentConfig.from_json(
            f'{{"command": "enum", "params": {{"n": 4, "r": 2}}, "seed": {seed}}}')
        with pytest.raises(FormatError, match="seed"):
            run(cfg)
        assert calls == []

    @pytest.mark.parametrize("path", [5, None, True, ["r.json"], {"to": "r.json"}],
                             ids=["int", "null", "bool", "list", "object"])
    def test_output_path_must_be_a_string(self, monkeypatch, path):
        calls = []
        monkeypatch.setitem(_DISPATCH, "enum", lambda p, seed: calls.append(p) or {})
        with pytest.raises(FormatError, match="path string"):
            run(ExperimentConfig("enum", {"n": 4, "r": 2}, outputs={"json": path}))
        assert calls == []

    def test_run_unknown_command(self):
        with pytest.raises(FormatError):
            run(ExperimentConfig("mystery", {}))

    def test_unknown_output_refused_before_the_command_runs(self, monkeypatch, tmp_path):
        calls = []
        monkeypatch.setitem(_DISPATCH, "ex", lambda p, seed: calls.append(p) or {})
        cfg = ExperimentConfig("ex", {"n": 8, "family": "k3"}, outputs={"witnesses": "w"})
        with pytest.raises(FormatError, match="witnesses"):
            run(cfg)
        assert calls == []
        run(ExperimentConfig("ex", {"n": 8, "family": "k3"},
                             outputs={"json": str(tmp_path / "r.json")}))
        assert len(calls) == 1

    def test_unknown_or_missing_params_refused_before_the_command_runs(self, monkeypatch):
        calls = []
        monkeypatch.setitem(_DISPATCH, "ex", lambda p, seed: calls.append(p) or {})
        with pytest.raises(FormatError, match="methd"):
            run(ExperimentConfig("ex", {"n": 5, "family": "k3", "methd": "brute"}))
        with pytest.raises(FormatError, match="family"):
            run(ExperimentConfig("ex", {"n": 5}))
        assert calls == []
        run(ExperimentConfig("ex", {"n": 5, "family": "k3"}))
        assert calls == [{"n": 5, "family": "k3", "method": "both", "pmax": None}]

    @pytest.mark.parametrize(
        "command, params, ok",
        [
            ("enum", {"n": True, "r": 2}, False),  # a bool is not an int
            ("enum", {"n": "7", "r": 2}, False),
            ("enum", {"n": 4, "r": 2, "family": 5}, False),
            ("ex", {"n": 5, "family": "k3", "pmax": 2.0}, False),
            ("lagrangian", {"input": "k3.hgr", "supports": 1}, False),
            # a number may be spelled as a string, but it must name a rational
            ("scan", {"family": "k3", "class": "bipartite", "n_lo": 4, "n_hi": 5,
                      "eps": "0.1"}, True),
            ("scan", {"family": "k3", "class": "bipartite", "n_lo": 4, "n_hi": 5,
                      "eps": False}, False),
            # None passes only where it is the default
            ("extendable", {"input": "g.hgr", "vertex": 0, "class": "bipartite", "zeta": 0.1,
                            "pi_ref": None}, False),
            ("symmetrize", {"input": "g.hgr", "family": "k3", "mode": None}, False),
            ("scan", {"family": "k3", "class": "bipartite", "n_lo": 4, "n_hi": 5, "eps": 0,
                      "delta": 0.5, "pi_ref": None}, True),
            ("check", {"input": "g.hgr", "class": None, "family": "k3"}, True),
            ("ex", {"n": 5, "family": "k3", "pmax": None}, True),
            # strings and floats that name no rational
            ("scan", {"family": "k3", "class": "bipartite", "n_lo": 4, "n_hi": 5,
                      "eps": "abc"}, False),
            ("scan", {"family": "k3", "class": "bipartite", "n_lo": 4, "n_hi": 5,
                      "eps": 0.1, "delta": "1/0"}, False),
            ("scan", {"family": "k3", "class": "bipartite", "n_lo": 4, "n_hi": 5,
                      "eps": float("nan")}, False),
            ("extendable", {"input": "g.hgr", "vertex": 0, "class": "bipartite",
                            "zeta": 0.1, "pi_ref": float("inf")}, False),
        ],
    )
    def test_mistyped_params_refused_before_the_command_runs(self, monkeypatch, command, params,
                                                             ok):
        calls = []
        monkeypatch.setitem(_DISPATCH, command, lambda p, seed: calls.append(p) or {})
        if ok:
            run(ExperimentConfig(command, params))
        else:
            with pytest.raises(FormatError, match="must be"):
                run(ExperimentConfig(command, params))
        assert len(calls) == ok

    @pytest.mark.parametrize("command, name", NUMBER_PARAMS)
    @pytest.mark.parametrize("value, exact", [
        (0.1, Fraction(1, 10)), ("0.1", Fraction(1, 10)), ("1/10", Fraction(1, 10)),
        (2 / 3, Fraction("0.6666666666666666")),  # the decimal the float prints as
    ])
    def test_number_params_reach_the_command_as_fractions(self, monkeypatch, command, name,
                                                          value, exact):
        calls = []
        monkeypatch.setitem(_DISPATCH, command, lambda p, seed: calls.append(p) or {})
        run(ExperimentConfig(command, {**NUMBER_BASE[command], name: value}))
        assert calls[0][name] == exact
        for number in (n for c, n in NUMBER_PARAMS if c == command):
            assert calls[0][number] is None or type(calls[0][number]) is Fraction

    def test_a_float_param_reads_as_its_decimal(self, tmp_path):
        # zeta = 1/10 puts C5's strict threshold (1/2 - 1/10) * 5 = 2 exactly on
        # its minimum degree; the binary value of the float 0.1 lies above 1/10
        p = tmp_path / "c5.hgr"
        hgr.dump(cycle(5), p)
        params = {"input": str(p), "vertex": 0, "class": "bipartite", "zeta": 0.1,
                  "pi_ref": 0.5}
        assert run(ExperimentConfig("extendable", params)).outputs["payload"]["status"] == VACUOUS
        binary = check_vertex_extendable(cycle(5), 0, parse_class("bipartite"), Fraction(0.1),
                                         Fraction(1, 2))
        assert binary.status == COUNTEREXAMPLE

    def test_run_ex_unknown_method(self):
        with pytest.raises(ValueError, match="brute\\|patterns\\|both"):
            run(ExperimentConfig("ex", {"n": 4, "family": "k3", "method": "bogus"}))

    def test_run_lagrangian(self, tmp_path):
        p = tmp_path / "k3.hgr"
        hgr.dump(cons.complete_graph(3), p)
        rec = run(ExperimentConfig("lagrangian", {"input": str(p), "supports": True}))
        assert abs(rec.outputs["payload"]["value"] - 1 / 3) <= 1e-9


class TestCli:
    def test_ex_golden(self, runner, tmp_path):
        out = tmp_path / "w"
        res = runner.invoke(
            main, ["ex", "--n", "5", "--family", "k3", "--witness-dir", str(out)]
        )
        assert res.exit_code == 0, res.output
        assert "ex(n=5, k3) = 6" in res.output
        witness = hgr.load(next(out.glob("*.hgr")))
        assert are_isomorphic(witness, cons.turan_graph(5, 2))

    def test_ex_patterns_past_the_canonical_budget(self, runner, tmp_path):
        # witnesses on more vertices than canonical_form supports leave unrelabeled
        out = tmp_path / "ex11.json"
        args = ["ex", "--n", "11", "--family", "k3", "--method", "patterns", "--pmax", "3"]
        res = runner.invoke(main, args + ["--json", str(out)])
        assert res.exit_code == 0, res.output
        payload = json.loads(out.read_text())
        assert payload["value"] == 30
        assert [w["n"] for w in payload["witnesses"]] == [11]

    def test_ex_pmax_with_both_routes_exit_2(self, runner):
        # a cap below n makes the pattern route a lower bound; it is that route's alone
        res = runner.invoke(main, ["ex", "--n", "7", "--family", "k4", "--pmax", "2"])
        assert res.exit_code == 2, res.output

    def test_lagrangian_csv(self, runner, tmp_path):
        p = tmp_path / "k3.hgr"
        hgr.dump(cons.complete_graph(3), p)
        res = runner.invoke(main, ["lagrangian", str(p), "--supports"])
        assert res.exit_code == 0
        value = float(res.output.splitlines()[1].split(",")[0])
        assert abs(value - 1 / 3) <= 1e-9

    def test_lagrangian_supports_past_the_limit(self, runner, tmp_path):
        # 13 vertices: one more than SUPPORT_LIMIT, so only --supports enumerates
        # (for r >= 3: graphs take the Motzkin-Straus value and no float search)
        p = tmp_path / "big.hgr"
        hgr.dump(cons.turan_rgraph(13, 3, 3), p)
        payloads = []
        for flags in (["--supports"], []):
            res = runner.invoke(main, ["lagrangian", str(p), "--format", "json"] + flags)
            assert res.exit_code == 0, res.output
            payloads.append(json.loads(res.output))
        enumerated, multistart = payloads
        assert enumerated["method"] == "support-enumeration"
        assert enumerated["gap"] == 0 and enumerated["converged"]
        assert abs(enumerated["value"] - 1 / 27) <= 1e-9
        assert multistart["method"] == "multistart-ascent" and multistart["gap"] > 0
        assert "exact" not in enumerated and "exact" not in multistart

    def test_malformed_hgr_exit_2(self, runner, tmp_path):
        p = tmp_path / "bad.hgr"
        p.write_text("2 3 2\n0 1\n0 1\n")
        res = runner.invoke(main, ["lagrangian", str(p)])
        assert res.exit_code == 2

    def test_a_file_error_exits_2(self, runner, tmp_path, monkeypatch):
        # a directory read or written as a file, and a file that cannot be read
        p = tmp_path / "c5.hgr"
        p.write_text("2 5 5\n0 1\n0 4\n1 2\n2 3\n3 4\n")
        for args in (["check", str(tmp_path), "--class", "bipartite"],
                     ["check", str(p), "--class", "bipartite", "--json", str(tmp_path)]):
            res = runner.invoke(main, args)
            assert res.exit_code == 2, res.output
            assert res.output == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"

        def unreadable(path):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(hgr, "load", unreadable)
        res = runner.invoke(main, ["check", str(p), "--class", "bipartite"])
        assert res.exit_code == 2
        assert res.output == f"error: [Errno 13] Permission denied: {str(p)!r}\n"

    def test_budget_exit_3(self, runner, monkeypatch):
        # at the default cap this call refuses after about 3 s of work
        monkeypatch.setitem(errors.CAPS, "link sets", 1000)
        res = runner.invoke(main, ["enum", "--n", "9", "--r", "3"])
        assert res.exit_code == 3
        assert "link sets past the cap of 1000" in res.output

    def test_scan_expect_clean_exit_4(self, runner):
        res = runner.invoke(
            main,
            ["scan", "--family", "k4", "--class", "bipartite", "--kind", "degree",
             "--n", "5..5", "--eps", "0.5", "--piref", "0.6666666666666666",
             "--expect-clean"],
        )
        assert res.exit_code == 4

    @pytest.mark.parametrize("eps", ["13/441", "0.02947845804988662"])
    def test_sigma3_scan_clean_at_the_sharp_eps(self, runner, eps):
        # at eps* = 13/441 the strict threshold at n = 7 is (2/9 - 13/441) * 49 = 4;
        # the decimal of the float nearest 13/441 is a little smaller
        res = runner.invoke(
            main,
            ["scan", "--family", "sigma:3", "--class", "krl:3:3", "--n", "7..7", "--eps", eps,
             "--piref", "2/9", "--expect-clean"],
        )
        assert res.exit_code == 0, res.output
        assert "0 graphs above threshold" in res.output

    def test_scan_empty_range_exit_2(self, runner):
        # 9..5 holds no n: refused, not reported clean
        res = runner.invoke(
            main,
            ["scan", "--family", "k3", "--class", "bipartite", "--n", "9..5", "--eps", "0.1",
             "--expect-clean"],
        )
        assert res.exit_code == 2
        assert "empty vertex range" in res.output

    def test_scan_clean_outputs(self, runner, tmp_path):
        jout = tmp_path / "scan.json"
        cout = tmp_path / "scan.csv"
        args = ["scan", "--family", "k3", "--class", "bipartite", "--kind", "degree",
                "--n", "4..5", "--eps", "0.1", "--json", str(jout), "--csv", str(cout),
                "--expect-clean"]
        res = runner.invoke(main, args)
        assert res.exit_code == 0, res.output
        payload = json.loads(jout.read_text())
        assert payload["counterexamples"] == []
        assert cout.read_text().startswith("n,min_degree,edges,distance,bound")

    def test_make_and_check(self, runner, tmp_path):
        p = tmp_path / "t.hgr"
        res = runner.invoke(main, ["make", "turanr", "6", "3", "3", "-o", str(p)])
        assert res.exit_code == 0
        assert hgr.load(p) == cons.turan_rgraph(6, 3, 3)
        res = runner.invoke(main, ["check", str(p), "--family", "sigma:3", "--class", "krl:3:3"])
        assert res.exit_code == 0
        assert "free: True" in res.output and "in_hull: True" in res.output

    def test_make_expansion(self, runner, tmp_path):
        base = tmp_path / "m.hgr"
        hgr.dump(cons.matching(3, 2), base)
        out = tmp_path / "e.hgr"
        res = runner.invoke(main, ["make", "expansion", str(base), "-o", str(out)])
        assert res.exit_code == 0
        assert hgr.load(out) == cons.expansion(cons.matching(3, 2))

    def test_make_expansion_refuses_a_bool_vertex(self, runner, tmp_path):
        base = tmp_path / "b3.json"
        base.write_text('{"r": 3, "n": 4, "edges": [[false, true, 2]]}')
        out = tmp_path / "e.hgr"
        res = runner.invoke(main, ["make", "expansion", str(base), "-o", str(out)])
        assert res.exit_code == 2 and "must be a list of integers" in res.output
        assert not out.exists()

    def test_make_bad_tag(self, runner, tmp_path):
        res = runner.invoke(main, ["make", "mystery", "1", "-o", str(tmp_path / "x.hgr")])
        assert res.exit_code == 2

    def test_symmetrize_trace(self, runner, tmp_path):
        src = tmp_path / "c5.hgr"
        hgr.dump(
            __import__("conftest").cycle(5), src
        )
        trace = tmp_path / "trace.json"
        final = tmp_path / "final.hgr"
        res = runner.invoke(
            main,
            ["symmetrize", str(src), "--family", "k3", "--mode", "vertex",
             "--trace", str(trace), "-o", str(final)],
        )
        assert res.exit_code == 0
        payload = json.loads(trace.read_text())
        assert payload["steps"]
        final_graph = hgr.load(final)
        assert len(final_graph.edges) == 6
        assert is_free(final_graph, single_graph(cons.complete_graph(3)))

    def test_extendable(self, runner, tmp_path):
        p = tmp_path / "k33.hgr"
        hgr.dump(cons.turan_graph(6, 2), p)
        res = runner.invoke(
            main,
            ["extendable", str(p), "--v", "0", "--class", "bipartite",
             "--zeta", "0.2", "--piref", "0.5"],
        )
        assert res.exit_code == 0 and "WITNESS-OK" in res.output

    def test_enum_dump_revalidates(self, runner, tmp_path):
        out = tmp_path / "graphs"
        res = runner.invoke(
            main, ["enum", "--n", "4", "--r", "2", "--family", "k3", "-o", str(out)]
        )
        assert res.exit_code == 0 and "7 isomorphism class(es)" in res.output
        fam = single_graph(cons.complete_graph(3))
        files = sorted(out.glob("*.hgr"))
        assert len(files) == 7
        for f in files:
            assert is_free(hgr.load(f), fam)

    def test_enum_refuses_a_family_of_another_uniformity(self, runner, monkeypatch, tmp_path):
        from extremal import workbench

        # sigma:3 holds 3-graphs: refused before anything is enumerated or written
        calls = []
        monkeypatch.setattr(workbench, "free_representatives", lambda *args: calls.append(args))
        out = tmp_path / "e.json"
        res = runner.invoke(
            main, ["enum", "--n", "5", "--r", "2", "--family", "sigma:3", "--json", str(out)]
        )
        assert res.exit_code == 2
        assert res.output == "error: family 'sigma:3' has r = 3, not r = 2\n"
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["ex", "--n", "-1", "--family", "k3", "--method", "patterns"],
         "vertex count n must be >= 0, got -1"),
        (["ex", "--n", "-2", "--family", "k3"], "vertex count n must be >= 0, got -2"),
        (["enum", "--n", "-1", "--r", "2"], "enumeration needs n >= 0 and r >= 2, got n=-1, r=2"),
        (["scan", "--family", "k3", "--class", "bipartite", "--n", "-3..2", "--eps", "0.1"],
         "enumeration needs n >= 0 and r >= 2, got n=-3, r=2"),
        (["enum", "--n", "3", "--r", "1"], "enumeration needs n >= 0 and r >= 2, got n=3, r=1"),
    ], ids=["ex-patterns", "ex-both", "enum-n", "scan", "enum-r"])
    def test_negative_n_or_r_below_2_exit_2(self, runner, args, message):
        # ex --method patterns used to answer 0 here, the rest to fail in math.comb
        res = runner.invoke(main, args)
        assert res.exit_code == 2
        assert res.output == f"error: {message}\n"

    @pytest.mark.parametrize("args", [["complete", "3", "1"], ["turanr", "3", "2", "1"],
                                      ["hinge", "1", "3"], ["semibip", "1", "2", "1"]])
    def test_make_refuses_a_1_uniform_graph(self, runner, tmp_path, args):
        out = tmp_path / "g.hgr"
        res = runner.invoke(main, ["make", *args, "-o", str(out)])
        assert res.exit_code == 2
        assert res.output == "error: uniformity must be >= 2, got 1\n"
        assert not out.exists()

    def test_a_1_uniform_file_exits_2(self, runner, tmp_path):
        p = tmp_path / "g.hgr"
        p.write_text("1 3 2\n0\n2\n")
        res = runner.invoke(main, ["check", str(p), "--class", "bipartite"])
        assert res.exit_code == 2
        assert res.output == "error: uniformity must be >= 2, got 1\n"

    @pytest.mark.parametrize("n, parts", [(5, 2), (13, 3)])
    def test_negative_seed_exit_2(self, runner, tmp_path, n, parts):
        # both refuse the seed before any work, as every route of lagrangian does
        p = tmp_path / "g.hgr"
        hgr.dump(cons.turan_graph(n, parts), p)
        res = runner.invoke(main, ["--seed", "-1", "lagrangian", str(p)])
        assert res.exit_code == 2
        assert "seed" in res.output

    def test_determinism_fixed_seed(self, runner, tmp_path):
        p = tmp_path / "g.hgr"
        # a 3-graph on 13 vertices, so the seed picks the multistart's starts
        g = __import__("extremal.rgraph", fromlist=["blowup"]).blowup(
            cons.complete_rgraph(3, 3), [5, 4, 4]
        )
        hgr.dump(g, p)
        outs = []
        for _ in range(2):
            res = runner.invoke(main, ["--seed", "11", "lagrangian", str(p), "--restarts", "8"])
            assert res.exit_code == 0
            outs.append(res.output)
        assert outs[0] == outs[1]

    def test_canonical_json_trailing_newline(self):
        assert canonical_json({"a": 1}).endswith("\n")


# command -> (CLI arguments with the JSON option last, the same job as a
# config's minimal params, every param the command receives with the defaults
# filled in); "{g}" is the path of C5
FRONT_DOOR = {
    "check": (["check", "{g}", "--family", "k3", "--json"],
              {"input": "{g}", "family": "k3"},
              {"input": "{g}", "class": None, "family": "k3"}),
    "ex": (["ex", "--n", "5", "--family", "k3", "--json"],
           {"n": 5, "family": "k3"},
           {"n": 5, "family": "k3", "method": "both", "pmax": None}),
    "lagrangian": (["--seed", "3", "lagrangian", "{g}", "--json"],
                   {"input": "{g}"},
                   {"input": "{g}", "supports": False, "restarts": 64}),
    "symmetrize": (["symmetrize", "{g}", "--family", "k3", "--trace"],
                   {"input": "{g}", "family": "k3"},
                   {"input": "{g}", "family": "k3", "mode": "class"}),
    "scan": (["scan", "--family", "k3", "--class", "bipartite", "--n", "4..5", "--eps", "0.1",
              "--json"],
             {"family": "k3", "class": "bipartite", "n_lo": 4, "n_hi": 5, "eps": 0.1},
             {"family": "k3", "class": "bipartite", "kind": "degree", "n_lo": 4, "n_hi": 5,
              "eps": Fraction(1, 10), "delta": Fraction(0), "pi_ref": None}),
    "extendable": (["extendable", "{g}", "--v", "0", "--class", "bipartite", "--zeta", "0.05",
                    "--piref", "0.5", "--json"],
                   {"input": "{g}", "vertex": 0, "class": "bipartite", "zeta": 0.05,
                    "pi_ref": 0.5},
                   {"input": "{g}", "vertex": 0, "class": "bipartite",
                    "zeta": Fraction(1, 20), "pi_ref": Fraction(1, 2)}),
    "enum": (["enum", "--n", "4", "--r", "2", "--json"],
             {"n": 4, "r": 2},
             {"n": 4, "r": 2, "family": None}),
}


def _fill(obj, graph_path: str):
    if isinstance(obj, (list, tuple)):
        return type(obj)(_fill(x, graph_path) for x in obj)
    if isinstance(obj, dict):
        return {k: _fill(v, graph_path) for k, v in obj.items()}
    return graph_path if obj == "{g}" else obj


class TestFrontDoor:
    """Every computing subcommand enters through ``run``, so it gets the
    config's checks and defaults and writes the same bytes as a config."""

    @pytest.fixture()
    def graph_path(self, tmp_path):
        p = tmp_path / "c5.hgr"
        hgr.dump(cycle(5), p)
        return str(p)

    def test_table_covers_every_command(self):
        assert set(FRONT_DOOR) == set(_DISPATCH) == set(_PARAMS)

    def test_library_defaults_equal_the_params_defaults(self):
        # a library call that leaves the option out computes what a config does
        for fn, command, name in ((ex, "ex", "method"), (maximize, "lagrangian", "restarts"),
                                  (symmetrize, "symmetrize", "mode")):
            assert inspect.signature(fn).parameters[name].default == _PARAMS[command][1][name][1]

    @pytest.mark.parametrize("command", sorted(FRONT_DOOR))
    def test_cli_dispatches_through_run(self, monkeypatch, runner, tmp_path, graph_path,
                                        command):
        args, _, full = _fill(FRONT_DOOR[command], graph_path)
        real = _DISPATCH[command]
        calls = []
        monkeypatch.setitem(_DISPATCH, command,
                            lambda p, seed: calls.append((p, seed)) or real(p, seed))
        res = runner.invoke(main, args + [str(tmp_path / "out.json")])
        assert res.exit_code == 0, res.output
        assert calls == [(full, 3 if command == "lagrangian" else 0)]

    @pytest.mark.parametrize("command", sorted(FRONT_DOOR))
    def test_cli_json_equals_run_json(self, runner, tmp_path, graph_path, command):
        args, minimal, _ = _fill(FRONT_DOOR[command], graph_path)
        res = runner.invoke(main, args + [str(tmp_path / "cli.json")])
        assert res.exit_code == 0, res.output
        seed = 3 if command == "lagrangian" else 0
        run(ExperimentConfig(command, minimal, seed, {"json": str(tmp_path / "run.json")}))
        assert (tmp_path / "cli.json").read_bytes() == (tmp_path / "run.json").read_bytes()


# the output kinds that name one file, each with a command that takes it
FILE_OUTPUTS = [("json", "enum"), ("csv", "scan"), ("hgr", "symmetrize")]


class TestOutputs:
    """``run`` is the one writer of every output file: it tries each path
    before the command runs and writes the same bytes as the CLI."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        # every command records its params, does no work and finds no graphs
        calls = []
        for command in _DISPATCH:
            monkeypatch.setitem(_DISPATCH, command,
                                lambda p, seed: calls.append(p) or {"witnesses": [], "graphs": []})
        return calls

    @pytest.mark.parametrize("kind, command", FILE_OUTPUTS)
    def test_unusable_file_path_refused_before_the_command_runs(self, calls, tmp_path, kind,
                                                                command):
        # the errors writing the file after the work would raise
        (tmp_path / "f").write_text("")
        minimal = FRONT_DOOR[command][1]
        for path, error in ((tmp_path / "f" / "out", NotADirectoryError),  # a file as its directory
                            (tmp_path / "f" / "sub" / "out", NotADirectoryError),  # or above it
                            (tmp_path / "missing" / "out", FileNotFoundError),
                            (tmp_path / "missing" / "sub" / "out", FileNotFoundError),
                            (tmp_path, IsADirectoryError)):  # a directory as the file
            with pytest.raises(error, match=re.escape(repr(str(path)))):
                run(ExperimentConfig(command, minimal, outputs={kind: str(path)}))
            with pytest.raises(error):
                path.write_text("")
        assert calls == []
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("command", ["ex", "enum"])
    def test_unusable_hgr_dir_refused_before_the_command_runs(self, calls, tmp_path, command):
        # the errors the directory's mkdir after the work raised
        (tmp_path / "f").write_text("")
        minimal = FRONT_DOOR[command][1]
        for path, error in ((tmp_path / "f", FileExistsError),  # a file as the directory
                            (tmp_path / "f" / "sub", NotADirectoryError)):  # a file as its parent
            with pytest.raises(error, match=re.escape(repr(str(path)))):
                run(ExperimentConfig(command, minimal, outputs={"hgr_dir": str(path)}))
        assert calls == []
        # a directory is what it asks for, and a missing parent is made with it
        run(ExperimentConfig(command, minimal, outputs={"hgr_dir": str(tmp_path / "a" / "b")}))
        run(ExperimentConfig(command, minimal, outputs={"hgr_dir": str(tmp_path)}))
        assert len(calls) == 2 and (tmp_path / "a" / "b").is_dir()

    @pytest.mark.parametrize("command, kind", [("ex", "csv"), ("enum", "hgr"),
                                               ("scan", "hgr_dir"), ("check", "csv")])
    def test_a_kind_the_command_does_not_take_is_refused(self, calls, tmp_path, command, kind):
        cfg = ExperimentConfig(command, FRONT_DOOR[command][1],
                               outputs={kind: str(tmp_path / "out")})
        with pytest.raises(FormatError, match=f"unknown {command} output kind '{kind}'"):
            run(cfg)
        assert calls == []
        assert list(tmp_path.iterdir()) == []

    def test_a_refusal_by_the_command_leaves_the_hgr_dir_empty(self, tmp_path):
        out = tmp_path / "missing" / "graphs"
        cfg = ExperimentConfig("enum", {"n": 5, "r": 2, "family": "sigma:3"},
                               outputs={"hgr_dir": str(out)})
        with pytest.raises(FormatError, match="has r = 3, not r = 2"):
            run(cfg)
        assert out.is_dir() and list(out.iterdir()) == []

    @pytest.mark.parametrize("args, command, params, outputs", [
        (["ex", "--n", "7", "--family", "k4", "--json", "{d}/ex.json", "--witness-dir", "{d}/wit"],
         "ex", {"n": 7, "family": "k4"}, {"json": "ex.json", "hgr_dir": "wit"}),
        (["scan", "--family", "k3", "--class", "bipartite", "--kind", "vertex", "--n", "5..6",
          "--eps", "0.1", "--delta", "0.1", "--json", "{d}/scan.json", "--csv", "{d}/scan.csv"],
         "scan", {"family": "k3", "class": "bipartite", "kind": "vertex", "n_lo": 5, "n_hi": 6,
                  "eps": 0.1, "delta": 0.1}, {"json": "scan.json", "csv": "scan.csv"}),
    ], ids=["ex", "scan"])
    def test_a_replayed_config_writes_every_file_the_cli_wrote(self, runner, tmp_path, args,
                                                               command, params, outputs):
        cli, replay = tmp_path / "cli", tmp_path / "replay"
        cli.mkdir()
        replay.mkdir()
        res = runner.invoke(main, [a.replace("{d}", str(cli)) for a in args])
        assert res.exit_code == 0, res.output
        run(ExperimentConfig(command, params,
                             outputs={kind: str(replay / p) for kind, p in outputs.items()}))
        files = sorted(p.relative_to(cli) for p in cli.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(replay) for p in replay.rglob("*") if p.is_file())
        assert len(files) >= len(outputs)
        for f in files:
            # a witness has edges and the table has rows
            assert len((cli / f).read_text().splitlines()) > 1
            assert (cli / f).read_bytes() == (replay / f).read_bytes()
