import pytest

from extremal import constructions as cons, hgr
from extremal.errors import FormatError
from extremal.rgraph import RGraph


def test_round_trip_bit_exact(tmp_path):
    g = cons.turan_rgraph(6, 3, 3)
    text = hgr.dumps(g)
    assert hgr.loads(text) == g
    assert hgr.dumps(hgr.loads(text)) == text
    p = tmp_path / "g.hgr"
    hgr.dump(g, p)
    assert p.read_text() == text
    assert hgr.load(p) == g


def test_dumps_format():
    g = RGraph(2, 3, ((1, 2), (0, 1)))
    assert hgr.dumps(g) == "2 3 2\n0 1\n1 2\n"


def test_reader_accepts_any_line_order():
    assert hgr.loads("2 3 2\n1 2\n0 1\n") == RGraph(2, 3, ((0, 1), (1, 2)))


@pytest.mark.parametrize(
    "text",
    [
        "",
        "2 3\n0 1\n",
        "2 3 2\n0 1\n",
        "2 3 1\n0 1\n1 2\n",
        "2 3 1\n1 0\n",
        "2 3 1\n0 x\n",
        "2 3 2\n0 1\n0 1\n",
        "2 3 1\n0 3\n",
        "3 4 1\n0 1\n",
    ],
)
def test_reader_rejects(text):
    with pytest.raises(FormatError):
        hgr.loads(text)


def test_edge_set_rules_are_rgraphs():
    # the readers leave arity, range and duplicates to RGraph, whose message shows
    with pytest.raises(FormatError, match="duplicate edge \\(0, 1\\)"):
        hgr.loads("2 3 2\n0 1\n0 1\n")
    with pytest.raises(FormatError, match="duplicate edge \\(0, 1\\)"):
        hgr.from_json_obj({"r": 2, "n": 3, "edges": [[0, 1], [1, 0]]})
    with pytest.raises(FormatError, match="not a set of 3 distinct vertices"):
        hgr.loads("3 4 1\n0 1\n")
    # a 1-uniform graph is no RGraph, in either format
    with pytest.raises(FormatError, match="uniformity must be >= 2, got 1"):
        hgr.loads("1 3 2\n0\n2\n")
    with pytest.raises(FormatError, match="uniformity must be >= 2, got 1"):
        hgr.from_json_obj({"r": 1, "n": 3, "edges": [[0], [2]]})


@pytest.mark.parametrize("v, ok", [(0, True), (-3, True), (True, False), (False, False),
                                   (1.0, False), ("1", False), (None, False)])
def test_is_json_int(v, ok):
    assert hgr.is_json_int(v) is ok


def test_json_mirror(tmp_path):
    g = cons.gen_triangle(3)
    obj = hgr.to_json_obj(g)
    assert hgr.from_json_obj(obj) == g
    p = tmp_path / "g.json"
    p.write_text('{"r": 3, "n": 5, "edges": [[0,1,2],[0,1,3],[2,3,4]]}')
    assert hgr.load(p) == RGraph(3, 5, ((0, 1, 2), (0, 1, 3), (2, 3, 4)))


@pytest.mark.parametrize(
    "obj",
    [
        {"r": 2, "n": 3},
        {"r": 2, "n": 3, "edges": [[0, 1], [1, 0]]},
        {"r": "2", "n": 3, "edges": []},
        {"r": 2, "n": 3, "edges": [[0, 5]]},
        {"r": True, "n": 3, "edges": []},
        {"r": 2, "n": True, "edges": []},
        {"r": 3, "n": 4, "edges": [[False, True, 2]]},
    ],
)
def test_json_rejects(obj):
    with pytest.raises(FormatError):
        hgr.from_json_obj(obj)


class TestLoadReuse:
    """``load`` parses each text once: graphs are immutable, so one object
    (with the views cached on it) can stand for every load of that text."""

    def test_two_loads_of_one_text_give_one_graph(self, tmp_path):
        p = tmp_path / "g.hgr"
        hgr.dump(cons.turan_graph(7, 3), p)
        first = hgr.load(p)
        first.covered_adj
        second = hgr.load(p)
        assert second is first
        assert "covered_adj" in second.__dict__  # the cached view comes along

    def test_a_rewritten_file_gives_the_new_graph(self, tmp_path):
        p = tmp_path / "g.hgr"
        hgr.dump(cons.turan_graph(7, 3), p)
        before = hgr.load(p)
        hgr.dump(cons.complete_graph(4), p)
        after = hgr.load(p)
        assert after == cons.complete_graph(4) and before == cons.turan_graph(7, 3)

    @pytest.mark.parametrize("text", ["2 3 2\n0 1\n0 1\n", '{"r": 2, "n": 3, "edges": [[0, 3]]}',
                                      "{not json"])
    def test_a_malformed_file_raises_on_every_load(self, tmp_path, text):
        p = tmp_path / "bad.hgr"
        p.write_text(text)
        for _ in range(3):
            with pytest.raises(FormatError):
                hgr.load(p)

    def test_the_json_mirror_is_reused(self, tmp_path):
        p = tmp_path / "g.json"
        p.write_text('{"r": 3, "n": 5, "edges": [[0, 1, 2], [0, 1, 3], [2, 3, 4]]}')
        first = hgr.load(p)
        assert hgr.load(p) is first and first == cons.gen_triangle(3)

    def test_two_paths_with_equal_text_share_one_graph(self, tmp_path):
        a, b = tmp_path / "a.hgr", tmp_path / "b.hgr"
        hgr.dump(cons.turan_rgraph(6, 3, 3), a)
        hgr.dump(cons.turan_rgraph(6, 3, 3), b)
        assert hgr.load(a) is hgr.load(b)

    def test_equal_graphs_in_other_text_are_parsed_apart(self, tmp_path):
        a, b = tmp_path / "a.hgr", tmp_path / "b.hgr"
        a.write_text("2 3 2\n0 1\n1 2\n")
        b.write_text("2 3 2\n1 2\n0 1\n")
        assert hgr.load(a) == hgr.load(b) and hgr.load(a) is not hgr.load(b)
