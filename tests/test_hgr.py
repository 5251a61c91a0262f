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
