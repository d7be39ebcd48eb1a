import json
import time

import pytest

from equicolor import generators, read_graph, write_graph
from equicolor.cli import main
from equicolor.errors import (
    DuplicateEdge,
    HeaderMismatch,
    InfeasibleParameters,
    ParseError,
)
from equicolor.generators import REGULAR_ATTEMPTS, InstanceSpec, generate
from equicolor.graphio import parse_dimacs, parse_edge_json
from equicolor.graphs import average_degree

from conftest import cycle, random_graph


def test_parse_dimacs_example():
    g = parse_dimacs("p edge 3 2\ne 1 2\ne 2 3\n")
    assert g.n == 3 and sorted(g.edges()) == [(0, 1), (1, 2)]


def test_parse_dimacs_comments_and_errors():
    g = parse_dimacs("c hello\np edge 2 1\ne 1 2\n")
    assert g.edge_count == 1
    with pytest.raises(HeaderMismatch):
        parse_dimacs("p edge 3 2\ne 1 2\ne 2 3\ne 1 3\n")
    with pytest.raises(ParseError) as exc:
        parse_dimacs("p edge 2 1\ne 1 5\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError):
        parse_dimacs("e 1 2\n")
    with pytest.raises(ParseError):
        parse_dimacs("p edge x y\n")
    with pytest.raises(DuplicateEdge):
        parse_dimacs("p edge 2 2\ne 1 2\ne 2 1\n")
    # each malformed line names its 1-based line number; a file without a
    # problem line has none
    for text, message, line in [
        ("p edge 2 1\np edge 2 1\n", "duplicate problem line", 2),
        ("c x\np col 2 1\n", "malformed problem line", 2),
        ("p edge 2\n", "malformed problem line", 1),
        ("p edge 3 1\ne 1\n", "malformed edge line", 2),
        ("p edge 3 1\ne 1 x\n", "non-integer endpoints", 2),
        ("p edge 3 1\n\nx 1 2\n", "unknown line type", 3),
        ("c only a comment\n", "missing problem line", None),
    ]:
        with pytest.raises(ParseError, match=message) as exc:
            parse_dimacs(text)
        assert exc.value.line == line, text


def test_parse_edge_json():
    g = parse_edge_json('{"n": 2, "edges": [[0, 1]]}')
    assert g.edge_count == 1
    with pytest.raises(ParseError):
        parse_edge_json("not json")
    with pytest.raises(ParseError):
        parse_edge_json('{"edges": []}')


def test_round_trip(tmp_path):
    for seed in range(10):
        g = random_graph(9, 0.3, seed)
        for fmt, suffix in [("dimacs", ".col"), ("edge-json", ".json")]:
            p = tmp_path / f"g{seed}{suffix}"
            write_graph(g, p)
            back = read_graph(p)
            assert back.n == g.n and sorted(back.edges()) == sorted(g.edges())
    with pytest.raises(ParseError, match="unknown format"):
        read_graph(p, "bogus")


def test_generators_deterministic():
    a = generate(InstanceSpec.parse("regular:n=12,d=3", seed=5))
    b = generate(InstanceSpec.parse("regular:n=12,d=3", seed=5))
    assert a.edges() == b.edges()
    c = generate(InstanceSpec.parse("regular:n=12,d=3", seed=6))
    assert a.edges() != c.edges()
    b1 = generate(InstanceSpec.parse("bipartite:n1=3,n2=4,p=1/2", seed=5))
    b2 = generate(InstanceSpec.parse("bipartite:n1=3,n2=4,p=1/2", seed=5))
    assert b1.n == 7 and b1.edges() == b2.edges()
    assert all(u < 3 <= v for u, v in b1.edges())


def test_generator_regular():
    g = generate(InstanceSpec.parse("regular:n=12,d=3", seed=0))
    assert all(g.degree(v) == 3 for v in range(12))
    with pytest.raises(InfeasibleParameters):
        generate(InstanceSpec.parse("regular:n=5,d=3"))
    two_reg = generate(InstanceSpec.parse("regular:n=6,d=2", seed=1))
    assert all(two_reg.degree(v) == 2 for v in range(6))
    empty = generate(InstanceSpec.parse("regular:n=5,d=0"))
    assert empty.n == 5 and empty.edge_count == 0


def test_generator_rejects_unread_parameters():
    # a typo for target_avg, and a seed passed as a parameter, were ignored
    # and gave the graph of the spec without them
    for text, key in (("hub:n=100,delta=10,target=1", "'target'"),
                      ("regular:n=6,d=3,seed=5", "'seed'")):
        with pytest.raises(InfeasibleParameters, match=key):
            generate(InstanceSpec.parse(text, 1))


@pytest.mark.parametrize("text", ["regular:n=40,d=8", "regular:n=30,d=12"])
def test_dense_regular_spec_finishes_or_raises(text):
    # a simple pairing is drawn about once in exp((d*d-1)/4) tries: these
    # specs ran on for more than 20 s before the attempts were capped
    start = time.perf_counter()
    try:
        g = generate(InstanceSpec.parse(text, 1))
    except InfeasibleParameters as exc:
        assert text in str(exc) and f"{REGULAR_ATTEMPTS} attempts" in str(exc)
    else:
        d = int(text.rpartition("=")[2])
        assert all(g.degree(v) == d for v in range(g.n))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"{text} took {elapsed:.1f} s"


def test_regular_attempt_cap_raises_typed_error(monkeypatch):
    # K9 draws a simple pairing about once in 10^7 tries, so five do not
    monkeypatch.setattr(generators, "REGULAR_ATTEMPTS", 5)
    with pytest.raises(InfeasibleParameters, match="regular:n=9,d=8 drew no simple pairing in 5 attempts"):
        generate(InstanceSpec.parse("regular:n=9,d=8", 1))


def test_generator_torus():
    g = generate(InstanceSpec.parse("torus:rows=3,cols=4"))
    assert g.n == 12 and all(g.degree(v) == 4 for v in range(12))
    with pytest.raises(InfeasibleParameters):
        generate(InstanceSpec.parse("torus:rows=2,cols=5"))


def test_generator_gallai_tree():
    from equicolor import is_gallai_tree, components
    for seed in range(10):
        g = generate(InstanceSpec.parse("gallai_tree:n=12", seed=seed))
        for comp in components(g):
            assert is_gallai_tree(g, comp)


def test_generator_hub():
    g = generate(InstanceSpec.parse("hub:n=50,delta=15,target_avg=3", seed=2))
    assert g.max_degree == 15
    assert average_degree(g) <= 3


def test_cli_color_equitable(tmp_path, capsys):
    out = tmp_path / "res.json"
    code = main([
        "color-equitable", "--gen", "torus:rows=3,cols=4", "--k", "5",
        "--out", str(out),
    ])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["k"] == 5
    assert max(data["counts"]) - min(data["counts"]) <= 1
    assert len(data["assignment"]) == 12


def test_cli_seed_reproducibility(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        p = tmp_path / name
        code = main(["color-equitable", "--gen", "gnp:n=40,p=0.08",
                     "--seed", "9", "--k", "12", "--out", str(p)])
        assert code == 0
        outs.append(p.read_text())
    assert outs[0] == outs[1]


def test_cli_color_delta_error(capsys):
    code = main(["color-delta", "--gen", "regular:n=4,d=3"])
    assert code == 1
    err = capsys.readouterr().err
    payload = json.loads(err.strip())
    assert payload["error"] == "PreconditionViolated"


def test_cli_verify(tmp_path, capsys):
    g = cycle(4)
    gp = tmp_path / "g.col"
    write_graph(g, gp)
    cp = tmp_path / "c.json"
    cp.write_text(json.dumps({"k": 2, "assignment": [0, 1, 0, 1]}))
    assert main(["verify", "--graph", str(gp), "--coloring", str(cp),
                 "--equitable"]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"k": 2, "assignment": [0, 0, 1, 1]}))
    assert main(["verify", "--graph", str(gp), "--coloring", str(bad)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["violated_edges"]


def test_cli_trace(tmp_path):
    jsonl = tmp_path / "t.jsonl"
    csvf = tmp_path / "t.csv"
    code = main(["trace", "--gen", "gnp:n=30,p=0.1", "--k", "9",
                 "--jsonl", str(jsonl), "--csv", str(csvf),
                 "--out", str(tmp_path / "s.json")])
    assert code == 0
    lines = jsonl.read_text().strip().splitlines()
    assert json.loads(lines[0])["kind"] == "header"
    assert csvf.read_text().startswith("step,disc,l1,cumulative")


def test_cli_oracle(tmp_path, capsys):
    g = cycle(5)
    gp = tmp_path / "c5.col"
    write_graph(g, gp)
    assert main(["oracle", "count-colorings", "--graph", str(gp), "--k", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["result"] == 0


def test_cli_dominate(tmp_path, capsys):
    g = cycle(4)
    gp = tmp_path / "g.json"
    write_graph(g, gp)
    lp = tmp_path / "lists.json"
    lp.write_text(json.dumps({
        "lists": [[0, 1]] * 4,
        "partial": [0, None, 0, None],
    }))
    assert main(["dominate", "--graph", str(gp), "--lists", str(lp)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["counts"][0] >= 2


@pytest.mark.parametrize("argv, keys, values", [
    (["color-delta", "--gen", "hub:n=200,delta=10,target_avg=2", "--report", "{report}"],
     {"k", "assignment", "counts", "final_gap", "claims"}, {"k": 10}),
    (["color-equitable", "--graph", "{graph}", "--k", "3",
      "--trace-jsonl", "{jsonl}", "--trace-csv", "{csv}"],
     {"k", "assignment", "counts", "steps", "ledger"}, {"k": 3}),
    (["verify", "--graph", "{graph}", "--coloring", "{coloring}", "--lists", "{lists}"],
     {"proper", "violated_edges", "total", "counts", "gap", "in_lists", "list_violations"},
     {"proper": True, "in_lists": True, "list_violations": []}),
    (["oracle", "equitable-exists", "--graph", "{graph}", "--k", "2"],
     {"probe", "result"}, {"probe": "equitable-exists", "result": True}),
    (["oracle", "improving-move", "--graph", "{graph}", "--coloring", "{coloring}", "--k", "2"],
     {"probe", "result"}, {"probe": "improving-move", "result": False}),
    (["oracle", "domination-exists", "--graph", "{graph}", "--lists", "{lists}"],
     {"probe", "result"}, {"probe": "domination-exists", "result": True}),
])
def test_cli_success_paths(tmp_path, capsys, argv, keys, values):
    # the command paths no other test runs to a zero exit, on C4 with a
    # proper 2-coloring and 2-lists where one is needed
    files = {name: tmp_path / name for name in
             ("graph.col", "coloring.json", "lists.json", "report", "jsonl", "csv")}
    write_graph(cycle(4), files["graph.col"])
    files["coloring.json"].write_text(json.dumps({"k": 2, "assignment": [0, 1, 0, 1]}))
    files["lists.json"].write_text(json.dumps({
        "lists": [[0, 1]] * 4, "partial": [0, None, None, None],
    }))
    names = {name.split(".")[0]: str(path) for name, path in files.items()}
    assert main([arg.format(**names) for arg in argv]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == keys
    assert {key: data[key] for key in values} == values
    if argv[0] == "color-delta":
        report = json.loads(files["report"].read_text())
        assert [c["name"] for c in report["claims"]] == \
            ["I", "II", "III", "IV", "V", "VI", "VII", "VIII"]
        assert [c["verdict"] for c in report["claims"]] == \
            [c["verdict"] for c in data["claims"]]
    if argv[0] == "color-equitable":
        lines = files["jsonl"].read_text().strip().splitlines()
        assert json.loads(lines[0])["kind"] == "header"
        assert files["csv"].read_text().startswith("step,disc,l1,cumulative")


def test_cli_usage_error():
    assert main(["color-equitable"]) == 2


def test_cli_missing_file_error(tmp_path, capsys):
    # a file the CLI cannot open is a domain error with structured JSON,
    # not a traceback
    missing = tmp_path / "missing.col"
    assert main(["color-equitable", "--graph", str(missing), "--k", "3"]) == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "FileNotFoundError"
    assert "missing.col" in payload["message"]


def test_cli_malformed_json_input_error(tmp_path, capsys):
    # a malformed or incomplete coloring or list file printed a
    # JSONDecodeError or KeyError traceback
    gp = tmp_path / "c4.col"
    write_graph(cycle(4), gp)
    bad = tmp_path / "bad.json"
    cases = [
        ("not json", ["verify", "--coloring"]),
        ('{"k": 2}', ["verify", "--coloring"]),
        ('[0, 1]', ["verify", "--coloring"]),
        ('{"partial": [0, null, null, null]}', ["dominate", "--lists"]),
        ('{"lists": 3}', ["dominate", "--lists"]),
    ]
    for text, command in cases:
        bad.write_text(text)
        assert main(command[:1] + ["--graph", str(gp)] + command[1:] + [str(bad)]) == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "ParseError"
        assert "bad.json" in payload["message"]


def test_cli_malformed_spec_and_graph_file_errors(tmp_path, capsys):
    # a missing generator parameter, a non-numeric value and a malformed
    # edge-json graph printed a KeyError, ValueError or TypeError traceback;
    # an unknown generator, a probability outside [0, 1] and an edge budget
    # too small for a hub raise typed errors too
    bad = tmp_path / "g.json"
    bad.write_text('{"n": 3, "edges": 5}')
    cases = [
        (["--gen", "regular:n=6"], "InfeasibleParameters"),
        (["--gen", "gnp:n=5,p=x"], "ParseError"),
        (["--gen", "bipartite:n1=-2,n2=5,p=1/2"], "InfeasibleParameters"),
        (["--gen", "hub:n=100,delta=10,target=1"], "InfeasibleParameters"),
        (["--gen", "nosuch:n=5"], "InfeasibleParameters"),
        (["--gen", "gnp:n=5,p=3/2"], "InfeasibleParameters"),
        (["--gen", "hub:n=10,delta=5,target_avg=1/2"], "InfeasibleParameters"),
        (["--graph", str(bad)], "ParseError"),
        ([], "EquicolorError"),
    ]
    for source, error in cases:
        assert main(["color-equitable"] + source + ["--k", "3"]) == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == error, (source, payload)
