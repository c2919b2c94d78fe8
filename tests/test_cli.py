import itertools
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import hybnet
import hybnet.cli as cli
import hybnet.solver as solver
from hybnet.cli import main
from hybnet.errors import InternalInconsistency
from hybnet.networks import emit, network_from_tree
from hybnet.solver import gen_random
from hybnet.trees import parse_newick, serialize


def run_python(*args):
    """A fresh interpreter on the args, importing the hybnet these tests
    import (pytest's pythonpath option does not reach a child process)."""
    src = str(Path(hybnet.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


@pytest.fixture
def triple_file(tmp_path):
    f = tmp_path / "trees.nwk"
    f.write_text("((a,b),c);\n((a,c),b);\n((a,c),b);\n")
    return str(f)


@pytest.fixture
def identical_file(tmp_path):
    f = tmp_path / "same.nwk"
    f.write_text("((a,b),(c,d));\n" * 3)
    return str(f)


def test_solve_identical_prints_k0(identical_file, capsys):
    assert main(["solve", identical_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("k=0")
    assert "(a,b)" in out


def test_solve_k1_and_formats(triple_file, capsys):
    assert main(["solve", triple_file, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("k=1")
    payload = json.loads(out.split("\n", 1)[1])
    assert {"nodes", "edges"} <= set(payload)


def test_solve_budget_exhausted(triple_file, capsys):
    assert main(["solve", triple_file, "--max-k", "0"]) == 1


def test_solve_trace_goes_to_stderr(triple_file, capsys):
    assert main(["solve", triple_file, "--trace"]) == 0
    err = capsys.readouterr().err
    events = [json.loads(line) for line in err.splitlines() if line.startswith("{")]
    assert any(ev.get("event") == "solution" for ev in events)


def test_solve_timeout_exit_code_keeps_trace(triple_file, monkeypatch, capsys):
    """A clock that advances one second per reading trips a 1.5 s limit at
    the start of budget 1, after budget 0 has logged its event."""
    ticks = itertools.count()
    monkeypatch.setattr(solver, "time", SimpleNamespace(monotonic=lambda: float(next(ticks))))
    assert main(["solve", triple_file, "--trace", "--time-limit", "1.5"]) == 3
    err = capsys.readouterr().err
    events = [json.loads(line) for line in err.splitlines() if line.startswith("{")]
    assert {"event": "budget", "k": 0, "candidates": 0} in events
    assert "time limit 1.5s" in err


def test_solve_input_error(tmp_path, capsys):
    f = tmp_path / "bad.nwk"
    f.write_text("((a,b),c);\n((a,b),c);\n")
    assert main(["solve", str(f)]) == 2
    f.write_text("((a,b),c\n((a,b),c);\n((a,b),c);\n")
    assert main(["solve", str(f)]) == 2
    assert main(["solve", str(tmp_path / "missing.nwk")]) == 2


def test_file_that_is_not_utf8_is_bad_input(tmp_path, capsys):
    f = tmp_path / "bad.nwk"
    f.write_bytes(b"\xff(a,b);\n")
    assert main(["solve", str(f)]) == 2
    nf = tmp_path / "net.json"
    nf.write_bytes(b'{"nodes": [{"id": 0, "label": "\xff"}], "edges": []}')
    tf = tmp_path / "t.nwk"
    tf.write_text("(a,b);\n")
    assert main(["displays", str(nf), str(tf)]) == 2
    err = capsys.readouterr().err
    assert err.count("input error: ") == 2 and "internal error" not in err


@pytest.mark.parametrize("taxon", ["__sub_0", "__sub_7", "__chain_x"])
def test_solve_rejects_reserved_taxa(taxon, tmp_path, capsys):
    f = tmp_path / "reserved.nwk"
    f.write_text(f"((a,b),(c,{taxon}));\n((a,b),({taxon},c));\n((a,b),(c,{taxon}));\n")
    assert main(["solve", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and repr(taxon) in err


def test_verify_solved_network(tmp_path, identical_file, capsys):
    net = network_from_tree(parse_newick("((a,b),(c,d));"))
    nf = tmp_path / "net.json"
    nf.write_text(emit(net, "json"))
    assert main(["verify", str(nf), identical_file]) == 0
    out = capsys.readouterr().out
    assert out.count("yes") == 3
    assert "hybridization number: 0" in out


def test_verify_accepts_solve_json_output_with_reticulations(tmp_path, capsys):
    for seed in (0, 3, 5):
        trees = tmp_path / f"inst{seed}.nwk"
        trees.write_text("".join(serialize(t) + "\n" for t in gen_random(6, 2, seed).trees))
        assert main(["solve", str(trees), "--format", "json"]) == 0
        head, dump = capsys.readouterr().out.split("\n", 1)
        assert int(head.removeprefix("k=")) >= 1
        net = tmp_path / f"net{seed}.json"
        net.write_text(dump)
        assert main(["verify", str(net), str(trees)]) == 0
        assert capsys.readouterr().out.count(": yes") == 3


def test_verify_failure_exit_code(tmp_path, capsys):
    net = network_from_tree(parse_newick("((a,b),(c,d));"))
    nf = tmp_path / "net.json"
    nf.write_text(emit(net, "json"))
    tf = tmp_path / "other.nwk"
    tf.write_text("((a,c),(b,d));\n" * 3)
    assert main(["verify", str(nf), str(tf)]) == 1


MALFORMED_DUMPS = {
    "endpoint_past_last_node": {"nodes": [{"id": 0}, {"id": 1, "label": "a"}],
                                "edges": [{"from": 0, "to": 7}]},
    "negative_endpoint": {"nodes": [{"id": 0}, {"id": 1, "label": "a"}],
                          "edges": [{"from": 0, "to": -1}]},
    "ids_not_from_zero": {"nodes": [{"id": 10}, {"id": 11}, {"id": 12, "label": "a"},
                                    {"id": 13, "label": "b"}],
                          "edges": [{"from": 10, "to": 11}, {"from": 11, "to": 12},
                                    {"from": 11, "to": 13}]},
    "repeated_id": {"nodes": [{"id": 0}, {"id": 0, "label": "a"}],
                    "edges": [{"from": 0, "to": 1}]},
    "label_not_a_string": {"nodes": [{"id": 0}, {"id": 1, "label": 5}],
                           "edges": [{"from": 0, "to": 1}]},
    # the degrees are those of a binary network, but 2 -> 3 -> 2 is a cycle
    "directed_cycle": {"nodes": [{"id": 0}, {"id": 1}, {"id": 2}, {"id": 3},
                                 {"id": 4, "label": "a"}, {"id": 5, "label": "b"}],
                       "edges": [{"from": 0, "to": 1}, {"from": 1, "to": 2},
                                 {"from": 1, "to": 5}, {"from": 2, "to": 3},
                                 {"from": 3, "to": 2}, {"from": 3, "to": 4}]},
    "unlabelled_sink": {"nodes": [{"id": 0}, {"id": 1}, {"id": 2, "label": "a"}, {"id": 3},
                                  {"id": 4, "label": "b"}, {"id": 5}],
                        "edges": [{"from": 0, "to": 1}, {"from": 1, "to": 2},
                                  {"from": 1, "to": 3}, {"from": 3, "to": 4},
                                  {"from": 3, "to": 5}]},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_DUMPS))
def test_malformed_network_dump_is_bad_input(case, tmp_path, identical_file, capsys):
    nf = tmp_path / "net.json"
    nf.write_text(json.dumps(MALFORMED_DUMPS[case]))
    tf = tmp_path / "t.nwk"
    tf.write_text("((a,b),(c,d));\n")
    assert main(["displays", str(nf), str(tf)]) == 2
    assert main(["verify", str(nf), identical_file]) == 2
    err = capsys.readouterr().err
    assert err.count("input error: ") == 2 and "internal error" not in err


@pytest.mark.parametrize("option", [
    ["--max-k", "-1"],
    ["--time-limit", "nan"],
    ["--time-limit", "inf"],
    ["--time-limit", "-1"],
])
def test_solve_rejects_out_of_range_options(option, triple_file, capsys):
    assert main(["solve", triple_file, *option]) == 2
    assert capsys.readouterr().err.startswith(f"input error: {option[0]} must be")


def test_aaf_lists_candidates(triple_file, capsys):
    assert main(["aaf", triple_file, "--k", "1"]) == 0
    out = capsys.readouterr().out
    rows = [json.loads(line) for line in out.splitlines()]
    assert any(row["forest"] == [["a"], ["b", "c", "ρ"]] for row in rows)


def test_aaf_rejects_a_negative_budget(triple_file, capsys):
    assert main(["aaf", triple_file, "--k", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: --k must be at least 0")


@pytest.mark.parametrize("args, message", [
    (["--n", "2", "--moves", "1"], "a tree on 2 taxa has no rSPR move"),
    (["--n", "5", "--moves", "-3"], "--moves must be at least 0"),
])
def test_gen_rejects_impossible_moves(args, message, capsys):
    assert main(["gen", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"input error: {message}")


def test_displays_command(tmp_path, capsys):
    net = network_from_tree(parse_newick("((a,b),c);"))
    nf = tmp_path / "net.json"
    nf.write_text(emit(net, "json"))
    tf = tmp_path / "t.nwk"
    tf.write_text("((a,b),c);\n")
    assert main(["displays", str(nf), str(tf)]) == 0
    tf.write_text("((a,c),b);\n")
    assert main(["displays", str(nf), str(tf)]) == 1


def test_gen_roundtrips_through_solve(tmp_path, capsys):
    assert main(["gen", "--n", "5", "--moves", "1", "--seed", "9"]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 3
    f = tmp_path / "gen.nwk"
    f.write_text("\n".join(lines) + "\n")
    assert main(["solve", str(f)]) == 0


def test_console_entry_point(identical_file):
    proc = run_python("-m", "hybnet.cli", "solve", identical_file)
    assert proc.returncode == 0
    assert proc.stdout.startswith("k=0")


def test_package_runs_as_a_module(identical_file):
    proc = run_python("-m", "hybnet", "solve", identical_file)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("k=0")


def test_internal_inconsistency_exit_code(triple_file, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise InternalInconsistency("verification failed")

    monkeypatch.setattr(cli, "solve", broken)
    assert main(["solve", triple_file]) == 4
    err = capsys.readouterr().err
    assert err == "internal error: InternalInconsistency: verification failed\n"


def test_unexpected_exception_exits_4_without_traceback(triple_file):
    """An exception that is not a HybnetError, raised inside `solve`, is
    reported as one line by a fresh interpreter."""
    script = (
        "import sys\n"
        "import hybnet.cli as cli\n"
        "def broken(*args, **kwargs):\n"
        "    raise ZeroDivisionError('division by zero')\n"
        "cli.solve = broken\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    proc = run_python("-c", script, "solve", triple_file)
    assert proc.returncode == 4
    assert proc.stderr.startswith("internal error: ZeroDivisionError: ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def _caterpillar_file(tmp_path, n):
    """A caterpillar on n taxa, itself and its mirror image."""
    taxa = [f"t{i}" for i in range(n)]
    left, right = taxa[0], taxa[0]
    for t in taxa[1:]:
        left, right = f"({left},{t})", f"({t},{right})"
    f = tmp_path / "caterpillar.nwk"
    f.write_text(f"{left};\n{left};\n{right};\n")
    return f


def test_solve_deep_caterpillars_as_enewick(tmp_path):
    f = _caterpillar_file(tmp_path, 5000)
    proc = run_python("-m", "hybnet.cli", "solve", str(f), "--format", "enewick")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("k=0\n")
    assert proc.stderr == ""
    assert proc.stdout.count("(") == 4999
