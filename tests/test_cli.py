import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from trident import build_extremal, build_graph, peel, save_graph, write_graph6
from trident.cli import run
from conftest import complete_graph


@pytest.fixture
def k4_file(tmp_path):
    p = tmp_path / "k4.g6"
    save_graph(complete_graph(4), p)
    return str(p)


def test_count(k4_file, capsys):
    assert run(["count", k4_file]) == 0
    assert "triangles=4" in capsys.readouterr().out


def test_count_json(k4_file, capsys):
    assert run(["count", k4_file, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"n": 4, "m": 6, "triangles": 4}


def test_count_edge_list_format(tmp_path, capsys):
    p = tmp_path / "g.el"
    save_graph(build_graph(3, [(0, 1), (1, 2), (0, 2)]), p)
    assert run(["count", str(p)]) == 0
    assert "triangles=1" in capsys.readouterr().out


def test_format_override(tmp_path, capsys):
    p = tmp_path / "data.txt"
    p.write_text(write_graph6(complete_graph(4)) + "\n")
    assert run(["count", str(p), "--format", "g6"]) == 0
    assert "triangles=4" in capsys.readouterr().out


def test_bound(capsys):
    assert run(["bound", "11", "3"]) == 0
    assert capsys.readouterr().out.strip() == "q=2 r=3 bound=9"


def test_bound_json_round_trip(capsys):
    assert run(["bound", "11", "3", "4", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"n": 11, "d": 3, "t": 4, "q": 2, "r": 3, "bound": 2}


def test_bound_usage_error(capsys):
    assert run(["bound", "0", "3"]) == 2
    assert "error" in capsys.readouterr().err


def test_report(k4_file, capsys):
    assert run(["report", k4_file, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["triangle_count"] == 4
    assert data["omega_count"] + data["w_count"] == data["degree_cube_sum"]


def test_certify_and_verify(tmp_path, capsys):
    gpath = tmp_path / "g.g6"
    save_graph(build_extremal(9, 3), gpath)
    cpath = tmp_path / "cert.json"
    assert run(["certify", str(gpath), "-d", "3", "-o", str(cpath)]) == 0
    capsys.readouterr()
    assert run(["verify", str(gpath), str(cpath)]) == 0
    assert capsys.readouterr().out.strip() == "OK"


def test_verify_tampered_exits_1(tmp_path, capsys):
    gpath = tmp_path / "g.g6"
    g = build_extremal(9, 3)
    save_graph(g, gpath)
    cert = peel(g, 3)
    data = cert.to_dict()
    data["total_triangles"] += 1
    cpath = tmp_path / "cert.json"
    cpath.write_text(json.dumps(data))
    assert run(["verify", str(gpath), str(cpath)]) == 1
    assert "failed" in capsys.readouterr().err


def test_verify_wrong_graph_exits_1(tmp_path, capsys):
    gpath = tmp_path / "g.g6"
    save_graph(build_extremal(9, 3), gpath)
    other = tmp_path / "other.g6"
    save_graph(build_graph(9, [(0, 1)]), other)
    cpath = tmp_path / "cert.json"
    assert run(["certify", str(gpath), "-d", "3", "-o", str(cpath)]) == 0
    assert run(["verify", str(other), str(cpath)]) == 1


def test_enumerate(capsys, tmp_path):
    out = tmp_path / "report.json"
    assert run(["enumerate", "-n", "4", "-d", "3", "--json", "-o", str(out)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["max_cliques_found"] == 4
    assert not data["violation_found"]
    assert json.loads(out.read_text()) == data


def test_enumerate_declared_degree_past_n(tmp_path):
    # A degree cap past n - 1 searches the same graphs as n - 1.  The run
    # gets 1 GiB of address space, so a search sized by d fails fast.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    space = 1 << 30
    reports = []
    for d in ["1000000000000000000", "3"]:
        out = subprocess.run([sys.executable, "-m", "trident", "enumerate", "-n", "4", "-d", d, "--json"],
                             capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
                             preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (space, space)))
        assert out.returncode == 0, out.stderr
        reports.append(json.loads(out.stdout))
    assert reports[0]["d"] == 10**18
    assert {**reports[0], "d": 3} == reports[1]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_enumerate_bad_jobs_exits_2(capsys, jobs):
    assert run(["enumerate", "-n", "4", "-d", "3", "--jobs", jobs]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: jobs must be an integer >= 1") and captured.err.count("\n") == 1


def test_complement_check(k4_file, capsys):
    assert run(["complement-check", k4_file, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["lhs"] == data["rhs"]


def test_missing_file_exits_2(capsys):
    assert run(["count", "/nonexistent/g.g6"]) == 2


def test_malformed_file_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.el"
    p.write_text("not a graph\n")
    assert run(["count", str(p)]) == 2


def test_vertex_count_past_int64_keys_exits_2(tmp_path, capsys):
    p = tmp_path / "huge.el"
    p.write_text("99999999999999 0\n")
    assert run(["count", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_endpoint_outside_int64_exits_2(tmp_path, capsys):
    p = tmp_path / "big.el"
    p.write_text("2 1\n0 99999999999999999999\n")
    assert run(["count", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("message", ["Unable to allocate 7.92 GiB", ""])
def test_memory_error_exits_2(monkeypatch, capsys, message):
    from trident import cli

    def load_graph(path, fmt=None):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "load_graph", load_graph)
    assert run(["count", "huge.el"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message or 'MemoryError'}\n"


def test_usage_error_exits_2():
    assert run(["frobnicate"]) == 2


@pytest.mark.parametrize("name, data", [
    ("bad.g6", "Bé\n".encode("utf-8")),  # decodes as UTF-8, but not graph6
    ("bad.g6", b"B\xff\n"),
    ("bad.el", b"2 1\n0 1 # \xe9\n"),
    ("bad.el", "# caf\u00e9\n2 1\n0 1\n".encode("utf-8")),
])
def test_non_ascii_file_exits_2(tmp_path, capsys, name, data):
    p = tmp_path / name
    p.write_bytes(data)
    assert run(["count", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_bad_exhaustive_limit_env_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("TRIDENT_MAX_EXHAUSTIVE_N", "abc")
    assert run(["enumerate", "-n", "4", "-d", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_python_m_trident(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-m", "trident", "bound", "11", "3"],
                         capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60)
    assert out.returncode == 0
    assert out.stdout.strip() == "q=2 r=3 bound=9"


def _mangled(data: dict, kind: str) -> bytes:
    if kind == "not-json":
        return b"not json"
    if kind == "undecodable":
        return b"\xff\xfe{"
    if kind == "not-an-object":
        data = data["steps"]
    elif kind == "no-bound":
        del data["bound"]
    elif kind == "extra-step-key":
        data["steps"][0]["note"] = 1
    elif kind == "bool-field":
        data["n"] = True
    return json.dumps(data).encode()


@pytest.mark.parametrize("kind", ["not-json", "undecodable", "not-an-object", "no-bound",
                                  "extra-step-key", "bool-field"])
def test_verify_malformed_certificate_exits_2(tmp_path, capsys, kind):
    gpath = tmp_path / "g.g6"
    g = build_extremal(9, 3)
    save_graph(g, gpath)
    cpath = tmp_path / "cert.json"
    cpath.write_bytes(_mangled(peel(g, 3).to_dict(), kind))
    assert run(["verify", str(gpath), str(cpath)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
