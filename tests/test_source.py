import ast
import sys
from pathlib import Path

import trident

SOURCE = Path(trident.__file__).parent


def test_no_bare_assert():
    # python -O strips assert statements; the paper's checks must raise
    # IdentityViolation instead.
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert len(list(SOURCE.rglob("*.py"))) > 5
    assert not found, found


def test_public_names_pinned():
    # Dropping a public name is an API change: edit this list and argue
    # for the removal in CHANGES.md.
    assert sorted(trident.__all__) == [
        "BoundParams", "CountsReport", "EnumerationReport", "Graph", "PeelCertificate",
        "PeelStep", "VerifyResult", "binomial", "build_extremal", "build_graph",
        "canonical_form", "closed_neighborhood", "complement", "complement_identity_check",
        "count_cliques", "count_triangles", "count_w", "delete_vertices",
        "enumerate_and_verify", "full_report", "gls_bound", "graph_hash", "load_graph",
        "max_degree", "meeting_counts", "merge_bound", "peel", "random_bounded_graph",
        "read_edge_list", "read_graph6", "save_graph", "select_vertex",
        "shift_inequality_check", "triangles_meeting", "verify_certificate",
        "write_edge_list", "write_graph6",
    ]


def test_imports_stdlib_or_numpy():
    # The package needs nothing that cannot be installed offline: every
    # import is the standard library, numpy or trident itself.
    found = set()
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    assert "numpy" in found
    allowed = sys.stdlib_module_names | {"numpy", "trident"}
    assert not sorted(found - allowed), sorted(found - allowed)


def test_no_process_modules():
    # The package runs in the caller's process: no module starts workers
    # or child processes.
    banned = {"concurrent", "multiprocessing", "subprocess"}
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] in banned]
    assert not found, found
