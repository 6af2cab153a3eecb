import ast
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
