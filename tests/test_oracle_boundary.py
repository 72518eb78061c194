"""The reference loops stay test-only.

Production code runs one engine per layer; the per-access and
per-triangle loops it is proven against live in ``tests/oracle``. No
module under ``src/repro`` may bring back an engine switch or reach into
the test tree.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _modules():
    paths = sorted(SRC.rglob("*.py"))
    assert paths, f"no modules found under {SRC}"
    return paths


def test_no_module_mentions_use_reference():
    offenders = [
        str(p.relative_to(SRC)) for p in _modules()
        if "use_reference" in p.read_text(encoding="utf-8")
    ]
    assert offenders == []


def test_no_module_imports_tests():
    offenders = []
    for path in _modules():
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            if any(n == "tests" or n.startswith("tests.") for n in names):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert offenders == []
