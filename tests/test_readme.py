"""README.md names the test that guards each invariant it states, and the
BENCH_*.json file behind each measured figure: every such name must
resolve, so the map from invariant to test cannot go stale."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def test_every_test_the_readme_names_exists():
    defined = {node.name
               for path in (ROOT / "tests").glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef)}
    named = set(re.findall(r"\btest_\w+", README))
    assert named
    missing = sorted(name for name in named
                     if name not in defined and not (ROOT / "tests" / f"{name}.py").is_file())
    assert not missing, f"README.md names tests that do not exist: {missing}"


def test_every_benchmark_file_the_readme_names_exists():
    missing = sorted(name for name in set(re.findall(r"\bBENCH_\w+\.json", README))
                     if not (ROOT / name).is_file())
    assert not missing, f"README.md names benchmark files that do not exist: {missing}"
