import ast
from pathlib import Path

TESTS = Path(__file__).parent


def parse(name):
    return ast.parse((TESTS / name).read_text(encoding="utf-8"))


def test_every_public_helper_is_imported_by_a_test_module():
    # a helper that nothing imports checks nothing: delete it or make it private
    defined = {node.name for node in parse("helpers.py").body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}
    imported = {alias.name for path in TESTS.glob("*.py") for node in ast.walk(parse(path.name))
                if isinstance(node, ast.ImportFrom) and node.module == "helpers" for alias in node.names}
    unused = sorted(defined - imported)
    assert not unused, f"helpers that no test module imports: {unused}"
