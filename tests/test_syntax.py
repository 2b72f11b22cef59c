"""Every Python file parses as Python 3.10, the oldest version the package
supports (pyproject.toml's requires-python), also where no 3.10
interpreter is at hand."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_file_parses_as_python_3_10():
    paths = sorted(
        path for folder in ("src", "tests", "benchmarks") for path in (ROOT / folder).rglob("*.py")
    )
    assert ROOT / "src" / "rlroute" / "network.py" in paths
    failures = []
    for path in paths:
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert not failures
