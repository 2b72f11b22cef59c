"""The README's "Library use" section runs as written and lists exactly the
package's top-level names."""

import re
from pathlib import Path

import rlroute

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_section() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("## Library use")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def test_library_use_example_runs(capsys):
    code = re.search(r"```python\n(.*?)```", library_use_section(), re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("(0, ")
    assert 0.0 <= float(lines[1]) <= 1.0


def test_listed_names_are_the_top_level_surface():
    prose = library_use_section().split("```python")[0]
    bullets = "\n".join(line for line in prose.splitlines() if line.startswith(("- ", "  ")))
    listed = re.findall(r"`([A-Za-z_]+)`", bullets)
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(rlroute.__all__)
    for name in rlroute.__all__:
        assert hasattr(rlroute, name)
