"""The parts of `scripts/line_coverage.py` that run without the traced
suite: its allow-list, its statement enumerator and its tracer."""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

MODULE = '''"""Module docstring."""
import os


@staticmethod
def f(x):
    """Function docstring."""
    global y
    if (x and
            x > 1):
        return [
            x,
        ]
    return 0


class C:
    "Class docstring."
    a = 1
'''


@pytest.fixture
def probe(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import line_coverage
    return line_coverage


def test_allow_list_names_current_statements(probe):
    keys = {
        (path.name, key)
        for path in probe.PACKAGE.glob("*.py")
        for _, key in probe.statements(path.read_text())
    }
    assert set(probe.ALLOWED) <= keys


def test_statements_skip_docstrings_and_key_compound_headers(probe):
    assert probe.statements(MODULE) == [
        (range(2, 3), "import os"),
        (range(5, 7), "@staticmethod def f(x):"),
        (range(9, 11), "if (x and x > 1):"),
        (range(11, 14), "return [ x, ]"),
        (range(14, 15), "return 0"),
        (range(17, 18), "class C:"),
        (range(19, 20), "a = 1"),
    ]


def test_tracer_records_the_lines_of_one_call(probe, tmp_path):
    path = tmp_path / "tiny.py"
    path.write_text("def f(x):\n    if x:\n        return 1\n    return 2\n")
    namespace = {}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    with probe.LineTracer(tmp_path) as tracer:
        namespace["f"](0)
        assert tracer.lines == {str(path): {2, 4}}
        namespace["f"](1)
    assert tracer.lines == {str(path): {2, 3, 4}}
