import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "count_code_lines", Path(__file__).resolve().parent.parent / "tools" / "count_code_lines.py"
)
count_code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_code_lines)


def test_code_lines_skip_docstrings_comments_and_blanks():
    source = '''"""Module docstring,
over two lines."""

import math  # a trailing comment


def f(x):
    """One-line docstring."""
    # a comment line
    "a standalone string statement"
    text = """a string
that is an expression"""
    return math.sqrt(x), (
        "implicitly"
        "concatenated"
    )
'''
    # the import, the def, both lines of text and the four lines of the return
    assert count_code_lines.code_lines(source) == 8
