"""tools/code_lines.py, the count of code lines in the package."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

# code lines: the import, the def and the three lines of the return
SOURCE = '''"""A module docstring,
over two lines."""

# a comment
import math  # a trailing comment


def area(r):
    """A function docstring."""

    # another comment
    return (math.pi
            * r
            * r)
'''


def test_code_lines_counts_only_code():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.code_lines(SOURCE) == 5
