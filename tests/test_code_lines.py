"""The code-line count that ``tools/code_lines.py`` prints."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
on two lines."""

# A comment.
import math


class Shape:
    """Class docstring."""

    sides = 4  # code with a comment

    def area(self):
        """Function docstring."""
        text = """a string that is
        not a docstring"""
        return math.pi


x = (
    1,
)
'''


def test_counts_code_and_leaves_out_docstrings_comments_and_blanks():
    # import, class, sides, def, the two-line string, return, and the
    # three lines of x.
    assert code_lines.code_lines(SOURCE) == 10


def test_docstring_lines_are_those_of_modules_classes_and_functions():
    assert code_lines.docstring_lines(SOURCE) == {1, 2, 9, 14}


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "b.py").write_text('"""Doc."""\ny = 2\nz = 3\n')
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [["1", "a.py"], ["2", "b.py"], ["3", "total"]]
