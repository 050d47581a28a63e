"""``tests/code_lines.py`` counts a tiny module by the rule it states:
docstrings, comments and blank lines are no code, and laying the same
statements over more or fewer lines moves the code lines but not the
statements."""

from code_lines import counts

PACKED = '''"""A module docstring."""

from os import path, sep  # two names


def f(x):
    """A docstring
    over two lines."""
    # A comment.
    y = x + 1; z = y * 2
    return (y,
            z)
'''

SPREAD = '''from os import (
    path,
    sep,
)


def f(x):
    y = x + 1
    z = y * 2
    return (y, z)
'''


def test_code_lines_statements_and_total_lines_of_a_tiny_module():
    # Code: the import, the def, the packed assignments and the two lines of
    # the return.  Statements: the import, the def, two assignments and the
    # return; the docstrings are neither.
    assert counts(PACKED) == (5, 5, 12)


def test_the_layout_moves_the_code_lines_and_not_the_statements():
    assert counts(SPREAD) == (8, 5, 10)
