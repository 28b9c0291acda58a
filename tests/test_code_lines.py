"""The code-line counter of ``tools/code_lines.py``: docstrings, comments
and blank lines are not code, and a token spanning several lines counts
each of them."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_counter():
    spec = importlib.util.spec_from_file_location("code_lines",
                                                  ROOT / "tools" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


DOCSTRINGS = '''"""Module docstring,
over two lines."""


# a comment line
class Thing:
    """Class docstring."""

    def method(self):
        """Method docstring,

        over three lines."""
        pass  # a trailing comment
'''

TOKENS = '''text = """a string that is

not a docstring"""
pair = (text,
        # a comment inside the brackets

        len(text),
        text)
'''


def test_skips_docstrings_comments_and_blank_lines():
    # class Thing, def method and pass
    assert load_counter().code_lines(DOCSTRINGS) == 3


def test_counts_every_line_of_a_multi_line_token():
    # the string's three lines, its blank one too, and the three lines of
    # the bracketed expression that hold its tokens
    assert load_counter().code_lines(TOKENS) == 6


def test_module_counts_sum_to_the_total(capsys):
    counter = load_counter()
    counter.main(["code_lines.py", str(ROOT / "src" / "seglv")])
    *modules, total = capsys.readouterr().out.splitlines()
    counts = {name: int(count) for name, count in
              (line.split() for line in modules)}
    assert set(counts) == {p.stem for p in (ROOT / "src" / "seglv").glob("*.py")}
    assert total.split() == ["total", str(sum(counts.values()))]
