"""The code-line counter of ``scripts/src_delta.py``."""

import importlib.util
import textwrap
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "src_delta.py"
_spec = importlib.util.spec_from_file_location("src_delta", _SCRIPT)
src_delta = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_delta)


def test_code_lines_skip_blanks_comments_and_docstrings():
    source = textwrap.dedent(
        '''\
        """Module docstring,
        two lines."""

        import os  # a trailing comment keeps the line


        # a comment line
        def f(x):
            """Function docstring."""
            text = """a multi-line
        string value"""
            return (x +
                    1)


        class A:
            "class docstring"
            name = "not a docstring"
        '''
    )
    assert src_delta.code_lines(source) == {4, 8, 10, 11, 12, 13, 16, 18}
    assert src_delta.code_lines("") == set()
    assert src_delta.code_lines("# only a comment\n\n") == set()
