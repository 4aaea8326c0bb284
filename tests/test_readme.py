"""The library session in README.md runs as a doctest."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_session():
    result = doctest.testfile(str(README), module_relative=False,
                              optionflags=doctest.NORMALIZE_WHITESPACE)
    assert result.attempted == 4
    assert result.failed == 0
