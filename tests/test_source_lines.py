"""No line of the library's source is longer than ``MAX_LINE`` characters.

The line count of ``src/saddleflow`` measures how much code the library
needs, and lines packed past the longest the tree has would fake a smaller
count.
"""

from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "saddleflow").glob("*.py"))
MAX_LINE = 115


def test_the_sources_are_found():
    assert {"flows.py", "cli.py"} <= {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_source_line_is_longer_than_the_cap(path):
    lines = path.read_text().splitlines()
    long = [(number, len(line)) for number, line in enumerate(lines, 1) if len(line) > MAX_LINE]
    assert long == [], f"{path.name}: (line, length) over {MAX_LINE} characters"
