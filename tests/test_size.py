"""The hand-written package is tracked like a benchmark: its line count may
not rise above a ceiling recorded here.  A change that grows `src/polyauto`
raises CEILING in its own diff and says why in CHANGES.md."""

from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "polyauto"

CEILING = 5155


def test_package_line_count_is_within_the_ceiling():
    count = sum(len(path.read_text().splitlines())
                for path in PACKAGE.glob("*.py"))
    assert count <= CEILING, f"src/polyauto has {count} lines"
