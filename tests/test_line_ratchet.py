"""Line-count ratchet: ``src/`` may shrink but never grow.

``SRC_LINE_BUDGET`` is the number of lines in ``src/**/*.py`` when the
ratchet was last lowered.  A change that adds code deletes as much
elsewhere; a change that deletes code lowers the budget to the new count.
"""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SRC_LINE_BUDGET = 25_739


def test_src_line_count_stays_within_budget():
    lines = sum(
        len(path.read_text(encoding="utf-8").splitlines()) for path in SRC.rglob("*.py")
    )
    assert lines <= SRC_LINE_BUDGET, (
        f"src/ has {lines} lines, over the budget of {SRC_LINE_BUDGET}: "
        "delete as much code as this change adds"
    )
