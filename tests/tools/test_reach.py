"""``tools/reach.py``: the hook reaches what an entry point runs, and the
verdict matcher reports each way a verdict file can go stale.

The tool is imported by path; these tests call the same group and match
functions its ``main`` calls.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

SOURCE = '''\
def used(x):
    if x < 0:
        raise ValueError(x)
    return x


def unused():
    return 1
'''


def test_quickstart_group_reaches_run_quickstart():
    path = reach.PACKAGE / "experiments" / "scenarios.py"
    body = [line.number for line in reach.lines_of(path)
            if line.function == "run_quickstart"]
    seen = reach.run_group("quickstart")[str(path)]
    assert len(body) > 30
    assert [number for number in body if number not in seen] == []


def _file(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(SOURCE)
    lines = reach.lines_of(path)
    # The module ran both defs and called used(1): line 3 (the raise)
    # and line 8 (unused's body) are unreached.
    ranges = reach.unreached("m.py", lines, {1, 2, 4, 7})
    return {"m.py": lines}, ranges


def test_ranges_are_keyed_by_function_and_text(tmp_path):
    _, ranges = _file(tmp_path)
    assert [(r.function, r.text, r.first, r.last) for r in ranges] == [
        ("used", ("raise ValueError(x)",), 3, 3),
        ("unused", ("return 1",), 8, 8),
    ]


def test_match_reports_each_stale_case(tmp_path):
    lines, ranges = _file(tmp_path)
    listed = reach.Verdict("m.py", "used", ("raise ValueError(x)",), "T",
                           "a negative input")
    reached = reach.Verdict("m.py", "used", ("return x",), "F", "now run")
    gone = reach.Verdict("m.py", "used", ("return y",), "F", "edited away")
    mismatch = reach.match(ranges, [listed, reached, gone], lines, {})
    assert [r.function for r in mismatch.unlisted] == ["unused"]
    assert mismatch.reached == [reached]
    assert mismatch.gone == [gone]
    # A T range tier-1 does not reach is reported; once it does, not.
    assert mismatch.untested == [listed]
    assert reach.match(ranges, [listed], lines, {"m.py": {3}}).untested == []


def test_printed_entry_reads_back_once_filled_in(tmp_path):
    lines, ranges = _file(tmp_path)
    path = tmp_path / "verdicts.txt"
    path.write_text("\n\n".join(reach.entry(found) for found in ranges)
                    .replace("? REASON", "F guard"))
    verdicts = reach.read_verdicts(path)
    assert reach.match(ranges, verdicts, lines, {}) == ([], [], [], [])
    path.write_text(reach.entry(ranges[0]))
    try:
        reach.read_verdicts(path)
    except ValueError as error:
        assert "FILE FUNCTION" in str(error)
    else:
        raise AssertionError("an entry without a letter was accepted")
