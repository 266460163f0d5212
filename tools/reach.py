"""The reach audit: which lines of ``src/repro`` the entry points run.

    python tools/reach.py        (from anywhere; it takes no options)

Each entry-point group in :data:`GROUPS` runs in its own interpreter
under a ``sys.settrace`` line hook installed before ``import repro``
(module-level code counts), and the lines they run are unioned.  A line
is one that carries bytecode, less the bodies of ``if TYPE_CHECKING:``
blocks.  An unreached *range* is a run of unreached lines, in line
order, inside one function (``A.b`` is method ``b`` of class ``A``,
``f.g`` a function nested in ``f``, ``<module>`` the module body).

Every unreached range needs a verdict in ``tools/reach_verdicts.txt``,
keyed by file, function and the range's stripped source text (no line
numbers, so an edit elsewhere moves nothing):

- **F** failure path: an error, teardown or guard branch, or a
  ``__repr__`` only an error message or a debugger prints;
- **O** reachable only through an option or a ``--set``;
- **T** reached only by tier-1, which runs in process under the same
  hook (the ``tests`` group) and must reach every line of the range;
- **R** waiting on the ROADMAP item its reason names.

The tool prints the unreached ranges per file and the per-package
reached / total table, and exits 1 when an unreached range has no
verdict (it prints a ready-to-paste entry), when a verdict's range is
now reached, when a verdict's text is gone, when a **T** range is not
reached by tier-1, or when an entry point fails.
"""

from __future__ import annotations

import ast
import concurrent.futures
import json
import os
import runpy
import subprocess
import sys
import tempfile
import types
from pathlib import Path
from typing import Dict, List, NamedTuple, Set, Tuple

TOOLS = Path(__file__).resolve().parent
ROOT = TOOLS.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
VERDICTS = TOOLS / "reach_verdicts.txt"
LETTERS = "FOTR"

#: ``--set``s that shorten each figure's scenario (fig 2 and the
#: ablations run as they are).
SHORT: Dict[str, List[str]] = {
    "priority": ["duration=5"],
    "reservation_net": ["duration=12", "load_start=3", "load_end=8"],
    "reservation_cpu": ["duration=6"],
    "faults": ["duration=20"],
    "route": ["routers=24", "duration=12", "fail_at=4"],
    "capacity": ["duration=4", "streams=4"],
    "scale": ["duration=3", "streams=100"],
    "pubsub": ["duration=4", "subscribers=128"],
}

Seen = Dict[str, Set[int]]


# ----------------------------------------------------------------------
# The entry points (run in a child interpreter, after the hook)
# ----------------------------------------------------------------------
def _repro(*argv: str) -> None:
    """``python -m repro ARGV``, in this interpreter."""
    sys.argv = ["repro", *argv]
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as exit:
        if exit.code:
            raise RuntimeError(f"repro {' '.join(argv)}: exit {exit.code}")


def _figures() -> None:
    """Every arm of every figure at the short settings, plain and under
    ``default_suite()``."""
    from repro.check import default_suite
    from repro.cli import select
    from repro.experiments.runner import scenario_function
    from repro.experiments.scenario_registry import FIGURES

    for figure in FIGURES.values():
        short = select(figure, [], SHORT.get(figure.scenario, []), 1)
        for spec in short.specs():
            run = scenario_function(spec.scenario)
            run(**spec.call_kwargs())
            run(**spec.call_kwargs(), checks=default_suite())


def _run() -> None:
    from repro.experiments.scenario_registry import FIGURES

    for name, figure in FIGURES.items():
        sets = [word for setting in SHORT.get(figure.scenario, [])
                for word in ("--set", setting)]
        _repro("-j", "1", "--no-cache", "run", name, *sets)


def _trace() -> None:
    with tempfile.TemporaryDirectory() as out:
        for args in (["--scenario", "quickstart"], ["--scenario", "uav"],
                     ["--scenario", "table1", "--arm", "2-partial",
                      "--set", "duration=20", "--set", "load_start=5",
                      "--set", "load_end=12"]):
            _repro("trace", *args, "-o", os.path.join(out, "t.jsonl"))


def _example(name: str):
    def run() -> None:
        runpy.run_path(str(ROOT / "examples" / f"{name}.py"),
                       run_name="__main__")
    return run


def _tests() -> None:
    import pytest

    code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    if code:
        raise RuntimeError(f"tier-1: pytest exit {code}")


#: Group name -> what it runs; ``tests`` backs the **T** verdicts and
#: every other group is an entry point.
GROUPS = {
    "figures": _figures,
    "verify": lambda: _repro("--jobs", "1", "verify"),
    "run": _run,
    "soak": lambda: _repro("-j", "1", "soak", "--runs", "24"),
    "trace": _trace,
    **{name: _example(name) for name in (
        "quickstart", "uav_video_pipeline", "atr_image_pipeline",
        "mission_control")},
    "tests": _tests,
}


def hook() -> Seen:
    """Install the line hook; returns ``file -> lines seen`` as it fills.

    A code object whose lines have all been seen stops being traced, so
    fully reached hot code costs one call event per frame."""
    prefix = str(PACKAGE) + os.sep
    seen: Seen = {}
    left: Dict[types.CodeType, Set[int]] = {}

    def local(frame, event, arg):
        lines = left[frame.f_code]
        if event == "line" and frame.f_lineno in lines:
            lines.discard(frame.f_lineno)
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local if lines else None

    def call(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(prefix):
            return None
        if code not in left:
            left[code] = {line for *_, line in code.co_lines() if line}
            seen.setdefault(code.co_filename, set())
        left[code].discard(code.co_firstlineno)
        seen[code.co_filename].add(code.co_firstlineno)
        return local if left[code] else None

    sys.settrace(call)
    return seen


def child(group: str, out: str) -> None:
    """Run ``group`` under the hook; write what it saw to ``out``."""
    seen = hook()
    try:
        GROUPS[group]()
    finally:
        sys.settrace(None)
        Path(out).write_text(json.dumps(
            {file: sorted(lines) for file, lines in seen.items()}))


def run_group(group: str) -> Seen:
    """The lines of ``src/repro`` that ``group`` runs, from a fresh
    interpreter at the repo root with ``src`` on its path."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "seen.json")
        code = (f"import sys; sys.path[:0] = [{str(TOOLS)!r}, {str(SRC)!r}]; "
                f"import reach; reach.child({group!r}, {out!r})")
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True)
        if done.returncode:
            raise RuntimeError(f"group {group} failed:\n{done.stderr[-3000:]}")
        seen = json.loads(Path(out).read_text())
    return {file: set(lines) for file, lines in seen.items()}


# ----------------------------------------------------------------------
# Lines, ranges and verdicts
# ----------------------------------------------------------------------
class Line(NamedTuple):
    number: int
    function: str
    text: str


class Range(NamedTuple):
    file: str  # relative to src/repro
    function: str
    text: Tuple[str, ...]
    first: int
    last: int


class Verdict(NamedTuple):
    file: str
    function: str
    text: Tuple[str, ...]
    letter: str
    reason: str


def lines_of(path: Path) -> List[Line]:
    """Every line of ``path`` that carries bytecode, in order, with the
    function it belongs to (a comprehension or lambda belongs to the
    function around it)."""
    source = path.read_text(encoding="utf-8")
    owner: Dict[int, str] = {}

    def walk(code: types.CodeType, function: str) -> None:
        for *_, number in code.co_lines():
            if number:
                owner[number] = function
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                name = const.co_name
                walk(const, function if name.startswith("<") else
                     name if function == "<module>" else f"{function}.{name}")

    walk(compile(source, str(path), "exec"), "<module>")
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(
                node.test):
            for statement in node.body:
                for number in range(statement.lineno,
                                    statement.end_lineno + 1):
                    owner.pop(number, None)
    text = source.splitlines()
    return [Line(number, owner[number], text[number - 1].strip())
            for number in sorted(owner)]


def unreached(file: str, lines: List[Line], seen: Set[int]) -> List[Range]:
    """``file``'s unreached ranges: runs of unseen ``lines`` in one
    function."""
    ranges: List[Range] = []
    run: List[Line] = []
    for line in lines + [Line(0, "", "")]:
        if run and (line.number in seen or line.function != run[0].function
                    or not line.number):
            ranges.append(Range(file, run[0].function,
                                tuple(entry.text for entry in run),
                                run[0].number, run[-1].number))
            run = []
        if line.number and line.number not in seen:
            run.append(line)
    return ranges


def read_verdicts(path: Path) -> List[Verdict]:
    """Entries of a verdict file: a ``FILE FUNCTION LETTER REASON`` line,
    then the range's stripped lines, each indented four spaces."""
    verdicts: List[Verdict] = []
    for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        if line.startswith("    "):
            if not verdicts:
                raise ValueError(f"{path}:{number}: text before any entry")
            last = verdicts[-1]
            verdicts[-1] = last._replace(text=last.text + (line[4:],))
            continue
        fields = line.split(maxsplit=3)
        if len(fields) < 4 or fields[2] not in LETTERS:
            raise ValueError(f"{path}:{number}: expected FILE FUNCTION "
                             f"{'|'.join(LETTERS)} REASON, got {line!r}")
        verdicts.append(Verdict(*fields[:2], (), fields[2], fields[3]))
    return verdicts


def entry(found: Range) -> str:
    """``found`` as a verdict entry, letter and reason left to fill."""
    return "\n".join([f"{found.file} {found.function} ? REASON",
                      *(f"    {text}" for text in found.text)])


class Mismatch(NamedTuple):
    unlisted: List[Range]
    reached: List[Verdict]
    gone: List[Verdict]
    untested: List[Verdict]


def match(ranges: List[Range], verdicts: List[Verdict],
          lines: Dict[str, List[Line]], tested: Seen) -> Mismatch:
    """Hold ``ranges`` (what the entry points leave unreached) against
    ``verdicts``; ``lines`` is every file's :func:`lines_of` and
    ``tested`` what tier-1 reached, by file relative to ``src/repro``."""
    keys = {verdict[:3] for verdict in verdicts}
    found = {found[:3]: found for found in ranges}
    stale = [verdict for verdict in verdicts if verdict[:3] not in found]

    def present(verdict: Verdict) -> bool:
        body = "\n".join(line.text for line in lines.get(verdict.file, ())
                         if line.function == verdict.function)
        return f"\n{chr(10).join(verdict.text)}\n" in f"\n{body}\n"

    def untested(verdict: Verdict) -> bool:
        hit = found[verdict[:3]]
        return any(
            line.number not in tested.get(verdict.file, ())
            for line in lines[verdict.file]
            if hit.first <= line.number <= hit.last)

    return Mismatch(
        [found_ for key, found_ in found.items() if key not in keys],
        [verdict for verdict in stale if present(verdict)],
        [verdict for verdict in stale if not present(verdict)],
        [verdict for verdict in verdicts if verdict.letter == "T"
         and verdict[:3] in found and untested(verdict)])


# ----------------------------------------------------------------------
# The report
# ----------------------------------------------------------------------
def _spans(ranges: List[Range]) -> str:
    return ", ".join(str(r.first) if r.first == r.last else
                     f"{r.first}-{r.last}" for r in ranges)


def table(lines: Dict[str, List[Line]], ranges: List[Range]) -> str:
    """Reached / total lines, unreached lines and ranges, per package."""
    rows: Dict[str, List[int]] = {}
    for file, file_lines in lines.items():
        row = rows.setdefault(file.split("/")[0].removesuffix(".py"),
                              [0, 0, 0])
        row[1] += len(file_lines)
    for found in ranges:
        row = rows[found.file.split("/")[0].removesuffix(".py")]
        row[0] += sum(found.first <= line.number <= found.last
                      for line in lines[found.file])
        row[2] += 1
    total = [sum(column) for column in zip(*rows.values())]
    out = ["| package | reached / total lines | unreached | ranges |",
           "|---|---:|---:|---:|"]
    for name, (missed, size, count) in sorted(rows.items()):
        out.append(f"| `{name}` | {size - missed:,} / {size:,} | "
                   f"{missed:,} | {count} |")
    missed, size, count = total
    out.append(f"| **all** | {size - missed:,} / {size:,} "
               f"({100 * (size - missed) / size:.1f} %) | {missed:,} | "
               f"{count} |")
    return "\n".join(out).replace(",", " ")


def main() -> int:
    if sys.argv[1:]:
        print(__doc__, file=sys.stderr)
        return 2
    seen: Dict[str, Seen] = {}
    with concurrent.futures.ThreadPoolExecutor(os.cpu_count()) as pool:
        futures = {pool.submit(run_group, group): group for group in GROUPS}
        for future in concurrent.futures.as_completed(futures):
            seen[futures[future]] = future.result()
            print(f"group {futures[future]} done", file=sys.stderr)

    def relative(group_seen: Seen) -> Seen:
        return {str(Path(file).relative_to(PACKAGE)): lines
                for file, lines in group_seen.items()}

    tested = relative(seen.pop("tests"))
    reached: Seen = {}
    for group_seen in seen.values():
        for file, numbers in relative(group_seen).items():
            reached.setdefault(file, set()).update(numbers)
    lines = {str(path.relative_to(PACKAGE)): lines_of(path)
             for path in sorted(PACKAGE.rglob("*.py"))}
    ranges = [found for file, file_lines in lines.items()
              for found in unreached(file, file_lines,
                                     reached.get(file, set()))]

    print("Unreached lines, by file:")
    for file in lines:
        mine = [found for found in ranges if found.file == file]
        if mine:
            print(f"  {file}: {_spans(mine)}")
    print()
    print(table(lines, ranges))

    mismatch = match(ranges, read_verdicts(VERDICTS), lines, tested)
    for found in mismatch.unlisted:
        print(f"\n# unreached, no verdict ({found.file}:{found.first}):")
        print(entry(found))
    for title, verdicts in (("now reached", mismatch.reached),
                            ("text gone", mismatch.gone),
                            ("T, but tier-1 does not reach it",
                             mismatch.untested)):
        for verdict in verdicts:
            print(f"\n# verdict {title}:")
            print(f"{verdict.file} {verdict.function} {verdict.letter} "
                  f"{verdict.reason}")
            print("\n".join(f"    {text}" for text in verdict.text))
    return 1 if any(mismatch) else 0


if __name__ == "__main__":
    raise SystemExit(main())
