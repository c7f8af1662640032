"""Print the executable lines of src/gridcosim that no pinned run reaches.

Runs every bundle of `PINNED` in tests/conftest.py through `gridcosim run`,
as CI checks them against their golden manifests, under a `sys.settrace`
line tracer, and lists, per module, the executable lines that none of the runs
executed. Those lines can change artifact bytes without moving a golden
manifest. Standard library only; the list is a report and never fails:

    python tests/unpinned_lines.py

The pinned runs are traced, not the test suite: a tracer on every frame
changes which objects stay alive, which the reference-cycle tests observe.
"""

import contextlib
import os
import sys
import tempfile

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")
PACKAGE = os.path.join(SRC, "gridcosim") + os.sep


def executable_lines(path: str) -> set[int]:
    """The line numbers that some instruction of the module at `path` has."""
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    lines, stack = set(), [code]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def ranges(numbers: list[int], executable: list[int]) -> str:
    """`numbers` as runs like 12-15, where a run may skip lines that are not
    executable."""
    position = {line: i for i, line in enumerate(executable)}
    runs: list[list[int]] = []
    for line in numbers:
        if runs and position[line] == position[runs[-1][-1]] + 1:
            runs[-1].append(line)
        else:
            runs.append([line])
    return ", ".join(str(r[0]) if len(r) == 1 else f"{r[0]}-{r[-1]}" for r in runs)


def main() -> int:
    reached: set[tuple[str, int]] = set()

    def trace_lines(frame, event, _arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, _event, _arg):
        if frame.f_code.co_filename.startswith(PACKAGE):
            return trace_lines
        return None

    sys.path[:0] = [SRC, TESTS]
    sys.settrace(trace_calls)  # before the import, so module bodies count
    try:
        from conftest import PINNED
        from gridcosim.cli import main as gridcosim

        with tempfile.TemporaryDirectory() as outdir, open(os.devnull, "w") as quiet:
            for name, scenario_file in sorted(PINNED.items()):
                with contextlib.redirect_stdout(quiet):
                    status = gridcosim(["run", scenario_file, "--out", os.path.join(outdir, name)])
                if status:
                    sys.exit(f"gridcosim run {scenario_file} exited {status}")
    finally:
        sys.settrace(None)

    total = unreached = 0
    report = []
    for root, _dirs, files in sorted(os.walk(PACKAGE)):
        for filename in sorted(files):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(root, filename)
            executable = sorted(executable_lines(path))
            missed = [line for line in executable if (path, line) not in reached]
            total += len(executable)
            unreached += len(missed)
            if missed:
                name = os.path.relpath(path, SRC)
                report.append(f"{name}: {len(missed)} of {len(executable)}: "
                              f"{ranges(missed, executable)}")
    print(f"pinned runs ({', '.join(sorted(PINNED))}) reach {total - unreached} of "
          f"{total} executable lines of src/gridcosim; unreached:")
    print("\n".join(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
