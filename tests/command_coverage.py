"""The statement lines of ``src/nsflab`` that none of the nine default commands runs.

    python tests/command_coverage.py

Runs ``wsu --theorem 1``, ``2`` and ``3``, ``apriori``, ``simulate``,
``verify-thermo``, ``mv-check``, ``relenergy`` and ``defect-study`` at their
defaults into a temporary directory, in this one traced process: the trace
is set before ``nsflab`` is imported, so import-time lines count, and the
CPU affinity reads as one CPU, so the studies fork no runs out of the
trace's sight.  Then, per module, it prints the lines that hold bytecode
and that no command reached.  A line listed here is code that only a test,
or nothing, takes.  Standard library only; pytest does not collect it.
"""

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = str(SRC / "nsflab") + os.sep
COMMANDS = (["wsu", "--theorem", "1"], ["wsu", "--theorem", "2"], ["wsu", "--theorem", "3"],
            ["apriori"], ["simulate"], ["verify-thermo"], ["mv-check"], ["relenergy"],
            ["defect-study"])

executed: dict[str, set[int]] = {}


def _trace(frame, event, arg):
    # a frame of the package has its lines traced; any other runs untraced
    path = frame.f_code.co_filename
    if not path.startswith(PACKAGE):
        return None
    lines = executed.setdefault(path, set())
    lines.add(frame.f_code.co_firstlineno)

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local
    return local


def statement_lines(path: Path) -> set[int]:
    """Every line that some code object of the module maps bytecode to."""
    out, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        out.update(line for _, _, line in code.co_lines() if line)  # 0: a module's RESUME
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return out


def main() -> int:
    os.sched_getaffinity = lambda pid: {0}
    sys.path.insert(0, str(SRC))
    sys.settrace(_trace)
    from nsflab import cli

    with tempfile.TemporaryDirectory() as out:
        for argv in COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv + ["--out", out])
            print(f"exit {code}: nsflab {' '.join(argv)}")
    sys.settrace(None)
    for path in sorted((SRC / "nsflab").glob("*.py")):
        missed = sorted(statement_lines(path) - executed.get(str(path), set()))
        print(f"{path.name}: {len(missed)} lines not run" + (": " if missed else "")
              + ", ".join(map(str, missed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
