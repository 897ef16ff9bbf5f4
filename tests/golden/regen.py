"""Golden CLI reports: rerun every case and rewrite its report.

Each leaf subcommand (`classify`, `verify-progr`, ...) has one JSONL file
here.  A line holds the argv (without `--format`), the ULTRADIV_GUARD
value or null, the exit code, and the report with `elapsed_ms` removed:
"json" is the parsed `--format json` line, "text" the `--format text`
lines.  An argparse usage error prints no report, so both are null.

    PYTHONPATH=src python tests/golden/regen.py

reruns the argv and guard of every line and rewrites the rest of it; a
new case is a line that holds only "argv" and "guard".  It prints the
argv and guard of every line it changes, and per file the number of
cases and of changed lines.  tests/test_golden.py reruns every line and
compares byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

from ultradiv.cli import main
from ultradiv.guards import ENV_VAR

GOLDEN_DIR = Path(__file__).resolve().parent


def _call(argv: list[str], fmt: str) -> tuple[int, str | None]:
    """Exit code and stdout of one in-process call; None when argparse
    exits before a report is built."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main([*argv, "--format", fmt])
        except SystemExit as exc:
            return exc.code, None
    return code, out.getvalue()


def _strip_json(raw: str) -> dict:
    """The report without elapsed_ms.  The printed line must be exactly
    the compact dump of its parse, so equal parses mean equal bytes."""
    head, sep, tail = raw.rstrip("\n").rpartition(',"elapsed_ms":')
    assert sep and tail.endswith("}") and float(tail[:-1]) >= 0, raw
    report = json.loads(head + "}")
    assert json.dumps(report, separators=(",", ":")) == head + "}", raw
    return report


def _strip_text(raw: str) -> str:
    lines = raw.rstrip("\n").split("\n")
    assert lines[-1].startswith("elapsed_ms: "), raw
    return "\n".join(lines[:-1])


def run(argv: list[str], guard: str | None) -> dict:
    """The golden line of argv under ULTRADIV_GUARD=guard (None: unset)."""
    saved = os.environ.pop(ENV_VAR, None)
    if guard is not None:
        os.environ[ENV_VAR] = guard
    try:
        code, raw_json = _call(argv, "json")
        text_code, raw_text = _call(argv, "text")
    finally:
        os.environ.pop(ENV_VAR, None)
        if saved is not None:
            os.environ[ENV_VAR] = saved
    assert code == text_code, argv
    return {"argv": argv, "guard": guard, "exit": code,
            "json": raw_json and _strip_json(raw_json),
            "text": raw_text and _strip_text(raw_text)}


if __name__ == "__main__":
    for path in sorted(GOLDEN_DIR.glob("*.jsonl")):
        lines = path.read_text().splitlines()
        cases = [json.loads(line) for line in lines]
        fresh = [json.dumps(run(case["argv"], case["guard"])) for case in cases]
        changed = [case for case, old, new in zip(cases, lines, fresh) if old != new]
        for case in changed:
            print(f"      changed  {json.dumps(case['argv'])}  guard={case['guard']}")
        path.write_text("".join(line + "\n" for line in fresh))
        print(f"{len(cases):4d} {len(changed):4d}  {path.name}")
