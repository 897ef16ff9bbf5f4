"""Golden reports: every committed CLI report comes out again byte for byte,
apart from elapsed_ms.  A change that alters a report on purpose rewrites
the files with `PYTHONPATH=src python tests/golden/regen.py`."""

import json

import pytest

from golden.regen import GOLDEN_DIR, run

FILES = sorted(GOLDEN_DIR.glob("*.jsonl"))


def test_corpus_stays_small():
    assert FILES and sum(path.stat().st_size for path in FILES) < 10**6


@pytest.mark.parametrize("path", FILES, ids=[path.stem for path in FILES])
def test_reports_match_the_golden_lines(path):
    for line in path.read_text().splitlines():
        case = json.loads(line)
        assert json.dumps(run(case["argv"], case["guard"])) == line, case["argv"]
