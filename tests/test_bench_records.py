"""The committed benchmark records, ``BENCH_<pr>.json`` at the repository
root: each parses and carries an end-to-end block and a per-layer block,
both stamped as ``bench/run.py`` stamps a run."""
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
STAMP_KEYS = {"python", "cpu", "nproc", "git_commit", "seed"}


def test_records_exist():
    assert RECORDS, f"no BENCH_*.json under {ROOT}"


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_has_both_stamped_blocks(path):
    record = json.loads(path.read_text())
    for block in ("end_to_end", "layers"):
        assert block in record, f"{path.name} has no {block!r} block"
        stamp = record[block].get("stamp")
        assert isinstance(stamp, dict), f"{path.name}: {block} has no stamp"
        missing = STAMP_KEYS - set(stamp)
        assert not missing, f"{path.name}: the {block} stamp lacks {sorted(missing)}"
