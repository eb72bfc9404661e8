"""Golden-corpus regression test for Table II.

``tests/data/table2_golden.json`` records the quick-scale Table II
detection rates at seed 2016.  Both ECC backends evaluate one seeded
draw of sampled positions, so each must reproduce every recorded rate
exactly and print byte-identical tables.  Regenerate intentionally
with ``tools/gen_table2_golden.py``.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
CORPUS_PATH = REPO_ROOT / "tests" / "data" / "table2_golden.json"

_spec = importlib.util.spec_from_file_location(
    "gen_table2_golden", REPO_ROOT / "tools" / "gen_table2_golden.py"
)
gen_table2_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen_table2_golden)

CORPUS = json.loads(CORPUS_PATH.read_text())


@pytest.fixture(scope="module")
def reports():
    """The corpus' ``table2`` report under each ECC backend."""
    return {
        backend: gen_table2_golden.run_table2(backend)
        for backend in ("scalar", "batched")
    }


class TestTable2Golden:
    @pytest.mark.parametrize("backend", ["scalar", "batched"])
    def test_backend_reproduces_recorded_rates(self, reports, backend):
        assert gen_table2_golden.rates_of(reports[backend]) == CORPUS["rates"], (
            f"{backend} backend diverged from the recorded Table II; if the "
            "change is intentional, regenerate with tools/gen_table2_golden.py"
        )

    def test_report_text_byte_identical_across_backends(self, reports):
        assert reports["scalar"].text == reports["batched"].text
