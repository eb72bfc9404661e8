"""Regenerate the Table II golden corpus.

Runs ``table2`` at quick scale and seed 2016 on the **scalar** ECC
backend (the golden model) and records every detection rate -- both
burst interpretations, both codes, random and burst columns.  The
tier-1 test ``tests/unit/test_table2_golden.py`` replays the table
under *both* backends and requires every rate to match exactly.

Usage::

    PYTHONPATH=src python tools/gen_table2_golden.py

Rewrites ``tests/data/table2_golden.json`` in place.  Only run it
when an *intentional* behaviour change invalidates the corpus, and
say so in the commit message.
"""

import json
import pathlib
import sys

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

from repro.analysis import run_experiment  # noqa: E402

OUTPUT = (
    pathlib.Path(__file__).resolve().parent.parent
    / "tests"
    / "data"
    / "table2_golden.json"
)
SCALE = "quick"
SEED = 2016


def run_table2(backend):
    """The quick-scale ``table2`` report at the corpus seed."""
    return run_experiment("table2", scale=SCALE, seed=SEED, ecc_backend=backend)


def rates_of(report):
    """``{burst interpretation: {code: {column: [rate per error count]}}}``."""
    return {mode: report.data[mode].rates for mode in ("aligned", "contiguous")}


def main():
    """Run Table II on the scalar backend and write the corpus file."""
    OUTPUT.parent.mkdir(parents=True, exist_ok=True)
    OUTPUT.write_text(
        json.dumps(
            {
                "comment": (
                    "Quick-scale Table II rates at seed 2016; "
                    "regenerate with tools/gen_table2_golden.py"
                ),
                "scale": SCALE,
                "seed": SEED,
                "rates": rates_of(run_table2("scalar")),
            },
            indent=2,
        )
        + "\n"
    )
    print(f"wrote {OUTPUT}")


if __name__ == "__main__":
    main()
