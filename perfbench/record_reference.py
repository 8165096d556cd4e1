"""Record the ``compare`` workload's reference bsld values.

Runs one matrix pass per input seed and writes every cell's per-sequence
bsld to ``reference/compare_bsld.json``.  Run from the root of a checkout
when a change to the library is *meant* to change scheduling results, and
say so in the change::

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workload_compare as wc  # noqa: E402


def main() -> int:
    seeds = {}
    for seed in range(wc.REFERENCE_SEEDS):
        seeds[str(seed)] = wc.matrix_pass(wc.set_up(seed))
        print(f"input seed {seed} recorded", file=sys.stderr)
    doc = {
        "schedulers": list(wc.SCHEDULERS),
        "scenarios": list(wc.SCENARIOS),
        "backfill": list(wc.BACKFILL),
        "n_sequences": wc.N_SEQUENCES,
        "sequence_length": wc.LENGTH,
        "seeds": seeds,
    }
    wc.REFERENCE.parent.mkdir(exist_ok=True)
    with open(wc.REFERENCE, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
