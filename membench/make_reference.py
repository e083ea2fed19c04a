"""Regenerate ``reference.json``: every figures cell on the scalar engine.

    python3 membench/make_reference.py

The stored results are what a ``figures`` run with the default seed must
reproduce on the default (batched) engine, cell for cell and bit for bit.
Regenerate only when the simulated model itself changes on purpose.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import figures  # noqa: E402
from run import DEFAULT_SEED  # noqa: E402


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        inputs = figures.Inputs(workdir, DEFAULT_SEED)
        reference = {
            figures.cell_key(preset, app):
                figures.scalar_cell(inputs, preset, app)
            for app in inputs.apps()
            for preset in figures.FIG4 + figures.FIG9
        }
    path = os.path.join(HERE, "reference.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(reference)} cells to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
