"""Rewrite tests/data/table_cli_sha256.json from the code as it stands.

Run from the repository root after a change that moves CLI bytes on purpose:

    PYTHONPATH=src python tests/regen_cli_digests.py

It runs every command line of test_cli._golden_commands, writes their
digests, and prints each command line whose entry changed, was added or was
dropped.  Check that list against the change before committing the file.
pytest never runs this script: its name does not match test_*.py.
"""

from __future__ import annotations

import json
import pathlib
import tempfile

from test_cli import GOLDEN, cli_digests  # this script's directory is first on sys.path


def main() -> None:
    old = json.loads(GOLDEN.read_text())
    with tempfile.TemporaryDirectory() as workdir:
        new = cli_digests(pathlib.Path(workdir))
    GOLDEN.write_text(json.dumps(new, indent=2) + "\n")
    for line in [*new, *(line for line in old if line not in new)]:
        if line not in old:
            print(f"added    {line}")
        elif line not in new:
            print(f"dropped  {line}")
        elif old[line] != new[line]:
            print(f"changed  {line}")


if __name__ == "__main__":
    main()
