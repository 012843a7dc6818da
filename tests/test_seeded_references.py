"""The seeded fleet and serve reports are locked byte for byte.

Each case runs one ``repro`` command line in-process and compares what it
wrote with a committed reference under ``tests/fixtures/``.  A mismatch
fails with a unified diff of every file that moved.  A change that moves
these bytes on purpose regenerates the references by running the same
command lines with ``--out`` / ``--metrics-out`` pointed at the fixture
paths, and says which bytes moved and why.
"""

import difflib
from pathlib import Path

from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"

SERVE = [
    "serve", "--edges", "2", "--sessions", "10", "--requests", "2",
    "--rate", "48", "--seed", "5", "--kill", "edge-0@0.35:1.2",
]

#: (argv, {output flag: reference file name})
CASES = [
    (
        ["fleet", "--sessions", "10", "--requests", "2", "--seed", "5",
         "--kill", "edge-0@0.7:2.0"],
        {
            "--out": "fleet_seed5_kill_reference.md",
            "--metrics-out": "fleet_seed5_kill_reference.prom",
        },
    ),
    (SERVE, {"--out": "serve_seed5_kill_reference.md"}),
    (
        SERVE + ["--deadline", "0.2"],
        {"--out": "serve_seed5_kill_deadline_reference.md"},
    ),
]


def test_seeded_reports_match_the_committed_references(tmp_path, capsys):
    diffs = []
    for argv, outputs in CASES:
        written = {flag: tmp_path / name for flag, name in outputs.items()}
        extra = [part for flag, path in written.items() for part in (flag, str(path))]
        assert main(argv + extra) == 0, " ".join(argv)
        for flag, path in written.items():
            reference = FIXTURES / outputs[flag]
            expected = reference.read_text(encoding="utf-8")
            actual = path.read_text(encoding="utf-8")
            if actual != expected:
                diffs.extend(
                    difflib.unified_diff(
                        expected.splitlines(keepends=True),
                        actual.splitlines(keepends=True),
                        fromfile=f"tests/fixtures/{reference.name}",
                        tofile=" ".join(argv + [flag]),
                    )
                )
    capsys.readouterr()
    assert not diffs, "seeded reports moved:\n" + "".join(diffs)
