"""The seeded fleet and serve reports and three figure reports are
locked byte for byte.

Each case runs one ``repro`` command line in-process and compares what it
wrote — files, or its standard output — with a committed reference under
``tests/fixtures/``.  A mismatch fails with a unified diff of every
output that moved.  A change that moves these bytes on purpose
regenerates the references by running the same command lines with
``--out`` / ``--metrics-out`` pointed at the fixture paths (standard
output redirected to its fixture), and says which bytes moved and why.
The ``fig8`` case runs a front half at every split point it sweeps.
"""

import difflib
from pathlib import Path

from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"

SERVE = [
    "serve", "--edges", "2", "--sessions", "10", "--requests", "2",
    "--rate", "48", "--seed", "5", "--kill", "edge-0@0.35:1.2",
]

#: (argv, {output flag, or STDOUT: reference file name})
STDOUT = None

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
    (["fig7", "--models", "googlenet"], {STDOUT: "fig7_googlenet_reference.txt"}),
    (
        ["fig8", "--models", "googlenet", "--max-points", "8"],
        {STDOUT: "fig8_googlenet_8points_reference.txt"},
    ),
    (
        ["fig-accuracy", "--models", "smallnet_exits"],
        {STDOUT: "fig_accuracy_smallnet_exits_reference.txt"},
    ),
]


def test_seeded_reports_match_the_committed_references(tmp_path, capsys):
    diffs = []
    for argv, outputs in CASES:
        written = {
            flag: tmp_path / name for flag, name in outputs.items()
            if flag is not STDOUT
        }
        extra = [part for flag, path in written.items() for part in (flag, str(path))]
        capsys.readouterr()
        assert main(argv + extra) == 0, " ".join(argv)
        stdout = capsys.readouterr().out
        for flag, name in outputs.items():
            reference = FIXTURES / name
            expected = reference.read_text(encoding="utf-8")
            if flag is STDOUT:
                actual = stdout
            else:
                actual = written[flag].read_text(encoding="utf-8")
            if actual != expected:
                diffs.extend(
                    difflib.unified_diff(
                        expected.splitlines(keepends=True),
                        actual.splitlines(keepends=True),
                        fromfile=f"tests/fixtures/{reference.name}",
                        tofile=" ".join(argv + [flag or "(stdout)"]),
                    )
                )
    assert not diffs, "seeded reports moved:\n" + "".join(diffs)
