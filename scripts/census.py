"""Reachability census: which functions in ``src/repro`` no entry point runs.

Runs every entry point below in one process under ``sys.setprofile``, then
prints each function defined in ``src/repro`` that none of them called,
grouped by module, with the line count it spans.  Stdlib only; the runs
write into a temporary directory.  Takes a few minutes (the full campaign
dominates)::

    python scripts/census.py
"""

import ast
import collections
import contextlib
import io
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

#: ``repro`` CLI argv lists, and example scripts (a first item ending in
#: ``.py``); ``{tmp}`` is the run's temporary directory
ENTRY_POINTS = [
    ["campaign", "--out", "{tmp}/report.md"],
    ["fig1"],
    ["fig-accuracy"],
    ["demo"],
    ["metrics"],
    ["metrics", "--format", "json"],
    ["fleet"],
    ["fleet", "--sessions", "400", "--requests", "3", "--seed", "1",
     "--kill", "edge-0@1.5:4.0"],
    ["fleet", "--tenants", "smallnet:2", "smallnet:3", "--prewarm"],
    ["fleet", "--edge-memory-budget", "139500", "--tenants", "smallnet:2",
     "smallnet:3"],
    ["serve", "--seed", "1", "--kill", "edge-0@1.0:3.0"],
    *[["ablation", study] for study in (
        "bandwidth", "partition", "decision", "snapshot", "gpu", "cache",
        "contention", "baselines", "placement", "streaming",
    )],
    *[[f"examples/{name}.py"] for name in (
        "image_recognition_app", "mobile_handover", "multi_client_edge",
        "partition_explorer", "privacy_partial_inference", "quickstart",
        "video_stream",
    )],
    ["examples/model_files_workflow.py", "{tmp}/model-files"],
]


def defined_functions():
    """``(path, first line) -> (module, qualname, lines)`` for every def."""
    functions = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    # a code object starts at its first decorator
                    first = min([child.lineno] + [
                        decorator.lineno for decorator in child.decorator_list
                    ])
                    lines = child.end_lineno - first + 1
                    functions[(str(path), first)] = (
                        module, prefix + child.name, lines
                    )
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")

        visit(ast.parse(path.read_text(), str(path)), "")
    return functions


def reached_code():
    """``(path, first line)`` of every code object the entry points call."""
    sys.path.insert(0, str(PACKAGE.parent))
    from repro.cli import main as cli_main

    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    with tempfile.TemporaryDirectory() as tmp:
        for entry in ENTRY_POINTS:
            argv = [item.replace("{tmp}", tmp) for item in entry]
            sink = io.StringIO()
            sys.setprofile(profile)
            try:
                with contextlib.redirect_stdout(sink), \
                        contextlib.redirect_stderr(sink):
                    if argv[0].endswith(".py"):
                        sys.argv = [str(ROOT / argv[0])] + argv[1:]
                        runpy.run_path(sys.argv[0], run_name="__main__")
                    else:
                        cli_main(argv)
            finally:
                sys.setprofile(None)
            print(f"ran {' '.join(entry)}", file=sys.stderr)
    return {
        (str(Path(code.co_filename).resolve()), code.co_firstlineno)
        for code in called
    }


def main():
    functions = defined_functions()
    reached = reached_code()
    missed = collections.defaultdict(list)
    for key, (module, name, lines) in functions.items():
        if key not in reached:
            missed[module].append((key[1], name, lines))
    for module in sorted(missed):
        entries = missed[module]
        print(f"{module}: {len(entries)} functions, "
              f"{sum(lines for _, _, lines in entries)} lines")
        for line, name, lines in sorted(entries):
            print(f"  {name} (line {line}, {lines} lines)")
    count = sum(len(entries) for entries in missed.values())
    span = sum(lines for entries in missed.values() for _, _, lines in entries)
    print(f"reached {len(functions) - count} of {len(functions)} functions; "
          f"the {count} missed span {span} lines")


if __name__ == "__main__":
    main()
