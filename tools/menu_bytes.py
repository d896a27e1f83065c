"""Check the paper-menu CSV bytes against their captured SHA-256.

Every entry of the benchmark's paper menu (perfbench/workloads.py MENU) is
run in process through fibfourier.cli.main, and the SHA-256 of the CSV it
writes is compared with perfbench/paper_sha256.json.  Neither file is
changed.  Only the standard library is used, so the check runs on any
installed interpreter, with or without pytest; from the repository root:

    PYTHONPATH=src python3 tools/menu_bytes.py

The menu is run twice in one process, in menu order and then in reverse,
so that any state one report leaves for a later one (the CLI keeps its
parser between calls) shows up as a mismatch.  It prints one line per entry
and pass whose bytes differ (or whose run fails) and exits 1 if there is
any, else prints how many entries matched and exits 0.
tests/test_golden_reports.py reads the menu through this module.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import platform
import sys
import tempfile
from pathlib import Path

import fibfourier.cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_menu() -> tuple[dict[str, list[str]], dict[str, str]]:
    """The menu's argument lists by their key in paper_sha256.json, in menu
    order, and the captured hashes."""
    workloads = _workloads()
    menu = {workloads.menu_key(argv): argv for argv in workloads.MENU}
    return menu, json.loads((PERFBENCH / "paper_sha256.json").read_text())


def report_digest(argv: list[str]) -> tuple[int, str]:
    """The exit code of one in-process report and the SHA-256 of its CSV."""
    with tempfile.TemporaryDirectory(prefix="menu-bytes-") as tmp:
        out = Path(tmp) / "report.csv"
        code = fibfourier.cli.main(argv + ["--out", str(out)])
        data = out.read_bytes() if out.exists() else b""
    return code, hashlib.sha256(data).hexdigest()


def main() -> int:
    menu, hashes = load_menu()
    passes = {"in order": list(menu), "reversed": list(reversed(menu))}
    bad = []
    for name, keys in passes.items():
        for key in keys:
            code, digest = report_digest(menu[key])
            if code != 0:
                bad.append(f"{key} ({name}): exit code {code}")
            elif digest != hashes.get(key):
                bad.append(f"{key} ({name}): CSV bytes differ from the captured SHA-256")
    version = f"Python {platform.python_version()}"
    runs = len(passes) * len(menu)
    for line in bad:
        print(line)
    if bad:
        print(f"{len(bad)} of {runs} menu runs differ ({version})")
        return 1
    print(
        f"all {len(menu)} menu entries match their captured SHA-256, in order "
        f"and reversed ({version})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
