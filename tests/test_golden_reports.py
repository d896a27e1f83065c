"""Byte-for-byte gate on the paper-size CLI reports.

Every entry of the benchmark's paper menu (perfbench/workloads.py MENU) is
run in process and the SHA-256 of the CSV it writes is compared with the
hash captured in perfbench/paper_sha256.json.  A change that moves a single
output byte of any report fails here.  The menu is read, and each report
run, by tools/menu_bytes.py, which makes the same check without pytest.
"""

import importlib.util
from pathlib import Path

import pytest


def _load_menu_bytes():
    path = Path(__file__).resolve().parent.parent / "tools" / "menu_bytes.py"
    spec = importlib.util.spec_from_file_location("menu_bytes", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MENU_BYTES = _load_menu_bytes()
MENU, HASHES = MENU_BYTES.load_menu()


@pytest.mark.parametrize("key", list(MENU), ids=list(MENU))
def test_report_bytes_match_captured_hash(key):
    assert MENU_BYTES.report_digest(MENU[key]) == (0, HASHES[key])
