"""Byte-for-byte gate on the paper-size CLI reports.

Every entry of the benchmark's paper menu (perfbench/workloads.py MENU) is
run in process and the SHA-256 of the CSV it writes is compared with the
hash captured in perfbench/paper_sha256.json.  A change that moves a single
output byte of any report fails here.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

import fibfourier.cli as cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()
HASHES = json.loads((PERFBENCH / "paper_sha256.json").read_text())


@pytest.mark.parametrize("argv", WORKLOADS.MENU, ids=WORKLOADS.menu_key)
def test_report_bytes_match_captured_hash(argv, tmp_path):
    out = tmp_path / "report.csv"
    assert cli.main(argv + ["--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == HASHES[WORKLOADS.menu_key(argv)]
