"""Record the SHA-256 of every paper-menu report into paper_sha256.json.

Run from the repository root as ``PYTHONPATH=src python3 perfbench/capture_paper.py``.
The paper workload fails any op whose CSV bytes differ from these hashes,
so capture again only when a change means to alter report bytes.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from workloads import HASHES, MENU, menu_key, run_report, take_report


def main() -> int:
    hashes = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=HASHES.parent.parent) as tmp:
        out = Path(tmp) / "report.csv"
        for argv in MENU:
            code = run_report(argv, out)
            if code != 0:
                print(f"{menu_key(argv)}: exit code {code}", file=sys.stderr)
                return 1
            hashes[menu_key(argv)] = hashlib.sha256(take_report(out)).hexdigest()
    HASHES.write_text(json.dumps(hashes, indent=1) + "\n")
    print(f"wrote {len(hashes)} hashes to {HASHES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
