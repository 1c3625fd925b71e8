"""The benchmark's naive check of the listing workload, run as a test.

``bench/worker.py --naive 1`` re-checks each ``listing`` case: it parses
the printed factorizations, rebuilds each as a ``TauFactorization`` for
``assert_factorization_sound`` and compares the set with the naive
oracle's.  The worker counts a case whose check raises as failed instead
of stopping, so a failure shows only in its record's ``failed`` count.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_listing_workload_passes_the_naive_check():
    run = subprocess.run(
        [sys.executable, "bench/worker.py", "--workload", "listing", "--seed", "1", "--naive", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
    )
    record = json.loads(run.stdout.splitlines()[-1])
    assert record["attempted"] > 0
    assert (record["failed"], record["problems"]) == (0, [])
