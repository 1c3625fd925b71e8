"""Byte-exact CLI goldens.

Each case runs one CLI command in process and compares its output with
``tests/goldens/<name>.txt`` byte for byte.  A ``json`` case keeps only the
run record's ``result`` (``timing_ms`` varies between runs), written as
``json.dumps(result, indent=2)`` plus a newline; the record itself must be
the bytes ``json.dumps`` writes for it.

The files are regenerated only by hand, and only when a change of output
is intended.  ``taufact`` below stands for the installed script or for
``PYTHONPATH=src python3 -m taufact.cli``.  For a text or CSV case::

    taufact <args> > tests/goldens/<name>.txt

and for a JSON case::

    taufact <args> --format json | python3 -c \\
        'import json,sys; print(json.dumps(json.load(sys.stdin)["result"], indent=2))' \\
        > tests/goldens/<name>.txt
"""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from taufact.cli import main

GOLDENS = Path(__file__).parent / "goldens"
SRC = Path(__file__).resolve().parent.parent / "src"

FACT_Z3 = ("factorizations", "--ring", "z", "--ideal", "3", "--primes", "2:2, 5:1, 7:1")
FACT_X2PX = (
    "factorizations", "--ideal", "2, x^2+x", "--primes", "x:3, x+1:3", "--unit", "-1",
)
FACT_Z4 = ("factorizations", "--ring", "z", "--ideal", "4", "--primes", "2:2, 3:2, 5:1")
# Repeated, quadratic and cubic primes: blocks recur across factorizations.
FACT_3_X2P1 = (
    "factorizations", "--ideal", "3, x^2+1", "--primes", "x:2, x+1:2, x^2+x+1:1, x^3+x+1:1",
)
ELAST_X2PX = ("elasticity", "--ideal", "2, x^2+x", "--primes", "x:3, x+1:3")
LEMMA4 = ("verify", "lemma4", "--samples", "40", "--seed", "11")
SEQUENCE = ("sequence", "--max-i", "7")
MAIN = ("verify", "main", "--max-i", "7")
MAIN_30 = ("verify", "main", "--max-i", "30", "--budget", "60")
HFD = ("verify", "hfd-z-small")
CLASSIFY = {
    "x2px": ("classify", "--ideal", "2, x^2+x"),
    "3_x2p1": ("classify", "--ideal", "3, x^2+1"),
    "z6": ("classify", "--ring", "z", "--ideal", "6"),
}

# name -> (format, CLI arguments without --format)
CASES = {
    "factorizations_z3": ("text", FACT_Z3),
    "factorizations_z3_csv": ("csv", FACT_Z3),
    "factorizations_z3_json": ("json", FACT_Z3),
    "factorizations_x2px_unit": ("text", FACT_X2PX),
    "factorizations_x2px_unit_csv": ("csv", FACT_X2PX),
    "factorizations_x2px_unit_json": ("json", FACT_X2PX),
    "factorizations_z4": ("text", FACT_Z4),
    "factorizations_z4_csv": ("csv", FACT_Z4),
    "factorizations_z4_json": ("json", FACT_Z4),
    "factorizations_3_x2p1": ("text", FACT_3_X2P1),
    "factorizations_3_x2p1_csv": ("csv", FACT_3_X2P1),
    "factorizations_3_x2p1_json": ("json", FACT_3_X2P1),
    "elasticity_x2px": ("text", ELAST_X2PX),
    "elasticity_x2px_csv": ("csv", ELAST_X2PX),
    "elasticity_x2px_json": ("json", ELAST_X2PX),
    "sequence_7": ("text", SEQUENCE),
    "sequence_7_csv": ("csv", SEQUENCE),
    "sequence_7_json": ("json", SEQUENCE),
    "verify_main_7": ("text", MAIN),
    "verify_main_7_csv": ("csv", MAIN),
    "verify_main_7_json": ("json", MAIN),
    "verify_main_30": ("text", MAIN_30),
    "verify_lemma4": ("text", LEMMA4),
    "verify_lemma4_csv": ("csv", LEMMA4),
    "verify_lemma4_json": ("json", LEMMA4),
    # The text run of hfd-z-small is compared in test_cli.test_verify_hfd_z_small;
    # all three formats render one shared survey (see conftest.shared_survey).
    "verify_hfd_z_small_csv": ("csv", HFD),
    "verify_hfd_z_small_json": ("json", HFD),
    **{
        f"classify_{name}{suffix}": (fmt, args)
        for name, args in CLASSIFY.items()
        for fmt, suffix in (("text", ""), ("csv", "_csv"), ("json", "_json"))
    },
    # The largest orders of the benchmark's classify plan: the field of
    # order 125, and an order-64 ring with zero divisors and nilpotents.
    "classify_125_csv": ("csv", ("classify", "--ideal", "5, x^3-3*x^2-x+2")),
    "classify_64_zd": ("text", ("classify", "--ideal", "4, x^3-3*x^2-4*x")),
}


def render(fmt, args):
    """Output of one case, as it is stored in its golden file."""
    result = CliRunner().invoke(main, [*args, "--format", fmt], catch_exceptions=False)
    assert result.exit_code == 0, result.output
    if fmt != "json":
        return result.output
    record = json.loads(result.output)
    assert json.dumps(record) + "\n" == result.output  # the bytes json.dumps writes
    return json.dumps(record["result"], indent=2) + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, shared_survey):
    fmt, args = CASES[name]
    expected = (GOLDENS / f"{name}.txt").read_text()
    assert render(fmt, args) == expected


@pytest.mark.parametrize("path", sorted(GOLDENS.glob("*_csv.txt")), ids=lambda p: p.stem)
def test_csv_golden_rows_are_as_wide_as_the_header(path):
    header, *rows = csv.reader(path.read_text().splitlines())
    assert rows and [len(row) for row in rows] == [len(header)] * len(rows)


def test_goldens_do_not_depend_on_the_hash_seed():
    """Sign classes are keyed on frozensets of residues, and sets of values
    that hash strings (a ``Residue`` hashes its ring's name) iterate in an
    order that follows the per-process hash seed; the output must not.
    Each command runs in a fresh interpreter under two seeds, all six at
    once."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    runs = {
        (seed, name): subprocess.Popen(
            [sys.executable, "-m", "taufact.cli", *CASES[name][1], "--format", CASES[name][0]],
            stdout=subprocess.PIPE,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
        )
        for seed in ("0", "12345")
        for name in ("factorizations_x2px_unit", "elasticity_x2px", "verify_main_7")
    }
    for (seed, name), proc in runs.items():
        out = proc.communicate(timeout=60)[0]
        assert proc.returncode == 0, (seed, name)
        assert out == (GOLDENS / f"{name}.txt").read_bytes(), (seed, name)
