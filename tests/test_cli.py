import json
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

from taufact import cli, engine, quotient, verify
from taufact.cli import main
from taufact.engine import ElasticityReport

GOLDENS = Path(__file__).parent / "goldens"


@pytest.fixture
def runner():
    return CliRunner()


def run(runner, *args, env=None):
    return runner.invoke(main, list(args), env=env, catch_exceptions=False)


def test_reduce_text(runner):
    result = run(runner, "reduce", "--ideal", "2, x^2+x", "--elem", "x^3")
    assert result.exit_code == 0
    assert result.output.strip() == "x"


def test_reduce_json_record(runner):
    result = run(
        runner, "reduce", "--ring", "z", "--ideal", "3", "--elem", "-7",
        "--format", "json",
    )
    record = json.loads(result.output)
    assert record["command"] == "reduce"
    assert record["inputs"] == {"ring": "z", "ideal": "3", "elem": "-7"}
    assert record["result"] == {"residue": "2"}
    assert "timing_ms" in record


def test_classify_text_golden(runner):
    result = run(runner, "classify", "--ideal", "2, x^2+x")
    assert result.exit_code == 0
    assert result.output.splitlines()[0] == "iso_class: Z2X_X2PX"
    again = run(runner, "classify", "--ideal", "2, x^2+x")
    assert result.output == again.output  # byte-stable


def test_classify_tables_match_expected_cells(runner):
    expectations = {
        "2, x^2+1": {("x", "x"): "1", ("x+1", "x+1"): "0", ("x", "x+1"): "x+1"},
        "2, x^2+x+1": {("x", "x"): "x+1", ("x", "x+1"): "1", ("x+1", "x+1"): "x"},
        "2, x^2+x": {("x", "x"): "x", ("x", "x+1"): "0", ("x+1", "x+1"): "x+1"},
    }
    for ideal, cells in expectations.items():
        result = run(runner, "classify", "--ideal", ideal, "--format", "json")
        record = json.loads(result.output)
        reps = record["result"]["residues"]
        table = record["result"]["cayley"]
        for (a, b), want in cells.items():
            assert table[reps.index(a)][reps.index(b)] == want


def test_classify_z4_over_z(runner):
    result = run(runner, "classify", "--ring", "z", "--ideal", "4", "--format", "json")
    record = json.loads(result.output)
    assert record["result"]["iso_class"] == "Z4"


def test_elasticity_paper_examples(runner):
    result = run(
        runner, "elasticity", "--ring", "zx", "--ideal", "2, x^2+x",
        "--primes", "x:3, x+1:3", "--format", "json",
    )
    payload = json.loads(result.output)["result"]
    assert payload["elasticity"] == "3/2"
    assert payload["atomic_lengths"] == [2, 3]

    result = run(
        runner, "elasticity", "--ring", "z", "--ideal", "3",
        "--primes", "2:2, 5:1", "--format", "json",
    )
    payload = json.loads(result.output)["result"]
    assert payload["elasticity"] == "1/1"
    assert payload["atomic_lengths"] == [3]


def test_elasticity_not_prime_error(runner):
    result = run(
        runner, "elasticity", "--ring", "z", "--ideal", "3", "--primes", "4:1"
    )
    assert result.exit_code == 1
    payload = json.loads(result.output)
    assert payload["error"] == "not_prime"


def test_usage_error_exit_code(runner):
    result = runner.invoke(main, ["elasticity", "--ideal", "3"])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "args",
    [
        ("verify", "main", "--max-i", "0"),
        ("verify", "lemma3", "--samples", "0"),
        ("verify", "lemma3", "--samples", "-5"),
        ("sequence", "--max-i", "0"),
    ],
)
def test_empty_runs_are_usage_errors(runner, args):
    result = runner.invoke(main, list(args))
    assert result.exit_code == 2
    assert "pass=" not in result.output


def test_factorizations_listing(runner):
    result = run(
        runner, "factorizations", "--ring", "z", "--ideal", "3",
        "--primes", "2:2, 7:1", "--format", "json",
    )
    payload = json.loads(result.output)["result"]
    assert payload["count"] == 4
    lengths = [row["length"] for row in payload["factorizations"]]
    assert lengths == [1, 2, 2, 3]
    atomic_rows = [row for row in payload["factorizations"] if row["atomic"]]
    assert len(atomic_rows) == 1
    assert atomic_rows[0]["blocks"] == ["2", "2", "7"]
    assert atomic_rows[0]["lambda"] == -1
    assert atomic_rows[0]["signs"] == [1, 1, -1]
    by_blocks = {tuple(row["blocks"]): row for row in payload["factorizations"]}
    assert by_blocks[("4", "7")]["blocks_atomic"] == [False, True]
    assert by_blocks[("2", "14")]["blocks_atomic"] == [True, False]


def test_factorizations_builds_one_context(runner, monkeypatch):
    built = []

    class Counting(engine._Context):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(engine, "_Context", Counting)
    for fmt in ("text", "csv", "json"):
        built.clear()
        result = run(
            runner, "factorizations", "--ideal", "2, x^2+x", "--primes", "x:3, x+1:3",
            "--format", fmt,
        )
        assert result.exit_code == 0
        assert len(built) == 1


def test_factorizations_text_golden(runner):
    args = ("factorizations", "--ring", "z", "--ideal", "3", "--primes", "2:2, 7:1")
    first = run(runner, *args)
    second = run(runner, *args)
    assert first.output == second.output
    assert first.output.splitlines()[0] == "count: 4"
    assert "lambda=-1 length=3 blocks=[2, 2, 7] signs=[+,+,-] atomic=yes" in first.output


def test_sequence_csv_golden(runner):
    result = run(runner, "sequence", "--max-i", "4", "--format", "csv")
    assert result.output.splitlines() == [
        "i,min_len,max_len,elasticity",
        "1,1,1,1/1",
        "2,2,2,1/1",
        "3,2,3,3/2",
        "4,2,4,2/1",
    ]
    again = run(runner, "sequence", "--max-i", "4", "--format", "csv")
    assert result.output == again.output


def test_sequence_max_i_one(runner):
    result = run(runner, "sequence", "--max-i", "1", "--format", "csv")
    assert result.output.splitlines()[1:] == ["1,1,1,1/1"]


def test_sequence_json_same_values(runner):
    result = run(runner, "sequence", "--max-i", "4", "--format", "json")
    rows = json.loads(result.output)["result"]["rows"]
    assert rows[2] == {"i": 3, "min_len": 2, "max_len": 3, "elasticity": "3/2"}


def test_sequence_budget_error_for_large_i(runner):
    result = run(runner, "sequence", "--max-i", "8")
    assert result.exit_code == 1
    assert json.loads(result.output)["error"] == "budget_exceeded"


def test_verify_main(runner):
    result = run(runner, "verify", "main", "--max-i", "4")
    assert result.exit_code == 0
    assert "pass=True" in result.output.splitlines()[-1]


def test_verify_lemma_suite_small(runner):
    result = run(runner, "verify", "lemma3", "--samples", "25", "--seed", "7")
    assert result.exit_code == 0
    summary = result.output.splitlines()[-1]
    assert "failures=0" in summary and "pass=True" in summary


def test_verify_lemma4_reports_no_closed_form_cases(runner):
    result = run(
        runner, "verify", "lemma4", "--samples", "20", "--seed", "3",
        "--format", "json",
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)["result"]
    assert payload["pass"] is True and payload["failures"] == 0


def test_verify_hfd_z_small(runner, shared_survey):
    result = run(runner, "verify", "hfd-z-small")
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[-1] == "suite=hfd-z-small pass=True"
    for n in (1, 2, 3):
        assert any(f"n={n} max_elasticity=1/1" in line for line in lines)
    assert result.output == (GOLDENS / "verify_hfd_z_small.txt").read_text()


def _assert_suite_fails(runner, args):
    """Run a suite as text and as JSON; both must report the failure and
    exit 1.  Returns the text lines."""
    text = run(runner, *args)
    assert text.exit_code == 1
    lines = text.output.splitlines()
    assert any(line.startswith("FAIL ") for line in lines)
    assert lines[-1].endswith(" pass=False")
    record = run(runner, *args, "--format", "json")
    assert record.exit_code == 1
    assert json.loads(record.output)["result"]["pass"] is False
    assert '"pass": false' in record.output
    return lines


def test_verify_main_reports_a_failing_row(runner, monkeypatch):
    real = verify.elasticity

    def one_too_long(fe, ideal, budget):
        report = real(fe, ideal, budget)
        if fe.total_multiplicity == 6:  # i = 3
            return replace(report, max_len=report.max_len + 1)
        return report

    monkeypatch.setattr(verify, "elasticity", one_too_long)
    lines = _assert_suite_fails(runner, ("verify", "main", "--max-i", "4"))
    assert [line.split()[0] for line in lines[:-1]] == ["ok", "ok", "FAIL", "ok"]
    assert lines[2] == "FAIL i=3 min=2 max=4 elasticity=3/2"


def test_verify_hfd_z_small_reports_a_failing_modulus(runner, monkeypatch):
    def fake_oracle(fe, ideal, budget):
        # Elasticity 3/2 modulo 3 breaks that modulus's rule; 1 elsewhere.
        lengths = frozenset({2, 3} if ideal.modulus == 3 else {1})
        lo, hi = min(lengths), max(lengths)
        return ElasticityReport(True, lengths, lo, hi, Fraction(hi, lo), 1, 1)

    monkeypatch.setattr(verify, "elasticity", fake_oracle)
    lines = _assert_suite_fails(runner, ("verify", "hfd-z-small"))
    assert [line.split()[:2] for line in lines[:-1]] == [
        ["ok", "n=1"], ["ok", "n=2"], ["FAIL", "n=3"], ["ok", "n=12"], ["ok", "n=18"],
    ]


def test_verify_lemma_suite_reports_a_failing_case(runner, monkeypatch):
    real = verify.elasticity
    first = []

    def wrong_on_first_element(fe, ideal, budget):
        report = real(fe, ideal, budget)
        first.append(fe)
        if fe == first[0]:
            return replace(report, is_atomic=not report.is_atomic)
        return report

    monkeypatch.setattr(verify, "elasticity", wrong_on_first_element)
    lines = _assert_suite_fails(
        runner, ("verify", "lemma1", "--samples", "4", "--seed", "5")
    )
    assert lines[0].startswith("FAIL ") and lines[0].endswith(" atomicity mismatch")
    assert all(line.startswith("ok ") for line in lines[1:-1])
    assert lines[-1].startswith("suite=lemma1 cases=4 failures=1 ")


@pytest.mark.parametrize("suite,bound", [("lemma1", "-3"), ("lemma2", "0")])
def test_verify_without_witness_prime_is_an_error_object(runner, suite, bound):
    result = runner.invoke(main, ["verify", suite, "--samples", "3", "--bound", bound])
    assert result.exit_code == 1
    payload = json.loads(result.output)
    assert payload["error"] == "no_witness_prime"
    assert f"bound {bound}" in payload["detail"]


@pytest.mark.parametrize(
    "args",
    [
        ("verify", "lemma1", "--samples", "5"),
        ("verify", "main", "--max-i", "3"),
        ("elasticity", "--ring", "zx", "--ideal", "2, x^2+x", "--primes", "x:2, x+1:2"),
        ("factorizations", "--ring", "z", "--ideal", "3", "--primes", "2:2, 7:1"),
        ("sequence", "--max-i", "3"),
    ],
)
@pytest.mark.parametrize("budget", ["0", "-1"])
def test_budget_below_one_is_a_usage_error(runner, args, budget):
    result = runner.invoke(main, [*args, "--budget", budget])
    assert result.exit_code == 2
    assert "--budget" in result.output
    assert "pass=" not in result.output


def test_classify_builds_one_product_table(runner, monkeypatch):
    calls = {"cayley_table": 0, "residue_ops": 0}

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(cli, "cayley_table", counting("cayley_table", cli.cayley_table))
    monkeypatch.setattr(quotient, "residue_ops", counting("residue_ops", quotient.residue_ops))
    for ideal in ("3, x^2+1", "5, x^3+x+1"):
        calls.update(cayley_table=0, residue_ops=0)
        result = run(runner, "classify", "--ideal", ideal)
        assert result.exit_code == 0
        # The table is built by index arithmetic: no residue is multiplied.
        assert calls == {"cayley_table": 1, "residue_ops": 0}


def test_classify_refuses_a_table_over_the_cell_bound(runner, monkeypatch):
    def unreachable(*args):
        raise AssertionError("a residue was built over the cell bound")

    monkeypatch.setattr(quotient, "Residue", unreachable)
    # 2237 is the least order whose table exceeds the bound.
    assert 2236**2 <= quotient.MAX_TABLE_CELLS < 2237**2
    for ideal in ("2237", "7, x^6+1"):
        result = run(runner, "classify", "--ideal", ideal)
        assert result.exit_code == 1
        error = json.loads(result.output)
        assert error["error"] == "budget_exceeded"
        assert error["detail"].endswith("table cells exceed the budget of 5000000")


def test_round_trip_of_printed_forms(runner):
    result = run(
        runner, "elasticity", "--ring", "zx", "--ideal", "2, x^2+x",
        "--primes", "x+1:2, x:2", "--format", "json",
    )
    inputs = json.loads(result.output)["inputs"]
    again = run(
        runner, "elasticity", "--ring", inputs["ring"], "--ideal", inputs["ideal"],
        "--primes", inputs["primes"], "--format", "json",
    )
    assert json.loads(again.output)["inputs"] == inputs
    assert json.loads(again.output)["result"] == json.loads(result.output)["result"]


def test_registry_env_allows_quartic(runner, tmp_path):
    registry = tmp_path / "registry.txt"
    registry.write_text("# trusted quartics\nx^4+x+1\n")
    args = (
        "elasticity", "--ring", "zx", "--ideal", "2, x^2+x",
        "--primes", "x^4+x+1:1", "--format", "json",
    )
    denied = run(runner, *args)
    assert denied.exit_code == 1
    assert json.loads(denied.output)["error"] == "unsupported_degree"

    allowed = run(runner, *args, env={"TAUFACT_REGISTRY": str(registry)})
    assert allowed.exit_code == 0
    assert json.loads(allowed.output)["result"]["is_atomic"] is True
