import json

import pytest
from click.testing import CliRunner

from taufact.cli import main
from taufact.errors import ParseError
from taufact.poly import Poly
from taufact.rings import Element, load_registry, verify_prime


def test_registry_cannot_override_decidable_primality():
    x2m1 = Poly((-1, 0, 1))  # (x-1)(x+1)
    imprimitive_quartic = Poly((2, 2, 0, 0, 2))
    registry = frozenset({x2m1, imprimitive_quartic})
    assert not verify_prime(Element.polynomial(x2m1), registry)
    assert not verify_prime(Element.polynomial(imprimitive_quartic), registry)


def run_elasticity(primes, registry_text, tmp_path, registry_path=None):
    registry = tmp_path / "registry.txt"
    registry.write_text(registry_text)
    return CliRunner().invoke(
        main,
        ["elasticity", "--ideal", "2, x^2+x", "--primes", primes, "--format", "json"],
        env={"TAUFACT_REGISTRY": registry_path or str(registry)},
        catch_exceptions=False,
    )


def test_cli_registry_cannot_make_reducible_prime(tmp_path):
    result = run_elasticity("x^2-1:1, x:2", "x^2-1\n", tmp_path)
    assert result.exit_code == 1
    assert json.loads(result.output)["error"] == "not_prime"


def test_cli_rejects_registry_with_decidable_entry(tmp_path):
    result = run_elasticity("x^4+x+1:1, x:2", "x^4+x+1\nx^2-1\n", tmp_path)
    assert result.exit_code == 1
    error = json.loads(result.output)
    assert error["error"] == "parse_error" and "line 2" in error["detail"]


@pytest.mark.parametrize("content", [None, b"\xff\xfex^4+x+1\n"], ids=["missing", "not-utf8"])
def test_cli_reports_unreadable_registry_as_parse_error(tmp_path, content):
    path = tmp_path / "unreadable.txt"
    if content is not None:
        path.write_bytes(content)
    result = run_elasticity("x^4+x+1:1, x:2", "", tmp_path, registry_path=str(path))
    assert result.exit_code == 1
    error = json.loads(result.output)
    assert error["error"] == "parse_error" and str(path) in error["detail"]


def test_cli_names_the_line_of_a_malformed_entry(tmp_path):
    result = run_elasticity("x^4+x+1:1, x:2", "# trusted\nx^4+x+1\nx^4+\n", tmp_path)
    assert result.exit_code == 1
    error = json.loads(result.output)
    assert error["error"] == "parse_error" and "line 3" in error["detail"]
    assert "x^4+" in error["detail"]


@pytest.mark.parametrize("entry", ["x^2-1", "x^3+x+1", "7", "2*x^4+2", "-2*x^5-4*x+6"])
def test_load_registry_rejects_decidable_entries(tmp_path, entry):
    path = tmp_path / "registry.txt"
    path.write_text(f"# trusted\nx^4+x+1\n\n{entry}\n")
    with pytest.raises(ParseError, match="line 4"):
        load_registry(str(path))


def test_load_registry_accepts_primitive_quartics(tmp_path):
    path = tmp_path / "registry.txt"
    path.write_text("# trusted\nx^4+x+1\n-x^5-x-1\n")
    assert load_registry(str(path)) == {Poly((1, 1, 0, 0, 1)), Poly((1, 1, 0, 0, 0, 1))}
