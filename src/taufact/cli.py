"""Command-line front end.

Subcommands: reduce, classify, factorizations, elasticity, sequence,
verify.  Results print as text (default), csv, or a json run record that
echoes the command, library version, and canonical input forms; timing
lives in a separate json field and never inside result payloads, so text
and csv output is byte-stable across runs.

Exit status: 0 on success, 1 on domain errors (with a machine-readable
error object on stdout), 2 on usage errors.  The environment variable
TAUFACT_REGISTRY may point to a trusted prime registry file.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import fields
from fractions import Fraction

import click

from . import __version__
from .engine import EnumerationBudget, atom_test, elasticity, enumerate_tau_factorizations
from .errors import TaufactError, UnsupportedDegree
from .quotient import cayley_table, classify, reduce
from .rings import Ring, build_factored, expand, load_registry
from .syntax import parse_element, parse_ideal, parse_primes_spec, render_primes_spec
from .verify import (
    HALF_FACTORIAL_MODULI,
    SUITE_IDEALS,
    run_main_sequence,
    run_predictor_suite,
    run_small_integer_survey,
)


@click.group()
@click.version_option(version=__version__)
def main():
    """Exact tau-factorization toolkit for Z and Z[x] modulo an ideal."""


def _ring(ring_opt, ideal_text) -> Ring:
    if ring_opt:
        return Ring(ring_opt)
    return Ring.ZX if "," in ideal_text else Ring.Z


def _registry():
    path = os.environ.get("TAUFACT_REGISTRY")
    if path:
        return load_registry(path)
    return frozenset()


def _budget(max_primes: int) -> EnumerationBudget:
    return EnumerationBudget(max_primes=max_primes)


def _plain(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, frozenset):
        return sorted(value)
    return value


def _record(result) -> dict:
    """A result dataclass as the JSON object it prints as: its fields in
    order, a Fraction as "p/q", a frozenset as a sorted list."""
    return {f.name: _plain(getattr(result, f.name)) for f in fields(result)}


def _cell(value) -> str:
    """One CSV cell: a list joins its items with "|", and so does a ", "
    inside text, so no cell holds a comma."""
    if isinstance(value, (list, tuple)):
        return "|".join(map(str, value))
    return str(value).replace(", ", "|")


def _csv(records, columns) -> list[str]:
    """Header plus one line per record, cells in column order."""
    return [",".join(columns)] + [",".join(_cell(r[c]) for c in columns) for r in records]


def _emit(command: str, inputs: dict, result: dict, fmt: str, text_lines, csv_lines, started: float):
    if fmt == "json":
        record = {
            "command": command,
            "version": __version__,
            "inputs": inputs,
            "result": result,
            "timing_ms": round((time.perf_counter() - started) * 1000.0, 3),
        }
        click.echo(json.dumps(record, indent=2))
    elif fmt == "csv":
        for line in csv_lines:
            click.echo(line)
    else:
        for line in text_lines:
            click.echo(line)


def _fail(exc: TaufactError):
    click.echo(json.dumps({"error": exc.code, "detail": str(exc)}))
    sys.exit(1)


ring_option = click.option("--ring", type=click.Choice(["z", "zx"]), default=None, help="Ambient ring (inferred from the ideal when omitted).")
format_option = click.option("--format", "fmt", type=click.Choice(["json", "csv", "text"]), default="text")
budget_option = click.option("--budget", type=click.IntRange(min=1), default=14, show_default=True, help="Cap on total prime multiplicity.")


@main.command("reduce")
@ring_option
@click.option("--ideal", "ideal_text", required=True)
@click.option("--elem", "elem_text", required=True)
@format_option
def cmd_reduce(ring, ideal_text, elem_text, fmt):
    """Canonical residue of an element modulo an ideal."""
    started = time.perf_counter()
    try:
        rng = _ring(ring, ideal_text)
        ideal = parse_ideal(ideal_text, rng)
        elem = parse_element(elem_text, rng)
        residue = reduce(elem, ideal)
    except TaufactError as exc:
        _fail(exc)
    inputs = {"ring": rng.value, "ideal": str(ideal), "elem": str(elem)}
    result = {"residue": str(residue)}
    _emit("reduce", inputs, result, fmt, [str(residue)], ["residue", str(residue)], started)


@main.command("classify")
@ring_option
@click.option("--ideal", "ideal_text", required=True)
@format_option
def cmd_classify(ring, ideal_text, fmt):
    """Fingerprint and isomorphism class of a finite quotient, with its
    multiplication table."""
    started = time.perf_counter()
    try:
        rng = _ring(ring, ideal_text)
        ideal = parse_ideal(ideal_text, rng)
        table = cayley_table(ideal)
        fingerprint, iso_class = classify(table)
    except TaufactError as exc:
        _fail(exc)
    reps = [str(r) for r in table.residues]
    rows = [[reps[k] for k in row] for row in table.product]
    inputs = {"ring": rng.value, "ideal": str(ideal)}
    counts = _record(fingerprint)
    result = {"iso_class": iso_class.value, "fingerprint": counts, "residues": reps, "cayley": rows}
    grid = [["*", *reps]] + [[rep, *row] for rep, row in zip(reps, rows)]
    width = max(len(s) for s in grid[0]) + 2
    text = [f"iso_class: {iso_class.value}", *(f"{key}: {value}" for key, value in counts.items())]
    text += ["cayley:", *("".join(s.rjust(width) for s in line) for line in grid)]
    _emit("classify", inputs, result, fmt, text, [",".join(line) for line in grid], started)


def _parse_factored(ring, ideal_text, primes_text, unit):
    """The ideal and factored element of a listing command, plus the
    canonical inputs its JSON record echoes."""
    rng = _ring(ring, ideal_text)
    ideal = parse_ideal(ideal_text, rng)
    parts = parse_primes_spec(primes_text, rng)
    try:
        fe = build_factored(rng, unit, parts)
    except UnsupportedDegree:
        # The registry is read only when the built-in test cannot decide a prime.
        fe = build_factored(rng, unit, parts, _registry())
    inputs = {
        "ring": rng.value,
        "ideal": str(ideal),
        "primes": render_primes_spec(fe.factors),
        "unit": fe.unit,
    }
    return inputs, ideal, fe


FACTORIZATION_COLUMNS = ("lambda", "length", "blocks", "signs", "atomic")


@main.command("factorizations")
@ring_option
@click.option("--ideal", "ideal_text", required=True)
@click.option("--primes", "primes_text", required=True, help='Factored input, e.g. "x:3, x+1:3".')
@click.option("--unit", type=click.Choice(["1", "-1"]), default="1")
@budget_option
@format_option
def cmd_factorizations(ring, ideal_text, primes_text, unit, budget, fmt):
    """Every tau-factorization of a factored element, with sign witnesses
    and per-block atom flags."""
    started = time.perf_counter()
    try:
        inputs, ideal, fe = _parse_factored(ring, ideal_text, primes_text, int(unit))
        budget_obj = _budget(budget)
        factorizations = enumerate_tau_factorizations(fe, ideal, budget_obj)
        is_atom = atom_test(fe, ideal, budget_obj)
        payload = []
        for tf in factorizations:
            flags = [is_atom(block) for block in tf.blocks]
            payload.append(
                {
                    "lambda": tf.lam,
                    "blocks": [str(expand(b)) for b in tf.blocks],
                    "signs": list(tf.signs),
                    "length": tf.length,
                    "blocks_atomic": flags,
                    "atomic": all(flags),
                }
            )
    except TaufactError as exc:
        _fail(exc)
    result = {"count": len(payload), "factorizations": payload}
    # Text and CSV show signs as +/- and the atomic flag as yes/no.
    shown = [
        {**row, "signs": ["+" if s > 0 else "-" for s in row["signs"]],
         "atomic": "yes" if row["atomic"] else "no"}
        for row in payload
    ]
    text = [f"count: {len(payload)}"] + [
        f"lambda={r['lambda']:+d} length={r['length']} blocks=[{', '.join(r['blocks'])}] "
        f"signs=[{','.join(r['signs'])}] atomic={r['atomic']}"
        for r in shown
    ]
    _emit("factorizations", inputs, result, fmt, text, _csv(shown, FACTORIZATION_COLUMNS), started)


@main.command("elasticity")
@ring_option
@click.option("--ideal", "ideal_text", required=True)
@click.option("--primes", "primes_text", required=True)
@click.option("--unit", type=click.Choice(["1", "-1"]), default="1")
@budget_option
@format_option
def cmd_elasticity(ring, ideal_text, primes_text, unit, budget, fmt):
    """Exact tau-elasticity of a factored element."""
    started = time.perf_counter()
    try:
        inputs, ideal, fe = _parse_factored(ring, ideal_text, primes_text, int(unit))
        report = elasticity(fe, ideal, _budget(budget))
    except TaufactError as exc:
        _fail(exc)
    result = _record(report)
    text = [f"{key}: {value}" for key, value in result.items()]
    _emit("elasticity", inputs, result, fmt, text, _csv([result], list(result)), started)


SEQUENCE_COLUMNS = ("i", "min_len", "max_len", "elasticity")


@main.command("sequence")
@click.option("--max-i", "max_i", type=click.IntRange(min=1), default=4, show_default=True)
@budget_option
@format_option
def cmd_sequence(max_i, budget, fmt):
    """Oracle elasticity table for x^i (x+1)^i under (2, x^2+x)."""
    started = time.perf_counter()
    try:
        rows = run_main_sequence(max_i, _budget(budget))
    except TaufactError as exc:
        _fail(exc)
    inputs = {"max_i": max_i, "ideal": str(SUITE_IDEALS["lemma4"])}
    records = [_record(r) for r in rows]
    result = {"rows": [{c: record[c] for c in SEQUENCE_COLUMNS} for record in records]}
    lines = _csv(records, SEQUENCE_COLUMNS)
    _emit("sequence", inputs, result, fmt, lines, lines, started)


def _describe_sequence_row(r: dict) -> str:
    return f"i={r['i']} min={r['min_len']} max={r['max_len']} elasticity={r['elasticity']}"


def _describe_survey_row(r: dict) -> str:
    if r["attained_two"]:
        attained = f" elasticity 2 attained e.g. {r['attained_two'][0]}"
    elif r["modulus"] not in HALF_FACTORIAL_MODULI:
        attained = " elasticity 2 not attained on this corpus"
    else:
        attained = ""
    return (
        f"n={r['modulus']} max_elasticity={r['max_elasticity']} ({r['elements']} elements, "
        f"{r['censuses']} censuses, {r['crosschecked']} cross-checked){attained}"
    )


def _describe_case(c: dict) -> str:
    detail = f" {c['detail']}" if c["detail"] else ""
    return f"census={c['census']} predicted[{c['predicted']}] oracle[{c['oracle']}]{detail}"


@main.command("verify")
@click.argument(
    "suite",
    type=click.Choice(["lemma1", "lemma2", "lemma3", "lemma4", "main", "hfd-z-small"]),
)
@click.option("--samples", type=click.IntRange(min=1), default=200, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--max-i", "max_i", type=click.IntRange(min=1), default=5, show_default=True)
@click.option("--bound", type=int, default=50, show_default=True, help="Witness-prime search bound.")
@budget_option
@format_option
def cmd_verify(suite, samples, seed, max_i, bound, budget, fmt):
    """Predictor-versus-oracle verification suites.

    Exits nonzero if any case mismatches."""
    started = time.perf_counter()
    budget_obj = _budget(budget)
    try:
        if suite == "main":
            rows = run_main_sequence(max_i, budget_obj)
            inputs = {"suite": suite, "max_i": max_i}
            key, counts, tally = "rows", {}, {"rows": len(rows)}
            columns, describe = (*SEQUENCE_COLUMNS, "ok"), _describe_sequence_row
        elif suite == "hfd-z-small":
            rows = list(run_small_integer_survey(seed=seed, budget=budget_obj).values())
            inputs = {"suite": suite}
            key, counts, tally = "moduli", {}, {}
            columns = ("modulus", "max_elasticity", "elements", "censuses", "ok")
            describe = _describe_survey_row
        else:
            report = run_predictor_suite(
                suite, samples=samples, seed=seed, budget=budget_obj, bound=bound
            )
            rows = report.cases
            inputs = {"suite": suite, "samples": samples, "seed": seed, "bound": bound}
            failures = {"failures": report.failures, "no_closed_form": report.no_closed_form}
            key, counts = "cases", {"checked": report.checked, **failures}
            tally = {"cases": report.checked, **failures}
            columns, describe = ("census", "ok", "predicted", "oracle"), _describe_case
    except TaufactError as exc:
        _fail(exc)
    ok = all(r.ok for r in rows)
    records = [_record(r) for r in rows]
    # main and hfd-z-small list their rows before "pass"; a predictor suite
    # prints its counts before "pass" and lists its cases after it.
    before, after = (counts, {key: records}) if counts else ({key: records}, {})
    result = {**before, "pass": ok, **after}
    text = [f"{'ok' if r['ok'] else 'FAIL'} {describe(r)}" for r in records]
    text.append(" ".join([f"suite={suite}", *(f"{k}={v}" for k, v in tally.items()), f"pass={ok}"]))
    _emit("verify", inputs, result, fmt, text, _csv(records, columns), started)
    if not ok:
        sys.exit(1)


if __name__ == "__main__":
    main()
