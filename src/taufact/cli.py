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
from fractions import Fraction

import click

from . import __version__
from .engine import (
    EnumerationBudget,
    elasticity,
    enumerate_tau_factorizations,
    is_tau_atom,
)
from .errors import TaufactError, UnsupportedDegree
from .quotient import cayley_table, classify, reduce
from .rings import Ring, build_factored, expand, load_registry
from .syntax import parse_element, parse_ideal, parse_primes_spec, render_ideal, render_primes_spec
from .verify import (
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


def _frac(f: Fraction | None) -> str | None:
    if f is None:
        return None
    return f"{f.numerator}/{f.denominator}"


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
budget_option = click.option("--budget", type=int, default=14, show_default=True, help="Cap on total prime multiplicity.")


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
    inputs = {"ring": rng.value, "ideal": render_ideal(ideal), "elem": str(elem)}
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
        fingerprint, iso_class = classify(ideal)
        table = cayley_table(ideal)
    except TaufactError as exc:
        _fail(exc)
    reps = [str(r) for r in table.residues]
    rows = [[str(table.entry(i, j)) for j in range(len(reps))] for i in range(len(reps))]
    inputs = {"ring": rng.value, "ideal": render_ideal(ideal)}
    result = {
        "iso_class": iso_class.value,
        "fingerprint": {
            "size": fingerprint.size,
            "characteristic": fingerprint.characteristic,
            "nilpotent_count": fingerprint.nilpotent_count,
            "idempotent_count": fingerprint.idempotent_count,
            "unit_count": fingerprint.unit_count,
        },
        "residues": reps,
        "cayley": rows,
    }
    width = max(len(s) for s in reps + ["*"]) + 2
    text = [
        f"iso_class: {iso_class.value}",
        f"size: {fingerprint.size}",
        f"characteristic: {fingerprint.characteristic}",
        f"nilpotent_count: {fingerprint.nilpotent_count}",
        f"idempotent_count: {fingerprint.idempotent_count}",
        f"unit_count: {fingerprint.unit_count}",
        "cayley:",
        "".join(s.rjust(width) for s in ["*"] + reps),
    ]
    for rep, row in zip(reps, rows):
        text.append("".join(s.rjust(width) for s in [rep] + row))
    csv_lines = [",".join(["*"] + reps)]
    csv_lines += [",".join([rep] + row) for rep, row in zip(reps, rows)]
    _emit("classify", inputs, result, fmt, text, csv_lines, started)


def _parse_factored(ring, ideal_text, primes_text, unit):
    rng = _ring(ring, ideal_text)
    ideal = parse_ideal(ideal_text, rng)
    parts = parse_primes_spec(primes_text, rng)
    try:
        fe = build_factored(rng, unit, parts)
    except UnsupportedDegree:
        # The registry is read only when the built-in test cannot decide a prime.
        fe = build_factored(rng, unit, parts, _registry())
    return rng, ideal, fe


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
        rng, ideal, fe = _parse_factored(ring, ideal_text, primes_text, int(unit))
        budget_obj = _budget(budget)
        factorizations = enumerate_tau_factorizations(fe, ideal, budget_obj)
        atoms: dict = {}  # blocks recur across factorizations
        payload = []
        for tf in factorizations:
            for block in tf.blocks:
                if block not in atoms:
                    atoms[block] = is_tau_atom(block, ideal, budget_obj)
            flags = [atoms[block] for block in tf.blocks]
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
    inputs = {
        "ring": rng.value,
        "ideal": render_ideal(ideal),
        "primes": render_primes_spec(fe.factors),
        "unit": fe.unit,
    }
    result = {"count": len(payload), "factorizations": payload}
    text = [f"count: {len(payload)}"]
    csv_lines = ["lambda,length,blocks,signs,atomic"]
    for row in payload:
        blocks = ", ".join(row["blocks"])
        signs = ",".join("+" if s > 0 else "-" for s in row["signs"])
        atomic = "yes" if row["atomic"] else "no"
        text.append(
            f"lambda={row['lambda']:+d} length={row['length']} "
            f"blocks=[{blocks}] signs=[{signs}] atomic={atomic}"
        )
        csv_lines.append(
            f"{row['lambda']},{row['length']},{'|'.join(row['blocks'])},{signs},{atomic}"
        )
    _emit("factorizations", inputs, result, fmt, text, csv_lines, started)


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
        rng, ideal, fe = _parse_factored(ring, ideal_text, primes_text, int(unit))
        report = elasticity(fe, ideal, _budget(budget))
    except TaufactError as exc:
        _fail(exc)
    inputs = {
        "ring": rng.value,
        "ideal": render_ideal(ideal),
        "primes": render_primes_spec(fe.factors),
        "unit": fe.unit,
    }
    result = {
        "is_atomic": report.is_atomic,
        "atomic_lengths": sorted(report.atomic_lengths),
        "min_len": report.min_len,
        "max_len": report.max_len,
        "elasticity": _frac(report.elasticity),
        "factorization_count": report.factorization_count,
        "atomic_count": report.atomic_count,
    }
    text = [f"{key}: {value}" for key, value in result.items()]
    header = ",".join(result)
    row = ",".join(
        "|".join(str(v) for v in value) if isinstance(value, list) else str(value)
        for value in result.values()
    )
    _emit("elasticity", inputs, result, fmt, text, [header, row], started)


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
    inputs = {"max_i": max_i, "ideal": render_ideal(SUITE_IDEALS["lemma4"])}
    result = {
        "rows": [
            {
                "i": r.i,
                "min_len": r.min_len,
                "max_len": r.max_len,
                "elasticity": _frac(r.elasticity),
            }
            for r in rows
        ]
    }
    csv_lines = ["i,min_len,max_len,elasticity"]
    csv_lines += [f"{r.i},{r.min_len},{r.max_len},{_frac(r.elasticity)}" for r in rows]
    text = csv_lines
    _emit("sequence", inputs, result, fmt, text, csv_lines, started)


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
            ok = all(r.ok for r in rows)
            inputs = {"suite": suite, "max_i": max_i}
            result = {
                "rows": [
                    {
                        "i": r.i,
                        "min_len": r.min_len,
                        "max_len": r.max_len,
                        "elasticity": _frac(r.elasticity),
                        "ok": r.ok,
                    }
                    for r in rows
                ],
                "pass": ok,
            }
            text = [
                f"{'ok' if r.ok else 'FAIL'} i={r.i} min={r.min_len} "
                f"max={r.max_len} elasticity={_frac(r.elasticity)}"
                for r in rows
            ]
            text.append(f"suite=main rows={len(rows)} pass={ok}")
            csv_lines = ["i,min_len,max_len,elasticity,ok"]
            csv_lines += [
                f"{r.i},{r.min_len},{r.max_len},{_frac(r.elasticity)},{r.ok}"
                for r in rows
            ]
        elif suite == "hfd-z-small":
            survey = run_small_integer_survey(seed=seed, budget=budget_obj)
            ok = True
            rows = []
            for modulus, res in survey.items():
                expected_max = Fraction(1) if modulus in (1, 2, 3) else Fraction(2)
                mod_ok = (
                    res.crosscheck_failures == 0
                    and res.max_elasticity is not None
                    and res.max_elasticity <= expected_max
                )
                if modulus in (1, 2, 3):
                    mod_ok = mod_ok and res.max_elasticity == 1
                ok = ok and mod_ok
                rows.append((modulus, res, mod_ok))
            inputs = {"suite": suite}
            result = {
                "moduli": [
                    {
                        "modulus": modulus,
                        "elements": res.elements,
                        "censuses": res.censuses,
                        "atomic_elements": res.atomic_elements,
                        "non_atomic_elements": res.non_atomic_elements,
                        "max_elasticity": _frac(res.max_elasticity),
                        "max_witness": res.max_witness,
                        "attained_two": res.attained_two,
                        "crosschecked": res.crosschecked,
                        "crosscheck_failures": res.crosscheck_failures,
                        "ok": mod_ok,
                    }
                    for modulus, res, mod_ok in rows
                ],
                "pass": ok,
            }
            text = []
            for modulus, res, mod_ok in rows:
                attained = (
                    f" elasticity 2 attained e.g. {res.attained_two[0]}"
                    if res.attained_two
                    else " elasticity 2 not attained on this corpus"
                    if modulus in (12, 18)
                    else ""
                )
                text.append(
                    f"{'ok' if mod_ok else 'FAIL'} n={modulus} "
                    f"max_elasticity={_frac(res.max_elasticity)} "
                    f"({res.elements} elements, {res.censuses} censuses, "
                    f"{res.crosschecked} cross-checked){attained}"
                )
            text.append(f"suite=hfd-z-small pass={ok}")
            csv_lines = ["modulus,max_elasticity,elements,censuses,ok"]
            csv_lines += [
                f"{modulus},{_frac(res.max_elasticity)},{res.elements},{res.censuses},{mod_ok}"
                for modulus, res, mod_ok in rows
            ]
        else:
            report = run_predictor_suite(
                suite, samples=samples, seed=seed, budget=budget_obj, bound=bound
            )
            ok = report.ok
            inputs = {"suite": suite, "samples": samples, "seed": seed, "bound": bound}
            result = {
                "checked": report.checked,
                "failures": report.failures,
                "no_closed_form": report.no_closed_form,
                "pass": ok,
                "cases": [
                    {
                        "element": c.element,
                        "census": list(c.census),
                        "predicted": c.predicted,
                        "oracle": c.oracle,
                        "ok": c.ok,
                        "detail": c.detail,
                    }
                    for c in report.cases
                ],
            }
            text = [
                f"{'ok' if c.ok else 'FAIL'} census={c.census} predicted[{c.predicted}] "
                f"oracle[{c.oracle}]{' ' + c.detail if c.detail else ''}"
                for c in report.cases
            ]
            text.append(
                f"suite={suite} cases={report.checked} failures={report.failures} "
                f"no_closed_form={report.no_closed_form} pass={ok}"
            )
            csv_lines = ["census,ok,predicted,oracle"]
            csv_lines += [
                f"{'|'.join(map(str, c.census))},{c.ok},"
                f"{c.predicted.replace(', ', '|')},{c.oracle.replace(', ', '|')}"
                for c in report.cases
            ]
    except TaufactError as exc:
        _fail(exc)
    _emit("verify", inputs, result, fmt, text, csv_lines, started)
    if not ok:
        sys.exit(1)


if __name__ == "__main__":
    main()
