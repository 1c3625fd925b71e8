"""Command-line front end.

Subcommands: reduce, classify, factorizations, elasticity, sequence,
verify.  One runner, ``_command``, registers each of them and adds its
``--format`` option.  A command body does the command's work and returns
``(inputs, result, text, csv, ok)``: the canonical inputs of the json run
record, three zero-argument functions that render the result payload's
JSON text (the bytes ``json.dumps`` writes), the text lines and the csv
lines, and the verdict.  The runner calls only the function that
``--format`` selects, so a run builds just the output it prints: text
(default), csv, or the json record on one line, each in one write; the
record echoes the command, library version and canonical inputs, with
``--budget`` where a command takes it, so it reruns from its inputs.
Timing covers the body and the rendering, and lives in a separate json
field and never inside result payloads, so text and csv output is
byte-stable across runs.

Exit status: 0 on success, 1 on domain errors (the runner prints a
machine-readable error object on stdout) and when a verdict fails, 2 on
usage errors.  The environment variable TAUFACT_REGISTRY may point to a
trusted prime registry file.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from dataclasses import fields
from fractions import Fraction
from math import prod

import click

from . import __version__
from .engine import DEFAULT_BUDGET, EnumerationBudget, elasticity, enumerate_tau_factorizations
from .errors import TaufactError, UnsupportedDegree
from .quotient import Ideal, cayley_table, classify, reduce
from .rings import Ring, build_factored, load_registry
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


def _command(name: str):
    """Register ``body`` as subcommand ``name`` with a trailing --format
    option, and print the one rendering of its result that --format selects:
    text, csv or the json record."""

    def register(body):
        @functools.wraps(body)
        def run(fmt, **kwargs):
            started = time.perf_counter()
            try:
                inputs, result, text, csv, ok = body(**kwargs)
            except TaufactError as exc:
                click.echo(json.dumps({"error": exc.code, "detail": str(exc)}))
                sys.exit(1)
            if fmt == "json":
                if "budget" in kwargs:
                    inputs = {**inputs, "budget": kwargs["budget"].max_primes}
                head = json.dumps({"command": name, "version": __version__, "inputs": inputs})
                payload = result()
                timing = round((time.perf_counter() - started) * 1000.0, 3)
                click.echo(f'{head[:-1]}, "result": {payload}, "timing_ms": {json.dumps(timing)}}}')
            else:
                click.echo("\n".join((csv if fmt == "csv" else text)()))
            if not ok:
                sys.exit(1)

        command = main.command(name)(run)
        command.params.append(
            click.Option(["--format", "fmt"], type=click.Choice(["json", "csv", "text"]), default="text")
        )
        return command

    return register


def _ideal(ring_opt, ideal_text) -> tuple[Ring, Ideal]:
    """The ambient ring (inferred from the ideal when not given) and the ideal."""
    if ring_opt:
        rng = Ring(ring_opt)
    else:
        rng = Ring.ZX if "," in ideal_text else Ring.Z
    return rng, parse_ideal(ideal_text, rng)


def _registry():
    path = os.environ.get("TAUFACT_REGISTRY")
    if path:
        return load_registry(path)
    return frozenset()


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


ring_option = click.option("--ring", type=click.Choice(["z", "zx"]), default=None, help="Ambient ring (inferred from the ideal when omitted).")
budget_option = click.option(
    "--budget", type=click.IntRange(min=1), default=DEFAULT_BUDGET.max_primes, show_default=True,
    help="Cap on total prime multiplicity.",
    callback=lambda ctx, param, value: EnumerationBudget(max_primes=value),
)


@_command("reduce")
@ring_option
@click.option("--ideal", "ideal_text", required=True)
@click.option("--elem", "elem_text", required=True)
def cmd_reduce(ring, ideal_text, elem_text):
    """Canonical residue of an element modulo an ideal."""
    rng, ideal = _ideal(ring, ideal_text)
    elem = parse_element(elem_text, rng)
    residue = str(reduce(elem, ideal))
    inputs = {"ring": rng.value, "ideal": str(ideal), "elem": str(elem)}
    return inputs, lambda: json.dumps({"residue": residue}), lambda: [residue], lambda: ["residue", residue], True


@_command("classify")
@ring_option
@click.option("--ideal", "ideal_text", required=True)
def cmd_classify(ring, ideal_text):
    """Fingerprint and isomorphism class of a finite quotient, with its
    multiplication table."""
    rng, ideal = _ideal(ring, ideal_text)
    table = cayley_table(ideal)
    fingerprint, iso_class = classify(table)
    reps = [str(r) for r in table.residues]
    inputs = {"ring": rng.value, "ideal": str(ideal)}
    counts = _record(fingerprint)

    def cayley():
        return [[reps[k] for k in row] for row in table.product]

    def text():
        # Each residue is padded once; a row joins the padded strings by index.
        width = max(map(len, reps)) + 2
        padded = [s.rjust(width) for s in reps]
        lines = [f"iso_class: {iso_class.value}", *(f"{key}: {value}" for key, value in counts.items())]
        return lines + ["cayley:", "*".rjust(width) + "".join(padded)] + [
            padded[i] + "".join([padded[k] for k in row]) for i, row in enumerate(table.product)
        ]

    def result():
        return json.dumps({"iso_class": iso_class.value, "fingerprint": counts, "residues": reps, "cayley": cayley()})

    def csv():
        return [",".join(["*", *reps])] + [",".join([rep, *row]) for rep, row in zip(reps, cayley())]

    return inputs, result, text, csv, True


def _parse_factored(ring, ideal_text, primes_text, unit):
    """The ideal and factored element of a listing command, plus the
    canonical inputs its JSON record echoes."""
    rng, ideal = _ideal(ring, ideal_text)
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
# How signs and atom flags print in text and CSV, and in JSON.
MARKS = ({1: "+", -1: "-"}, {True: "yes", False: "no"})
JSON_MARKS = ({1: "1", -1: "-1"}, {True: "true", False: "false"})


@_command("factorizations")
@ring_option
@click.option("--ideal", "ideal_text", required=True)
@click.option("--primes", "primes_text", required=True, help='Factored input, e.g. "x:3, x+1:3".')
@click.option("--unit", type=click.Choice(["1", "-1"]), default="1")
@budget_option
def cmd_factorizations(ring, ideal_text, primes_text, unit, budget):
    """Every tau-factorization of a factored element, with sign witnesses
    and per-block atom flags."""
    inputs, ideal, fe = _parse_factored(ring, ideal_text, primes_text, int(unit))
    listing = enumerate_tau_factorizations(fe, ideal, budget)
    names, atomic = [str(p) for p in listing.products], listing.atomic  # per distinct block

    def shown(names, marks, flags):
        """Per factorization: lambda, length, its blocks' names, signs and
        atom flags, and whether all are atoms, rendered by the given maps."""
        for row in listing.rows:
            signs, atoms = listing.signs(row), [atomic[k] for k in row]
            blocks = [names[k] for k in row]
            yield fe.unit * prod(signs), len(row), blocks, map(marks.get, signs), map(flags.get, atoms), flags[all(atoms)]

    def result():
        rows = ", ".join(
            f'{{"lambda": {lam}, "blocks": [{", ".join(blocks)}], "signs": [{", ".join(signs)}], "length": {n}, '
            f'"blocks_atomic": [{", ".join(flags)}], "atomic": {every}}}'
            for lam, n, blocks, signs, flags, every in shown(list(map(json.dumps, names)), *JSON_MARKS)
        )
        return f'{{"count": {len(listing)}, "factorizations": [{rows}]}}'

    def text():
        return [f"count: {len(listing)}"] + [
            f"lambda={lam:+d} length={n} blocks=[{', '.join(blocks)}] signs=[{','.join(signs)}] atomic={every}"
            for lam, n, blocks, signs, _, every in shown(names, *MARKS)
        ]

    def csv():
        return [",".join(FACTORIZATION_COLUMNS)] + [
            f"{lam},{n},{'|'.join(blocks)},{'|'.join(signs)},{every}" for lam, n, blocks, signs, _, every in shown(names, *MARKS)
        ]

    return inputs, result, text, csv, True


@_command("elasticity")
@ring_option
@click.option("--ideal", "ideal_text", required=True)
@click.option("--primes", "primes_text", required=True)
@click.option("--unit", type=click.Choice(["1", "-1"]), default="1")
@budget_option
def cmd_elasticity(ring, ideal_text, primes_text, unit, budget):
    """Exact tau-elasticity of a factored element."""
    inputs, ideal, fe = _parse_factored(ring, ideal_text, primes_text, int(unit))
    result = _record(elasticity(fe, ideal, budget))

    def text():
        return [f"{key}: {value}" for key, value in result.items()]

    return inputs, lambda: json.dumps(result), text, lambda: _csv([result], list(result)), True


SEQUENCE_COLUMNS = ("i", "min_len", "max_len", "elasticity")


@_command("sequence")
@click.option("--max-i", "max_i", type=click.IntRange(min=1), default=4, show_default=True)
@budget_option
def cmd_sequence(max_i, budget):
    """Oracle elasticity table for x^i (x+1)^i under (2, x^2+x)."""
    records = [_record(r) for r in run_main_sequence(max_i, budget)]
    inputs = {"max_i": max_i, "ideal": str(SUITE_IDEALS["lemma4"])}

    def result():
        return json.dumps({"rows": [{c: record[c] for c in SEQUENCE_COLUMNS} for record in records]})

    def lines():
        return _csv(records, SEQUENCE_COLUMNS)

    return inputs, result, lines, lines, True


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


@_command("verify")
@click.argument(
    "suite",
    type=click.Choice(["lemma1", "lemma2", "lemma3", "lemma4", "main", "hfd-z-small"]),
)
@click.option("--samples", type=click.IntRange(min=1), default=200, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--max-i", "max_i", type=click.IntRange(min=1), default=5, show_default=True)
@click.option("--bound", type=int, default=50, show_default=True, help="Witness-prime search bound.")
@budget_option
def cmd_verify(suite, samples, seed, max_i, bound, budget):
    """Predictor-versus-oracle verification suites.

    Exits nonzero if any case mismatches."""
    if suite == "main":
        rows = run_main_sequence(max_i, budget)
        inputs = {"suite": suite, "max_i": max_i}
        key, counts, tally = "rows", {}, {"rows": len(rows)}
        columns, describe = (*SEQUENCE_COLUMNS, "ok"), _describe_sequence_row
    elif suite == "hfd-z-small":
        rows = list(run_small_integer_survey(seed=seed, budget=budget).values())
        inputs = {"suite": suite, "seed": seed}
        key, counts, tally = "moduli", {}, {}
        columns = ("modulus", "max_elasticity", "elements", "censuses", "ok")
        describe = _describe_survey_row
    else:
        report = run_predictor_suite(suite, samples=samples, seed=seed, budget=budget, bound=bound)
        rows = report.cases
        inputs = {"suite": suite, "samples": samples, "seed": seed, "bound": bound}
        failures = {"failures": report.failures, "no_closed_form": report.no_closed_form}
        key, counts = "cases", {"checked": report.checked, **failures}
        tally = {"cases": report.checked, **failures}
        columns, describe = ("census", "ok", "predicted", "oracle"), _describe_case
    ok = all(r.ok for r in rows)
    records = [_record(r) for r in rows]
    # main and hfd-z-small list their rows before "pass"; a predictor suite
    # prints its counts before "pass" and lists its cases after it.
    before, after = (counts, {key: records}) if counts else ({key: records}, {})

    def text():
        lines = [f"{'ok' if r['ok'] else 'FAIL'} {describe(r)}" for r in records]
        summary = [f"suite={suite}", *(f"{k}={v}" for k, v in tally.items()), f"pass={ok}"]
        return lines + [" ".join(summary)]

    return inputs, lambda: json.dumps({**before, "pass": ok, **after}), text, lambda: _csv(records, columns), ok


if __name__ == "__main__":
    main()
