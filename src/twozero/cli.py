"""Command-line interface.

Subcommands: analyze, weights, sums, verify, census.  Exit codes: 0 on
success, 1 on a check failure or engine disagreement, 2 on invalid
parameters or an unwritable --output, 3 on a refusal (over budget, no
closed form for the case, or a verify run whose every check was skipped).
Each cmd_* returns (status, text) and only main writes the text, to stdout
or --output, once the command has returned: a run that exits 2 or 3
writes nothing there, only its reasons to stderr.  Output is deterministic:
sorted rows, fixed key order, no timestamps, so repeated runs are
byte-identical.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys

from .codes import (
    ENGINES,
    build_code,
    code_header,
    code_report,
    engine_agreement,
    run_engine,
    weight_distribution_closed,
)
from .errors import InternalInconsistency, ParameterError, Refusal
from .expsums import (
    IdentityCheck,
    count_e1,
    count_e2,
    joint_class_census,
    s_census_direct,
    s_census_fast,
    s_distribution_closed,
    t_census_direct,
    t_census_fast,
    t_distribution_closed,
    verify_power_identities,
)
from .gf import build_field, check_modulus_index
from .quadforms import Case, classify_parameters, closed_rank_census, rank_census

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INVALID = 2
EXIT_REFUSED = 3


# The bytes.translate table from a coefficient below 10 to its decimal digit,
# and the decimal names of all byte values, so that joining them makes no str
# per coefficient.
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")
_NAMES = [str(c) for c in range(256)]


def _json_dumps(doc) -> str:
    import json  # here, so that a run that prints no JSON does not import it

    return json.dumps(doc, indent=2) + "\n"


def _header(params) -> dict:
    """The leading keys shared by the weights, sums and census documents."""
    return {
        "p": params.p,
        "m": params.m,
        "k": params.k,
        "d": params.d,
        "s": params.s,
        "case": params.case.value,
    }


def _distribution_document(params, engine: str, dist) -> dict:
    return {
        **_header(params),
        "n": params.n,
        "dimension": params.dimension,
        "engine": engine,
        "rows": [{"weight": w, "frequency": f} for w, f in dist.rows],
    }


def _format_weights(documents, agreement, fmt: str) -> str:
    if fmt == "json":
        return _json_dumps({"documents": documents, "agreement": agreement})
    if fmt == "csv":
        lines = ["weight,frequency"]
        lines += [f"{row['weight']},{row['frequency']}" for row in documents[0]["rows"]]
        return "\n".join(lines) + "\n"
    out = []
    for doc in documents:
        out.append(f"### engine: {doc['engine']} (case {doc['case']}, n={doc['n']})")
        out.append("")
        out.append("| Weight | Frequency |")
        out.append("| --- | --- |")
        out += [f"| {row['weight']} | {row['frequency']} |" for row in doc["rows"]]
        out.append("")
    return "\n".join(out)


def cmd_analyze(args) -> tuple[int, str]:
    code = build_code(args.p, args.m, args.k, modulus_index=args.modulus_index)
    params, generator = code.params, code.generator_coefficients
    if args.format == "json":
        return EXIT_OK, _json_dumps(code_header(code))
    lines = [
        f"parameters      p={params.p} m={params.m} k={params.k}",
        f"derived         d={params.d} s={params.s} q={params.q} q*={params.q_star}",
        f"case            {params.case.value}",
        f"code            [{code.n}, {code.dimension}] over GF({params.p})",
        f"h1              {code.h1}",
        f"h2              {code.h2}",
        f"generator       degree {len(generator) - 1}, coefficients "
        + (
            ",".join(map(_NAMES.__getitem__, generator))
            if params.p > 10
            else generator.translate(_DIGITS).decode("ascii")
        ),
    ]
    return EXIT_OK, "\n".join(lines) + "\n"


def cmd_weights(args) -> tuple[int, str | None]:
    engines = list(dict.fromkeys(e.strip() for e in args.engines.split(",") if e.strip()))
    if not engines:
        raise ParameterError("at least one engine must be selected")
    for engine in engines:
        if engine not in ENGINES:
            raise ParameterError(f"unknown engine {engine!r}; choose from {ENGINES}")
    if set(engines) == {"closed"}:  # the closed engine reads only the parameters
        params = classify_parameters(args.p, args.m, args.k)
        check_modulus_index(args.p, args.m, args.modulus_index)
        dists = {"closed": weight_distribution_closed(params)}
    else:
        code = build_code(args.p, args.m, args.k, modulus_index=args.modulus_index)
        params = code.params
        dists = {e: run_engine(code, e, budget=args.budget) for e in engines}
    documents = [_distribution_document(params, e, dists[e]) for e in engines]
    disagreements = [pair for pair, same in engine_agreement(dists).items() if not same]
    agreement = {"engines": engines, "all_equal": not disagreements}
    if disagreements:
        for e1, e2 in disagreements:
            d1, d2 = dists[e1].as_dict(), dists[e2].as_dict()
            diff = [
                f"  weight {w}: {e1}={d1.get(w, 0)} {e2}={d2.get(w, 0)}"
                for w in sorted(set(d1) | set(d2))
                if d1.get(w, 0) != d2.get(w, 0)
            ]
            print(f"engines {e1} and {e2} disagree:", file=sys.stderr)
            print("\n".join(diff), file=sys.stderr)
        return EXIT_MISMATCH, None
    return EXIT_OK, _format_weights(documents, agreement, args.format)


def _embedding_str(value) -> str:
    """Decimal embedding to 12 significant digits (display only)."""
    z = value.embedding()
    if z.imag == 0:
        return f"{z.real:.12g}"
    return f"{z.real:.12g}{z.imag:+.12g}j"


def _sum_rows_symbolic(dist) -> list[dict]:
    rows = []
    for value, freq in dist.rows:
        a, b = value.expanded()
        rows.append(
            {
                "value": {
                    "display": str(value),
                    "rational": a,
                    "irrational": b,
                    "sqrt_arg": value.q_star,
                    "embedding": _embedding_str(value),
                },
                "frequency": freq,
            }
        )
    return rows


def _sum_rows_cyclotomic(census: dict) -> list[dict]:
    items = sorted(census.items(), key=lambda kv: kv[0].coeffs)
    return [
        {"value": {"zeta_coefficients": list(v.coeffs)}, "frequency": f}
        for v, f in items
    ]


def cmd_sums(args) -> tuple[int, str]:
    params = classify_parameters(args.p, args.m, args.k)
    which, engine = args.sum, args.engine
    if engine == "closed":  # reads only the parameters
        check_modulus_index(args.p, args.m, args.modulus_index)
        dist = t_distribution_closed(params) if which == "T" else s_distribution_closed(params)
        rows = _sum_rows_symbolic(dist)
    else:
        field = build_field(args.p, args.m, modulus_index=args.modulus_index)
        if engine == "fast":
            fn = t_census_fast if which == "T" else s_census_fast
            rows = _sum_rows_symbolic(fn(field, params, budget=args.budget))
        else:
            fn = t_census_direct if which == "T" else s_census_direct
            rows = _sum_rows_cyclotomic(fn(field, params, budget=args.budget))
    doc = {**_header(params), "sum": which, "engine": engine, "rows": rows}
    if args.format == "json":
        return EXIT_OK, _json_dumps(doc)
    csv = args.format == "csv"
    lines = ["value,frequency"] if csv else ["| value | frequency |", "| --- | --- |"]
    for row in rows:
        val = row["value"].get("display") or str(row["value"]["zeta_coefficients"])
        freq = row["frequency"]
        lines.append(f"\"{val}\",{freq}" if csv else f"| {val} | {freq} |")
    return EXIT_OK, "\n".join(lines) + "\n"


def cmd_census(args) -> tuple[int, str]:
    params = classify_parameters(args.p, args.m, args.k)  # the census reads no code
    field = build_field(args.p, args.m, modulus_index=args.modulus_index)
    census = rank_census(field, params, budget=args.budget)
    closed = closed_rank_census(params)
    doc = {
        **_header(params),
        "pairs": params.pairs - 1,
        "census": {"n0": census.n0, "n1": census.n1, "n2": census.n2},
        "closed": {"n0": closed.n0, "n1": closed.n1, "n2": closed.n2},
        "match": census == closed,
    }
    status = EXIT_OK if doc["match"] else EXIT_MISMATCH
    if args.format == "json":
        return status, _json_dumps(doc)
    lines = [
        f"rank census for (p, m, k) = ({params.p}, {params.m}, {params.k})",
        f"  rank s   (n0): counted {census.n0}, closed {closed.n0}",
        f"  rank s-1 (n1): counted {census.n1}, closed {closed.n1}",
        f"  rank s-2 (n2): counted {census.n2}, closed {closed.n2}",
        f"  match: {doc['match']}",
    ]
    return status, "\n".join(lines) + "\n"


# -- verify ------------------------------------------------------------------


def _check_rank_census(code, args) -> list[tuple[str, bool, str]]:
    census = rank_census(code.field, code.params, budget=args.budget)
    closed = closed_rank_census(code.params)
    ok = census == closed
    return [
        (
            "rank-census",
            ok,
            f"counted (n0, n1, n2) = ({census.n0}, {census.n1}, {census.n2}), "
            f"closed ({closed.n0}, {closed.n1}, {closed.n2})",
        )
    ]


def _check_t_census(code, args) -> list[tuple[str, bool, str]]:
    dist = t_census_fast(code.field, code.params, budget=args.budget)
    closed = t_distribution_closed(code.params)
    ok = dist == closed
    return [("t-census", ok, f"{len(dist.rows)} distinct values over {dist.total} pairs")]


def _check_s_census(code, args) -> list[tuple[str, bool, str]]:
    dist = s_census_fast(code.field, code.params, budget=args.budget)
    closed = s_distribution_closed(code.params)
    ok = dist == closed
    return [("s-census", ok, f"{len(dist.rows)} distinct values over {dist.total} pairs")]


def _check_e1(code, args) -> list[tuple[str, bool, str]]:
    brute = count_e1(code.field, code.params, "brute", budget=args.budget)
    closed = count_e1(code.field, code.params, "closed")
    return [("e1", brute == closed, f"brute {brute}, closed {closed}")]


def _check_e2(code, args) -> list[tuple[str, bool, str]]:
    brute = count_e2(code.field, code.params, "brute", budget=args.budget)
    closed = count_e2(code.field, code.params, "closed")
    return [("e2", brute == closed, f"brute {brute}, closed {closed}")]


def _check_identities(code, args) -> list[tuple[str, bool, str]]:
    checks: list[IdentityCheck] = verify_power_identities(
        code.field, code.params, budget=args.budget
    )
    return [
        (f"identity: {c.name}", c.passed, f"lhs = {c.lhs}, rhs = {c.rhs}") for c in checks
    ]


def _check_max_rank(code, args) -> list[tuple[str, bool, str]]:
    if code.params.case is Case.ODD_S_OUT_OF_SCOPE:
        raise Refusal("the max-rank property applies to CaseA/CaseB only")
    joint = joint_class_census(code.field, code.params, budget=args.budget)
    s = code.params.s
    bad = sum(
        count for ((rf, _), (rg, _)), count in joint.items() if 0 < rf < s and 0 < rg < s
    )
    return [("max-rank", bad == 0, f"{bad} pairs have both ranks below s")]


def _check_example(code, args) -> list[tuple[str, bool, str]]:
    report = code_report(code, budget=args.budget)
    names = sorted(report["distributions"])
    if len(names) < 2:
        raise Refusal("fewer than two weight engines within budget")
    return [
        (
            "example",
            all(report["agreement"].values()),
            f"engines {'+'.join(names)} on {report['summary']}: "
            f"{len(report['distributions'][names[0]])} weight rows",
        )
    ]


CHECKS = {
    "rank-census": _check_rank_census,
    "t-census": _check_t_census,
    "s-census": _check_s_census,
    "e1": _check_e1,
    "e2": _check_e2,
    "identities": _check_identities,
    "max-rank": _check_max_rank,
    "example": _check_example,
}
CHECK_NAMES = tuple(CHECKS)


def cmd_verify(args) -> tuple[int, str]:
    if args.checks is not None:
        selected = list(dict.fromkeys(c.strip() for c in args.checks.split(",") if c.strip()))
        if not selected:
            raise ParameterError("at least one check must be selected")
        for name in selected:
            if name not in CHECKS:
                raise ParameterError(f"unknown check {name!r}; choose from {CHECK_NAMES}")
        explicit = True
    else:
        selected = list(CHECK_NAMES)
        explicit = False

    code = build_code(args.p, args.m, args.k, modulus_index=args.modulus_index)
    lines = []
    all_ok = True
    for name in selected:
        try:
            results = CHECKS[name](code, args)
        except Refusal as exc:
            if explicit:
                raise
            lines.append(f"SKIP {name}: {exc}")
            continue
        for label, ok, detail in results:
            all_ok &= ok
            lines.append(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    text = "\n".join(lines) + "\n"
    if all(line.startswith("SKIP ") for line in lines):
        print(text, end="", file=sys.stderr)
        raise Refusal("every check was skipped; nothing was verified")
    return (EXIT_OK if all_ok else EXIT_MISMATCH), text


# -- entry point ---------------------------------------------------------------


ALL_FORMATS = ("json", "csv", "markdown")


def _add_common(
    parser: argparse.ArgumentParser, formats: tuple[str, ...], default_format: str
) -> None:
    """Arguments shared by every subcommand; formats are the ones it can print."""
    parser.add_argument("p", type=int, help="odd prime")
    parser.add_argument("m", type=int, help="extension degree")
    parser.add_argument("k", type=int, help="exponent parameter")
    parser.add_argument(
        "--format", choices=formats, default=default_format,
        help=f"output format (default {default_format})",
    )
    parser.add_argument("--output", "-o", default=None, help="write to a file instead of stdout")
    parser.add_argument(
        "--workers", type=int, default=1,
        help="accepted for compatibility; everything runs in one process",
    )
    parser.add_argument(
        "--budget", type=int, default=None,
        help="enumeration budget override (engine-specific units)",
    )
    parser.add_argument(
        "--modulus-index", type=int, default=0,
        help="use the i-th smallest irreducible modulus (test hook)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twozero",
        description="Two-zero p-ary cyclic codes: construction, exponential sums, "
        "weight distributions by three independent engines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="derived parameters and code polynomials")
    _add_common(p_analyze, ("json", "markdown"), "markdown")
    p_analyze.set_defaults(func=cmd_analyze)

    p_weights = sub.add_parser("weights", help="weight distribution by chosen engines")
    _add_common(p_weights, ALL_FORMATS, "json")
    p_weights.add_argument(
        "--engines", default="closed",
        help="comma-separated subset of brute,sums,closed (default closed)",
    )
    p_weights.set_defaults(func=cmd_weights)

    p_sums = sub.add_parser("sums", help="value census of T or S")
    _add_common(p_sums, ALL_FORMATS, "json")
    p_sums.add_argument("--sum", choices=("T", "S"), default="S", help="which sum (default S)")
    p_sums.add_argument(
        "--engine", choices=("direct", "fast", "closed"), default="fast",
        help="census engine (default fast)",
    )
    p_sums.set_defaults(func=cmd_sums)

    p_verify = sub.add_parser("verify", help="consistency checks: censuses vs closed forms, counts, identities")
    _add_common(p_verify, ("markdown",), "markdown")
    p_verify.add_argument(
        "--checks", default=None,
        help=f"comma-separated subset of {','.join(CHECK_NAMES)} (default: all in budget)",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_census = sub.add_parser("census", help="exhaustive rank census vs closed forms")
    _add_common(p_census, ("json", "markdown"), "json")
    p_census.set_defaults(func=cmd_census)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    output = args.output
    try:
        if args.workers < 1:
            raise ParameterError("worker count must be at least 1")
        if args.budget is not None and args.budget < 0:
            raise ParameterError(f"budget must be nonnegative, got {args.budget}")
        if output:  # refuse an --output that cannot be opened before any work is done
            try:
                os.stat(os.path.join(os.path.dirname(output), "."))
                if os.path.isdir(output):
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            except OSError as exc:
                print(f"error: cannot write {output}: {exc.strerror}", file=sys.stderr)
                return EXIT_INVALID
        status, text = args.func(args)
    except ParameterError as exc:
        print(f"error: invalid parameters: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Refusal as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except InternalInconsistency as exc:
        raise SystemExit(f"internal inconsistency (this is a bug): {exc}")
    if text is not None and not output:
        sys.stdout.write(text)
    elif text is not None:
        try:
            with open(output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write {output}: {exc.strerror}", file=sys.stderr)
            return EXIT_INVALID
    return status


if __name__ == "__main__":
    sys.exit(main())
