"""Library jobs: work a user does through the Python API, not the CLI.

    python perfbench/libjob.py s-census-fast P M K [--modulus-index I]

``s-census-fast`` builds the S census pair by pair with ``s_fast`` and
compares it with ``s_distribution_closed``. It prints the census and the
verdict, and exits 0 on a match and 1 otherwise, like ``twozero verify``.
"""

from __future__ import annotations

import argparse
import sys


def s_census_fast_by_pair(p: int, m: int, k: int, modulus_index: int) -> int:
    from twozero import build_field, classify_parameters, s_distribution_closed, s_fast
    from twozero.expsums import ValueDistribution

    params = classify_parameters(p, m, k)
    field = build_field(p, m, modulus_index=modulus_index)
    census = ValueDistribution.from_pairs(
        (s_fast(field, params, alpha, beta), 1)
        for alpha in range(field.order)
        for beta in range(field.order)
    )
    match = census == s_distribution_closed(params)
    for value, freq in census:
        print(f"{value} {freq}")
    print(f"match: {match}")
    return 0 if match else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="libjob")
    parser.add_argument("job", choices=["s-census-fast"])
    parser.add_argument("p", type=int)
    parser.add_argument("m", type=int)
    parser.add_argument("k", type=int)
    parser.add_argument("--modulus-index", type=int, default=0)
    args = parser.parse_args(argv)
    return s_census_fast_by_pair(args.p, args.m, args.k, args.modulus_index)


if __name__ == "__main__":
    sys.exit(main())
