"""Batch command-line front end: law suites, the decimal repair demo, and
finite-instance inspection.

Output on stdout is deterministic given identical flags and seed: verify
emits one JSON line per law (wall time goes to stderr only), repair and
spaces emit a single JSON document.  Exit codes: 0 all passed, 1 a law or
search failed (with a counterexample payload) or stdout was closed early,
2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .bases import embed_point
from .kernel import EncodingError
from .laws import LAWS, run_law_suite
from .oracle import (MAX_EXHAUSTIVE, SchemaError, bits, decode_finite,
                     finite_point, finite_presubbase, is_T0, load_json,
                     space_from_json, specialization, subbase_from_json,
                     tau_K)
from .sierpinski import DEFAULT_FUEL

# The largest --max-size at which these laws finish: at size 4 each of them
# ran past a minute (hyper-ops-vs-oracle takes close to a minute at size 3);
# the other laws finish within seconds up to MAX_EXHAUSTIVE.
SIZE_CEILING = {"hyper-ops-vs-oracle": 3, "presubbase-representation": 3,
                "figure1-chain": 3}
# The most --bits repair accepts: each printed delta has a denominator of
# about 0.51 decimal digits per bit, and the interpreter refuses to print
# an integer past 4300 digits, which happens from about 8400 bits.
MAX_REPAIR_BITS = 8000


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="synthtop",
        description="synthetic computable-topology kernel: verification "
                    "suites and the exact-real repair demo")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run law suites against the finite oracle")
    v.add_argument("--laws", default="all",
                   help="comma-separated law ids, or 'all' "
                        f"(known: {', '.join(sorted(LAWS))})")
    v.add_argument("--max-size", type=int, default=3,
                   help="carrier/index size bound for exhaustive suites")
    v.add_argument("--fuel", type=int, default=DEFAULT_FUEL,
                   help="step budget per semidecision query")
    v.add_argument("--seed", type=int, default=0,
                   help="seed for sampled-name validation")

    r = sub.add_parser("repair", help="repair a decimal name into a Cauchy prefix")
    r.add_argument("decimal", help="decimal literal, e.g. '0.3(3)'")
    r.add_argument("--bits", type=int, default=20, help="precision levels")
    r.add_argument("--fuel", type=int, default=DEFAULT_FUEL,
                   help="total step budget for the search")

    q = sub.add_parser("spaces", help="inspect a finite space or subbase")
    q.add_argument("file", help="FiniteSpace or FiniteSubbase JSON file")
    q.add_argument("--query", required=True,
                   choices=["t0", "order", "tauk", "decode-demo"])
    return p


def cmd_verify(args) -> int:
    if not 0 <= args.max_size <= MAX_EXHAUSTIVE:
        print(f"--max-size must be between 0 and {MAX_EXHAUSTIVE}",
              file=sys.stderr)
        return 2
    names = sorted(LAWS) if args.laws == "all" else args.laws.split(",")
    for name in names:
        if name not in LAWS:
            print(f"unknown law {name!r}; known: {', '.join(sorted(LAWS))}",
                  file=sys.stderr)
            return 2
        ceiling = SIZE_CEILING.get(name, MAX_EXHAUSTIVE)
        if args.max_size > ceiling:
            print(f"{name}: --max-size at most {ceiling} "
                  f"(larger sizes do not finish)", file=sys.stderr)
            return 2
    ok = True
    for name in names:
        try:
            rep = run_law_suite(name, max_size=args.max_size, fuel=args.fuel,
                                seed=args.seed)
        except ValueError as e:
            print(f"{name}: {e}", file=sys.stderr)
            return 2
        print(rep.stable_json(), flush=True)
        print(f"{name}: {'pass' if rep.passed else 'FAIL'} "
              f"({rep.instances} instances, {rep.checks} checks, "
              f"{rep.wall_ms:.0f} ms, fuel {rep.fuel_used})",
              file=sys.stderr)
        ok = ok and rep.passed
    return 0 if ok else 1


def cmd_repair(args) -> int:
    from .reals import (FuelExhausted, decimal_point, decimal_to_cauchy_direct,
                        parse_decimal, repair_decimal)
    if not 1 <= args.bits <= MAX_REPAIR_BITS:
        print(f"--bits must be between 1 and {MAX_REPAIR_BITS}",
              file=sys.stderr)
        return 2
    try:
        spec = parse_decimal(args.decimal)
    except EncodingError as e:
        print(str(e), file=sys.stderr)
        return 2
    direct = decimal_to_cauchy_direct(spec)
    exhausted_at = None
    try:
        levels = repair_decimal(decimal_point(spec), args.bits, fuel=args.fuel)
    except FuelExhausted as e:
        levels = e.levels
        exhausted_at = e.level
    def frac(q: Fraction) -> str:
        return f"{q.numerator}/{q.denominator}"
    truth = [direct.level(k) for k in range(1, len(levels) + 1)]
    doc = {
        "input": str(spec),
        "value": frac(spec.value),
        "bits": args.bits,
        "levels": [frac(q) for q in levels],
        "direct_oracle": [frac(t) for t in truth],
        "delta": [frac(abs(q - t)) for q, t in zip(levels, truth)],
    }
    if exhausted_at is not None:
        doc["fuel_exhausted_after_level"] = exhausted_at
    print(json.dumps(doc, sort_keys=True))
    return 1 if exhausted_at is not None else 0


def cmd_spaces(args) -> int:
    try:
        doc = load_json(args.file)
        if isinstance(doc, dict) and "sets" in doc:
            sub = subbase_from_json(doc)
            space = tau_K(sub)
        else:
            sub = None
            space = space_from_json(doc)
    except (SchemaError, OSError) as e:
        print(f"{args.file}: {e}", file=sys.stderr)
        return 2

    if args.query == "t0":
        out = {"t0": is_T0(space)}
    elif args.query == "order":
        rows = specialization(space)
        out = {"order": [[i, j] for i in range(space.n)
                         for j in bits(rows[i])]}
    elif args.query == "tauk":
        out = {"tauk": space.to_json()}
    else:  # decode-demo
        if sub is None:
            print("decode-demo needs a FiniteSubbase file (with 'sets')",
                  file=sys.stderr)
            return 2
        b = finite_presubbase(sub)
        traj = {}
        for x in range(sub.n):
            pt = embed_point(b, finite_point(b.carrier, x))
            steps = []
            fuel = 1
            while fuel <= 256:
                cand = decode_finite(pt, sub, fuel)
                steps.append({"fuel": fuel, "candidates": sorted(bits(cand))})
                fuel *= 2
            traj[str(x)] = steps
        out = {"decode": traj}

    print(json.dumps(out, sort_keys=True))
    return 0


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    if getattr(args, "fuel", 0) < 0:
        print("--fuel must be nonnegative", file=sys.stderr)
        return 2
    command = {"verify": cmd_verify, "repair": cmd_repair,
               "spaces": cmd_spaces}[args.command]
    try:
        code = command(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (`| head`, say): stop quietly, and point
        # stdout at devnull so the interpreter's final flush cannot fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
