"""Command-line front end.

Subcommands: ``classify`` (diagram or catalog pair to a classification
record), ``verify`` (run a verification suite, emit JSON and markdown
reports), ``bracket`` and ``shift`` (polynomial utilities on a built-in
pair or an imported structure-constant file).

Exit codes: 0 pass, 1 check failure, 2 parse error, 3 validation error,
4 unsupported pair or precondition, 5 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction as Q

from .analysis import SUITES, VerificationReport, report_to_json_text
from .diagram import classify, parse_pair_name, parse_satake, satake_of
from .errors import (AlgebraValidationError, BudgetError, DiagramSyntaxError,
                     DiagramValidationError, GenericityError, PolyParseError,
                     UnsupportedPairError)
from .poisson import poisson_bracket, shift
from .poly import Poly
from .structure import LieAlgebra, build_pair, contract

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_UNSUPPORTED = 4
EXIT_BUDGET = 5


def _default_seed() -> int:
    env = os.environ.get("Z2C_SEED")
    return int(env) if env else 1


def _count(text: str) -> int:
    """A count flag: an integer of at least 1 (argparse exits 2 otherwise)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive count")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="z2c",
        description="Satake-diagram classification and exact commutative-"
                    "subalgebra checks for contractions of semisimple Lie "
                    "algebras.")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="classify a diagram or catalog pair")
    c.add_argument("diagram", nargs="?",
                   help="diagram DSL, e.g. \"A3 colors=wbw arrows=[(1,3)]\"")
    c.add_argument("--diagram", dest="diagram_flag", metavar="DIAGRAM",
                   help="diagram DSL (alternative to the positional form)")
    c.add_argument("--pair", help="catalog pair name, e.g. sl2,so2 or E6,F4")
    c.add_argument("--format", choices=("json", "markdown"), default="json")

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", required=True, choices=sorted(SUITES))
    v.add_argument("--pair", help="catalog pair name (suites other than 'main')")
    v.add_argument("--max-nodes", type=_count, default=6)
    v.add_argument("--samples", type=_count, default=20)
    v.add_argument("--degree-bound", type=_count, default=4)
    v.add_argument("--seed", type=int, default=_default_seed(),
                   help="random seed (env Z2C_SEED overrides the default 1)")
    v.add_argument("--format", choices=("json", "markdown"), default="json")
    v.add_argument("--out", help="directory for report files")
    v.add_argument("--exact", action="store_true",
                   help="re-derive genericity-dependent results symbolically")

    b = sub.add_parser("bracket", help="Poisson bracket of two polynomials")
    b.add_argument("f")
    b.add_argument("g")
    b.add_argument("--pair", help="catalog pair; the bracket is taken in its contraction")
    b.add_argument("--algebra", help="structure-constant JSON file")

    s = sub.add_parser("shift", help="argument-shift components of a polynomial")
    s.add_argument("f")
    s.add_argument("--pair")
    s.add_argument("--algebra")
    s.add_argument("--xi", required=True,
                   help="comma-separated direction, e.g. 0,1,0")
    return ap


class _InputError(Exception):
    """Unusable command-line input, with the exit code it maps to."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load_algebra(args) -> LieAlgebra:
    if args.pair and args.algebra:
        raise UnsupportedPairError("give either --pair or --algebra, not both")
    if args.pair:
        pr = build_pair(parse_pair_name(args.pair))
        return contract(pr.g, pr.grading)
    if args.algebra:
        try:
            with open(args.algebra) as fh:
                data = json.load(fh)
        except OSError as e:
            raise _InputError(EXIT_VALIDATION,
                              f"cannot read {args.algebra}: {e.strerror}")
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise _InputError(EXIT_PARSE, f"{args.algebra} is not JSON: {e}")
        return LieAlgebra.from_json(data)
    raise UnsupportedPairError("an algebra is required: --pair or --algebra")


def _emit_report(rep: VerificationReport, args) -> None:
    md = rep.to_markdown()
    js = report_to_json_text(rep)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        slug = f"{rep.suite}_{rep.pair}".replace(" ", "").replace(",", "_")
        slug = "".join(ch for ch in slug if ch.isalnum() or ch in "_-")
        with open(os.path.join(args.out, slug + ".json"), "w") as fh:
            fh.write(js)
        with open(os.path.join(args.out, slug + ".md"), "w") as fh:
            fh.write(md)
    sys.stdout.write(md if args.format == "markdown" else js)


def _cmd_classify(args) -> int:
    diagram = args.diagram if args.diagram is not None else args.diagram_flag
    if (diagram is None) == (args.pair is None):
        raise UnsupportedPairError("classify needs a diagram or --pair")
    if args.pair:
        d = satake_of(parse_pair_name(args.pair))
    else:
        d = parse_satake(diagram)
    record = classify(d)
    if args.format == "markdown":
        r = record.to_json()
        from .diagram import PairId, pair_display_name, r_type_label
        if r["family"] != "unrecognized":
            pid = PairId(r["family"], tuple(r["params"]))
            shown = pair_display_name(pid)
            rtype = r_type_label(pid) or "?"
        else:
            shown, rtype = "unrecognized", "?"
        sys.stdout.write(
            "| pair | satake | rank | r | codim3 | n_regular | m |\n"
            "|---|---|---|---|---|---|---|\n"
            f"| {shown} | {d.canonical().serialize()} | {r['rank']} | {rtype} "
            f"| {r['codim3']} | {r['n_regular']} | {r['m']} |\n")
    else:
        sys.stdout.write(json.dumps(record.to_json(), indent=2) + "\n")
    return EXIT_OK


def _cmd_verify(args) -> int:
    suite = SUITES[args.suite]
    if args.suite == "main":
        rep = suite(max_nodes=args.max_nodes, seed=args.seed)
    else:
        if not args.pair:
            raise UnsupportedPairError(f"suite {args.suite!r} needs --pair")
        pair = parse_pair_name(args.pair)
        if args.suite == "dimstab":
            rep = suite(pair, samples=args.samples, seed=args.seed)
        elif args.suite == "summary":
            rep = suite(pair, seed=args.seed, exact=args.exact)
        elif args.suite == "nreg":
            rep = suite(pair, seed=args.seed, degree_bound=args.degree_bound)
        else:
            rep = suite(pair, seed=args.seed)
    _emit_report(rep, args)
    return EXIT_OK if rep.passed else EXIT_CHECK_FAILED


def _cmd_bracket(args) -> int:
    k = _load_algebra(args)
    f = Poly.parse(args.f, k.labels)
    g = Poly.parse(args.g, k.labels)
    out = poisson_bracket(k, f, g)
    sys.stdout.write(out.to_text(k.labels) + "\n")
    return EXIT_OK


def _cmd_shift(args) -> int:
    k = _load_algebra(args)
    f = Poly.parse(args.f, k.labels)
    try:
        xi = [Q(part) for part in args.xi.split(",")]
    except (ValueError, ZeroDivisionError):
        raise _InputError(EXIT_PARSE,
                          f"--xi {args.xi!r} is not a list of rationals")
    if len(xi) != k.dim:
        raise _InputError(
            EXIT_VALIDATION,
            f"direction has {len(xi)} coordinates, the algebra has {k.dim}")
    if f.is_zero():
        raise _InputError(EXIT_VALIDATION, "the zero polynomial has no shift")
    comps = shift(f, xi)
    sys.stdout.write(" ; ".join(p.to_text(k.labels) for p in comps) + "\n")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "classify": _cmd_classify,
        "verify": _cmd_verify,
        "bracket": _cmd_bracket,
        "shift": _cmd_shift,
    }
    try:
        return handlers[args.command](args)
    except (DiagramSyntaxError, PolyParseError) as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (DiagramValidationError, AlgebraValidationError) as e:
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except _InputError as e:
        kind = "parse error" if e.code == EXIT_PARSE else "validation error"
        print(f"{kind}: {e}", file=sys.stderr)
        return e.code
    except (UnsupportedPairError, GenericityError) as e:
        print(f"unsupported: {e}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except BudgetError as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
