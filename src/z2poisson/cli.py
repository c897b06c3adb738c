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
from .diagram import (PairId, classify, parse_pair_name, parse_satake,
                      r_type_label, satake_of)
from .errors import (AlgebraValidationError, BudgetError, DiagramSyntaxError,
                     DiagramValidationError, GenericityError, PolyParseError,
                     UnsupportedPairError)
from .poisson import poisson_bracket, shift
from .poly import Poly
from .structure import LieAlgebra, build_pair

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_UNSUPPORTED = 4
EXIT_BUDGET = 5


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
    c.add_argument("--pair", help="catalog pair name, e.g. sl2,so2 or E6,F4")
    c.add_argument("--format", choices=("json", "markdown"), default="json")

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", required=True, choices=sorted(SUITES))
    v.add_argument("--pair", help="catalog pair name (suites other than 'main')")
    v.add_argument("--max-nodes", type=_count,
                   help="largest diagram size (main only; default 6)")
    v.add_argument("--samples", type=_count,
                   help="random points (dimstab only; default 20)")
    v.add_argument("--degree-bound", type=_count,
                   help="witness search degree (nreg only; default 4 if "
                        "dim g <= 8, else 2)")
    v.add_argument("--seed", type=int, default=1,
                   help="random seed (default 1)")
    v.add_argument("--format", choices=("json", "markdown"), default="json")
    v.add_argument("--out", help="directory for report files")

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
        return build_pair(parse_pair_name(args.pair)).contraction
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


def _cannot_write(out: str, e: OSError) -> _InputError:
    return _InputError(EXIT_VALIDATION, f"cannot write {out}: {e.strerror}")


def _emit_report(rep: VerificationReport, args) -> None:
    md = rep.to_markdown()
    js = report_to_json_text(rep)
    if args.out:
        slug = f"{rep.suite}_{rep.pair}".replace(" ", "").replace(",", "_")
        slug = "".join(ch for ch in slug if ch.isalnum() or ch in "_-")
        try:
            with open(os.path.join(args.out, slug + ".json"), "w") as fh:
                fh.write(js)
            with open(os.path.join(args.out, slug + ".md"), "w") as fh:
                fh.write(md)
        except OSError as e:
            raise _cannot_write(args.out, e) from None
    sys.stdout.write(md if args.format == "markdown" else js)


def _cmd_classify(args) -> int:
    if (args.diagram is None) == (args.pair is None):
        raise UnsupportedPairError("classify needs a diagram or --pair")
    if args.pair:
        d = satake_of(parse_pair_name(args.pair))
    else:
        d = parse_satake(args.diagram)
    record = classify(d)
    if args.format == "markdown":
        r = record.to_json()
        if r["family"] != "unrecognized":
            pid = PairId(r["family"], tuple(r["params"]))
            shown = str(pid)
            rtype = r_type_label(pid) or "?"
        else:
            shown, rtype = "unrecognized", "?"
        sys.stdout.write(
            "| pair | satake | rank | r | codim3 | n_regular | m |\n"
            "|---|---|---|---|---|---|---|\n"
            f"| {shown} | {record.satake.serialize()} | {r['rank']} | {rtype} "
            f"| {r['codim3']} | {r['n_regular']} | {r['m']} |\n")
    else:
        sys.stdout.write(json.dumps(record.to_json(), indent=2) + "\n")
    return EXIT_OK


# verify flag -> (the one suite that reads it, its default there)
SUITE_FLAGS = {
    "max_nodes": ("main", 6),
    "samples": ("dimstab", 20),
    "degree_bound": ("nreg", None),      # worked out from the pair
}


def _suite_options(args) -> dict:
    """Keyword arguments for the chosen suite: its own flags, given or
    defaulted.  A flag that belongs to another suite is a parse error."""
    options = {}
    for dest, (owner, default) in SUITE_FLAGS.items():
        value = getattr(args, dest)
        if owner == args.suite:
            options[dest] = default if value is None else value
        elif value is not None:
            flag = "--" + dest.replace("_", "-")
            raise _InputError(EXIT_PARSE, f"{flag} applies to suite "
                              f"{owner!r} only, not {args.suite!r}")
    return options


def _cmd_verify(args) -> int:
    suite = SUITES[args.suite]
    options = _suite_options(args)
    if args.suite == "main":
        if args.pair is not None:
            raise _InputError(EXIT_PARSE, "--pair does not apply to suite 'main'")
    else:
        if not args.pair:
            raise UnsupportedPairError(f"suite {args.suite!r} needs --pair")
        options["pair"] = parse_pair_name(args.pair)
    if args.out:
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as e:
            raise _cannot_write(args.out, e) from None
    rep = suite(seed=args.seed, **options)
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
