"""Command-line interface: generate, analyze, and verify finite lattices."""
from __future__ import annotations

import argparse
import sys

from supq.lattice import (
    LatticeError,
    make_boolean,
    make_chain,
    make_mk,
    make_n5,
    parse_lattice,
    serialize_lattice,
)
from supq.verify import (
    POSET_CHECKS,
    Report,
    SuiteConfig,
    corpus,
    report_to_json,
    report_to_text,
    run_m5_suite,
    run_suite,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_SKIPPED_STRICT = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supq",
        description="Workbench for sup-preserving endomap quantales of finite lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="print a generated lattice as JSON")
    gen.add_argument("family", choices=["chain", "boolean", "mk", "n5"])
    gen.add_argument("param", nargs="?", type=int, default=None,
                     help="size parameter (required for chain, boolean, mk)")

    # each subcommand takes only the flags it reads; any other is bad input
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=["json", "text"], default="text")
    caps = argparse.ArgumentParser(add_help=False)
    caps.add_argument("--max-homset", type=int, default=SuiteConfig.max_homset,
                      help="skip homset checks beyond this many maps")
    picks = argparse.ArgumentParser(add_help=False)
    picks.add_argument("--checks", default=None, help="comma-separated list of check ids to run")
    picks.add_argument("--strict", action="store_true", help="treat skipped checks as an error exit")

    analyze = sub.add_parser("analyze", parents=[fmt, caps],
                             help="print descriptor and summary flags for a lattice file")
    analyze.add_argument("file", help="path to a lattice JSON document")
    analyze.set_defaults(corpus=False, checks="", strict=False)  # verify with no checks

    verify = sub.add_parser("verify", parents=[fmt, caps, picks],
                            help="run the check suite against a lattice or the corpus")
    verify.add_argument("file", nargs="?", default=None, help="path to a lattice JSON document")
    verify.add_argument("--corpus", action="store_true",
                        help="run against the built-in reference collection")

    sub.add_parser("m5", parents=[fmt, picks],
                   help="run the checks for the seven-element counterexample quantale")
    return parser


def _selected(args) -> tuple[str, ...] | None:
    if args.checks is None:
        return None
    return tuple(c.strip() for c in args.checks.split(",") if c.strip())


def _emit(reports: list[Report], fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(report_to_json(reports))
    else:
        sys.stdout.write(report_to_text(reports))


def _exit_code(reports: list[Report], strict: bool) -> int:
    if any(r.failed for r in reports):
        return EXIT_CHECK_FAILED
    if strict and any(r.skipped for r in reports):
        return EXIT_SKIPPED_STRICT
    return EXIT_OK


def _load_lattice(path: str):
    try:
        with open(path, "rb") as fh:
            text = fh.read()
    except OSError as e:
        raise LatticeError(f"cannot read {path}: {e.strerror}") from e
    return parse_lattice(text)


def _cmd_gen(args) -> int:
    if args.family == "n5":
        if args.param is not None:
            print("n5 takes no size parameter", file=sys.stderr)
            return EXIT_BAD_INPUT
        L = make_n5()
    else:
        if args.param is None:
            print(f"{args.family} needs a size parameter", file=sys.stderr)
            return EXIT_BAD_INPUT
        maker = {"chain": make_chain, "boolean": make_boolean, "mk": make_mk}[args.family]
        L = maker(args.param)
    sys.stdout.write(serialize_lattice(L) + "\n")
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.corpus == (args.file is not None):
        print("verify needs a lattice file or --corpus (not both)", file=sys.stderr)
        return EXIT_BAD_INPUT
    config = SuiteConfig(max_homset=args.max_homset, checks=_selected(args))
    reports = []
    if args.corpus:
        for name, L, poset in corpus():
            reports.append(run_suite(L, config, name=name, poset=poset))
    else:
        unrunnable = [cid for cid, _ in POSET_CHECKS if cid in (config.checks or ())]
        if unrunnable:
            raise ValueError(f"{', '.join(unrunnable)} needs a generating poset; a lattice file carries none")
        L = _load_lattice(args.file)
        name = args.file.rsplit("/", 1)[-1].rsplit(".", 1)[0]
        reports.append(run_suite(L, config, name=name))
    _emit(reports, args.format)
    return _exit_code(reports, args.strict)


def _cmd_m5(args) -> int:
    report = run_m5_suite(_selected(args))
    _emit([report], args.format)
    return _exit_code([report], args.strict)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_BAD_INPUT if e.code else EXIT_OK
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command in ("analyze", "verify"):
            return _cmd_verify(args)
        return _cmd_m5(args)
    except LatticeError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
