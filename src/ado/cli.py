"""Command line front end.

Three commands: compute builds and verifies a representation from an
algebra file or a catalog name, verify re-derives the verdict of a
previously written representation file from its matrices alone, and
catalog lists or prints the built-in algebras.

Exit codes: 0 when the requested check holds, 1 for invalid input, 2
when an internal consistency check fails, and 3 only when verify finds
that a representation file fails verification: compute is faithful by
construction.
Structured errors go to stderr as one-line JSON objects; file payloads
are canonically serialized, so identical runs produce identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .catalog import catalog_entry, catalog_names
from .errors import AdoError, InputError
from .formats import (
    algebra_from_json,
    algebra_to_json,
    canonical_dumps,
    load_json,
    representation_from_json,
    representation_to_json,
)
from .pipeline import RepresentationResult, ado_representation, verify_representation


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; that code means something
    # else here, so route usage problems through the input-error path
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(canonical_dumps(InputError("cli", message).to_json()))
        raise SystemExit(1)

    def parse_known_args(self, args=None, namespace=None):
        # a command's parser gets every argument after the command's name,
        # so it reports an unknown one with its own usage line
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ado",
        description="faithful matrix representations of rational Lie algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    compute = sub.add_parser(
        "compute",
        help="construct and verify a faithful representation",
        description="Construct a faithful matrix representation and verify it.",
    )
    compute.add_argument("source", nargs="?", help="path to an algebra file")
    compute.add_argument(
        "--catalog", metavar="NAME", help="use a built-in algebra instead of a file"
    )
    compute.add_argument(
        "--trace", action="store_true", help="print the saturation trace"
    )
    compute.add_argument(
        "-o", "--output", metavar="PATH", help="write the representation file here"
    )

    verify = sub.add_parser(
        "verify",
        help="recheck a representation file",
        description="Recompute bracket residuals and the kernel from the matrices.",
    )
    verify.add_argument("source", help="path to a representation file")

    catalog = sub.add_parser("catalog", help="built-in example algebras")
    actions = catalog.add_subparsers(dest="action", required=True, metavar="action")
    actions.add_parser("list", help="print all catalog names")
    show = actions.add_parser("show", help="print an algebra file for a catalog name")
    show.add_argument("name")
    return parser


def _summarize(
    name: str, result: RepresentationResult, args, stream
) -> None:
    print(
        f"{name}: algebra of dimension {result.algebra.dim},"
        f" faithful on dimension {result.dim_v}",
        file=stream,
    )
    for block in result.provenance["blocks"]:
        if block["kind"] == "enveloping":
            print(
                f"  enveloping block: dimension {block['dimension']}"
                f" (truncation {block['truncation']},"
                f" weights {' '.join(map(str, block['weights']))})",
                file=stream,
            )
        else:
            print(
                f"  reductive block: dimension {block['dimension']}", file=stream
            )
    if args.trace:
        for record in result.provenance["saturation"]:
            if record["stage"] == "initial":
                print(
                    f"  saturation: levi {record['levi_dimension']},"
                    f" radical {record['radical_dimension']},"
                    f" nilpotent seed {record['nilpotent_dimension']}",
                    file=stream,
                )
            elif record["stage"] == "absorb":
                inner = record.get("inner")
                less = f" less ({', '.join(inner)})" if inner else ""
                print(
                    f"  absorb: generator ({', '.join(record['generator'])}){less},"
                    f" joins {record['joins']}",
                    file=stream,
                )
            else:
                dims = record["dimensions"]
                print(
                    f"  step: generator ({', '.join(record['generator'])}),"
                    f" witness ({', '.join(record['semisimple_witness'])}),"
                    f" dimensions {dims['algebra']}/{dims['reductive']}"
                    f"/{dims['nilpotent']}",
                    file=stream,
                )
    print("verdict: verified faithful", file=stream)


def _cmd_compute(args) -> int:
    if (args.source is None) == (args.catalog is None):
        raise InputError(
            "cli", "provide exactly one of an algebra file or --catalog NAME"
        )
    if args.catalog is not None:
        name = args.catalog
        _, labels, algebra = catalog_entry(name)
    else:
        name, labels, algebra = algebra_from_json(load_json(args.source))
    result = ado_representation(algebra)
    text = canonical_dumps(representation_to_json(name, labels, result))
    if args.output is not None:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise InputError(
                "file", "cannot write file", path=args.output, reason=str(exc)
            ) from None
        _summarize(name, result, args, sys.stdout)
    else:
        sys.stdout.write(text)
        _summarize(name, result, args, sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    data = representation_from_json(load_json(args.source))
    report = verify_representation(data["algebra"], data["matrices"], data["dim_v"])
    recomputed = report.to_json()
    sys.stdout.write(canonical_dumps(recomputed))
    stated = data["verification"]
    if stated is not None and stated != recomputed:
        print(
            "note: the stated verification block disagrees with the recomputation",
            file=sys.stderr,
        )
    if report.verified:
        print(f"verdict: verified ({data['name']})", file=sys.stderr)
        return 0
    print(f"verdict: verification FAILED ({data['name']})", file=sys.stderr)
    return 3


def _cmd_catalog(args) -> int:
    if args.action == "list":
        for name in catalog_names():
            print(name)
        return 0
    description, labels, algebra = catalog_entry(args.name)
    sys.stdout.write(canonical_dumps(algebra_to_json(args.name, labels, algebra)))
    print(description, file=sys.stderr)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "compute":
            return _cmd_compute(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_catalog(args)
    except AdoError as exc:
        sys.stderr.write(canonical_dumps(exc.to_json()))
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
