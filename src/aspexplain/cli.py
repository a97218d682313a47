"""Command-line interface.

Exit codes: 0 on success; 1 when the queried atom is not in the answer
set or verification fails; 2 on input errors: parse, I/O and grounding
errors, a non-ground query atom and "cap exceeded".
"""
from __future__ import annotations

import argparse
import functools
import gc
import sys
import warnings
from typing import Optional

from . import engine
from .ground import ground_program
from .model import Atom, Program, AnswerSet, verify_answer_set
from .justify import (
    EGraph,
    explanation_to_justification,
    justification_to_explanation,
)
from .nl import indented, render_nl
from .parser import (
    LookupTable,
    ParseError,
    parse_answer_set,
    parse_atom,
    parse_lookup,
    parse_program,
)
from .serialize import emit_dot, emit_json, parse_json
from .trees import Explanation, VertexLabeledTree

EXIT_OK = 0
EXIT_NOT_IN_ANSWER_SET = 1
EXIT_INPUT_ERROR = 2


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


def _read_lookup(path: Optional[str]) -> LookupTable:
    """The look-up table in ``path``; each distinct warning raised while
    reading it becomes one ``warning:`` line on stderr."""
    if not path:
        return LookupTable()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            return parse_lookup(_read(path))
        finally:
            for msg in dict.fromkeys(str(w.message) for w in caught):
                print("warning: %s" % msg, file=sys.stderr)


def _load_inputs(args) -> tuple[Program, AnswerSet]:
    """The program and the answer set, read against the program's facts."""
    P = parse_program(_read(args.program))
    return P, parse_answer_set(_read(args.answerset), program=P)


def _format_text(e: Explanation) -> str:
    return indented(e, lambda rule: rule.display + ".")


def _query_atom(args) -> Atom:
    """The queried atom, which must be ground."""
    p = parse_atom(args.atom)
    if not p.is_ground:
        raise ParseError("query atom must be ground", 1, 1)
    return p


def _print_explanations(
    explanations: list[Explanation], fmt: str, table: LookupTable
) -> None:
    if fmt == "json":
        if len(explanations) == 1:
            sys.stdout.write(emit_json(explanations[0]))
        else:
            docs = [emit_json(e).rstrip("\n") for e in explanations]
            sys.stdout.write("[\n%s\n]\n" % ",\n".join(docs))
        return
    chunks = []
    for e in explanations:
        if fmt == "text":
            chunks.append(_format_text(e))
        elif fmt == "nl":
            chunks.append(render_nl(e, table))
        elif fmt == "dot":
            chunks.append(emit_dot(e))
    sys.stdout.write("\n".join(chunks))


def cmd_explain(args) -> int:
    P, X = _load_inputs(args)
    p = _query_atom(args)
    table = _read_lookup(args.lookup)
    if args.verify:
        G = ground_program(P, X)
        ok, reason = verify_answer_set(G, X)
        if not ok:
            print("not an answer set: %s" % reason, file=sys.stderr)
            return EXIT_NOT_IN_ANSWER_SET
    if p not in X:
        print("atom not in answer set: %s" % p.text, file=sys.stderr)
        return EXIT_NOT_IN_ANSWER_SET
    if args.mode == "shortest":
        explanations = [engine.shortest_explanation(P, X, p)]
    else:
        explanations = engine.k_different(P, X, p, args.k)
    _print_explanations(explanations, args.format, table)
    return EXIT_OK


def cmd_verify(args) -> int:
    P, X = _load_inputs(args)
    G = ground_program(P, X)
    ok, reason = verify_answer_set(G, X)
    if ok:
        print("answer set verified")
        return EXIT_OK
    print("not an answer set: %s" % reason, file=sys.stderr)
    return EXIT_NOT_IN_ANSWER_SET


def cmd_convert(args) -> int:
    P, X = _load_inputs(args)
    p = _query_atom(args)
    obj = parse_json(_read(args.input))
    # Grounded in both directions, so an ungroundable program exits 2 either way.
    G = ground_program(P, X)
    if args.direction == "jst2exp" and not isinstance(obj, EGraph):
        raise ParseError("expected an e-graph input", 1, 1)
    if args.direction == "exp2jst" and not isinstance(obj, VertexLabeledTree):
        raise ParseError("expected an explanation-tree input", 1, 1)
    if p not in X:
        print("error: atom not in answer set: %s" % p.text, file=sys.stderr)
        return EXIT_NOT_IN_ANSWER_SET
    if args.direction == "jst2exp":
        out = justification_to_explanation(X, p, obj)
    else:
        out = explanation_to_justification(G, X, p, obj)
    if args.format == "dot":
        sys.stdout.write(emit_dot(out))
    else:
        sys.stdout.write(emit_json(out))
    return EXIT_OK


def cmd_enumerate(args) -> int:
    P, X = _load_inputs(args)
    p = _query_atom(args)
    if p not in X:
        print("atom not in answer set: %s" % p.text, file=sys.stderr)
        return EXIT_NOT_IN_ANSWER_SET
    explanations = engine.enumerate_explanations(P, X, p, cap=args.max_expl)
    for i, e in enumerate(explanations, start=1):
        print("explanation %d (size %d):" % (i, e.size))
        sys.stdout.write(_format_text(e))
    print("%d explanation(s)" % len(explanations))
    return EXIT_OK


# Built once: building the parser costs far more than parsing a command.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="aspexplain",
        description="Explain why an atom belongs to an answer set.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_common(sp, with_atom=True):
        sp.add_argument("program", help="program file")
        sp.add_argument("answerset", help="answer set file")
        if with_atom:
            sp.add_argument("atom", help="queried ground atom")

    sp = sub.add_parser("explain", help="generate explanations for an atom")
    add_common(sp)
    sp.add_argument("--mode", choices=("shortest", "kdiff"), default="shortest")
    sp.add_argument("-k", type=int, default=2, help="how many explanations")
    sp.add_argument(
        "--format", choices=("text", "nl", "dot", "json"), default="text"
    )
    sp.add_argument("--lookup", help="predicate look-up table file")
    sp.add_argument(
        "--verify", action="store_true",
        help="check the answer set before explaining",
    )
    sp.set_defaults(func=cmd_explain)

    sp = sub.add_parser("verify", help="check that the set is an answer set")
    add_common(sp, with_atom=False)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser(
        "convert", help="convert between justifications and explanation trees"
    )
    sp.add_argument("direction", choices=("jst2exp", "exp2jst"))
    add_common(sp)
    sp.add_argument("input", help="JSON file with the structure to convert")
    sp.add_argument("--format", choices=("json", "dot"), default="json")
    sp.set_defaults(func=cmd_convert)

    sp = sub.add_parser("enumerate", help="list every explanation for an atom")
    add_common(sp)
    sp.add_argument(
        "--max-expl", type=int, default=engine.DEFAULT_ENUM_CAP,
        help="enumeration cap",
    )
    sp.set_defaults(func=cmd_enumerate)
    return top


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command. A command leaves no cyclic garbage: what it
    makes, from the parsed rules to the rendered output, is freed by
    reference counting alone. So the cyclic collector, which would only
    rescan those objects as they are made, is off while the command
    runs, and its previous state is restored however the command ends."""
    args = _build_parser().parse_args(argv)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # ParseError and GroundingError are ValueErrors.
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT_ERROR
    finally:
        if enabled:
            gc.enable()


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
