"""The golden corpus: a fixed list of CLI commands and one digest per
command of its exit code, stdout and stderr.

The commands run over the four fixtures, the complete support graphs
K_4 to K_7, a 60-step chain and a program whose answer set writes an
atom with spaces. Every atom of each is explained in shortest, kdiff
and ``kdiff -k 3`` mode in all four formats, each with and without
``--verify`` and ``--lookup``, and enumerated with and without
``--max-expl 1``; on the generated programs the two flags are given
together or not at all. Each JSON explanation written is converted to a
justification in json and dot, and the json one back to an explanation
tree. Each program is verified, queried for an absent, a non-ground and
a malformed atom, and converted with both JSON fixtures both ways.
``example41`` and ``K_5`` are also explained in kdiff mode with ``-k 1``
and ``-k 5``, in text and json.

Then the error paths: ``verify`` and ``explain --verify`` on the set of
``example41`` with a foreign atom added and with an atom dropped,
``convert`` with the two JSON fixtures swapped, ``exp2jst`` under
``threerule`` on the tree of ``a`` queried for ``b`` and on a tree with
the fact ``c.`` under the atom ``a``, ``explain`` in nl with a
look-up table that repeats an entry, a small program that only the
token grammar reads, with an interval fact, a cardinality body and
comments inside statements, and a program of plain constraints and
plain cardinality bodies, which the token grammar reads a statement at
a time; each is verified, and each atom of its answer set explained and
enumerated. A program whose cardinality bodies hold variables local to
them is verified, and each atom of its answer set explained in text,
in json and in kdiff mode, and enumerated. Last, ``verify`` and
``explain`` on each program the parser refuses: bounds out of order,
the end of input inside a body, an interval in a rule, the interval cap
per fact and per program, a negative lower and a negative upper bound,
a grammar error followed by a later lexical one, which is the error
reported, a period doubled after a fact, and a grammar error followed
by a ``$`` in a string and in a comment, which is no lexical error.

``tests/test_golden.py`` replays the corpus and names each command
whose digest moved. To rewrite the digests from the source tree on
``PYTHONPATH``, run from the repository root::

    PYTHONPATH=src python tests/golden.py

A change that moves an output should name each moved command and why.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shlex
import sys
from pathlib import Path
from typing import Iterable, Iterator, Optional

from aspexplain import cli

sys.path.insert(0, str(Path(__file__).parent))
from conftest import FIXTURES, chain_text, complete_text  # noqa: E402

DIGESTS = Path(__file__).parent / "golden_digests.txt"
MODES = (["--mode", "shortest"], ["--mode", "kdiff"], ["--mode", "kdiff", "-k", "3"])
FORMATS = ("text", "nl", "dot", "json")
# Every program takes the first two; the fixtures and the spaced program
# also take each flag alone.
FLAGS = ([], ["--verify", "--lookup", "q8.lookup"], ["--verify"], ["--lookup", "q8.lookup"])
GENERATED = ("k4", "k5", "k6", "k7", "chain60")
BAD_QUERIES = ("absent", "p(X)", "p((")
# A program and its answer set that only the token grammar reads: an
# interval fact, a cardinality body and comments inside statements.
SMALL = (
    "index(1..3).\n"
    "b :- index(1), % a comment inside a statement\n  1 {c; index(2)} 2.\n"
    "c :- index(3), % and no d\n  not d.\n"
    ":- d, % never\n  b.\n"
    "a :- b, c.\n",
    "index(1) index(2) index(3) c b a\n",
)
# A program of plain constraints and plain cardinality bodies, with no
# comments, and its answer set.
PLAIN = (
    "c.\nd :- c.\nb :- c, 1 {c; d} 2.\na :- b, {d; e}.\ne :- not f, 2 {c; d}.\n"
    ":- f.\n:- c, not d.\n:- 3 {a; b; c; d; e} 4.\n",
    "c d b a e\n",
)
# A program whose cardinality bodies have variables local to them: one
# and two local variables, a repeated one, a member written ground that
# is not in the answer set, and a constraint; and its answer set.
LOCAL = (
    "node(a). node(b). node(c). node(d).\nedge(a,b). edge(b,c). edge(c,c).\n"
    "hub(G) :- node(G), 1 {edge(H, G)}.\nloop :- 1 {edge(Y, Y)}.\n"
    "far(G) :- node(G), 2 {edge(H, G); edge(G, K)} 2.\n"
    "pair(G) :- node(G), 1 {edge(H, G); edge(K, H)}.\n"
    "quiet :- node(d), {edge(d, d); edge(H, d)} 0.\n:- 4 {edge(H, K)}.\n",
    "node(a) node(b) node(c) node(d) edge(a,b) edge(b,c) edge(c,c) hub(b) hub(c)"
    " loop far(b) far(c) pair(a) pair(b) pair(c) pair(d) quiet\n",
)
# Programs the parser refuses, by file name; the first has cardinality
# bounds out of order.
REFUSED = {
    "malformed.lp": "a :- b.\nb :- 2 {c} 1.\n",
    "end-in-body.lp": "a :- b,",
    "interval-rule.lp": "a(1..2) :- b.\n",
    "fact-cap.lp": "p(1..100001).\n",
    "program-cap.lp": "p(1..60000).\nq(1..60000).\n",
    "negative-lower.lp": "a :- -1 {b}.\n",
    "negative-upper.lp": "a :- {b} -1.\n",
    "later-lexical.lp": "a :- .\nb :- c$.\n",
    "double-period.lp": "a.. b.\n",
    "dollar-in-string.lp": 'a :- .\nb("$").\n% $\n',
}
# A tree with the fact c. under the atom a, which c. does not head.
WRONG_HEAD = """{
  "kind": "tree",
  "root": 0,
  "vertices": [
    {"id": 0, "label_kind": "atom", "label_text": "a"},
    {"id": 1, "label_kind": "rule", "label_text": "c"}
  ],
  "edges": [{"from": 0, "to": 1}]
}
"""
# Explained in kdiff mode with -k 1 and -k 5: program and atom.
KDIFF = (("example41", "a"), ("k5", "p4"))


def write_inputs(root: Path) -> dict[str, list[str]]:
    """Write each program and answer set under ``root``, with the
    look-up table and the two JSON fixtures; the queried atoms of each
    program, by name."""
    texts = {
        name: (FIXTURES.joinpath(name + ".lp").read_text(encoding="utf-8"),
               FIXTURES.joinpath(name + ".as").read_text(encoding="utf-8"))
        for name in ("example41", "example44", "threerule", "q8")
    }
    texts.update(("k%d" % n, complete_text(n)) for n in range(4, 8))
    texts["chain60"] = chain_text(60)
    texts["spaced"] = ("p(a).\nq :- p(a).\n", "Answer: 1\np( a ) q\n")
    for name in ("q8.lookup", "exp_tree.json", "fig_jst.json"):
        (root / name).write_bytes(FIXTURES.joinpath(name).read_bytes())
    lookup = (root / "q8.lookup").read_text(encoding="utf-8")
    extra = {
        "dup.lookup": lookup + lookup.splitlines()[1] + "\n",
        "example41-foreign.as": texts["example41"][1].strip() + " zz\n",
        "example41-dropped.as": " ".join(texts["example41"][1].split()[:-1]) + "\n",
        "small.lp": SMALL[0], "small.as": SMALL[1],
        "plain.lp": PLAIN[0], "plain.as": PLAIN[1],
        "local.lp": LOCAL[0], "local.as": LOCAL[1], "wrong-head.json": WRONG_HEAD,
        **REFUSED,
    }
    for name, text in extra.items():
        (root / name).write_text(text, encoding="utf-8")
    atoms = {}
    for name, (program, answer_set) in texts.items():
        (root / (name + ".lp")).write_text(program, encoding="utf-8")
        (root / (name + ".as")).write_text(answer_set, encoding="utf-8")
        atoms[name] = answer_set.split()
    atoms["spaced"] = ["p(a)", "q", "p( a )"]
    (root / "out").mkdir()
    return atoms


def commands(atoms: dict[str, list[str]]) -> Iterator[tuple[list[str], Optional[str]]]:
    """Each command, with the file its stdout is written to, if any, for
    a later command to read."""
    for name, queries in atoms.items():
        files = [name + ".lp", name + ".as"]
        yield ["verify", *files], None
        for i, p in enumerate(queries):
            for m, mode in enumerate(MODES):
                for fmt in FORMATS:
                    for flags in FLAGS[:2] if name in GENERATED else FLAGS:
                        saved = None
                        if fmt == "json" and not flags:
                            saved = "out/%s-%d-%d.json" % (name, i, m)
                        yield ["explain", *files, p, *mode, "--format", fmt, *flags], saved
            yield ["enumerate", *files, p], None
            yield ["enumerate", *files, p, "--max-expl", "1"], None
            for m in range(len(MODES)):
                tree = "out/%s-%d-%d.json" % (name, i, m)
                jst = "out/%s-%d-%d-jst.json" % (name, i, m)
                yield ["convert", "exp2jst", *files, p, tree], jst
                yield ["convert", "exp2jst", *files, p, tree, "--format", "dot"], None
                yield ["convert", "jst2exp", *files, p, jst], None
                yield ["convert", "jst2exp", *files, p, jst, "--format", "dot"], None
        for p in queries[:1] + list(BAD_QUERIES):
            yield ["explain", *files, p], None
            yield ["enumerate", *files, p], None
            for direction, doc in (("jst2exp", "fig_jst.json"), ("exp2jst", "exp_tree.json")):
                for fmt in ("json", "dot"):
                    yield ["convert", direction, *files, p, doc, "--format", fmt], None
    for name, p in KDIFF:
        for k in ("1", "5"):
            for fmt in ("text", "json"):
                yield ["explain", name + ".lp", name + ".as", p, "--mode", "kdiff",
                       "-k", k, "--format", fmt], None
    yield from error_commands()
    yield ["explain", "missing.lp", "k4.as", "p0"], None


def error_commands() -> Iterator[tuple[list[str], None]]:
    """The commands on the inputs ``write_inputs`` adds for error paths."""
    for answer_set in ("example41-foreign.as", "example41-dropped.as"):
        yield ["verify", "example41.lp", answer_set], None
        yield ["explain", "example41.lp", answer_set, "a", "--verify"], None
    for direction, doc in (("jst2exp", "exp_tree.json"), ("exp2jst", "fig_jst.json")):
        yield ["convert", direction, "example41.lp", "example41.as", "a", doc], None
    threerule = ["convert", "exp2jst", "threerule.lp", "threerule.as"]
    yield [*threerule, "b", "exp_tree.json"], None
    yield [*threerule, "a", "wrong-head.json"], None
    q8 = ["q8.lp", "q8.as", 'what_be_genes("CASK")', "--format", "nl"]
    yield ["explain", *q8, "--lookup", "dup.lookup"], None
    for name, (_, answer_set) in (("small", SMALL), ("plain", PLAIN)):
        files = [name + ".lp", name + ".as"]
        yield ["verify", *files], None
        for p in answer_set.split():
            yield ["explain", *files, p], None
            yield ["enumerate", *files, p], None
    files = ["local.lp", "local.as"]
    yield ["verify", *files], None
    for p in LOCAL[1].split():
        yield ["explain", *files, p], None
        yield ["explain", *files, p, "--format", "json"], None
        yield ["explain", *files, p, "--mode", "kdiff"], None
        yield ["enumerate", *files, p], None
    for program in REFUSED:
        yield ["verify", program, "small.as"], None
        yield ["explain", program, "small.as", "a"], None


def run_main(argv: list[str]) -> tuple[int, str, str]:
    """``main(argv)`` in this process, with its exit code, stdout and
    stderr; an argparse error counts as its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def digest(code: int, out: str, err: str) -> str:
    return hashlib.sha256(repr((code, out, err)).encode()).hexdigest()[:16]


def replay(root: Path, programs: Optional[Iterable[str]] = None) -> dict[str, str]:
    """Write the inputs under ``root``, run each command with ``root`` as
    its working directory and return its digest by command line. With
    ``programs``, only the commands on those programs and the last."""
    atoms = write_inputs(root)
    if programs is not None:
        atoms = {name: atoms[name] for name in programs}
    found = {}
    with _chdir(root):
        for argv, saved in commands(atoms):
            code, out, err = run_main(argv)
            if saved:
                Path(saved).write_text(out, encoding="utf-8")
            found[shlex.join(argv)] = digest(code, out, err)
    return found


@contextlib.contextmanager
def _chdir(path: Path) -> Iterator[None]:
    before = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(before)


def format_digests(found: dict[str, str]) -> str:
    return "".join("%s  %s\n" % (d, command) for command, d in found.items())


def parse_digests(text: str) -> dict[str, str]:
    return {line[18:]: line[:16] for line in text.splitlines()}


def read_digests() -> dict[str, str]:
    return parse_digests(DIGESTS.read_text(encoding="utf-8"))


def moved(expected: dict[str, str], found: dict[str, str]) -> list[str]:
    """Each command whose digest differs, or that only one side has."""
    return [
        command for command in dict.fromkeys([*expected, *found])
        if expected.get(command) != found.get(command)
    ]


def main() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        found = replay(Path(tmp))
    DIGESTS.write_text(format_digests(found), encoding="utf-8")
    print("%d digests written to %s" % (len(found), DIGESTS))


if __name__ == "__main__":
    main()
