"""A seeded fuzz of :func:`aspexplain.cli.main`: the exit contract holds
on mutated input.

Each case draws, from its own seed, one of the fixture programs or the
golden corpus's program with local cardinality variables, with its
answer set, one of its atoms and the look-up table, and mutates each at
the character level, and the two JSON fixtures at the structure level,
each with some chance. Every command then runs on them in process:
``explain`` in shortest mode, in kdiff mode in each format, with
``--verify`` and with ``--lookup``, ``verify``, ``enumerate`` and
``convert`` both ways. No exception may leave ``main``, the exit code
must be 0, 1 or 2, and stderr may hold at most one line besides
``warning:`` lines: the ``error:`` line of an exit 2, or the reason for
an exit 1. A failure names the case's seed, the command and the inputs.
"""
import contextlib
import io
import json
import random
import time

from aspexplain import cli

from conftest import fixture_text
import golden

SEED = 20261020
CASES = 300
# Characters a mutation inserts: the program and answer-set syntax,
# letters, digits, and line breaks that str.splitlines breaks at.
ALPHABET = "abpqXY019_(){};:-.,\"'% \t\n\r\u2028\x85$#\\=<>!é"


def mutate_text(rng: random.Random, text: str) -> str:
    """``text`` after one to three character edits: a deletion, an
    insertion, a replacement or a doubled slice."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(text))
        j = min(len(text), i + rng.randint(1, 8))
        op = rng.randrange(4)
        if op == 0:
            text = text[:i] + text[i + 1:]
        elif op == 1:
            text = text[:i] + rng.choice(ALPHABET) + text[i:]
        elif op == 2:
            text = text[:i] + rng.choice(ALPHABET) + text[i + 1:]
        else:
            text = text[:j] + text[i:j] + text[j:]
    return text


def _random_value(rng: random.Random):
    return rng.choice([None, True, -1, 0, 7, 2**70, 1.5, "", "a", "not d", "atom",
                       "rule", "pos_atom", "tree", [], {}, [0], {"id": 0}])


def mutate_json(rng: random.Random, doc):
    """``doc`` after one to three structural edits at a random object or
    array in it: a key or element dropped, replaced by a random value or
    doubled."""
    for _ in range(rng.randint(1, 3)):
        nodes = [doc]
        containers = []
        while nodes:
            node = nodes.pop()
            if isinstance(node, (dict, list)) and node:
                containers.append(node)
                nodes.extend(node.values() if isinstance(node, dict) else node)
        if not containers:
            return _random_value(rng)
        node = rng.choice(containers)
        key = rng.choice(list(node) if isinstance(node, dict) else range(len(node)))
        op = rng.randrange(3)
        if op == 0:
            del node[key]
        elif op == 1:
            node[key] = _random_value(rng)
        elif isinstance(node, list):
            node.insert(key, node[key])
        else:
            node[key] = [node[key], node[key]]
    return doc


def _inputs(rng: random.Random) -> dict[str, str]:
    """The files of one case, by name, and the queried atom under ``atom``."""
    name = rng.choice(("example41", "example44", "threerule", "q8", "local"))
    if name == "local":
        program, answer_set = golden.LOCAL
    else:
        program, answer_set = fixture_text(name + ".lp"), fixture_text(name + ".as")
    files = {
        "p.lp": program, "p.as": answer_set, "atom": rng.choice(answer_set.split()),
        "q.lookup": fixture_text("q8.lookup"),
    }
    for key in list(files):
        if rng.random() < 0.4:
            files[key] = mutate_text(rng, files[key])
    for key in ("exp_tree.json", "fig_jst.json"):
        doc = json.loads(fixture_text(key))
        files[key] = json.dumps(mutate_json(rng, doc) if rng.random() < 0.5 else doc)
    return files


def _commands(atom: str) -> list[list[str]]:
    files = ["p.lp", "p.as"]
    out = [["explain", *files, atom], ["explain", *files, atom, "--verify"],
           ["explain", *files, atom, "--format", "nl", "--lookup", "q.lookup"]]
    out += [["explain", *files, atom, "--mode", "kdiff", "--format", fmt]
            for fmt in ("text", "nl", "dot", "json")]
    out += [["verify", *files], ["enumerate", *files, atom]]
    out += [["convert", "jst2exp", *files, atom, "fig_jst.json"],
            ["convert", "exp2jst", *files, atom, "exp_tree.json", "--format", "dot"]]
    return out


def _broken_contract(argv: list[str]):
    """What ``main(argv)`` did against the exit contract, or None."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            return "%s escaped main: %s" % (type(exc).__name__, exc)
    if code not in (0, 1, 2):
        return "exit code %r" % (code,)
    lines = [line for line in err.getvalue().splitlines() if not line.startswith("warning:")]
    if len(lines) > 1 or code == 2 and not (lines and lines[0].startswith("error: ")):
        return "exit code %d, stderr %r" % (code, err.getvalue())
    return None


def test_main_keeps_the_exit_contract_on_mutated_input(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    for case in range(CASES):
        seed = SEED + case
        files = _inputs(random.Random(seed))
        for name, text in files.items():
            if name != "atom":
                (tmp_path / name).write_text(text, encoding="utf-8")
        for argv in _commands(files["atom"]):
            broken = _broken_contract(argv)
            assert broken is None, "seed %d, command %r: %s\ninputs: %r" % (
                seed, argv, broken, files)
    assert time.perf_counter() - start < 5
