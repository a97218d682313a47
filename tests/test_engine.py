import copy
import math
import pickle
import random
import time
import tracemalloc

import pytest

from aspexplain import engine
from aspexplain.engine import (
    calculate_difference,
    calculate_weight,
    create_tree,
    distance,
    enumerate_explanations,
    extract_exp,
    k_different,
    shortest_explanation,
)
from aspexplain.justify import explanation_to_justification, justification_to_explanation
from aspexplain.model import Atom, NotInAnswerSet, Rule
from aspexplain.serialize import parse_json
from aspexplain.trees import Explanation, VertexLabeledTree
from aspexplain.parser import parse_answer_set, parse_atom, parse_program

from conftest import (
    ancestors, answer_sets, chain_text, complete_text, copied_ranges, dropped_copy_text,
    fixture_text, random_program, reference_create_tree, reference_fold,
    validate_andor_tree,
)


@pytest.fixture
def ex41():
    P = parse_program(fixture_text("example41.lp"))
    X = parse_answer_set(fixture_text("example41.as"))
    return P, X, parse_atom("a")


@pytest.fixture
def ex44():
    P = parse_program(fixture_text("example44.lp"))
    X = parse_answer_set(fixture_text("example44.as"))
    return P, X, parse_atom("a")


def rule_texts(e):
    return sorted(e.labels[v].text for v in e.preorder())


class TestCreateTree:
    def test_eleven_vertex_tree(self, ex41):
        P, X, p = ex41
        T = create_tree(P, X, p)
        assert len(T) == 11
        assert sum(T.is_atom_vertex(v) for v in T.vertices) == 5
        assert sum(T.is_rule_vertex(v) for v in T.vertices) == 6
        assert T.labels[T.root] == p
        assert [T.labels[c].text for c in T.child_ids(T.root)] == [
            "a :- b, c", "a :- d",
        ]
        validate_andor_tree(T, P, X, p)

    def test_single_fact(self):
        P = parse_program("p.")
        X = parse_answer_set("p")
        T = create_tree(P, X, parse_atom("p"))
        assert len(T) == 2
        assert T.is_atom_vertex(T.root)
        (rv,) = T.child_ids(T.root)
        assert T.labels[rv] == Rule(Atom("p"))

    def test_cardinality_example(self, ex44):
        P, X, p = ex44
        T = create_tree(P, X, p)
        roots = [T.labels[c].text for c in T.child_ids(T.root)]
        assert "a :- b, c, not e" in roots
        assert "a :- d, 1 {b; c} 2" in roots
        assert "a :- d, not b" not in roots

    def test_unknown_explanandum(self, ex41):
        P, X, _ = ex41
        with pytest.raises(NotInAnswerSet, match="^atom not in answer set: z$"):
            create_tree(P, X, parse_atom("z"))

    def test_rule_explanandum(self, ex41):
        P, X, _ = ex41
        r = P.rules[1]
        T = create_tree(P, X, r)
        assert T.labels[T.root] == r

    def test_copied_tree_answers_a_non_id_key_as_a_dict(self):
        """On ``K_5`` the and-or tree of ``p4`` has 79 ids, in 8 copied
        ranges among them; its ``labels`` and ``children`` answer a key
        that is not an id as a plain dict does."""
        program, answer_set = complete_text(5)
        T = create_tree(parse_program(program), parse_answer_set(answer_set), Atom("p4"))
        assert len(T) == 79 and len(T.labels.copies[0]) == 8
        for ids in (T.labels, T.children):
            for key in ("x", None, 1.5, len(T)):
                assert key not in ids and ids.get(key) is None
                with pytest.raises(KeyError):
                    ids[key]
            assert 78 in ids and ids.get(78) == ids[78]

    def test_copied_tree_answers_as_its_expanded_dict(self):
        """On ``K_5`` the and-or tree of ``p4`` has 79 ids and stores 57;
        its ``labels`` and ``children`` answer the rest of the dict
        interface as the dict with every id written out does, and refuse
        every write."""
        program, answer_set = complete_text(5)
        T = create_tree(parse_program(program), parse_answer_set(answer_set), Atom("p4"))
        assert len(T) == 79 and dict.__len__(T.labels) == 57
        for ids in (T.labels, T.children):
            full = {u: ids[u] for u in range(len(T))}
            assert ids == full and not ids != full and ids != {**full, 0: None}
            assert ids | {} == full and {} | ids == full
            assert ids | {0: None, -1: None} == {**full, 0: None, -1: None}
            assert {0: None, -1: None} | ids == {-1: None, **full}
            assert list(reversed(ids)) == list(reversed(full))
            assert repr(ids) == repr(full)
            assert type(ids.copy()) is dict and ids.copy() == full
            for write in (
                lambda: ids.__setitem__(0, None), lambda: ids.update({}),
                lambda: ids.pop(0), lambda: ids.__ior__({}), ids.clear,
            ):
                with pytest.raises(TypeError, match="read-only"):
                    write()
            assert ids == full
        for U in (pickle.loads(pickle.dumps(T)), copy.copy(T), copy.deepcopy(T)):
            assert U == T and len(U) == 79
            assert type(U.labels) is type(T.labels) and dict.__len__(U.labels) == 57
            assert list(U.children.items()) == list(T.children.items())

    def test_copied_or_pickled_tree_folds_the_same(self):
        """The folds from the root follow the order in which the child
        entries were stored, which pickling and copying keep: on ``K_7``,
        ``p6``, each copy gives the weights, differences and tree count
        of the original."""
        program, answer_set = complete_text(7)
        T = create_tree(parse_program(program), parse_answer_set(answer_set), Atom("p6"))

        def folds(U):
            return (
                calculate_weight(U, U.root),
                calculate_difference(U, U.root, frozenset()),
                engine._tree_count(U),
            )

        expected = folds(T)
        for U in (pickle.loads(pickle.dumps(T)), copy.copy(T), copy.deepcopy(T)):
            assert list(dict.keys(U.children)) == list(dict.keys(T.children))
            assert folds(U) == expected

    def test_no_atom_repeats_on_paths(self, ex41):
        P, X, p = ex41
        T = create_tree(P, X, p)
        for v in T.vertices:
            if not T.is_atom_vertex(v):
                continue
            anc = [T.labels[u] for u in ancestors(T, v) if T.is_atom_vertex(u)]
            assert T.labels[v] not in anc


class TestCalculateWeight:
    def test_example_weights(self, ex41):
        P, X, p = ex41
        T = create_tree(P, X, p)
        W = calculate_weight(T, T.root)
        assert W[T.root] == 2
        left, right = T.child_ids(T.root)
        assert W[left] == 4
        assert W[right] == 2

    def test_single_fact(self):
        P = parse_program("p.")
        T = create_tree(P, parse_answer_set("p"), parse_atom("p"))
        W = calculate_weight(T, T.root)
        assert W[T.root] == 1
        (rv,) = T.child_ids(T.root)
        assert W[rv] == 1

    def test_cardinality_tree_weight(self, ex44):
        P, X, p = ex44
        T = create_tree(P, X, p)
        W = calculate_weight(T, T.root)
        assert W[T.root] == 2


class TestExtractExp:
    def test_min_gives_shortest(self, ex41):
        P, X, p = ex41
        T = create_tree(P, X, p)
        W = calculate_weight(T, T.root)
        e = extract_exp(T, T.root, W, min)
        assert e.size == 2
        assert rule_texts(e) == ["a :- d", "d"]

    def test_max_under_difference_gives_longest(self, ex41):
        P, X, p = ex41
        T = create_tree(P, X, p)
        D = calculate_difference(T, T.root, frozenset())
        e = extract_exp(T, T.root, D, max)
        assert e.size == 4
        assert rule_texts(e) == ["a :- b, c", "b :- c", "c", "c"]

    def test_ties_broken_by_rule_text(self):
        """Children of equal weight: the least rule text wins, whatever
        the child order."""
        P = parse_program("a :- b.  a :- c.  b.  c.")
        T = create_tree(P, parse_answer_set("a b c"), parse_atom("a"))
        children = dict(T.children)
        children[T.root] = children[T.root][::-1]
        T = VertexLabeledTree(T.root, T.labels, children)
        assert [T.labels[c].text for c in T.child_ids(T.root)] == [
            "a :- c", "a :- b",
        ]
        W = calculate_weight(T, T.root)
        assert [W[c] for c in T.child_ids(T.root)] == [2, 2]
        for op in (min, max):
            assert rule_texts(extract_exp(T, T.root, W, op)) == ["a :- b", "b"]

    def test_single_fact(self):
        P = parse_program("p.")
        T = create_tree(P, parse_answer_set("p"), parse_atom("p"))
        W = calculate_weight(T, T.root)
        e = extract_exp(T, T.root, W, min)
        assert e.size == 1
        assert e.labels[e.root] == Rule(Atom("p"))


@pytest.mark.parametrize("query", [
    lambda P, X, p: create_tree(P, X, p),
    lambda P, X, p: shortest_explanation(P, X, p),
    lambda P, X, p: k_different(P, X, p, 2),
    lambda P, X, p: enumerate_explanations(P, X, p),
    lambda P, X, p: justification_to_explanation(X, p, parse_json(fixture_text("fig_jst.json"))),
    lambda P, X, p: explanation_to_justification(P, X, p, parse_json(fixture_text("exp_tree.json"))),
], ids=["create_tree", "shortest_explanation", "k_different", "enumerate_explanations",
        "justification_to_explanation", "explanation_to_justification"])
def test_absent_atom_is_one_exception_type(ex41, query):
    """Every query refuses an atom outside the answer set with the one
    type the command line maps to exit 1, which is still a ValueError."""
    P, X, _ = ex41
    with pytest.raises(NotInAnswerSet, match=r"^atom not in answer set: z\(b\)$") as info:
        query(P, X, parse_atom("z(b)"))
    assert isinstance(info.value, ValueError)


class TestShortestExplanation:
    def test_example(self, ex41):
        P, X, p = ex41
        e = shortest_explanation(P, X, p)
        assert e.size == 2
        assert rule_texts(e) == ["a :- d", "d"]

    def test_cardinality_example(self, ex44):
        P, X, p = ex44
        e = shortest_explanation(P, X, p)
        assert e.size == 2
        assert e.labels[e.root].text == "a :- d, 1 {b; c} 2"

    def test_atom_not_in_answer_set(self, ex41):
        P, X, _ = ex41
        with pytest.raises(ValueError, match="atom not in answer set"):
            shortest_explanation(P, X, parse_atom("z"))

    def test_q8_shortest(self):
        P = parse_program(fixture_text("q8.lp"))
        X = parse_answer_set(fixture_text("q8.as"))
        e = shortest_explanation(P, X, parse_atom('what_be_genes("CASK")'))
        assert e.size == 7


class TestCalculateDifference:
    def test_empty_r(self, ex41):
        P, X, p = ex41
        T = create_tree(P, X, p)
        D = calculate_difference(T, T.root, frozenset())
        assert D[T.root] == 4

    def test_after_first_explanation(self, ex41):
        P, X, p = ex41
        T = create_tree(P, X, p)
        D0 = calculate_difference(T, T.root, frozenset())
        first = extract_exp(T, T.root, D0, max)
        D1 = calculate_difference(T, T.root, first.rule_vertex_ids)
        assert D1[T.root] == 2

    def test_all_rules_covered(self, ex41):
        P, X, p = ex41
        T = create_tree(P, X, p)
        all_rules = frozenset(
            v for v in T.vertices if T.is_rule_vertex(v)
        )
        D = calculate_difference(T, T.root, all_rules)
        assert D[T.root] == 0


class TestKDifferent:
    def test_two_explanations_in_order(self, ex41):
        P, X, p = ex41
        ks = k_different(P, X, p, 2)
        assert [e.size for e in ks] == [4, 2]
        assert distance(frozenset(), ks[0]) == 4
        assert distance(ks[0].rule_vertex_ids, ks[1]) == 2

    def test_early_stop(self, ex41):
        P, X, p = ex41
        assert len(k_different(P, X, p, 5)) == 2

    def test_k1_is_longest(self, ex41):
        P, X, p = ex41
        (e,) = k_different(P, X, p, 1)
        assert e.size == 4

    def test_distinct_rule_vertex_sets(self, ex41):
        P, X, p = ex41
        ks = k_different(P, X, p, 5)
        ids = [e.rule_vertex_ids for e in ks]
        assert len(set(ids)) == len(ids)

    def test_atom_not_in_answer_set(self, ex41):
        P, X, _ = ex41
        with pytest.raises(ValueError):
            k_different(P, X, parse_atom("z"), 2)

    def test_one_difference_fold_per_call(self, monkeypatch):
        """Later rounds re-fold only the vertices above the explanation
        just taken: no second whole-tree fold, and no walk of the tree."""
        program, answer_set = complete_text(6)
        P, X, p = parse_program(program), parse_answer_set(answer_set), Atom("p5")
        folds, walked = [], []
        fold, walk = engine.calculate_difference, VertexLabeledTree.preorder_from

        def counted_fold(T, v, R):
            folds.append((T, v, R))
            return fold(T, v, R)

        def counted_walk(self, v):
            walked.append(self)
            return walk(self, v)

        monkeypatch.setattr(engine, "calculate_difference", counted_fold)
        monkeypatch.setattr(VertexLabeledTree, "preorder_from", counted_walk)
        ks = k_different(P, X, p, 5)
        assert len(ks) == 5
        ((T, v, R),) = folds
        assert T is ks[0].andor and v == T.root and R == frozenset()
        assert not any(t is T for t in walked)

    def test_one_explanation_for_k3(self):
        P = parse_program("a :- b.\nb.\n")
        (e,) = k_different(P, parse_answer_set("a b"), parse_atom("a"), 3)
        assert e.size == 2

    def test_covered_after_two_rounds_returns_two(self, ex41):
        P, X, p = ex41
        for k in (3, 5, 10):
            assert [e.size for e in k_different(P, X, p, k)] == [4, 2]


class TestDistance:
    def test_self_distance_zero(self, ex41):
        P, X, p = ex41
        e = shortest_explanation(P, X, p)
        assert distance(e.rule_vertex_ids, e) == 0

    def test_mismatched_trees(self, ex41):
        P, X, p = ex41
        e = shortest_explanation(P, X, p)
        with pytest.raises(ValueError, match="mismatched trees"):
            distance(frozenset([999]), e)

    def test_k7_distances_in_copied_ranges_match_the_reference_tree(self):
        """On ``K_7``, every explanation after the first has rule vertices
        in copied ranges of the and-or tree. Their ids and labels, and
        the distances between them, are those of the tree written out in
        full, and an id past the tree's last is a mismatch."""
        program, answer_set = complete_text(7)
        P, X, p = parse_program(program), parse_answer_set(answer_set), Atom("p6")
        ks = k_different(P, X, p, 5)
        T, full = ks[0].andor, reference_create_tree(P, X, p)
        copied = {u for v, s, e in copied_ranges(T) for u in range(v, v + e - s)}
        assert len(ks) == 5 and all(e.rule_vertex_ids & copied for e in ks[1:])
        seen, distances = frozenset(), []
        for e in ks:
            on_full = Explanation(
                e.root, {u: full.labels[u] for u in e.labels}, e.children, andor=full
            )
            assert on_full == e
            distances.append(distance(seen, e))
            assert distances[-1] == distance(seen, on_full) > 0
            own = e.rule_vertex_ids
            assert distance(own, e) == distance(own, on_full) == 0
            seen |= e.rule_vertex_ids
        assert distances[0] == ks[0].size
        with pytest.raises(ValueError, match="mismatched trees"):
            distance(frozenset([len(T)]), ks[0])


def shuffled(T, rng):
    """``T`` with its ids permuted and rule vertices without children
    left out of ``children``: a hand-built tree that carries no
    preorder, and neither its ids nor its keys are in preorder."""
    ids = list(T.labels)
    new = dict(zip(ids, rng.sample(range(10 * len(ids)), len(ids))))
    S = VertexLabeledTree(
        new[T.root],
        dict(sorted((new[u], label) for u, label in T.labels.items())),
        {new[u]: tuple(new[c] for c in kids) for u, kids in T.children.items() if kids},
    )
    return S, new


class TestFoldOrder:
    """From the root, the folds that ignore ids read a tree that
    :func:`create_tree` built in the order its child entries were
    stored, and every other fold walks the tree."""

    @pytest.fixture(scope="class")
    def trees(self):
        out = []
        for name in ("example41", "example44", "threerule", "q8"):
            P = parse_program(fixture_text(name + ".lp"))
            X = parse_answer_set(fixture_text(name + ".as"))
            out += [create_tree(P, X, p) for p in sorted(X)]
        for n in (3, 4, 5, 6, 7):
            program, answer_set = complete_text(n)
            P, X = parse_program(program), parse_answer_set(answer_set)
            out += [create_tree(P, X, Atom("p%d" % (n - 1)))]
        program, answer_set = dropped_copy_text()
        P, X = parse_program(program), parse_answer_set(answer_set)
        out += [create_tree(P, X, p) for p in sorted(X)]
        rng = random.Random(20261019)
        for _ in range(40):
            P = random_program(rng)
            for X in answer_sets(P):
                out += [create_tree(P, X, p) for p in sorted(X)]
        return [T for T in out if not T.is_empty]

    def test_folds_equal_a_recursive_fold_on_trees_out_of_preorder(self, trees):
        rng = random.Random(7)
        out_of_order = 0
        for T in trees:
            S, new = shuffled(T, rng)
            out_of_order += S.preorder() != tuple(S.labels)
            rules = [u for u in S.labels if S.is_rule_vertex(u)]
            R = frozenset(rng.sample(rules, len(rules) // 2))
            in_T = frozenset(u for u in T.labels if new[u] in R)
            for tree, seen in ((T, in_T), (S, R)):
                for v in tree.labels:
                    assert calculate_weight(tree, v) == reference_fold(
                        tree, v, min, lambda u, values: 1 + sum(values)
                    )
                    assert calculate_difference(tree, v, seen) == reference_fold(
                        tree, v, max, lambda u, values: (u not in seen) + sum(values)
                    )
                count = reference_fold(
                    tree, tree.root, sum, lambda u, values: math.prod(values)
                )
                assert engine._tree_count(tree) == count[tree.root]
            # Extraction reads labels and children alone, so it picks the
            # same explanation under any ids.
            for D, op in ((calculate_weight(T, T.root), min),
                          (calculate_difference(T, T.root, frozenset()), max)):
                e = extract_exp(T, T.root, D, op)
                f = extract_exp(S, S.root, {new[u]: d for u, d in D.items()}, op)
                assert f.root == new[e.root]
                assert f.labels == {new[u]: label for u, label in e.labels.items()}
                assert f.children == {
                    new[u]: tuple(map(new.get, kids)) for u, kids in e.children.items()
                }
        assert out_of_order > len(trees) // 2

    def test_whole_tree_fold_combines_only_at_built_vertices(self, monkeypatch):
        """On ``K_7``, 1,238 of the 1,629 vertices lie in copied ranges.
        A weight fold from the root combines values only at the vertices
        :func:`create_tree` built, and gives each copy its source's."""
        program, answer_set = complete_text(7)
        P, X = parse_program(program), parse_answer_set(answer_set)
        T = create_tree(P, X, Atom("p6"))
        combined = []
        fold = engine._fold

        def counted(T, vertices, at_atom, at_rule, F=None):
            def atom(values):
                combined.append(1)
                return at_atom(values)

            def rule(u, values):
                combined.append(1)
                return at_rule(u, values)

            return fold(T, vertices, atom, rule, F)

        monkeypatch.setattr(engine, "_fold", counted)
        W = calculate_weight(T, T.root)
        assert len(T) == 1629 and 0 < len(combined) < len(T) // 3
        assert W == reference_fold(T, T.root, min, lambda u, values: 1 + sum(values))

    def test_explanations_walk_no_and_or_tree(self, monkeypatch):
        """From the root, the folds of ``shortest_explanation`` and
        ``k_different`` follow the stored child map and walk no and-or
        tree."""
        program, answer_set = complete_text(6)
        P, X, p = parse_program(program), parse_answer_set(answer_set), Atom("p5")
        walked = []
        walk = VertexLabeledTree.preorder_from

        def counted(self, v):
            walked.append(self)
            return walk(self, v)

        monkeypatch.setattr(VertexLabeledTree, "preorder_from", counted)
        e = shortest_explanation(P, X, p)
        ks = k_different(P, X, p, 3)
        assert len(e.andor) > 300 and len(ks) == 3
        for T in [e.andor] + [k.andor for k in ks]:
            assert not any(t is T for t in walked)
        # A fold below the root still walks, so the count would show a walk.
        T = e.andor
        calculate_weight(T, T.child_ids(T.root)[0])
        assert any(t is T for t in walked)


class TestEnumerate:
    def test_example(self, ex41):
        P, X, p = ex41
        es = enumerate_explanations(P, X, p)
        assert sorted(e.size for e in es) == [2, 4]

    def test_single_fact(self):
        P = parse_program("p.")
        es = enumerate_explanations(P, parse_answer_set("p"), parse_atom("p"))
        assert len(es) == 1

    def test_q8_contains_both_chains(self):
        P = parse_program(fixture_text("q8.lp"))
        X = parse_answer_set(fixture_text("q8.as"))
        es = enumerate_explanations(P, X, parse_atom('what_be_genes("CASK")'))
        assert sorted(e.size for e in es) == [7, 10]

    def test_cap(self, ex41):
        P, X, p = ex41
        with pytest.raises(ValueError, match="cap exceeded"):
            enumerate_explanations(P, X, p, cap=1)


class TestVertexCap:
    def test_k7_tree_exceeds_a_lowered_cap(self, monkeypatch):
        """The K_7 tree has 1,629 vertices; with the cap at 1,000 every
        entry point that builds it fails cleanly."""
        program, answer_set = complete_text(7)
        P, X = parse_program(program), parse_answer_set(answer_set)
        p = parse_atom("p1")
        assert len(create_tree(P, X, p)) == 1629
        monkeypatch.setattr(engine, "MAX_TREE_VERTICES", 1000)
        msg = "cap exceeded: more than 1000 and-or tree vertices"
        for build in (create_tree, shortest_explanation, enumerate_explanations):
            with pytest.raises(ValueError, match=msg):
                build(P, X, p)
        with pytest.raises(ValueError, match=msg):
            k_different(P, X, p, 2)

    def test_tree_at_the_cap_is_built(self, monkeypatch):
        P = parse_program(fixture_text("example41.lp"))
        X = parse_answer_set(fixture_text("example41.as"))
        monkeypatch.setattr(engine, "MAX_TREE_VERTICES", 11)
        assert len(create_tree(P, X, parse_atom("a"))) == 11
        monkeypatch.setattr(engine, "MAX_TREE_VERTICES", 10)
        with pytest.raises(ValueError, match="more than 10 and-or"):
            create_tree(P, X, parse_atom("a"))

    def test_copied_subtrees_count_against_the_cap(self, monkeypatch):
        """The chain under ``c3`` is built under the first rule for
        ``top`` and copied under the second, as the last 8 vertices; a
        cap one below the tree's size stops the copy before the lists
        grow."""
        program = chain_text(3)[0] + "top :- x, c3.\ntop :- y, c3.\nx.\ny.\n"
        P = parse_program(program)
        X = parse_answer_set(chain_text(3)[1] + " top x y")
        p = Atom("top")
        monkeypatch.setattr(engine, "MAX_TREE_VERTICES", 23)
        T = create_tree(P, X, p)
        assert len(T) == 23
        assert [T.labels[v] for v in range(15, 23)] == [T.labels[v] for v in range(4, 12)]
        monkeypatch.setattr(engine, "MAX_TREE_VERTICES", 22)
        with pytest.raises(ValueError, match="more than 22 and-or"):
            create_tree(P, X, p)

    def test_keys_hold_no_more_atoms_than_the_cap(self, monkeypatch):
        """``y`` derived from every atom of a 100-step chain: every chain
        atom occurs in two bodies and no state repeats, so keying every
        state would hold about 1.7 * 10^5 atoms in keys, four times the
        tree's memory. Bounded by the cap, they add a fraction of it."""
        n = 100
        program = chain_text(n)[0] + "".join("y :- c%d.\n" % i for i in range(n + 1))
        P = parse_program(program)
        X = parse_answer_set(chain_text(n)[1] + " y")
        monkeypatch.setattr(engine, "MAX_TREE_VERTICES", 12_000)
        peaks = []
        for build in (reference_create_tree, create_tree):
            tracemalloc.start()
            try:
                T = build(P, X, Atom("y"))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert len(T) == 1 + (n + 1) + (n + 1) * (n + 2)
        assert T == reference_create_tree(P, X, Atom("y"))
        assert peaks[1] < 2 * peaks[0]


class TestDeterminism:
    def test_identical_runs(self, ex41):
        P, X, p = ex41
        t1 = create_tree(P, X, p)
        t2 = create_tree(P, X, p)
        assert t1 == t2
        assert k_different(P, X, p, 3) == k_different(P, X, p, 3)


class TestDeepTrees:
    def test_chain_deeper_than_the_recursion_limit(self):
        """Weights, differences and extraction on a hand-built chain of
        2 * 10^4 vertices: c0 :- c1, c1 :- c2, ..., and the fact c9999."""
        n = 10**4
        atoms = [Atom("c%d" % i) for i in range(n)]
        labels, children = {}, {}
        for i, a in enumerate(atoms):
            body = atoms[i + 1:i + 2]
            labels[2 * i], labels[2 * i + 1] = a, Rule(a, tuple(body))
            children[2 * i] = (2 * i + 1,)
            children[2 * i + 1] = (2 * i + 2,) if body else ()
        T = VertexLabeledTree(0, labels, children)
        W = calculate_weight(T, T.root)
        assert W[T.root] == n
        shortest = extract_exp(T, T.root, W, op=min)
        assert [shortest.labels[v] for v in shortest.preorder()] == [
            labels[2 * i + 1] for i in range(n)
        ]
        D = calculate_difference(T, T.root, frozenset())
        assert D[T.root] == n
        assert extract_exp(T, T.root, D, op=max) == shortest

    def test_chain_program_deeper_than_the_recursion_limit(self):
        """Tree building, both explanation modes and enumeration on a
        10^4-step chain program. Each call takes about half a second on
        a 2-vCPU Xeon; a recursive walker fails at a few hundred steps."""
        n, seconds = 10**4, 10.0
        program, answer_set = chain_text(n)
        P, X = parse_program(program), parse_answer_set(answer_set)
        p = Atom("c%d" % n)

        t0 = time.perf_counter()
        T = create_tree(P, X, p)
        assert time.perf_counter() - t0 < seconds
        assert len(T) == 2 * (n + 1)
        assert T.preorder() == T.preorder_from(T.root) == tuple(range(len(T)))
        assert T.labels[len(T) - 1] == P.rules[0]

        t0 = time.perf_counter()
        shortest = shortest_explanation(P, X, p)
        assert time.perf_counter() - t0 < seconds
        assert shortest.size == n + 1
        assert shortest.depth(len(T) - 1) == n

        t0 = time.perf_counter()
        assert k_different(P, X, p, 3) == [shortest]
        assert time.perf_counter() - t0 < seconds

        t0 = time.perf_counter()
        assert enumerate_explanations(P, X, p) == (shortest,)
        assert time.perf_counter() - t0 < seconds

    def test_chain_under_a_diamond_builds_in_linear_time(self):
        """A chain below two rules for ``top``: its end ``c_n`` occurs in
        two bodies and is keyed by its ancestor set, but the chain atoms
        occur in one body each and are not. Keying them too would hold
        about 10^6 atoms in keys on a 2 * 10^3-step chain, some 50 MB
        against the tree's 5 MB, and cost about 1.2 GB at 5 * 10^3 steps
        without the bound on the atoms the keys hold."""

        def build(n):
            program, answer_set = chain_text(n)
            program += "top :- l.\ntop :- r.\nl :- c%d.\nr :- c%d.\n" % (n, n)
            P = parse_program(program)
            X = parse_answer_set(answer_set + " top l r")
            T = create_tree(P, X, Atom("top"))
            # top, then per side its rule, l or r, its rule and the chain.
            assert len(T) == 1 + 2 * (3 + 2 * (n + 1))
            assert T.preorder() == T.preorder_from(T.root) == tuple(range(len(T)))

        t0 = time.perf_counter()
        build(10**4)
        assert time.perf_counter() - t0 < 10.0

        tracemalloc.start()
        try:
            build(2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20
