"""Structure, balance metrics, similarity, and text forms of hierarchies."""

import json
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiertsc import (
    TimeSeriesDataset,
    TreeStructureError,
    build_tree,
    canonical_signature,
    class_balance_factor,
    datapoint_balance_factor,
    enumerate_distinct_trees,
    parse_tree_text,
    reflect,
    tree_to_text,
    trees_similar,
)
import hiertsc
from hiertsc.io import token_ids
from hiertsc.tree import LabelSpaceMismatchError

from conftest import random_tree


def counts_dataset(counts):
    """Dataset with the given per-class instance counts (values are filler)."""
    labels = np.concatenate(
        [np.full(n, cls, dtype=np.int64) for cls, n in sorted(counts.items())]
    )
    values = np.tile(np.arange(3.0), (labels.size, 1))
    return TimeSeriesDataset(values, labels)


# -- construction ------------------------------------------------------------


def test_build_tree_worked_example(fig_tree):
    assert len(fig_tree.parents) == 4
    assert fig_tree.root_classes == frozenset(range(5))
    assert fig_tree.n_nodes == 9


def test_build_tree_minimal_pair():
    tree = build_tree([({0}, {1})])
    assert len(tree.parents) == 1
    assert tree.root_classes == frozenset({0, 1})


def test_build_tree_rejects_second_root():
    # first pair fixes the root; a later pair covering a superset has no parent
    with pytest.raises(TreeStructureError):
        build_tree([({0}, {1}), ({0, 1}, {2})])


def test_build_tree_rejects_overlapping_siblings():
    with pytest.raises(TreeStructureError):
        build_tree([({0, 1}, {1, 2})])


def test_build_tree_rejects_orphaned_subtree():
    with pytest.raises(TreeStructureError):
        build_tree([({0, 1}, {2, 3}), ({0}, {1}), ({0, 2}, {3})])


def test_build_tree_rejects_wrong_parent_count():
    with pytest.raises(TreeStructureError):
        build_tree([({0, 1}, {2, 3})])


def test_build_tree_rejects_duplicate_leaf():
    with pytest.raises(TreeStructureError):
        build_tree([({0, 1}, {0, 2})])


def test_single_class_rejected():
    with pytest.raises(TreeStructureError):
        build_tree([])


@pytest.mark.parametrize(
    "pairs, message",
    [
        ([({0, 1}, {2}), ({0}, {1}), ({1}, {0})], r"class set \[0, 1\] is given as two parents"),
        ([({0, 1}, {2, 3}), ({0}, {1})], r"class set \[2, 3\] is a child but has no parent node"),
        ([({0}, {1}), ({0, 1}, {2})], r"parent \[0, 1, 2\] is not reached from the root"),
    ],
    ids=["repeated-set", "orphan-side", "unreached-parent"],
)
def test_structure_errors_name_the_offending_class_set(pairs, message):
    with pytest.raises(TreeStructureError, match=message):
        build_tree(pairs)


@lru_cache(maxsize=None)
def tree_signatures(classes):
    """The signature of every distinct tree over `classes`."""
    return {canonical_signature(t) for t in enumerate_distinct_trees(classes)}


def is_tree(pairs):
    """Oracle: `pairs` are |C| - 1 pairs whose first covers every class C
    they name and whose signature is that of a distinct tree over C."""
    classes = frozenset().union(*(left | right for left, right in pairs))
    return (
        len(classes) >= 2
        and len(pairs) == len(classes) - 1
        and pairs[0][0] | pairs[0][1] == classes
        and frozenset(frozenset(p) for p in pairs) in tree_signatures(classes)
    )


def naive_depths(pairs, members, depth=1):
    """Leaf depths below the pair over `members`, by recursion over the pairs."""
    left, right = next((l, r) for l, r in pairs if l | r == members)
    depths = {}
    for side in (left, right):
        depths.update({min(side): depth} if len(side) == 1 else naive_depths(pairs, side, depth + 1))
    return depths


@lru_cache(maxsize=None)
def distinct_trees(n_classes):
    return list(enumerate_distinct_trees(range(n_classes)))


@st.composite
def pair_lists(draw):
    """Disjoint (left, right) pairs over 2-6 classes: a tree's pairs, root
    first, sides and later pairs shuffled, then up to four random edits
    (insert, delete or replace a pair, or move one to the front)."""
    classes = range(draw(st.integers(2, 6)))

    def any_pair():
        members = draw(st.permutations(classes))[: draw(st.integers(2, len(classes)))]
        cut = draw(st.integers(1, len(members) - 1))
        return frozenset(members[:cut]), frozenset(members[cut:])

    tree = draw(st.sampled_from(distinct_trees(len(classes))))
    pairs = [(p.left, p.right) for p in tree.parents]
    pairs = [pairs[0], *draw(st.permutations(pairs[1:]))]
    pairs = [draw(st.sampled_from([(l, r), (r, l)])) for l, r in pairs]
    for _ in range(draw(st.integers(0, 4))):
        edit = draw(st.sampled_from(["insert", "delete", "replace", "to-front"]))
        i = draw(st.integers(0, len(pairs) - (edit != "insert")))
        if edit == "insert":
            pairs.insert(i, any_pair())
        elif edit == "delete":
            del pairs[i]
        elif edit == "replace":
            pairs[i] = any_pair()
        else:
            pairs.insert(0, pairs.pop(i))
        if not pairs:
            break
    return pairs


@given(pair_lists())
@settings(max_examples=400, deadline=None)
def test_a_pair_list_is_accepted_exactly_when_it_is_a_tree(pairs):
    try:
        tree = build_tree(pairs)
    except TreeStructureError:
        assert not is_tree(pairs)
        return
    assert is_tree(pairs)
    assert tree.leaf_depths() == naive_depths(pairs, tree.root_classes)


# -- balance metrics ----------------------------------------------------------


def test_class_balance_worked_example(fig_tree):
    # per parent: (3-2) + (2-1) + 0 + 0 over (3 + 1 + 0 + 0)
    assert class_balance_factor(fig_tree) == 0.5


def test_class_balance_balanced_four_classes():
    tree = build_tree([({0, 1}, {2, 3}), ({0}, {1}), ({2}, {3})])
    assert class_balance_factor(tree) == 0.0


def test_class_balance_two_classes_convention():
    assert class_balance_factor(build_tree([({0}, {1})])) == 0.0


def test_datapoint_balance_hand_example():
    tree = build_tree([({0}, {1, 2}), ({1}, {2})])
    data = counts_dataset({0: 10, 1: 20, 2: 30})
    assert datapoint_balance_factor(tree, data) == pytest.approx(50 / 106, abs=1e-12)
    assert datapoint_balance_factor(reflect(tree), data) == pytest.approx(
        -50 / 106, abs=1e-12
    )


def test_datapoint_balance_equal_counts_balanced_tree():
    tree = build_tree([({0, 1}, {2, 3}), ({0}, {1}), ({2}, {3})])
    data = counts_dataset({0: 5, 1: 5, 2: 5, 3: 5})
    assert datapoint_balance_factor(tree, data) == 0.0


def test_datapoint_balance_label_space_mismatch():
    tree = build_tree([({0}, {1, 2}), ({1}, {2})])
    data = counts_dataset({0: 4, 1: 4})
    with pytest.raises(LabelSpaceMismatchError):
        datapoint_balance_factor(tree, data)


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(2, 8))
@settings(max_examples=60, deadline=None)
def test_reflection_negates_balance(seed, n_classes):
    rng = np.random.default_rng(seed)
    tree = random_tree(range(n_classes), rng)
    mirrored = reflect(tree)
    assert class_balance_factor(mirrored) == -class_balance_factor(tree)
    counts = {c: int(rng.integers(1, 9)) for c in range(n_classes)}
    data = counts_dataset(counts)
    assert datapoint_balance_factor(mirrored, data) == -datapoint_balance_factor(
        tree, data
    )
    assert -1.0 <= class_balance_factor(tree) <= 1.0
    assert -1.0 <= datapoint_balance_factor(tree, data) <= 1.0


# -- similarity ----------------------------------------------------------------


def test_similar_up_to_orders():
    p1 = build_tree([({0, 1}, {2, 3}), ({0}, {1}), ({2}, {3})])
    p2 = build_tree([({3, 2}, {1, 0}), ({3}, {2}), ({1}, {0})])
    assert trees_similar(p1, p2)
    assert canonical_signature(p1) == canonical_signature(p2)


def test_different_root_bipartition_not_similar():
    a = build_tree([({0, 1}, {2, 3}), ({0}, {1}), ({2}, {3})])
    b = build_tree([({0, 2}, {1, 3}), ({0}, {2}), ({1}, {3})])
    assert not trees_similar(a, b)
    assert canonical_signature(a) != canonical_signature(b)


def test_similarity_is_reflexive(fig_tree):
    assert trees_similar(fig_tree, fig_tree)


def test_similarity_requires_same_label_space():
    a = build_tree([({0}, {1})])
    b = build_tree([({0}, {2})])
    with pytest.raises(LabelSpaceMismatchError):
        trees_similar(a, b)


def test_two_class_signature_ignores_orientation():
    assert canonical_signature(build_tree([({0}, {1})])) == canonical_signature(
        build_tree([({1}, {0})])
    )


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(2, 8))
@settings(max_examples=60, deadline=None)
def test_signature_invariant_under_sibling_swaps(seed, n_classes):
    rng = np.random.default_rng(seed)
    tree = random_tree(range(n_classes), rng)
    baseline = canonical_signature(tree)
    pairs = [
        (p.right, p.left) if rng.integers(0, 2) else (p.left, p.right)
        for p in tree.parents
    ]
    swapped = build_tree(pairs)
    assert canonical_signature(swapped) == baseline
    assert trees_similar(tree, swapped)


# -- structural invariants -----------------------------------------------------


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(2, 10))
@settings(max_examples=60, deadline=None)
def test_premise_counts(seed, n_classes):
    tree = random_tree(range(n_classes), np.random.default_rng(seed))
    assert len(tree.parents) == n_classes - 1
    assert tree.n_nodes == 2 * n_classes - 1
    # every class is exactly one leaf
    leaves = [
        next(iter(s)) for p in tree.parents for s in (p.left, p.right) if len(s) == 1
    ]
    assert sorted(leaves) == list(range(n_classes))


def test_rebuild_from_parent_pairs_is_identity(fig_tree):
    rebuilt = build_tree([(p.left, p.right) for p in fig_tree.parents])
    assert trees_similar(fig_tree, rebuilt)
    assert rebuilt.parents == fig_tree.parents


# -- text form -------------------------------------------------------------------


def test_parse_worked_example_text(fig_tree):
    text = "{{{1,4},{0,2,3}},{{3},{2,0}},{{1},{4}},{{2},{0}}}"
    tree = parse_tree_text(text)
    assert tree.root_classes == frozenset(range(5))
    assert trees_similar(tree, fig_tree)
    # emission normalises member order; a second round trip is stable
    emitted = tree_to_text(tree)
    tree2 = parse_tree_text(emitted)
    assert tree_to_text(tree2) == emitted
    assert trees_similar(tree, tree2)


def test_parse_tolerates_whitespace():
    tree = parse_tree_text(" { { {0} , {1} } } ")
    assert len(tree.parents) == 1


def test_parse_errors():
    for text in [
        "{{{0},{1}}",  # unbalanced
        "{{{0},{1}}} trailing",
        "{{{01},{1}}}",  # every member is a class id spelled str(id)
        "{{{+1},{0}}}",
        "{{{-0},{1}}}",
        "{{{a},{b}}}",
        "{{{1 2},{0}}}",
        "{{{0},{1}},}",  # stray commas
        "{{{0,},{1}}}",
        "{{{0,0},{1}}}",  # a member named twice in one set
        "{{{%s},{0}}}" % ("1" * 5000),  # longer than any int64 id
        "{{{0},{9999999999999999999}}}",  # 19 digits, beyond int64
        "",
    ]:
        with pytest.raises(TreeStructureError):
            parse_tree_text(text)


def test_parse_takes_exactly_the_int64_ids():
    for low, high in [(-(2**63), 0), (0, 2**63 - 1), (-(2**63), 2**63 - 1)]:
        assert parse_tree_text("{{{%d},{%d}}}" % (low, high)).root_classes == {low, high}
    for outside in [2**63, -(2**63) - 1]:
        with pytest.raises(TreeStructureError, match="a class id is outside int64"):
            parse_tree_text("{{{0},{%d}}}" % outside)


def test_text_round_trip_random_trees(rng):
    ids = [-(2**63), -7, -1, 0, 3, 10**9, 2**63 - 1]
    for _ in range(20):
        n = int(rng.integers(2, len(ids) + 1))
        tree = random_tree(rng.choice(ids, size=n, replace=False).tolist(), rng)
        assert parse_tree_text(tree_to_text(tree)) == tree


def test_leaf_depths_chain():
    chain = build_tree([({0}, {1, 2, 3}), ({1}, {2, 3}), ({2}, {3})])
    assert chain.leaf_depths() == {0: 1, 1: 2, 2: 3, 3: 3}


# -- label token ids --------------------------------------------------------------


def test_token_ids_put_nan_after_the_numbers_and_break_ties_by_text():
    tokens = ["a", "nan", "10", "NaN", "9", "1.0", "1", "-inf", "inf", "b"]
    assert token_ids(tokens) == {
        "-inf": 0, "1": 1, "1.0": 2, "9": 3, "10": 4, "inf": 5, "NaN": 6, "nan": 7, "a": 8, "b": 9,
    }
    assert token_ids(reversed(tokens)) == token_ids(tokens)


def test_token_ids_give_one_map_under_every_hash_seed():
    """Set order depends on PYTHONHASHSEED; the ids of a file's labels must not."""
    code = (
        "import json; from hiertsc.io import token_ids; "
        "print(json.dumps(token_ids(['nan', '1', '2', '0.5', 'inf', '-inf'])))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(hiertsc.__file__).parents[1])}
    maps = {
        subprocess.run(
            [sys.executable, "-c", code], env={**env, "PYTHONHASHSEED": str(seed)},
            capture_output=True, text=True, check=True, timeout=120,
        ).stdout
        for seed in range(6)
    }
    assert [json.loads(m) for m in maps] == [{"-inf": 0, "0.5": 1, "1": 2, "2": 3, "inf": 4, "nan": 5}]
