"""Structure, balance metrics, similarity, and text forms of hierarchies."""

import json
import os
import subprocess
import sys
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
    parse_tree_text,
    reflect,
    tree_to_json,
    tree_to_text,
    trees_similar,
)
import hiertsc
from hiertsc.tree import LabelSpaceMismatchError, token_ids, tree_from_json

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


def test_rebuild_from_flatten_is_identity(fig_tree):
    rebuilt = build_tree(fig_tree.flatten())
    assert trees_similar(fig_tree, rebuilt)
    assert rebuilt.parents == fig_tree.parents


# -- text and JSON forms ---------------------------------------------------------


def test_parse_worked_example_text(fig_tree):
    text = "{{{c1,c4},{c0,c2,c3}},{{c3},{c2,c0}},{{c1},{c4}},{{c2},{c0}}}"
    tree, names = parse_tree_text(text)
    assert names == {0: "c0", 1: "c1", 2: "c2", 3: "c3", 4: "c4"}
    assert trees_similar(tree, fig_tree)
    # emission normalises member order; a second round trip is stable
    emitted = tree_to_text(tree, names)
    tree2, names2 = parse_tree_text(emitted)
    assert tree_to_text(tree2, names2) == emitted
    assert trees_similar(tree, tree2)


def test_parse_tolerates_whitespace():
    tree, _ = parse_tree_text(" { { {a} , {b} } } ")
    assert len(tree.parents) == 1


def test_parse_errors():
    with pytest.raises(TreeStructureError):
        parse_tree_text("{{{a},{b}}")  # unbalanced
    with pytest.raises(TreeStructureError):
        parse_tree_text("{{{a},{b}}} trailing")


def test_text_round_trip_random_trees(rng):
    for _ in range(20):
        n = int(rng.integers(2, 9))
        tree = random_tree(range(n), rng)
        parsed, _ = parse_tree_text(tree_to_text(tree))
        assert trees_similar(tree, parsed)


def test_json_round_trip(fig_tree):
    doc = tree_to_json(fig_tree)
    again = tree_from_json(doc)
    assert trees_similar(fig_tree, again)
    parsed = json.loads(doc)
    assert set(parsed) == {"parents"}
    assert set(parsed["parents"][0]) == {"left", "right"}


def test_json_with_label_tokens(fig_tree):
    names = {i: f"c{i}" for i in range(5)}
    doc = tree_to_json(fig_tree, names)
    again = tree_from_json(doc)
    assert trees_similar(fig_tree, again)


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
        "import json; from hiertsc.tree import token_ids; "
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
