"""Split search: scoring, the three stochastic splitters, and the oracle."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hiertsc import (
    ClassifierSpec,
    SplitContext,
    TimeSeriesDataset,
    exhaustive_split,
    f1_macro,
    fit_classifier,
    grow_tree,
    leave_salient_one_out,
    pick_one_then_regroup,
    score_bipartition,
    split_data,
    split_randomly_then_regroup,
    update_score_and_groups,
)
from hiertsc import classifiers
from hiertsc.classifiers import Rows, Run
from hiertsc.splitting import (
    PERFECT_SCORE,
    SPLITTERS,
    ScoredSplit,
    ScoringError,
    predicted_groups,
    resolve_splitter,
)
from hiertsc.tree import bipartitions

from conftest import (
    StubContext,
    flat_target_scorer,
    hash_scorer,
    peek_dataset,
    separable_dataset,
    split_context,
    target_scorer,
)

SSF_FUNCS = [pick_one_then_regroup, split_randomly_then_regroup, leave_salient_one_out]


def real_context(seed=0, n_classes=3):
    data = separable_dataset(n_per_class=8, n_classes=n_classes, seed=seed)
    idx = np.arange(data.n_instances)
    train = data.subset(idx[idx % 4 != 0])
    val = data.subset(idx[idx % 4 == 0])
    return split_context(train, val, ClassifierSpec(kind="linear"), np.random.default_rng(seed))


# -- scoring -------------------------------------------------------------------


def test_score_perfect_separation():
    ctx = real_context()
    assert score_bipartition(ctx, {0}, {1, 2}) == 1.0


def test_score_symmetric_under_swap():
    ctx = real_context(seed=3)
    assert score_bipartition(ctx, {0, 1}, {2}) == score_bipartition(ctx, {2}, {0, 1})


def test_score_constant_predictor_macro_value():
    # all predictions group 0 on a balanced validation part: (2/3 + 0) / 2;
    # all-zero series give zero weights, so every row goes to group 0
    data = TimeSeriesDataset(np.zeros((8, 6)), np.asarray([0, 0, 0, 0, 1, 1, 1, 1]))
    ctx = split_context(data, data, ClassifierSpec(kind="linear"), np.random.default_rng(0))
    assert score_bipartition(ctx, {0}, {1}) == pytest.approx(1 / 3, abs=1e-12)


def test_score_requires_validation_instances():
    data = peek_dataset([0, 0, 1, 1, 2, 2])
    val = peek_dataset([0, 0, 1, 1])  # class 2 missing
    ctx = split_context(data, val, ClassifierSpec(kind="linear"), np.random.default_rng(0))
    with pytest.raises(ScoringError):
        score_bipartition(ctx, {0, 1}, {2})


@pytest.mark.parametrize(
    "train, val, message",
    [
        # training lacks group 0 and validation group 1: training comes first
        ([2, 3, 5, 5], [0, 1, 5], "group [0, 1] has no instances in the training part"),
        # training lacks group 1 and validation group 0: training comes first
        ([0, 5, 5], [2, 5], "group [2, 3] has no instances in the training part"),
        # validation lacks both groups: group 0 comes first
        ([0, 3], [4, 5], "group [0, 1] has no instances in the validation part"),
        # one class of a group is enough to make it present
        ([1, 2], [0, 5], "group [2, 3] has no instances in the validation part"),
    ],
)
def test_score_names_the_first_empty_group(train, val, message):
    """The four empty-group checks run in one order: training before
    validation, and within a part group 0 before group 1."""
    ctx = split_context(
        peek_dataset(train), peek_dataset(val), ClassifierSpec(kind="linear"), np.random.default_rng(0)
    )
    with pytest.raises(ScoringError) as raised:
        score_bipartition(ctx, {0, 1}, {2, 3})
    assert str(raised.value) == message


def test_context_rows_must_come_from_one_run():
    """Training and validation rows of two runs, even over the same data and
    spec, are refused: each run has its own features (and bank)."""
    data = separable_dataset(n_per_class=8, n_classes=3)
    spec = ClassifierSpec(kind="kernel-ridge", num_kernels=4)
    plan = split_data(data, 4)
    train, _ = plan.fold(Run.rows_of(data, spec), 0)
    _, val = plan.fold(Run.rows_of(data, spec), 0)
    with pytest.raises(ValueError, match="rows of one run"):
        SplitContext(train=train, val=val, rng=np.random.default_rng(0))


def test_score_rejects_bad_groups():
    ctx = real_context()
    with pytest.raises(ScoringError):
        score_bipartition(ctx, {0, 1}, {1, 2})
    with pytest.raises(ScoringError):
        score_bipartition(ctx, set(), {0, 1})


# -- prepared row sets -----------------------------------------------------------


def noisy_context(kind, seed, n_classes, n_per_class, length, num_kernels=8):
    """A context over overlapping classes, so no search stops at a perfect
    score: every third row of each class validates, the rest train."""
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(n_classes), n_per_class)
    values = 0.7 * labels[:, None] + rng.normal(0.0, 1.0, (labels.size, length))
    data = TimeSeriesDataset(values, labels)
    idx = np.arange(data.n_instances)
    spec = ClassifierSpec(kind=kind, num_kernels=num_kernels, seed=seed)
    return split_context(
        data.subset(idx[idx % 3 != 0]), data.subset(idx[idx % 3 == 0]), spec, np.random.default_rng(seed)
    )


def _bipartitions_of(members, rng, count=3):
    members = sorted(members)
    out = []
    for _ in range(count):
        mask = int(rng.integers(1, 2 ** len(members) - 1))
        c0 = {c for i, c in enumerate(members) if mask >> i & 1}
        out.append((c0, set(members) - c0))
    return out


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["linear", "kernel-ridge"]),
    n_per_class=st.integers(3, 10),
    n_features=st.integers(4, 40),
    seed=st.integers(0, 2**16),
)
@example(kind="linear", n_per_class=3, n_features=40, seed=0)  # n < f: dual
@example(kind="linear", n_per_class=10, n_features=4, seed=1)  # n >= f: primal
@example(kind="kernel-ridge", n_per_class=3, n_features=40, seed=2)
@example(kind="kernel-ridge", n_per_class=10, n_features=4, seed=3)
def test_prepared_scores_equal_fresh_fits(kind, n_per_class, n_features, seed):
    # linear fits the series, so f is the series length; kernel-ridge has
    # f = 2 * num_kernels
    length, num_kernels = (n_features, 8) if kind == "linear" else (16, n_features // 2)
    args = (kind, seed, 5, n_per_class, length, num_kernels)
    ctx = noisy_context(*args)
    rng = np.random.default_rng(seed)
    set_a = [int(c) for c in rng.choice(5, int(rng.integers(2, 5)), replace=False)]
    set_b = [c for c in range(5) if c not in set_a] + set_a[:1]  # overlaps A
    splits_a = _bipartitions_of(set_a, rng)
    # set A, then set B, then A again: the live prepared set is replaced twice
    sequence = splits_a + _bipartitions_of(set_b, rng) + splits_a
    shared = [score_bipartition(ctx, c0, c1) for c0, c1 in sequence]
    fresh, refit = [], []
    for c0, c1 in sequence:
        alone = noisy_context(*args)
        fresh.append(score_bipartition(alone, c0, c1))
        train, _ = alone.train.grouped((c0, c1))
        val, _ = alone.val.grouped((c0, c1))
        refit.append(f1_macro(val.labels, fit_classifier(alone.train.run.spec, train).predict_features(val.feats)))
    assert shared == fresh == refit


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["linear", "kernel-ridge"]),
    n_per_class=st.integers(3, 10),
    n_features=st.integers(4, 40),
    seed=st.integers(0, 2**16),
    untrained=st.booleans(),
)
@example(kind="linear", n_per_class=3, n_features=40, seed=0, untrained=False)  # n < f
@example(kind="linear", n_per_class=10, n_features=4, seed=1, untrained=False)  # n >= f
@example(kind="kernel-ridge", n_per_class=3, n_features=40, seed=2, untrained=True)
@example(kind="kernel-ridge", n_per_class=10, n_features=4, seed=3, untrained=True)
def test_basis_decisions_match_a_fresh_fit(kind, n_per_class, n_features, seed, untrained):
    """The decision values a class set's basis sums for a bipartition are a
    fresh two-group fit's to rounding, and predict the same groups.  With
    `untrained`, one class of the set has validation rows but no training
    rows, so its indicator column is zero."""
    length, num_kernels = (n_features, 8) if kind == "linear" else (16, n_features // 2)
    ctx = noisy_context(kind, seed, 5, n_per_class, length, num_kernels)
    rng = np.random.default_rng(seed)
    members = sorted(int(c) for c in rng.choice(5, int(rng.integers(3, 6)), replace=False))
    missing = members[0] if untrained else None
    ctx.train = ctx.train.subset(np.flatnonzero(ctx.train.labels != missing))
    for _ in range(4):
        while True:
            mask = int(rng.integers(1, 2 ** len(members) - 1))
            c0 = frozenset(c for i, c in enumerate(members) if mask >> i & 1)
            c1 = frozenset(members) - c0
            if c0 - {missing} and c1 - {missing}:  # both groups train
                break
        train, _ = ctx.train.grouped((c0, c1))
        val, _ = ctx.val.grouped((c0, c1))
        basis = ctx._basis(c0 | c1)
        got = basis.decisions(basis.in_group_one(c0))
        fit = fit_classifier(ctx.train.run.spec, train)
        want = fit.scores(val.feats)
        assert np.array_equal(predicted_groups(got), fit.predict_features(val.feats))
        assert np.abs(got - want).max() <= 1e-8 * np.abs(want).max()
    if untrained:
        assert basis.counts[basis.order.index(missing)] == 0


def test_zero_decision_goes_to_group_zero():
    assert predicted_groups(np.array([0.0, -0.0, -1e-300, 1e-300])).tolist() == [0, 0, 1, 0]
    # identical series: every decision value is the training mean of the
    # group-0 targets, 0 on balanced groups, so all rows go to group 0,
    # as in a fresh fit's argmax tie
    data = TimeSeriesDataset(np.ones((8, 5)), np.array([0, 0, 1, 1, 2, 2, 3, 3]))
    ctx = split_context(data, data, ClassifierSpec(kind="linear"), np.random.default_rng(0))
    c0, c1 = {0, 3}, {1, 2}
    train, _ = ctx.train.grouped((c0, c1))
    val, _ = ctx.val.grouped((c0, c1))
    assert not fit_classifier(ctx.train.run.spec, train).predict_features(val.feats).any()
    assert score_bipartition(ctx, c0, c1) == pytest.approx(1 / 3, abs=1e-12)
    live = ctx._live
    assert not predicted_groups(live.decisions(live.in_group_one(frozenset(c0)))).any()


@pytest.mark.parametrize("kind", ["linear", "kernel-ridge"])
@pytest.mark.parametrize("name", sorted(SPLITTERS))
def test_split_search_prepares_one_row_set_per_parent(name, kind, monkeypatch):
    """The paper's cost model counts one fit per parent node; the search
    prepares one row set and solves once per splitter call, however many
    bipartitions it scores, and relabels its training and its validation
    rows once each."""
    ctx = noisy_context(kind, seed=4, n_classes=7, n_per_class=6, length=16)
    counts = {"prepared": 0, "solved": 0, "relabelled": 0}
    centred, solve, grouped = classifiers._centred, classifiers.ridge_solve, Rows.grouped

    def counted_centred(rows):
        counts["prepared"] += 1
        return centred(rows)

    def counted_solve(*args):
        counts["solved"] += 1
        return solve(*args)

    def counted_grouped(self, sets):
        counts["relabelled"] += 1
        return grouped(self, sets)

    outcomes = []

    def splitter(ctx, classes):
        outcomes.append(SPLITTERS[name](ctx, classes))
        return outcomes[-1]

    monkeypatch.setattr(classifiers, "_centred", counted_centred)
    monkeypatch.setattr(classifiers, "ridge_solve", counted_solve)
    monkeypatch.setattr(Rows, "grouped", counted_grouped)
    tree = grow_tree(ctx, splitter)
    assert len(outcomes) == sum(len(p.left | p.right) >= 3 for p in tree.parents) > 1
    assert counts["solved"] == counts["prepared"] == len(outcomes)
    assert counts["relabelled"] == 2 * len(outcomes)
    assert sum(o.evaluations for o in outcomes) > len(outcomes)


# -- update rule ---------------------------------------------------------------


def test_update_keeps_best_on_tie():
    best = ScoredSplit(0.7, frozenset({0}), frozenset({1}))
    cand = ScoredSplit(0.7, frozenset({1}), frozenset({0}))
    updated, stop = update_score_and_groups(best, cand)
    assert updated is best and not stop


def test_update_replaces_on_improvement():
    best = ScoredSplit(0.7, frozenset({0}), frozenset({1}))
    cand = ScoredSplit(0.9, frozenset({1}), frozenset({0}))
    updated, stop = update_score_and_groups(best, cand)
    assert updated is cand and not stop


def test_update_stops_at_perfect_score():
    best = ScoredSplit(0.7, frozenset({0}), frozenset({1}))
    cand = ScoredSplit(1.0, frozenset({1}), frozenset({0}))
    updated, stop = update_score_and_groups(best, cand)
    assert updated is cand and stop


# -- the splitters on stub scorers ----------------------------------------------


@pytest.mark.parametrize("splitter", SSF_FUNCS)
def test_two_classes_give_singletons(splitter):
    ctx = StubContext(hash_scorer(), seed=5)
    outcome = splitter(ctx, {3, 9})
    assert {outcome.c0, outcome.c1} == {frozenset({3}), frozenset({9})}
    if splitter is leave_salient_one_out:
        assert outcome.evaluations <= 2
    else:
        assert outcome.evaluations == 1


def test_potr_flat_stub_early_stops_at_target():
    scorer = flat_target_scorer({0, 1}, {2, 3})
    for seed in range(30):
        ctx = StubContext(scorer, seed=seed)
        outcome = pick_one_then_regroup(ctx, {0, 1, 2, 3})
        assert {outcome.c0, outcome.c1} == {frozenset({0, 1}), frozenset({2, 3})}
        assert outcome.score == 1.0
        assert outcome.early_stopped


def test_srtr_flat_stub_from_reachable_starts():
    # whichever start the shuffle produces, a graded scorer guides one pass home
    scorer = target_scorer({0, 1}, {2, 3})
    for seed in range(30):
        ctx = StubContext(scorer, seed=seed)
        outcome = split_randomly_then_regroup(ctx, {0, 1, 2, 3})
        assert outcome.score == 1.0
        assert {outcome.c0, outcome.c1} == {frozenset({0, 1}), frozenset({2, 3})}


def test_lsoo_unique_singleton_optimum():
    scorer = flat_target_scorer({2}, {0, 1, 3})
    for seed in range(20):
        ctx = StubContext(scorer, seed=seed)
        outcome = leave_salient_one_out(ctx, {0, 1, 2, 3})
        assert outcome.c0 == frozenset({2})
        assert outcome.c1 == frozenset({0, 1, 3})
        assert outcome.score == 1.0


def test_lsoo_side_always_singleton():
    for seed in range(10):
        ctx = StubContext(hash_scorer(seed), seed=seed)
        outcome = leave_salient_one_out(ctx, set(range(6)))
        assert len(outcome.c0) == 1


@pytest.mark.parametrize("size", range(2, 9))
def test_evaluation_bounds(size):
    classes = set(range(size))
    for seed in range(8):
        scorer = hash_scorer(seed)
        potr_ctx = StubContext(scorer, seed=seed)
        assert pick_one_then_regroup(potr_ctx, classes).evaluations <= size
        srtr_ctx = StubContext(scorer, seed=seed)
        assert split_randomly_then_regroup(srtr_ctx, classes).evaluations <= size + 1
        lsoo_ctx = StubContext(scorer, seed=seed)
        assert leave_salient_one_out(lsoo_ctx, classes).evaluations <= size
    exhaustive_ctx = StubContext(hash_scorer(0), seed=0)
    outcome = exhaustive_split(exhaustive_ctx, classes)
    assert outcome.evaluations == 2 ** (size - 1) - 1
    assert exhaustive_ctx.calls == outcome.evaluations


def test_exhaustive_counts_examples():
    assert exhaustive_split(StubContext(hash_scorer(), 0), {0, 1, 2, 3}).evaluations == 7
    assert exhaustive_split(StubContext(hash_scorer(), 0), {0, 1}).evaluations == 1


def test_exhaustive_finds_stub_target():
    ctx = StubContext(flat_target_scorer({0, 1}, {2, 3}), 0)
    outcome = exhaustive_split(ctx, {0, 1, 2, 3})
    assert outcome.score == 1.0
    assert {outcome.c0, outcome.c1} == {frozenset({0, 1}), frozenset({2, 3})}


@pytest.mark.parametrize(
    "size, side, c0, c1",
    [
        (4, {0, 1}, {0, 1}, {2, 3}),
        (5, {1, 3}, {0, 2, 4}, {1, 3}),
        (6, {2, 3, 5}, {0, 1, 4}, {2, 3, 5}),
        (6, {0}, {0}, {1, 2, 3, 4, 5}),
    ],
)
def test_exhaustive_stops_on_a_perfect_score(size, side, c0, c1):
    # (c0, c1) is what a full scan of every bipartition returns: nothing beats 1.0
    classes = set(range(size))
    ctx = StubContext(flat_target_scorer(side, classes - side), 0)
    outcome = exhaustive_split(ctx, classes)
    position = [set(first) for first, _ in bipartitions(sorted(classes))].index(c0)
    assert outcome.early_stopped
    assert outcome.evaluations == ctx.calls == position + 1
    assert (outcome.c0, outcome.c1, outcome.score) == (c0, c1, PERFECT_SCORE)


def test_exhaustive_constant_scores_keep_the_first_bipartition():
    outcome = exhaustive_split(StubContext(lambda c0, c1: 0.5, 0), {9, 3, 8, 5})
    assert (outcome.c0, outcome.c1) == (frozenset({3}), frozenset({5, 8, 9}))


@pytest.mark.parametrize("first, second", [({10, 12}, {10, 11, 13}), ({10, 11, 12}, {10, 13})])
def test_exhaustive_ties_keep_the_lower_mask(first, second):
    # bit i of the mask puts member 11 + i beside the anchor 10: masks 2 < 5 and 3 < 4;
    # sorted-member order would pick the other set in the first case, smaller size in the second
    tops = {frozenset(first), frozenset(second)}
    ctx = StubContext(lambda c0, c1: 0.9 if c0 in tops else 0.1, 0)
    outcome = exhaustive_split(ctx, {10, 11, 12, 13})
    assert outcome.c0 == frozenset(first) and outcome.score == 0.9


def test_exhaustive_cap():
    with pytest.raises(ValueError):
        exhaustive_split(StubContext(hash_scorer(), 0), set(range(13)))


@pytest.mark.parametrize("size", range(2, 9))
def test_ssf_never_beats_exhaustive(size):
    classes = set(range(size))
    for seed in range(6):
        scorer = hash_scorer(seed)
        oracle = exhaustive_split(StubContext(scorer, 0), classes).score
        for splitter in SSF_FUNCS:
            found = splitter(StubContext(scorer, seed=seed), classes).score
            assert found <= oracle + 1e-15


@pytest.mark.parametrize("size,target", [(3, ({0}, {1, 2})), (4, ({0, 1}, {2, 3})), (5, ({0, 1, 2}, {3, 4}))])
def test_single_move_reachable_optimum_found_for_every_seed(size, target):
    scorer = target_scorer(*target)
    expected = {frozenset(target[0]), frozenset(target[1])}
    for seed in range(100):
        for splitter in (pick_one_then_regroup, split_randomly_then_regroup):
            outcome = splitter(StubContext(scorer, seed=seed), set(range(size)))
            assert outcome.score == 1.0, (splitter.__name__, seed)
            assert {outcome.c0, outcome.c1} == expected


# -- parity: each splitter's outcomes, pinned ------------------------------------

STUB_SCORERS = {
    "hash": lambda seed, size: hash_scorer(seed),
    "target": lambda seed, size: target_scorer(range(0, size, 2), range(1, size, 2)),
    "zero": lambda seed, size: lambda c0, c1: 0.0,
}

# sha256 of every outcome over sizes 2-8 and seeds 0-7, so that any change to
# a proposal rule, its RNG draws or the shared acceptance loop shows; exhaustive
# runs that can reach a perfect score are test_exhaustive_stops_on_a_perfect_score's
OUTCOME_DIGESTS = {
    ("potr", "hash"): "113ffe74c8e68906544f0db6017501a70edfb8c3d466b507a8a4e7c350a65b65",
    ("potr", "target"): "824e7bd39035370b9cd486888a6c7cbae6df5f3b5ba722c38d404ca01e98ee0f",
    ("potr", "zero"): "d4014166cb0c4c81ecc592816ee15603951a639d793938c9200cd1515877c3d9",
    ("srtr", "hash"): "9a881ac7e7c4d4bbfa659bf98c32e1f14dcbfa5d32839fe2ac89f1cd40582a49",
    ("srtr", "target"): "8cb81e2f4aed75b0b8f4e0ed347618ff9642e77d2f42f356089e787df3a56664",
    ("srtr", "zero"): "31dbaf4a1bb0f53219746c3ab67d987ac90d051c3db8d2a8ce5110c73e956f04",
    ("lsoo", "hash"): "1787d16acbe1572c2921aee5e1ebc8f6615b3b85f5d7a05244cbfa49bf962fbb",
    ("lsoo", "target"): "0db8c5e123595dafe1af9b708ff8786a6202a697f5bf5752a6833a522071c17b",
    ("lsoo", "zero"): "1531983c1f0db15c7c7f93d3690a2c160b448083b41d91979617eac0cd4348c1",
    ("exhaustive", "hash"): "37d6a1b9a1929a2381f13e2363d625a020f57e055f71d3e205fa5a069116c7f1",
    ("exhaustive", "zero"): "48cf01ba903632a609f6e37dd919829413f6dec1ce46ad7832a6135fa400df58",
}


@pytest.mark.parametrize("name, scorer", sorted(OUTCOME_DIGESTS))
def test_splitter_outcomes_match_pinned_digests(name, scorer):
    lines = []
    for size in range(2, 9):
        for seed in range(8):
            stub = StubContext(STUB_SCORERS[scorer](seed, size), seed=seed)
            o = SPLITTERS[name](stub, set(range(size)))
            lines.append(
                f"{size} {seed} {sorted(o.c0)} {sorted(o.c1)} {o.score!r} {o.evaluations} {o.early_stopped}"
            )
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == OUTCOME_DIGESTS[name, scorer]


@pytest.mark.parametrize("splitter", SSF_FUNCS + [exhaustive_split])
def test_outcomes_are_valid_bipartitions(splitter):
    classes = frozenset(range(7))
    for seed in range(10):
        ctx = StubContext(hash_scorer(seed), seed=seed)
        outcome = splitter(ctx, classes)
        assert outcome.c0 and outcome.c1
        assert not outcome.c0 & outcome.c1
        assert outcome.c0 | outcome.c1 == classes


@pytest.mark.parametrize("splitter", SSF_FUNCS + [exhaustive_split])
def test_returned_score_reproducible(splitter):
    for seed in range(6):
        ctx = StubContext(hash_scorer(seed), seed=seed)
        outcome = splitter(ctx, set(range(5)))
        assert ctx.score(outcome.c0, outcome.c1) == outcome.score


def test_returned_score_reproducible_real_context():
    ctx = real_context(seed=2, n_classes=4)
    outcome = pick_one_then_regroup(ctx, {0, 1, 2, 3})
    assert score_bipartition(ctx, outcome.c0, outcome.c1) == outcome.score


def test_splitters_require_two_classes():
    ctx = StubContext(hash_scorer(), 0)
    for splitter in SSF_FUNCS + [exhaustive_split]:
        with pytest.raises(ValueError):
            splitter(ctx, {4})


def test_resolve_splitter():
    assert resolve_splitter("potr") is pick_one_then_regroup
    assert resolve_splitter(pick_one_then_regroup) is pick_one_then_regroup
    with pytest.raises(ValueError):
        resolve_splitter("nope")
