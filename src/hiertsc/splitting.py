"""Bipartition search over a class set.

Three stochastic splitters plus an exhaustive oracle, all maximising the
binary-group score of a base classifier fit on a training part and scored on
a validation part.  Each splitter is only its proposal rule; one shared loop
scores the proposals, keeps strictly better ones and, in all four splitters,
stops on a perfect score.

Scoring works from one table per class set, built when the set is first
scored: its training and validation rows are relabelled once, by local class
index, with each class's row counts as Python ints, and one ridge solve fits
every class indicator.  Each bipartition of the set is then a side per
class: integer sums of the counts find an empty group and give the training
target mean, the sides looked up at the validation rows give the truth, one
matrix-vector product gives the decision values, and three counts of
group-1 rows give the 2x2 confusion for the F1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from typing import Callable, Generator, Iterable, NamedTuple

import numpy as np

from .classifiers import ClassifierSpec, Rows, Run, _class_decisions
from .dataset import TimeSeriesDataset
from .metrics import _f1_mean
from .tree import ClassSet, bipartitions

PERFECT_SCORE = 1.0
EXHAUSTIVE_CAP = 12


class ScoringError(ValueError):
    """Raised when a bipartition cannot be scored (empty group on one part)."""


@dataclass
class SplitContext:
    """Everything a splitter needs: a train/validation pair, the base
    classifier configuration and a seeded random stream.

    `train` and `val` are :class:`Rows` of one run, or two datasets, which
    then become the rows of one new run over both.
    Both parts must contain at least one instance of every class in the set
    being split; callers normally obtain them from a stratified fold plan.

    Every bipartition of one class set is fit on the same training rows, and
    its +/-1 targets are a signed sum of the set's class indicators.  So the
    context relabels the rows and makes one solve once per class set, for
    every indicator at once, and keeps one live :class:`_ClassBasis`, from
    which each bipartition's scores equal a fresh fit's and its decision
    values agree with that fit's to rounding.
    """

    train: Rows | TimeSeriesDataset
    val: Rows | TimeSeriesDataset
    spec: ClassifierSpec
    rng: np.random.Generator
    _live: _ClassBasis | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.train, Rows):
            run = Run(
                np.vstack([self.train.values, self.val.values]),
                np.concatenate([self.train.labels, self.val.labels]),
                self.spec,
            )
            n = self.train.n_instances
            self.train = Rows(run, np.arange(n))
            self.val = Rows(run, np.arange(n, run.labels.size))

    @property
    def label_space(self) -> tuple[int, ...]:
        return self.train.label_space

    def score(self, c0: Iterable[int], c1: Iterable[int]) -> float:
        return score_bipartition(self, c0, c1)

    def _basis(self, classes: frozenset[int]) -> _ClassBasis:
        """The basis of `classes`; built when another class set was scored
        last, which frees that one first."""
        if self._live is None or self._live.classes != classes:
            self._live = None
            self._live = _ClassBasis(classes, self.train, self.val, self.spec)
        return self._live


class _ClassBasis:
    """One class set's rows and ridge solutions, seen from the validation rows.

    `order` lists the set's classes present in the run; `counts` and
    `val_counts` hold each one's training and validation rows, as Python
    ints, and `val_local` each validation row's index into `order`.
    `per_class` is (validation rows, classes): the centred, standardised
    validation features times each class indicator's weights, solved on
    first use.
    """

    def __init__(self, classes: frozenset[int], train: Rows, val: Rows, spec: ClassifierSpec):
        self.classes = classes
        self.order = sorted(c for c in classes if c in train.run.code_of)
        singletons = [(c,) for c in self.order]
        self._train, self.counts = train.grouped(singletons)
        self._val, self.val_counts = val.grouped(singletons)
        self.val_local = self._val.labels
        self._spec = spec

    @cached_property
    def per_class(self) -> np.ndarray:
        return _class_decisions(self._spec, self._train, self._val, len(self.order))

    def in_group_one(self, c0: frozenset[int]) -> list[bool]:
        """For each class of `order`, whether it is outside c0 (in group 1)."""
        return [c not in c0 for c in self.order]

    def decisions(self, in_c1: list[bool]) -> np.ndarray:
        """Each validation row's group-0 decision value when the classes of
        `order` flagged in `in_c1` are group 1 and the rest group 0.

        The group-0 targets are +1 on group 0 and -1 on group 1.  With s
        those signs per class and t their training mean, the targets less t
        are the class indicators times (s - t), and so are the weights: the
        decision value is ``per_class @ (s - t) + t``.  t is
        ``(n0 - n1) / n`` of the integer training counts, which is the sum
        of the signed counts to the last bit.
        """
        total = sum(self.counts)
        n1 = sum(compress(self.counts, in_c1))
        mean = (total - 2 * n1) / total
        return self.per_class @ (np.where(in_c1, -1.0, 1.0) - mean) + mean


def predicted_groups(decisions: np.ndarray) -> np.ndarray:
    """True (group 1) where the group-0 decision value is below 0, else
    False (group 0).

    A two-group fit's group-1 scores are the negated group-0 ones, so this is
    its argmax, ties (0) going to group 0.
    """
    return decisions < 0


@dataclass(frozen=True)
class SplitOutcome:
    """A scored bipartition plus how much work it took to find."""

    c0: ClassSet
    c1: ClassSet
    score: float
    evaluations: int
    early_stopped: bool


class ScoredSplit(NamedTuple):
    score: float
    c0: ClassSet
    c1: ClassSet


def score_bipartition(ctx: SplitContext, c0: Iterable[int], c1: Iterable[int]) -> float:
    """Macro-F1 of the two meta-groups on the validation part.

    Instances of classes in c0 are group 0, those in c1 group 1; the base
    classifier is fit on the training part only.  Symmetric in (c0, c1) by
    macro averaging.

    The classifier is not fit per bipartition, nor are the rows relabelled:
    the context builds one :class:`_ClassBasis` per class set, whose counts
    find an empty group before any solve, whose local class indices give the
    truth and whose solutions give the decision values.
    """
    c0 = frozenset(int(c) for c in c0)
    c1 = frozenset(int(c) for c in c1)
    if not c0 or not c1:
        raise ScoringError("both groups must be non-empty")
    if c0 & c1:
        raise ScoringError(f"groups overlap on {sorted(c0 & c1)}")
    basis = ctx._basis(c0 | c1)
    in_c1 = basis.in_group_one(c0)
    for counts, part in ((basis.counts, "training"), (basis.val_counts, "validation")):
        n1 = sum(compress(counts, in_c1))
        for group, n in ((c0, sum(counts) - n1), (c1, n1)):
            if n == 0:
                raise ScoringError(f"group {sorted(group)} has no instances in the {part} part")
    truth = np.array(in_c1)[basis.val_local]
    return _group_f1(truth, predicted_groups(basis.decisions(in_c1)))


def _group_f1(truth: np.ndarray, predicted: np.ndarray) -> float:
    """Macro-F1 of two groups, boolean (True for group 1), both present in
    `truth`: :func:`~hiertsc.metrics.f1_macro`'s value from the 2x2
    confusion, counted as rows in group 1 by truth, by prediction and by
    both."""
    n = truth.size
    t1 = int(np.count_nonzero(truth))
    p1 = int(np.count_nonzero(predicted))
    both = int(np.count_nonzero(truth & predicted))
    # group 0: tp = n - t1 - p1 + both, 2tp + fp + fn = (n - p1) + (n - t1)
    return _f1_mean([n - t1 - p1 + both, both], [2 * n - t1 - p1, t1 + p1])


def update_score_and_groups(
    best: ScoredSplit | None, candidate: ScoredSplit
) -> tuple[ScoredSplit, bool]:
    """Keep the first or a strictly better split; signal stop on a perfect score."""
    if best is None or candidate.score > best.score:
        return candidate, candidate.score >= PERFECT_SCORE
    return best, False


def _search(ctx, proposals: Generator[tuple, ScoredSplit, None]) -> SplitOutcome:
    """The acceptance loop every splitter shares.

    Scores each (c0, c1) that `proposals` yields and sends it the incumbent
    after that score, so a proposal rule can build its next move from it.
    The first candidate becomes the incumbent; see
    :func:`update_score_and_groups` for the rest.
    """
    best = None
    evaluations = 0
    pair = next(proposals)
    while True:
        c0, c1 = frozenset(pair[0]), frozenset(pair[1])
        best, stopped = update_score_and_groups(best, ScoredSplit(ctx.score(c0, c1), c0, c1))
        evaluations += 1
        if stopped:
            break
        try:
            pair = proposals.send(best)
        except StopIteration:
            break
    return SplitOutcome(best.c0, best.c1, best.score, evaluations, stopped)


def _members(classes: Iterable[int]) -> list[int]:
    members = sorted({int(c) for c in classes})
    if len(members) < 2:
        raise ValueError("need at least two classes to split")
    return members


def _shuffled_members(classes: Iterable[int], rng: np.random.Generator) -> list[int]:
    members = _members(classes)
    return [members[i] for i in rng.permutation(len(members))]


def pick_one_then_regroup(ctx, classes) -> SplitOutcome:
    """Seed one group with a random member, then greedily pull others over.

    Each remaining member is tentatively moved into the seeded group once, in
    random order; moves that strictly improve the score stick.  A move that
    would empty the other group is never attempted.  At most ``|classes|``
    scoring calls.
    """
    order = _shuffled_members(classes, ctx.rng)

    def proposals():
        best = yield order[:1], order[1:]
        for member in order[1:]:
            if len(best.c1) == 1:
                return  # any further move would empty the second group
            best = yield best.c0 | {member}, best.c1 - {member}

    return _search(ctx, proposals())


def split_randomly_then_regroup(ctx, classes) -> SplitOutcome:
    """Shuffle, cut at a random point, then try translocating every member.

    A translocation is only attempted when it leaves both groups non-empty;
    strictly better moves stick.  At most ``|classes| + 1`` scoring calls.
    """
    order = _shuffled_members(classes, ctx.rng)
    cut = int(ctx.rng.integers(1, len(order)))

    def proposals():
        best = yield order[:cut], order[cut:]
        for member in order:
            if member in best.c0 and len(best.c0) > 1:
                best = yield best.c0 - {member}, best.c1 | {member}
            elif member in best.c1 and len(best.c1) > 1:
                best = yield best.c0 | {member}, best.c1 - {member}

    return _search(ctx, proposals())


def leave_salient_one_out(ctx, classes) -> SplitOutcome:
    """Score every leave-one-member-out bipartition; keep the best.

    The singled-out member always lands in the first group, so trees built
    from this splitter are maximally right-heavy in class counts.  At most
    ``|classes|`` scoring calls.
    """
    order = _shuffled_members(classes, ctx.rng)
    return _search(ctx, (((m,), set(order) - {m}) for m in order))


def exhaustive_split(ctx, classes) -> SplitOutcome:
    """Score the 2**(|classes|-1) - 1 unordered bipartitions; keep the best.

    Ties keep the first bipartition in the canonical order of
    :func:`~hiertsc.tree.bipartitions`.  Like all four splitters it stops on a
    perfect score, which nothing can beat, so the result is a full scan's.
    Refuses class sets larger than ``EXHAUSTIVE_CAP``.
    """
    members = _members(classes)
    if len(members) > EXHAUSTIVE_CAP:
        raise ValueError(
            f"exhaustive split over {len(members)} classes exceeds the cap of {EXHAUSTIVE_CAP}"
        )
    return _search(ctx, bipartitions(members))


SPLITTERS: dict[str, Callable] = {
    "potr": pick_one_then_regroup,
    "srtr": split_randomly_then_regroup,
    "lsoo": leave_salient_one_out,
    "exhaustive": exhaustive_split,
}


def resolve_splitter(splitter) -> Callable:
    """Accept a splitter callable or one of the registry names."""
    if callable(splitter):
        return splitter
    try:
        return SPLITTERS[splitter]
    except KeyError:
        raise ValueError(
            f"unknown splitter '{splitter}' (choose from {sorted(SPLITTERS)})"
        ) from None
