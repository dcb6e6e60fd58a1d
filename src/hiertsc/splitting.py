"""Bipartition search over a class set.

Three stochastic splitters plus an exhaustive oracle, all maximising the
binary-group score of a base classifier fit on a training part and scored on
a validation part.  Move acceptance is shared: strictly better candidates
replace the incumbent, and a perfect score stops the search immediately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .classifiers import ClassifierSpec, Rows, Run, fit_classifier
from .dataset import TimeSeriesDataset
from .metrics import f1_macro
from .tree import ClassSet

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
    """

    train: Rows | TimeSeriesDataset
    val: Rows | TimeSeriesDataset
    spec: ClassifierSpec
    rng: np.random.Generator

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

    Instances of classes in c0 are relabelled group 0, those in c1 group 1;
    the base classifier is fit on the training part only.  Symmetric in
    (c0, c1) by macro averaging.
    """
    c0 = frozenset(int(c) for c in c0)
    c1 = frozenset(int(c) for c in c1)
    if not c0 or not c1:
        raise ScoringError("both groups must be non-empty")
    if c0 & c1:
        raise ScoringError(f"groups overlap on {sorted(c0 & c1)}")
    train, train_empty = ctx.train.binary_groups(c0, c1)
    val, val_empty = ctx.val.binary_groups(c0, c1)
    for empty, part in ((train_empty, "training"), (val_empty, "validation")):
        if empty is not None:
            group = sorted((c0, c1)[empty])
            raise ScoringError(f"group {group} has no instances in the {part} part")
    model = fit_classifier(ctx.spec, train)
    return f1_macro(val.labels, val.predict(model))


def update_score_and_groups(
    best: ScoredSplit, candidate: ScoredSplit
) -> tuple[ScoredSplit, bool]:
    """Keep the strictly better split; signal stop on a perfect score."""
    if candidate.score > best.score:
        return candidate, candidate.score >= PERFECT_SCORE
    return best, False


def _shuffled_members(classes: Iterable[int], rng: np.random.Generator) -> list[int]:
    members = sorted(int(c) for c in classes)
    order = rng.permutation(len(members))
    return [members[i] for i in order]


def _require_splittable(classes) -> frozenset[int]:
    class_set = frozenset(int(c) for c in classes)
    if len(class_set) < 2:
        raise ValueError("need at least two classes to split")
    return class_set


def pick_one_then_regroup(ctx, classes) -> SplitOutcome:
    """Seed one group with a random member, then greedily pull others over.

    Each remaining member is tentatively moved into the seeded group once, in
    random order; moves that strictly improve the score stick.  A move that
    would empty the other group is never attempted.  At most ``|classes|``
    scoring calls.
    """
    class_set = _require_splittable(classes)
    order = _shuffled_members(class_set, ctx.rng)
    c0 = frozenset((order[0],))
    c1 = frozenset(order[1:])
    best = ScoredSplit(ctx.score(c0, c1), c0, c1)
    evaluations = 1
    stopped = best.score >= PERFECT_SCORE
    if not stopped:
        for member in order[1:]:
            if len(best.c1) == 1:
                break  # any further move would empty the second group
            cand0 = best.c0 | {member}
            cand1 = best.c1 - {member}
            score = ctx.score(cand0, cand1)
            evaluations += 1
            best, stopped = update_score_and_groups(
                best, ScoredSplit(score, cand0, cand1)
            )
            if stopped:
                break
    return SplitOutcome(best.c0, best.c1, best.score, evaluations, stopped)


def split_randomly_then_regroup(ctx, classes) -> SplitOutcome:
    """Shuffle, cut at a random point, then try translocating every member.

    A translocation is only attempted when it leaves both groups non-empty;
    strictly better moves stick.  At most ``|classes| + 1`` scoring calls.
    """
    class_set = _require_splittable(classes)
    order = _shuffled_members(class_set, ctx.rng)
    cut = int(ctx.rng.integers(1, len(order)))
    c0 = frozenset(order[:cut])
    c1 = frozenset(order[cut:])
    best = ScoredSplit(ctx.score(c0, c1), c0, c1)
    evaluations = 1
    stopped = best.score >= PERFECT_SCORE
    if not stopped:
        for member in order:
            if member in best.c0 and len(best.c0) > 1:
                cand0, cand1 = best.c0 - {member}, best.c1 | {member}
            elif member in best.c1 and len(best.c1) > 1:
                cand0, cand1 = best.c0 | {member}, best.c1 - {member}
            else:
                continue
            score = ctx.score(cand0, cand1)
            evaluations += 1
            best, stopped = update_score_and_groups(
                best, ScoredSplit(score, cand0, cand1)
            )
            if stopped:
                break
    return SplitOutcome(best.c0, best.c1, best.score, evaluations, stopped)


def leave_salient_one_out(ctx, classes) -> SplitOutcome:
    """Score every leave-one-member-out bipartition; keep the best.

    The singled-out member always lands in the first group, so trees built
    from this splitter are maximally right-heavy in class counts.  At most
    ``|classes|`` scoring calls.
    """
    class_set = _require_splittable(classes)
    order = _shuffled_members(class_set, ctx.rng)
    best = ScoredSplit(0.0, frozenset(), frozenset())
    evaluations = 0
    stopped = False
    first: ScoredSplit | None = None
    for member in order:
        cand0 = frozenset((member,))
        cand1 = class_set - cand0
        score = ctx.score(cand0, cand1)
        evaluations += 1
        if first is None:
            first = ScoredSplit(score, cand0, cand1)
        best, stopped = update_score_and_groups(best, ScoredSplit(score, cand0, cand1))
        if stopped:
            break
    if not best.c0:
        best = first  # every candidate scored 0.0; keep the first one tried
    return SplitOutcome(best.c0, best.c1, best.score, evaluations, stopped)


def exhaustive_split(ctx, classes) -> SplitOutcome:
    """Score all 2**(|classes|-1) - 1 unordered bipartitions; return the best.

    Ties keep the first bipartition in canonical enumeration order (smallest
    member anchored in the first group, remaining membership by ascending
    bitmask).  Refuses class sets larger than ``EXHAUSTIVE_CAP``.
    """
    class_set = _require_splittable(classes)
    members = sorted(class_set)
    if len(members) > EXHAUSTIVE_CAP:
        raise ValueError(
            f"exhaustive split over {len(members)} classes exceeds the cap of {EXHAUSTIVE_CAP}"
        )
    anchor, rest = members[0], members[1:]
    best: ScoredSplit | None = None
    evaluations = 0
    for mask in range(2 ** len(rest) - 1):
        chosen = {rest[i] for i in range(len(rest)) if mask >> i & 1}
        c0 = frozenset({anchor} | chosen)
        c1 = class_set - c0
        score = ctx.score(c0, c1)
        evaluations += 1
        candidate = ScoredSplit(score, c0, c1)
        if best is None:
            best = candidate
        else:
            best, _ = update_score_and_groups(best, candidate)
    return SplitOutcome(best.c0, best.c1, best.score, evaluations, early_stopped=False)


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
