"""Deterministic synthetic time-series data for the benchmark.

Each class has a shape template: a sum of Gaussian bumps plus a slow sine,
drawn from the fixed :data:`TEMPLATE_SEED`, so the templates are the same for
every seed.  An instance is its class template circularly shifted by a random
offset, scaled by a random factor and overlaid with Gaussian noise; the seed
draws the shifts, scales and noise.  The shift is what makes the classes
hard for a linear model on the raw series and easier for the shift-tolerant
kernel features, so the scores stay away from 1.0 and a changed tree
selection changes the report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


#: The class templates are the same for every workload seed, so the class
#: structure (and with it the tree shapes the splitters find and the work a
#: pass does) stays alike across seeds; the seed draws the instances.
TEMPLATE_SEED = 20230921


@dataclass(frozen=True)
class Shape:
    """Size and difficulty of one generated dataset."""

    n_classes: int
    n_per_class: int
    length: int
    max_shift: int
    noise: float
    n_bumps: int = 3


def class_templates(shape: Shape, rng: np.random.Generator) -> np.ndarray:
    """(n_classes, length) unit-scale templates."""
    t = np.linspace(0.0, 1.0, shape.length)
    templates = np.empty((shape.n_classes, shape.length))
    for c in range(shape.n_classes):
        curve = 0.5 * np.sin(2 * np.pi * (rng.uniform(0.5, 2.0) * t + rng.uniform()))
        for _ in range(shape.n_bumps):
            centre = rng.uniform(0.1, 0.9)
            width = rng.uniform(0.02, 0.08)
            curve += rng.uniform(-2.0, 2.0) * np.exp(-0.5 * ((t - centre) / width) ** 2)
        templates[c] = curve
    return templates


def sample(
    templates: np.ndarray, shape: Shape, n_per_class: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Shifted, scaled, noisy copies of every template; rows grouped by class."""
    rows, labels = [], []
    for c, template in enumerate(templates):
        for _ in range(n_per_class):
            shift = int(rng.integers(-shape.max_shift, shape.max_shift + 1))
            scale = rng.uniform(0.7, 1.3)
            rows.append(
                np.roll(template, shift) * scale
                + rng.normal(0.0, shape.noise, shape.length)
            )
            labels.append(c)
    values = np.vstack(rows) if rows else np.empty((0, shape.length))
    return values, np.asarray(labels, dtype=np.int64)


def generate(shape: Shape, seed: int, n_unseen_per_class: int = 0):
    """Training set and, optionally, unseen rows drawn from the same templates
    with an independent stream.  Returns (values, labels, unseen)."""
    train_seq, unseen_seq = np.random.SeedSequence(seed).spawn(2)
    templates = class_templates(shape, np.random.default_rng(TEMPLATE_SEED))
    values, labels = sample(templates, shape, shape.n_per_class, np.random.default_rng(train_seq))
    unseen, _ = sample(templates, shape, n_unseen_per_class, np.random.default_rng(unseen_seq))
    return values, labels, unseen


def write_tsv(path, values: np.ndarray, labels: np.ndarray) -> None:
    """Label-first tab-separated rows with round-trip float precision."""
    with open(path, "w") as fh:
        for label, row in zip(labels, values):
            fh.write(str(int(label)) + "\t" + "\t".join(map(repr, row.tolist())) + "\n")
