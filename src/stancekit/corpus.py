"""The four stance classes, FNC-1 format corpus ingestion, validation,
tokenization, and leakage-safe fold planning. STANCES fixes the class order;
stance_indices and decisions are the only stance <-> class index mappings.

Input files are UTF-8 CSV per RFC 4180 (quoted fields may embed commas and
newlines, which the bodies file uses). A Corpus tokenizes each distinct
headline and body once, on first read, and keeps each side only as one
document-by-term count matrix over the side's sorted term ids; its folds and
validation splits read the same matrices, weighing their own rows. Fold
planning splits by body id so that no article body ever lands on both sides
of a train/test boundary.
"""

from __future__ import annotations

import csv
import enum
import operator
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataFormatError, IntegrityError, reading
from .text import TermCounts, intern, tokenize


class Stance(enum.Enum):
    """The four stance classes, in canonical order."""

    AGREE = "agree"
    DISAGREE = "disagree"
    DISCUSS = "discuss"
    UNRELATED = "unrelated"

    @property
    def index(self) -> int:
        return _STANCE_INDEX[self]

    @classmethod
    def parse(cls, text: str) -> "Stance":
        """Case-insensitive parse; raises ValueError for anything else."""
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ValueError(f"unknown stance {text!r}") from None

    def __str__(self) -> str:
        return self.value


#: Canonical class order: agree=0, disagree=1, discuss=2, unrelated=3.
STANCES: tuple[Stance, ...] = (Stance.AGREE, Stance.DISAGREE, Stance.DISCUSS, Stance.UNRELATED)
_STANCE_INDEX = {s: i for i, s in enumerate(STANCES)}


def stance_indices(labels: Sequence[Stance | int | None] | np.ndarray) -> np.ndarray:
    """Class indices of labels (Stances or ints 0..3) as an int64 array; an
    integer array is range-checked and returned as it is. An unlabeled
    (None) or out-of-range label raises ValueError naming its position."""
    y = labels
    if not (isinstance(labels, np.ndarray) and labels.dtype.kind in "iu"):
        y = np.empty(len(labels), dtype=np.int64)
        for row, label in enumerate(labels):
            if label is None:
                raise ValueError(f"label at position {row} is unlabeled")
            y[row] = label.index if isinstance(label, Stance) else operator.index(label)
    bad = np.flatnonzero((y < 0) | (y >= len(STANCES)))
    if len(bad):
        raise ValueError(f"label {y[bad[0]]} is not a stance index 0..3 (position {bad[0]})")
    return y


def decisions(probs: np.ndarray) -> list[Stance]:
    """The argmax stance of each (n, 4) probability row; np.argmax takes the
    first maximum, so a tie goes to the lowest index."""
    return [STANCES[i] for i in np.argmax(probs, axis=1).tolist()]


@dataclass(frozen=True)
class Instance:
    """One (headline, body) example; stance is None for unlabeled input."""

    headline: str
    body_id: int
    stance: Stance | None = None


def _shared(build):
    """A cached property that a corpus builds from its own instances and
    bodies, and that a part restrict took reads from its source instead."""

    def read(corpus):
        return build(corpus) if corpus.source is None else getattr(corpus.source, build.__name__)

    read.__doc__ = build.__doc__
    return cached_property(read)


@dataclass(frozen=True)
class Corpus:
    """Instances plus the body store they reference. Each side, the distinct
    headlines (in first-occurrence order) and the bodies (in bodies order),
    is tokenized on first read into one text.TermCounts, which every fit
    and block reads; the token lists live only while it is interned. A
    part that restrict takes has a source, the first corpus of the chain it
    was taken from: it reads the source's counts and term tables, and its
    weights say which of their rows are its own."""

    instances: tuple[Instance, ...]
    bodies: Mapping[int, str]
    source: Corpus | None = field(default=None, repr=False, compare=False)

    @_shared
    def headlines(self) -> dict[str, int]:
        """Each distinct headline's row in headline_counts."""
        return {h: r for r, h in enumerate(dict.fromkeys(i.headline for i in self.instances))}

    @_shared
    def headline_counts(self) -> TermCounts:
        return intern(tokenize(h) for h in self.headlines)

    @_shared
    def body_counts(self) -> TermCounts:
        return intern(tokenize(text) for text in self.bodies.values())

    @_shared
    def terms(self) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
        """The corpus's term table, both sides' terms sorted, and the ids in
        it of headline_counts' and body_counts' terms."""
        sides = (self.headline_counts.terms, self.body_counts.terms)
        table = tuple(sorted(set().union(*sides)))
        index = dict(zip(table, range(len(table))))
        return table, *(np.fromiter(map(index.__getitem__, s), np.intp, len(s)) for s in sides)

    @_shared
    def _body_index(self) -> dict[int, int]:
        return {b: r for r, b in enumerate(self.bodies)}

    @cached_property
    def headline_weights(self) -> np.ndarray:
        """How many of this corpus's instances each headline_counts row stands for."""
        return np.bincount([self.headlines[i.headline] for i in self.instances],
                           minlength=len(self.headlines))

    @cached_property
    def body_weights(self) -> np.ndarray:
        """1 for each body_counts row that is a body of this corpus, else 0."""
        return np.bincount(self.body_rows(self.bodies), minlength=len(self._body_index))

    def __len__(self) -> int:
        return len(self.instances)

    def body_rows(self, body_ids: Iterable[int]) -> list[int]:
        """The body_counts row of each body id, in order."""
        try:
            return [self._body_index[b] for b in body_ids]
        except KeyError as exc:
            raise IntegrityError(f"body id {exc.args[0]} not in corpus") from None

    def restrict(self, body_ids: Iterable[int]) -> "Corpus":
        """Sub-corpus of the given bodies and their instances, whose source is
        this corpus's source, or this corpus if it has none."""
        keep = set(body_ids)
        return Corpus(tuple(i for i in self.instances if i.body_id in keep),
                      {b: t for b, t in self.bodies.items() if b in keep},
                      source=self if self.source is None else self.source)


@dataclass(frozen=True)
class FoldPlan:
    """Assignment of every referenced body id to one of k folds."""

    k: int
    assignments: Mapping[int, int]

    def bodies_in(self, fold: int) -> frozenset[int]:
        return frozenset(b for b, f in self.assignments.items() if f == fold)

    def split(self, corpus: Corpus, fold: int) -> tuple[Corpus, Corpus]:
        """(train, heldout) sub-corpora for one fold; bodies outside the
        plan (no stance row references them) stay on the training side."""
        held = self.bodies_in(fold)
        return corpus.restrict(set(corpus.bodies) - held), corpus.restrict(held)


#: csv's per-field limit for reading, far above its 131,072-character
#: default so that a long article body reads; the largest C long of every
#: platform (Windows' is 32 bits), which field_size_limit requires
_FIELD_SIZE_LIMIT = 2**31 - 1


@contextmanager
def _reader(path: Path, required: Iterable[str]) -> Iterator[csv.DictReader]:
    """A reader of the CSV at path, closed on exit, that has every required
    column; a UTF-8 byte-order mark is skipped. The block runs inside
    errors.reading, so bytes that are not UTF-8 raise DataFormatError."""
    csv.field_size_limit(_FIELD_SIZE_LIMIT)
    with path.open("r", encoding="utf-8-sig", newline="") as handle, reading(path):
        reader = csv.DictReader(handle)
        have = set(reader.fieldnames or ())
        for col in required:
            if col not in have:
                raise ValueError(f"missing required column {col!r}")
        yield reader


def _body_id(path: Path, row_no: int, row: Mapping[str, str]) -> int:
    """The row's Body ID as an int; row_no is its line in the file."""
    try:
        return int(row["Body ID"])
    except (TypeError, ValueError):
        raise DataFormatError(
            f"{path}: row {row_no}: unparseable body id {row['Body ID']!r}"
        ) from None


def load_stances(path: str | Path) -> list[Instance]:
    """Read a stances CSV (Headline, Body ID, optional Stance).

    Rows become Instances in file order. The Stance column may be absent
    entirely (unlabeled test input) but may not be blank row-by-row when
    present.
    """
    path = Path(path)
    instances: list[Instance] = []
    with _reader(path, ("Headline", "Body ID")) as reader:
        labeled = "Stance" in (reader.fieldnames or ())
        for row_no, row in enumerate(reader, start=2):  # header is line 1
            headline = (row["Headline"] or "").strip()
            if not headline:
                raise DataFormatError(f"{path}: row {row_no}: empty headline")
            body_id = _body_id(path, row_no, row)
            stance = None
            if labeled:
                try:
                    stance = Stance.parse(row["Stance"] or "")
                except ValueError as exc:
                    raise DataFormatError(f"{path}: row {row_no}: {exc}") from None
            instances.append(Instance(headline=headline, body_id=body_id, stance=stance))
    return instances


def load_bodies(path: str | Path) -> dict[int, str]:
    """Read a bodies CSV (Body ID, articleBody) into an id -> text map."""
    path = Path(path)
    bodies: dict[int, str] = {}
    with _reader(path, ("Body ID", "articleBody")) as reader:
        for row_no, row in enumerate(reader, start=2):
            body_id = _body_id(path, row_no, row)
            if body_id in bodies:
                raise DataFormatError(f"{path}: duplicate body id {body_id}")
            bodies[body_id] = row["articleBody"] or ""
    return bodies


def make_corpus(instances: Iterable[Instance], bodies: Mapping[int, str]) -> Corpus:
    """Assemble and validate a Corpus; every instance body id must resolve."""
    instances = tuple(instances)
    missing = sorted({i.body_id for i in instances} - set(bodies))
    if missing:
        raise IntegrityError(f"instances reference absent body ids: {missing}")
    return Corpus(instances=instances, bodies=dict(bodies))


def load_corpus(stances_path: str | Path, bodies_path: str | Path) -> Corpus:
    """Load and cross-validate a stances/bodies file pair."""
    return make_corpus(load_stances(stances_path), load_bodies(bodies_path))


def plan_folds(corpus: Corpus, k: int, seed: int) -> FoldPlan:
    """Deal the ids of bodies that have stance rows into k folds, shuffled
    deterministically by seed.

    Bodies (not instances) are dealt round-robin, so all instances sharing a
    body land in the same fold and fold sizes differ by at most one body.
    Bodies that no stance row references are not dealt, so every fold
    holds instances; FoldPlan.split keeps them on the training side.
    """
    if k < 2:
        raise ValueError(f"fold count must be >= 2, got {k}")
    ids = sorted({i.body_id for i in corpus.instances})
    if len(ids) < k:
        raise ConfigError(f"need at least {k} bodies for {k} folds, have {len(ids)}")
    random.Random(seed).shuffle(ids)
    return FoldPlan(k=k, assignments={b: i % k for i, b in enumerate(ids)})


def validation_split(corpus: Corpus, fraction: float, seed: int) -> tuple[Corpus, Corpus]:
    """Hold out one of round(1/fraction) body folds as a validation sub-corpus."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"validation fraction must be in (0,1), got {fraction}")
    if fraction > 0.5:
        raise ValueError(f"validation fraction must be <= 0.5 (at most half the bodies "
                         f"can be held out), got {fraction}")
    k = max(2, round(1.0 / fraction))
    dealt = len({i.body_id for i in corpus.instances})
    if dealt < k:
        raise ConfigError(f"validation.fraction {fraction} needs at least {k} bodies "
                          f"with stance rows, have {dealt}")
    return plan_folds(corpus, k=k, seed=seed).split(corpus, fold=0)
