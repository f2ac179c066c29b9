"""FNC-1 format corpus ingestion, validation, tokenization, and
leakage-safe fold planning.

Input files are UTF-8 CSV per RFC 4180 (quoted fields may embed commas and
newlines, which the bodies file uses). A Corpus tokenizes each distinct
headline and body once, on first read; every later step reads those
lists, as do its folds and validation splits. Fold planning splits by body
id so that no article body ever lands on both sides of a train/test boundary.
"""

from __future__ import annotations

import csv
import enum
import random
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from .errors import ConfigError, DataFormatError, IntegrityError
from .text import TokenList, tokenize


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


@dataclass(frozen=True)
class Instance:
    """One (headline, body) example; stance is None for unlabeled input."""

    headline: str
    body_id: int
    stance: Stance | None = None


def _token_lists(texts: Mapping) -> dict:
    """The token list of each text, keyed as texts is, sharing one interned string per term."""
    return {key: [sys.intern(t) for t in tokenize(text)] for key, text in texts.items()}


@dataclass(frozen=True)
class Corpus:
    """Instances plus the body store they reference. The token lists of each
    distinct headline (keyed by its text, in first-occurrence order) and of
    each body (keyed by body id) are made on first read."""

    instances: tuple[Instance, ...]
    bodies: Mapping[int, str]

    @cached_property
    def headline_tokens(self) -> dict[str, TokenList]:
        return _token_lists({i.headline: i.headline for i in self.instances})

    @cached_property
    def body_tokens(self) -> dict[int, TokenList]:
        return _token_lists(self.bodies)

    def __len__(self) -> int:
        return len(self.instances)

    def tokens_of_body(self, body_id: int) -> TokenList:
        """The token list of one body.

        >>> Corpus((Instance("Fake?", 7),), {7: "It's a-b FAKE."}).tokens_of_body(7)
        ['it', 's', 'a', 'b', 'fake']
        """
        try:
            return self.body_tokens[body_id]
        except KeyError:
            raise IntegrityError(f"body id {body_id} not in corpus") from None

    def restrict(self, body_ids: Iterable[int]) -> "Corpus":
        """Sub-corpus of the given bodies and their instances, with the parent's token lists."""
        keep = set(body_ids)
        part = Corpus(tuple(i for i in self.instances if i.body_id in keep),
                      {b: t for b, t in self.bodies.items() if b in keep})
        part.__dict__.update(  # the caches cached_property reads
            headline_tokens={i.headline: self.headline_tokens[i.headline] for i in part.instances},
            body_tokens={b: t for b, t in self.body_tokens.items() if b in keep},
        )
        return part


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


@contextmanager
def _reader(path: Path, required: Iterable[str]) -> Iterator[csv.DictReader]:
    """A reader of the CSV at path, closed on exit, that has every required column."""
    with path.open("r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        have = set(reader.fieldnames or ())
        for col in required:
            if col not in have:
                raise DataFormatError(f"{path}: missing required column {col!r}")
        yield reader


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
            try:
                body_id = int(row["Body ID"])
            except (TypeError, ValueError):
                raise DataFormatError(
                    f"{path}: row {row_no}: unparseable body id {row['Body ID']!r}"
                ) from None
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
            try:
                body_id = int(row["Body ID"])
            except (TypeError, ValueError):
                raise DataFormatError(
                    f"{path}: row {row_no}: unparseable body id {row['Body ID']!r}"
                ) from None
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
    k = max(2, round(1.0 / fraction))
    dealt = len({i.body_id for i in corpus.instances})
    if dealt < k:
        raise ConfigError(f"validation.fraction {fraction} needs at least {k} bodies "
                          f"with stance rows, have {dealt}")
    return plan_folds(corpus, k=k, seed=seed).split(corpus, fold=0)
