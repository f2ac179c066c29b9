"""Shared fixtures: synthetic corpora, CSV writers, toy embeddings.

The synthetic corpus is built so the stance signal is actually learnable:
related headlines share theme words with their body, disagree headlines
carry refutation terms, unrelated headlines share only filler words.
"""

import csv
import os
import random
from pathlib import Path

import pytest
from hypothesis import settings

from stancekit.corpus import Corpus, Instance, Stance, make_corpus

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

FILLER = (
    "the", "a", "officials", "report", "people", "city", "news", "today",
    "group", "plan", "story", "claim", "experts", "sources", "week", "press",
)

THEMES = {
    "hoax": ("hoax", "debunked", "fake", "fraud"),
    "science": ("vaccine", "study", "confirms", "research"),
    "business": ("stocks", "earnings", "market", "rally"),
}

LABEL_CYCLE = (Stance.AGREE, Stance.DISAGREE, Stance.DISCUSS, Stance.UNRELATED)

# exercised by loader tests: RFC 4180 quoting with embedded newline and comma
TRICKY_BODY = 'He said, "this is, frankly, a hoax"\nand left the room.'


def synthetic_corpus(n_instances: int = 96, n_bodies: int = 24, seed: int = 5) -> Corpus:
    """Deterministic labeled corpus with a learnable stance signal."""
    rng = random.Random(seed)
    theme_names = sorted(THEMES)
    bodies: dict[int, str] = {}
    for b in range(1, n_bodies + 1):
        theme = theme_names[b % len(theme_names)]
        toks = rng.choices(FILLER, k=30) + rng.choices(THEMES[theme], k=6)
        rng.shuffle(toks)
        bodies[b] = " ".join(toks)
    if n_bodies >= 3:
        bodies[3] = TRICKY_BODY

    instances = []
    for i in range(n_instances):
        b = (i % n_bodies) + 1
        label = LABEL_CYCLE[i % 4]
        words = rng.choices(FILLER, k=5)
        if label is not Stance.UNRELATED:
            theme = theme_names[b % len(theme_names)]
            words += rng.choices(THEMES[theme], k=2)
        if label is Stance.DISAGREE:
            words.append("fake")
        instances.append(Instance(headline=" ".join(words), body_id=b, stance=label))
    return make_corpus(instances, bodies)


def write_stances(path: Path, rows, labeled: bool = True) -> None:
    """rows: iterable of (headline, body_id, stance-or-None)."""
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["Headline", "Body ID", "Stance"] if labeled else ["Headline", "Body ID"])
        for headline, body_id, stance in rows:
            if labeled:
                writer.writerow([headline, body_id, str(stance)])
            else:
                writer.writerow([headline, body_id])


def write_bodies(path: Path, bodies) -> None:
    """bodies: mapping body_id -> text."""
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["Body ID", "articleBody"])
        for body_id, text in bodies.items():
            writer.writerow([body_id, text])


def write_corpus_files(corpus: Corpus, stances_path: Path, bodies_path: Path) -> None:
    write_stances(
        stances_path, [(i.headline, i.body_id, i.stance) for i in corpus.instances]
    )
    write_bodies(bodies_path, corpus.bodies)


def all_theme_words():
    out = list(FILLER)
    for words in THEMES.values():
        out.extend(words)
    return out


def write_vectors(path: Path, dim: int = 8, seed: int = 11, header: bool = True) -> list[str]:
    """Toy embedding file covering the synthetic word pool; returns the terms."""
    rng = random.Random(seed)
    words = all_theme_words()
    with path.open("w", encoding="utf-8") as fh:
        if header:
            fh.write(f"{len(words)} {dim}\n")
        for word in words:
            vec = [round(rng.gauss(0.0, 1.0), 4) for _ in range(dim)]
            fh.write(word + " " + " ".join(str(v) for v in vec) + "\n")
    return words


@pytest.fixture(scope="session")
def toy_corpus() -> Corpus:
    return synthetic_corpus()


@pytest.fixture()
def data_dir(tmp_path: Path) -> Path:
    """Train/test CSV files from a body-disjoint synthetic split."""
    train = synthetic_corpus(n_instances=96, n_bodies=24, seed=5)
    d = tmp_path / "data"
    d.mkdir()
    write_corpus_files(train, d / "train_stances.csv", d / "train_bodies.csv")
    # test side reuses the body pool but fresh headline draws
    test = synthetic_corpus(n_instances=24, n_bodies=24, seed=6)
    write_corpus_files(test, d / "test_stances.csv", d / "test_bodies.csv")
    return d


@pytest.fixture()
def vectors_file(tmp_path: Path) -> Path:
    path = tmp_path / "vectors.txt"
    write_vectors(path)
    return path


# Full-dataset checks only run when the four FNC-1 CSV files are present,
# either under $STANCEKIT_FNC_DATA or the repository's data/ directory.
#: the shipped three-model config: the paper's manual refutation list lives here
HEADLINE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "headline.yaml"

FNC_FILES = {
    "train_stances": "train_stances.csv",
    "train_bodies": "train_bodies.csv",
    "test_stances": "competition_test_stances.csv",
    "test_bodies": "competition_test_bodies.csv",
}


def fnc_paths() -> dict[str, Path] | None:
    env = os.environ.get("STANCEKIT_FNC_DATA")
    base = Path(env) if env else Path(__file__).resolve().parent.parent / "data"
    paths = {key: base / name for key, name in FNC_FILES.items()}
    if all(p.is_file() for p in paths.values()):
        return paths
    return None


FNC_SKIP_REASON = (
    "FNC-1 dataset not present (place the four CSV files in data/ or point "
    "STANCEKIT_FNC_DATA at them)"
)

requires_fnc = pytest.mark.skipif(fnc_paths() is None, reason=FNC_SKIP_REASON)
