"""The benchmark's workloads: input shape, config, and CLI command sequence.

Each workload runs `train`, `evaluate` and `cv` through the real CLI, so
every end-to-end metric exists on every workload; what differs is which
layers carry the work (see NOTES.md for the reasoning).
"""

from __future__ import annotations

from dataclasses import dataclass

from gen import Shape


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # file name under bench/configs
    shape: Shape
    tiny: Shape  # the smoke test's scale
    #: CLI arguments after `--config ... --out ...`; "{nproc}" is replaced
    commands: tuple[tuple[str, ...], ...]
    #: target whose FNC relative grade is reported, and the command scoring it
    graded_target: str
    graded_by: str
    uses_embeddings: bool
    #: pairs timed one by one for each similarity mode (centroid, relaxed, exact)
    similarity_samples: tuple[int, int, int]


# 20 headlines per body put the rare stances on enough distinct bodies
# that every cv fold still trains with a disagree example
_TINY_FNC = Shape(train_bodies=12, test_bodies=4, heads_per_body=20, body_tokens=60,
                  vocab_size=3000, embed_extra=2000)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fnc-headline",
            config="fnc-headline.yaml",
            # 50 bodies fill the three 5,000-term vocabularies on the
            # validation split's training part (cv folds reach about 4,300)
            shape=Shape(train_bodies=50, test_bodies=12, heads_per_body=30,
                        body_tokens=370),
            tiny=_TINY_FNC,
            commands=(("train", "--models", "baseline,manual_keywords,micc_keywords"),
                      ("evaluate", "--models",
                       "baseline,manual_keywords,micc_keywords,headline"),
                      ("cv", "--jobs", "{nproc}", "--models", "duo")),
            graded_target="headline",
            graded_by="evaluate",
            uses_embeddings=False,
            similarity_samples=(200, 100, 3),
        ),
        Workload(
            name="embed-sim",
            config="embed-sim.yaml",
            # many short bodies with two headlines each: the exact solver's
            # cost varies from body to body, and a total over 75 bodies
            # varies little from seed to seed
            shape=Shape(train_bodies=45, test_bodies=30, heads_per_body=2,
                        body_tokens=30),
            tiny=Shape(train_bodies=10, test_bodies=3, heads_per_body=2,
                       body_tokens=30, vocab_size=3000, embed_extra=2000),
            commands=(("train",), ("evaluate",),
                      ("cv", "--jobs", "1", "--models", "relaxed")),
            # the concatenation combiner, fitted on a handful of validation
            # pairs, flips decisions from seed to seed; the exact-WMD model
            # is the workload's most expensive path
            graded_target="exact",
            graded_by="evaluate",
            uses_embeddings=True,
            similarity_samples=(200, 100, 8),
        ),
    )
}
