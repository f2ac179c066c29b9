"""Stance detection for headline/body news pairs.

Bag-of-words MLP classifiers with keyword-indicator and embedding-similarity
features, probability-fusion ensembling, and the weighted relatedness metric.
"""

from .corpus import Corpus, FoldPlan, Instance, STANCES, Stance, load_corpus
from .evaluation import ScoreReport, cross_validate, fnc_score, score_predictions
from .mlp import MlpModel, TrainingConfig, load_model, save_model, train
from .pipeline import FittedPipeline, PipelineSpec, fit_pipeline

__version__ = "0.1.0"

__all__ = [
    "Corpus",
    "FittedPipeline",
    "FoldPlan",
    "Instance",
    "MlpModel",
    "PipelineSpec",
    "STANCES",
    "ScoreReport",
    "Stance",
    "TrainingConfig",
    "cross_validate",
    "fit_pipeline",
    "fnc_score",
    "load_corpus",
    "load_model",
    "save_model",
    "score_predictions",
    "train",
]
