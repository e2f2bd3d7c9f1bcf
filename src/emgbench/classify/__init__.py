from .base import (
    ClassifyError,
    Standardizer,
    TrainedModel,
    VoteModel,
    majority_vote,
    model_from_blob,
    model_to_blob,
)
from .ensembles import boost_round_weight, fit_adaboost_rf, fit_bagging
from .forest import fit_random_forest
from .knn import fit_knn, knn_predict
from .lda import fit_lda
from .pipeline import MODEL_NAMES, Pipeline, fit_pipeline
from .svm import fit_linear_svm
from .tree import DecisionTree

__all__ = [
    "MODEL_NAMES",
    "ClassifyError",
    "DecisionTree",
    "Pipeline",
    "Standardizer",
    "TrainedModel",
    "VoteModel",
    "boost_round_weight",
    "fit_adaboost_rf",
    "fit_bagging",
    "fit_knn",
    "fit_linear_svm",
    "fit_lda",
    "fit_pipeline",
    "fit_random_forest",
    "knn_predict",
    "majority_vote",
    "model_from_blob",
    "model_to_blob",
]
