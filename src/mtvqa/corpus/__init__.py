from .qtypes import (
    ALL_TYPES,
    COCOQA_TASKS,
    DAQUAR_TASKS,
    KeywordConfig,
    QuestionType,
    audit_sample,
    classify_question,
    default_keyword_config,
    label_corpus,
    load_keyword_config,
    parse_qtype,
)
from .types import ImageGroup, LabeledQuestion, MultiTaskExample, RawQuestion
from .parsing import parse_cocoqa, parse_daquar, tokenize
from .reformat import (
    CorpusStats,
    corpus_stats,
    flatten_single_task,
    group_by_image,
    isolate_slots,
    reformat_multitask,
)
from .synthetic import SyntheticSceneConfig, gen_synthetic_corpus
from .features import FeatureStore, load_features, save_features
from . import io

__all__ = [
    "ALL_TYPES", "COCOQA_TASKS", "DAQUAR_TASKS", "KeywordConfig", "QuestionType",
    "audit_sample", "classify_question", "default_keyword_config", "label_corpus",
    "load_keyword_config", "parse_qtype", "ImageGroup", "LabeledQuestion",
    "MultiTaskExample", "RawQuestion", "parse_cocoqa",
    "parse_daquar", "tokenize", "CorpusStats", "corpus_stats",
    "flatten_single_task", "group_by_image", "isolate_slots", "reformat_multitask",
    "SyntheticSceneConfig", "gen_synthetic_corpus", "FeatureStore",
    "load_features", "save_features", "io",
]
