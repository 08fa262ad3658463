"""Corpus-driven laboratory for unsupervised text segmentation.

Builds character n-gram transition models, segments text at the rising
peaks of their transition-freedom profiles, and sweeps hyper-parameters
while recording segmentation F1 together with culture-agnostic metrics
(anti-entropy, compression factor, cross-split F1).
"""

from .corpus import (
    DataError,
    GoldSegmentation,
    SplitPair,
    TextCorpus,
    load_gold,
    load_text,
    sample_lines,
    split_even_odd,
)
from .lab import (
    CorrelationSummary,
    GridSpec,
    TrialRecord,
    parse_grid_spec,
    pearson,
    run_grid,
    run_morph_grid,
    summarize,
    write_summary_json,
    write_trials_csv,
)
from .metrics import (
    BoundaryCounts,
    MetricsReport,
    TokenStats,
    anti_entropy,
    boundary_f1,
    compression_factor,
    cross_split_f1,
    derived_metrics,
    token_span_f1,
    token_stats,
)
from .morphology import (
    AffixInventory,
    FreqLexicon,
    MorphParse,
    build_morph_model,
    filter_lexicon,
    greedy_parse,
    load_affixes,
    load_lexicon,
    morph_segment,
    weighted_morph_f1,
)
from .ngram import (
    ModelFormatError,
    TransitionModel,
    build_model,
    freedom,
    load_model,
    max_freedom,
    prune,
    save_model,
)
from .segmenter import (
    Segmentation,
    SegmenterParams,
    detect_boundaries,
    profile,
    scores,
    segment,
    segment_corpus,
)

__version__ = "0.1.0"
