"""Citation-impact indicators for research groups, with built-in diagnostics.

Computes the classic ratio-of-sums crown indicator (CPP/FCSm), its
mean-of-ratios successor (MNCS) under arithmetic or harmonic multi-category
weighting, the median variant (MdNCS), percentile ranks with top-x% shares,
and citing-side fractional citation counting, over corpora read from plain
JSONL/CSV files or generated synthetically with a fixed seed. Diagnostics
make the indicators' failure modes executable: ranking flips of ratio-of-sums
aggregation, indexer effects from multi-category journal attribution, and
non-parametric group comparison via the rank-sum test.

The package namespace holds what the README library example needs. The
table builder, the per-paper score pass, the diagnostics and the synthetic
corpus generator are imported from their modules (``crown.baselines``,
``crown.indicators``, ``crown.diagnostics``, ``crown.synth``).
"""

from .baselines import Weighting
from .corpus import CitationWindow, CorpusError, ParseError, load_corpus
from .indicators import (
    DegenerateGroupError,
    GroupSelection,
    IndicatorReport,
    score_group,
)

__version__ = "0.1.0"

__all__ = [
    "CitationWindow",
    "CorpusError",
    "DegenerateGroupError",
    "GroupSelection",
    "IndicatorReport",
    "ParseError",
    "Weighting",
    "load_corpus",
    "score_group",
]
