"""Event abstraction for process mining.

Discover local process models in a low-level event log, lift the log to
high-level activities, discover a model of the lifted log, and score the
expanded result against the original log.
"""

from .abstraction import (INTERLEAVING, PARALLEL, AbstractionModel,
                          ActivityPattern, Alignment, AlignmentMove,
                          abstract_log, abstract_trace, align_words,
                          compose, derive_lifecycle, make_pattern,
                          patterns_from_models)
from .conformance import QualityReport, evaluate, expand_model, f_score
from .discovery import discover_model
from .errors import (ConfigError, LogFormatError, LogliftError, PatternError,
                     SearchLimitError, StageError)
from .eventlog import (Event, EventLog, Trace, load_log, parse_csv, parse_xes,
                       save_xes, write_xes)
from .lpm import (LocalProcessModel, LpmRanking, ProcessTree, Segmentation,
                  and_, discover_lpms, diversity, filter_diverse, jaccard,
                  leaf, load_ranking, loop, make_lpm, parse_tree, save_ranking,
                  segment, seq, support, tau, tree_to_net, xor)
from .petrinet import (DEFAULT_STATE_LIMIT, AcceptingPetriNet, Marking,
                       PetriNet, Replay, accepts, language_upto)
from .pipeline import (PipelineConfig, PipelineResult, generate_log,
                       load_input, run_pipeline, run_stages, run_sweep,
                       sample_word, sweep_csv, write_artifacts)
from .pnml import parse_pnml, save_pnml, write_pnml

__version__ = "0.1.0"

__all__ = [
    "AbstractionModel", "AcceptingPetriNet", "ActivityPattern", "Alignment",
    "AlignmentMove", "ConfigError", "DEFAULT_STATE_LIMIT",
    "Event", "EventLog", "INTERLEAVING",
    "LocalProcessModel", "LogFormatError", "LogliftError", "LpmRanking",
    "Marking", "PARALLEL", "PatternError", "PetriNet", "PipelineConfig",
    "PipelineResult", "ProcessTree", "QualityReport", "Replay",
    "SearchLimitError", "Segmentation", "StageError", "Trace",
    "abstract_log", "abstract_trace", "accepts", "align_words",
    "and_", "compose", "derive_lifecycle", "discover_lpms",
    "discover_model", "diversity", "evaluate", "expand_model", "f_score",
    "filter_diverse", "generate_log", "jaccard", "language_upto",
    "leaf", "load_input", "load_log", "load_ranking", "loop", "make_lpm",
    "make_pattern", "parse_csv", "parse_pnml",
    "parse_tree", "parse_xes", "patterns_from_models",
    "run_pipeline", "run_stages", "run_sweep", "sample_word", "save_pnml",
    "save_ranking", "save_xes", "segment", "seq", "support", "sweep_csv", "tau", "tree_to_net", "write_artifacts", "write_pnml",
    "write_xes", "xor",
]
