"""Trace-driven KV-cache eviction with audio-critical head scoring, head-wise
budget allocation, and spectral score smoothing."""

from .budget import (
    AllocationMode,
    BudgetPlan,
    allocate,
    load_plan,
    make_plan,
    resolve_base_tokens,
    save_plan,
)
from .errors import (
    AudioKvError,
    BudgetTooSmallError,
    CapacityBelowRecentError,
    DegenerateSpanError,
    DimensionMismatchError,
    FormatError,
    HorizonError,
    IntegrityError,
)
from .eviction import (
    POLICIES,
    EvictionResult,
    ObservationWindow,
    build_observation_window,
    load_result,
    save_result,
    select,
    select_adakv,
    select_audiokv,
    select_h2o,
    select_snapkv,
)
from .fixtures import PROFILES, Fixture, generate_fixture
from .heads import (
    HeadScoreMatrix,
    TopKConfig,
    load_scores,
    save_scores,
    score_heads,
)
from .metrics import (
    COMPARE_GRID,
    KvGeometry,
    PolicySpec,
    RetentionReport,
    compare_grid,
    coverage_entropy,
    memory_footprint,
    oracle_overlap,
    retained_mass,
    run_comparison,
    write_reports,
)
from .spectral import (
    SssConfig,
    build_mask,
    energy_cutoff,
    smooth_rows,
)
from .trace import (
    AttentionTrace,
    AudioSpan,
    DecodingStep,
    WordAlignment,
    WordStepMap,
    align_generated_to_words,
    filter_words,
    load_alignment,
    load_trace,
    map_trace,
    validate_trace,
    word_to_audio_span,
    write_alignment,
    write_trace,
)

__version__ = "0.1.0"
