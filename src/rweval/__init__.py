"""Scoping predictor and evaluation harness for x86-64 ELF binary rewriters.

The toolkit answers two questions. "Will rewriter X cope with this
binary?" -- via trivially extracted ELF features fed to per-tool decision
trees (five published models ship built in; new ones can be trained from
campaign results). And "how did the rewriters actually do?" -- via a
pluggable campaign harness with IR/EXE checkpoints, functional tests,
resource metering, byte-exact size accounting, and report tables.
"""

from .dtree import (
    Accuracy,
    DecisionTreeModel,
    Internal,
    Leaf,
    Prediction,
    Task,
    accuracy,
    parse_tree,
    predict,
    select_features,
    serialize_tree,
    split_train_test,
    train_cart,
)
from .elf import (
    ByteSource,
    ElfFile,
    ElfSummary,
    ElfType,
    SectionEntry,
    SizeProfile,
    parse_elf,
    size_delta,
    size_profile,
)
from .errors import (
    DegenerateSplit,
    EmptyMatrix,
    MalformedElf,
    RwevalError,
    SchemaError,
    SpawnError,
    UnknownTool,
    Unsupported,
    WorkdirError,
)
from .features import (
    FeatureMatrix,
    FeatureVector,
    Label,
    build_matrix,
    canonicalize,
    extract_features,
)
from .harness import (
    ManifestEntry,
    Results,
    RunRecord,
    ToolAdapter,
    TriState,
    VariantConfig,
    afl_function_test,
    null_function_test,
    run_campaign,
    run_task,
)
from .report import (
    Cohort,
    comparative_average,
    make_cohort,
    relative_size,
    section_size_table,
    success_table,
)
from .scope import ScopeReport, builtin_models, scope_binary

__version__ = "0.1.0"
