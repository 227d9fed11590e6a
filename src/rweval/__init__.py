"""Scoping predictor and evaluation harness for x86-64 ELF binary rewriters.

The toolkit answers two questions. "Will rewriter X cope with this
binary?" -- via trivially extracted ELF features fed to per-tool decision
trees (five published models ship built in; new ones can be trained from
campaign results). And "how did the rewriters actually do?" -- via a
pluggable campaign harness with IR/EXE checkpoints, functional tests,
resource metering, byte-exact size accounting, and report tables.
"""

import importlib

# Each public name and the submodule that defines it. A name is imported on
# first use (PEP 562), so `import rweval` loads no submodule and a program
# pays only for the parts it touches.
_EXPORTS = {
    "dtree": ("Accuracy", "DecisionTreeModel", "Internal", "Leaf", "Prediction",
              "accuracy", "parse_tree", "predict", "select_features",
              "serialize_tree", "split_train_test", "train_cart"),
    "elf": ("ByteSource", "ElfFile", "ElfSummary", "ElfType", "SectionEntry",
            "parse_elf", "size_delta", "size_profile"),
    "errors": ("DegenerateSplit", "EmptyMatrix", "MalformedElf", "RwevalError",
               "SchemaError", "SpawnError", "UnknownTool", "Unsupported",
               "WorkdirError"),
    "features": ("FeatureMatrix", "FeatureVector", "build_matrix",
                 "canonicalize", "extract_features"),
    "harness": ("ManifestEntry", "Results", "RunRecord", "ToolAdapter",
                "afl_function_test", "null_function_test", "run_campaign", "run_task"),
    "report": ("Cohort", "comparative_average", "make_cohort", "relative_size",
               "section_size_table", "success_table"),
    "scope": ("ScopeReport", "builtin_models", "scope_binary"),
    "variant": ("Label", "Task", "TriState", "VariantConfig"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule; importing it binds it here
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
