"""Spreadsheet audit toolkit.

Parses workbook documents, builds the cell dependency graph, runs the
error and fraud rule suite, prices the residual risk, and plans the
inspection and regression controls that keep it down.

Importing the package loads none of its modules: each exported name is
imported from its module on first use (PEP 562), so a process that needs
one layer does not pay for the rest.
"""

import importlib

__version__ = "0.1.0"

# re-exported name -> the module that defines it
_EXPORTS = {
    "evaluate": "engine",
    "recheck": "engine",
    "snapshot": "engine",
    "build_graph": "graph",
    "chain_stats": "graph",
    "Workbook": "model",
    "parse_workbook": "model",
    "serialize_workbook": "model",
    "RiskParams": "risk",
    "assess": "risk",
    "RuleConfig": "rules",
    "run_rules": "rules",
}

__all__ = sorted(["__version__", *_EXPORTS])


def __getattr__(name: str) -> object:
    # The module's current binding is read on every access, not cached here,
    # so a name rebound in its module is seen through the package too.
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
