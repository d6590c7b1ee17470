"""Settable values of the demerlab package: every knob a caller can turn.

    python3 tools/knobs.py

Imports `src/demerlab` from this checkout and prints one line per settable
value, then their total:

* each parameter with a default of a public function, or of a public method
  (including the constructor) of a public class, defined in a demerlab module;
  a dataclass's generated constructor covers its defaulted init fields;
* each CLI flag, a flag shared by every subcommand counted once.

Names starting with an underscore are private and not counted.
"""
from __future__ import annotations

import argparse
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src")]

import demerlab  # noqa: E402
from demerlab.cli import build_parser  # noqa: E402


def _defaulted(fn) -> list[str]:
    return [p.name for p in inspect.signature(fn).parameters.values()
            if p.default is not p.empty and not p.name.startswith("_")]


def parameter_knobs() -> list[str]:
    """`module.name(param)` for each defaulted public parameter."""
    out = []
    for info in sorted(pkgutil.iter_modules(demerlab.__path__), key=lambda m: m.name):
        mod = importlib.import_module(f"demerlab.{info.name}")
        for name, obj in sorted(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out += [f"{info.name}.{name}({p})" for p in _defaulted(obj)]
            elif inspect.isclass(obj):
                for attr, member in sorted(vars(obj).items()):
                    if attr.startswith("_") and attr != "__init__":
                        continue
                    fn = member.__func__ if isinstance(member, (classmethod, staticmethod)) else member
                    if inspect.isfunction(fn):
                        out += [f"{info.name}.{name}.{attr}({p})" for p in _defaulted(fn)]
    return out


def flag_knobs() -> list[str]:
    """`demerlab <group> <sub> --flag` for each CLI flag; shared flags once."""
    per_command = {}
    groups = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for group, group_parser in groups.choices.items():
        subs = next(a for a in group_parser._actions if isinstance(a, argparse._SubParsersAction))
        for sub, parser in subs.choices.items():
            per_command[f"{group} {sub}"] = [max(a.option_strings, key=len)
                                             for a in parser._actions
                                             if a.option_strings and a.dest != "help"]
    shared = set.intersection(*(set(flags) for flags in per_command.values()))
    out = [f"demerlab {flag}" for flag in sorted(shared)]
    for command, flags in per_command.items():
        out += [f"demerlab {command} {flag}" for flag in flags if flag not in shared]
    return out


def main() -> int:
    params, flags = parameter_knobs(), flag_knobs()
    for line in params + flags:
        print(line)
    print(f"parameters {len(params)}, CLI flags {len(flags)}, total {len(params) + len(flags)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
