"""T-series rules: the simulation clock is integer nanoseconds.

The engine sums many small per-hop delays; float time drifts, and a
single float sneaking into ``schedule()`` silently converts the whole
downstream event chain (heap keys compare float-vs-int fine, so nothing
crashes — results just stop being bit-stable across platforms).  These
rules keep every expression that flows into the clock integral at the
source: conversions must go through ``usec``/``msec``/``round``/``int``.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.context import ModuleContext
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, rule
from repro.analysis.rules.common import call_name, contains_float_or_division

#: Keyword names under which the time argument may be passed.
_TIME_KEYWORDS = ("at", "delay")
#: Positional index of the time argument where it is not the first.
_TIME_ARG_INDEX = {"rearm_timer": 1}


@rule
class FloatTimeArgRule(Rule):
    """T201: no float literal / true division flowing into a time API."""

    rule_id = "T201"
    summary = ("float or `/` division flows into schedule()/"
               "schedule_after()/schedule_timer()/rearm_timer(); the clock "
               "is integer ns")

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        apis = module.config.time_apis
        converters = module.config.time_converters
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name is None or name not in apis:
                continue
            index = _TIME_ARG_INDEX.get(name, 0)
            time_arg: ast.expr | None = (node.args[index]
                                         if len(node.args) > index else None)
            if time_arg is None:
                for keyword in node.keywords:
                    if keyword.arg in _TIME_KEYWORDS:
                        time_arg = keyword.value
                        break
            if time_arg is None:
                continue
            hit = contains_float_or_division(time_arg, converters)
            if hit is None:
                continue
            what = ("float literal" if isinstance(hit, ast.Constant)
                    else "true division (`/`)")
            yield self.finding(
                module, hit.lineno, hit.col_offset,
                f"{what} flows into {name}(); simulation time is "
                "integer nanoseconds — convert with usec()/msec()/round() "
                "or use `//`")


@rule
class FloatTimeVarRule(Rule):
    """T202: `*_ns` variables must be assigned integer expressions."""

    rule_id = "T202"
    summary = ("float or `/` division assigned to a *_ns variable; "
               "nanosecond quantities are integers")

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if not module.in_sim_package():
            return
        if module.matches(module.config.float_time_allow):
            return
        converters = module.config.time_converters
        for node in ast.walk(module.tree):
            targets: list[ast.expr]
            value: ast.expr | None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets, value = [node.target], node.value
            else:
                continue
            if value is None:
                continue
            if not any(self._is_ns_target(target) for target in targets):
                continue
            hit = contains_float_or_division(value, converters)
            if hit is None:
                continue
            what = ("float literal" if isinstance(hit, ast.Constant)
                    else "true division (`/`)")
            yield self.finding(
                module, hit.lineno, hit.col_offset,
                f"{what} assigned to a *_ns variable; keep nanosecond "
                "quantities integral (usec()/msec()/round()/`//`), or move "
                "float reporting math out of simulation modules")

    @staticmethod
    def _is_ns_target(node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            return False
        # ``*_per_ns`` names are rates (1/time), which are legitimately
        # fractional; only absolute nanosecond quantities must be ints.
        # Case-folded so SOME_GAP_NS module constants are covered too.
        name = name.lower()
        return name.endswith("_ns") and not name.endswith("_per_ns")
