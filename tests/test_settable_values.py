"""Guard: every setting of the logic and service layers is set by the program.

A *setting* is a value a caller may choose or leave at its default, in the
packages of ``SCANNED``: a defaulted parameter of a public module-level
function, of a public method, or of a public class's ``__init__``, and a
defaulted field of a dataclass or NamedTuple.  Each must be set somewhere in
the program -- a module under ``src/repro``, a benchmark, an example or a
perfbench script -- or sit on ``ALLOWED_UNSET`` with the reason it stays.
Tests do not count, so a setting that only its own tests set fails here and
should be deleted (the parameter becomes a constant) with those tests.

A value counts as set by a call that names the definition (its function or
method name, or its class name for a constructor or a field) and passes it
by keyword or by position; by a ``**kwargs`` forwarder that builds the class
(``run_campaign(seed=1)`` sets ``CampaignSpec.seed``); by
``dataclasses.replace``; or, for a field, by assigning the attribute.  Calls
are matched by name, as in ``tests/test_public_api.py``.  One case is not
left to names: a call that passes a defaulted parameter of the function it
sits in on unchanged (``justify(circuit, cube, options=options)``) sets the
callee's value only where that parameter is itself set, so a setting no
caller chooses does not keep alive the ones it forwards to.
"""

from __future__ import annotations

import ast
import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
PROGRAM_DIRS = ("benchmarks", "examples", "perfbench")
#: The packages whose settings the guard counts.
SCANNED = ("campaign", "atpg", "analysis_static", "faults", "logic", "service")

#: Settings no program code sets, each kept for the reason given.
ALLOWED_UNSET = {
    # Campaign results and goldens embed them; job files set them.
    "campaign/runner.py:CampaignSpec.word_bits": "a golden pins the block width",
    "campaign/runner.py:CampaignSpec.static_phase": "the static_phase=False golden",
    "campaign/runner.py:CampaignSpec.atpg_engine": "the atpg_engine='d-alg' golden",
    # Read from files: fault plans and the worker's error payload.
    "service/faultinject.py:Injection.tag": "fault-plan field: pins a fault to one job",
    "service/faultinject.py:Injection.seconds": "fault-plan field: hang length",
    "service/jobs.py:JobError.traceback": "rebuilt from the worker's error payload",
    # ``rdag:gates,seed,inputs`` references pass it through the circuit registry.
    "logic/generators.py:random_dag.num_inputs": "third rdag reference argument",
    # Hooks the tests drive the program through.
    "campaign/sharded.py:RetryPolicy.sleep": "tests substitute a fake sleep",
    "service/cache.py:ResultCache.schema_version": "tests simulate a schema bump",
    "service/jobs.py:CampaignService.wait_all.timeout": "tests bound every wait",
    "logic/generators.py:random_dag.gate_types": "property tests draw OBD-capable DAGs",
    "logic/expand.py:expand_to_transistors.input_levels": "DC reference of the expansion",
    # A backtrack budget: the tests reach aborted searches through it.
    "atpg/podem.py:justify.options": "tests set max_backtracks",
    "atpg/two_pattern.py:generate_transition_test.options": "tests set max_backtracks",
    "atpg/path_delay_atpg.py:generate_path_delay_test.options": "tests set max_backtracks",
    "atpg/obd_atpg.py:generate_obd_test.options": "tests set max_backtracks",
    # Command-line entry points: the interpreter passes sys.argv.
    "analysis_static/cli.py:main.argv": "CLI entry point",
    "service/chaos.py:main.argv": "CLI entry point",
    "service/cli.py:main.argv": "CLI entry point",
}


@dataclass(frozen=True)
class Setting:
    """One settable value and the names a call must use to reach it."""

    where: str  # "<module path under src/repro>:<Qual.name>.<param or field>"
    names: frozenset[str]  # callee names that reach the definition
    param: str
    position: Optional[int]  # positional index in a call, None = keyword only
    field: bool  # a dataclass / NamedTuple field (settable by replace/assignment)
    reported: bool  # in a scanned package and public


def _program_files() -> list[Path]:
    files = sorted(SRC.rglob("*.py"))
    for directory in PROGRAM_DIRS:
        files.extend(sorted((ROOT / directory).rglob("*.py")))
    return files


def _is_record_class(node: ast.ClassDef) -> bool:
    """A dataclass or NamedTuple: its annotated class attributes are fields."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return any(getattr(base, "id", None) == "NamedTuple" for base in node.bases)


def _is_init_false(value: Optional[ast.expr]) -> bool:
    return isinstance(value, ast.Call) and any(
        k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
        for k in value.keywords
    )


def _defaulted(args: ast.arguments, skip_first: bool) -> Iterator[tuple[str, Optional[int]]]:
    """(name, call position) of each defaulted parameter."""
    positional = args.posonlyargs + args.args
    first_default = len(positional) - len(args.defaults)
    offset = 1 if skip_first else 0
    for index, arg in enumerate(positional):
        if index >= first_default:
            yield arg.arg, index - offset
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _kwargs_targets(node: ast.FunctionDef) -> set[str]:
    """Callee names this function hands its ``**kwargs`` to unchanged."""
    if node.args.kwarg is None:
        return set()
    name = node.args.kwarg.arg
    return {
        _callee(call)
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and _callee(call)
        and any(k.arg is None and getattr(k.value, "id", None) == name for k in call.keywords)
    }


def _bound_functions(value: ast.expr) -> list[str]:
    """Names a variable may be bound to by ``x = f``, ``x = f if c else g``
    or ``x = staticmethod(f)``."""
    if isinstance(value, ast.Name):
        return [value.id]
    if isinstance(value, ast.IfExp):
        return _bound_functions(value.body) + _bound_functions(value.orelse)
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "staticmethod":
        return _bound_functions(value.args[0])
    return []


def _callee(call: ast.Call) -> Optional[str]:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


class _Scan:
    """Every setting of the program, and which of them the program sets."""

    def __init__(self) -> None:
        self.settings: list[Setting] = []
        self.by_def: dict[tuple[int, str], Setting] = {}  # (id(def node), param)
        self.aliases: dict[str, set[str]] = {}  # callee name -> forwarders' names
        trees = [(path, ast.parse(path.read_text(encoding="utf-8"))) for path in _program_files()]
        for _, tree in trees:
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    for target in _kwargs_targets(node):
                        self.aliases.setdefault(target, set()).add(node.name)
                elif (isinstance(node, ast.Assign) and len(node.targets) == 1
                      and isinstance(node.targets[0], ast.Name)):
                    # ``pack = pack_pair_blocks if two_pattern else pack_pattern_blocks``,
                    # ``serial_simulate = staticmethod(serial_simulate_stuck_at)``
                    for name in _bound_functions(node.value):
                        self.aliases.setdefault(name, set()).add(node.targets[0].id)
        for path, tree in trees:
            self._collect(path, tree)
        self.calls = [call for _, tree in trees for call in self._calls(tree, None, None)]
        self.assigned = {
            target.attr
            for _, tree in trees
            for node in ast.walk(tree)
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Attribute) and getattr(target.value, "id", None) != "self"
        }
        self.set = self._fixpoint()

    # -- definitions ------------------------------------------------------ #
    def _names(self, name: str) -> frozenset[str]:
        return frozenset({name} | self.aliases.get(name, set()))

    def _add(self, node: ast.AST, where: str, names: frozenset[str], param: str,
             position: Optional[int], field: bool, reported: bool) -> None:
        setting = Setting(f"{where}.{param}", names, param, position, field, reported)
        self.settings.append(setting)
        self.by_def[(id(node), param)] = setting

    def _collect(self, path: Path, tree: ast.Module) -> None:
        parts = path.relative_to(ROOT).parts
        in_src = parts[:2] == ("src", "repro")
        scanned = in_src and len(parts) > 3 and parts[2] in SCANNED
        module = "/".join(parts[2:] if in_src else parts)
        functions = (ast.FunctionDef, ast.AsyncFunctionDef)
        seen: set[int] = set()
        for node in tree.body:
            if isinstance(node, functions):
                seen.add(id(node))
                self._function(node, f"{module}:{node.name}", self._names(node.name),
                               False, scanned and not node.name.startswith("_"))
            if not isinstance(node, ast.ClassDef):
                continue
            public_class = scanned and not node.name.startswith("_")
            names = self._names(node.name)
            position = 0
            for item in node.body:
                if isinstance(item, functions):
                    seen.add(id(item))
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in item.decorator_list)
                    constructor = item.name == "__init__"
                    self._function(
                        item, f"{module}:{node.name}.{item.name}",
                        names if constructor else self._names(item.name), not static,
                        scanned and not item.name.startswith("_") or constructor and public_class,
                    )
                elif (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                      and _is_record_class(node) and "ClassVar" not in ast.unparse(item.annotation)
                      and not _is_init_false(item.value)):
                    if item.value is not None:
                        self._add(item, f"{module}:{node.name}", names, item.target.id,
                                  position, True, public_class)
                    position += 1
        # Nested functions: never reported, but their parameters can forward.
        for node in ast.walk(tree):
            if isinstance(node, functions) and id(node) not in seen:
                self._function(node, f"{module}:{node.name}", self._names(node.name),
                               False, False)

    def _function(self, node, where: str, names: frozenset[str], skip_first: bool,
                  reported: bool) -> None:
        for param, position in _defaulted(node.args, skip_first):
            self._add(node, where, names, param, position, False, reported)

    # -- call sites ------------------------------------------------------- #
    def _calls(self, node: ast.AST, scope, klass: Optional[str]
               ) -> Iterator[tuple[str, object, Optional[Setting]]]:
        """(callee, keyword name or position, condition) of every argument.

        The condition is the setting a forwarded argument depends on, None
        when the call sets the value outright.  ``cls(...)`` names the
        enclosing class.  A function handed to another call by name
        (``pool.submit(fn, a, key=k)``) is taken to receive the arguments
        after it and the keywords.
        """
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from self._calls(child, scope, child.name)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                yield from self._calls(child, child, klass)
                continue
            if isinstance(child, ast.Call) and _callee(child):
                callee = _callee(child)
                targets = [(klass if callee == "cls" and klass else callee, 0)]
                targets += [(arg.id, index + 1) for index, arg in enumerate(child.args)
                            if isinstance(arg, ast.Name)]
                for name, first in targets:
                    args = child.args[first:]
                    starred = any(isinstance(arg, ast.Starred) for arg in args)
                    for position, arg in enumerate(args):
                        yield name, "*" if starred else position, self._condition(scope, arg)
                    for keyword in child.keywords:
                        if keyword.arg is not None:
                            yield name, keyword.arg, self._condition(scope, keyword.value)
            yield from self._calls(child, scope, klass)

    def _condition(self, scope, value: ast.expr) -> Optional[Setting]:
        if scope is None or not isinstance(value, ast.Name):
            return None
        return self.by_def.get((id(scope), value.id))

    def _fixpoint(self) -> set[Setting]:
        by_keyword: dict[tuple[str, str], list[Setting]] = {}
        by_position: dict[tuple[str, int], list[Setting]] = {}
        fields: dict[str, list[Setting]] = {}
        for setting in self.settings:
            for name in setting.names:
                by_keyword.setdefault((name, setting.param), []).append(setting)
                if setting.position is not None:
                    by_position.setdefault((name, setting.position), []).append(setting)
            if setting.field:
                fields.setdefault(setting.param, []).append(setting)
        done = {s for s in self.settings if s.field and s.param in self.assigned}
        while True:
            before = len(done)
            for callee, slot, condition in self.calls:
                if condition is not None and condition not in done:
                    continue
                if slot == "*":
                    done.update(s for s in self.settings
                                if callee in s.names and s.position is not None)
                elif isinstance(slot, int):
                    done.update(by_position.get((callee, slot), ()))
                else:
                    done.update(by_keyword.get((callee, slot), ()))
                    if callee == "replace":
                        done.update(fields.get(slot, ()))
            if len(done) == before:
                return done


@functools.cache
def _scan() -> _Scan:
    return _Scan()


def _unset() -> dict[str, Setting]:
    scan = _scan()
    return {s.where: s for s in scan.settings if s.reported and s not in scan.set}


def test_scan_counts_the_scanned_packages():
    reported = [s for s in _scan().settings if s.reported]
    wheres = {s.where for s in reported}
    assert "campaign/runner.py:CampaignSpec.seed" in wheres
    assert "atpg/podem.py:PodemOptions.max_backtracks" in wheres
    assert "campaign/sharded.py:ShardedCampaign.__init__.resume" in wheres
    assert not any(w.startswith(("spice/", "cells/")) for w in wheres)
    assert len(reported) >= 150


def test_scan_sees_forwarding_and_kwargs():
    scan = _scan()
    assert "CampaignSpec" in scan.aliases and "run_campaign" in scan.aliases["CampaignSpec"]
    done = {s.where for s in scan.set}
    # Set through run_campaign(**spec_kwargs) and ShardedCampaign(..., resume=...).
    assert "campaign/runner.py:CampaignSpec.pattern_source" in done
    assert "campaign/sharded.py:ShardedCampaign.__init__.resume" in done
    # generate_obd_test passes justify its own ``options`` on unchanged, and
    # no program code sets that one, so justify's stays unset.
    assert "atpg/podem.py:justify.options" not in done


def test_every_setting_has_a_setter():
    offenders = sorted(set(_unset()) - set(ALLOWED_UNSET))
    assert offenders == [], (
        "settings no program code sets: make them constants (and delete the "
        "tests that only set them) or give them a caller"
    )


def test_allow_list_is_not_stale():
    assert len(ALLOWED_UNSET) <= 19
    assert sorted(set(ALLOWED_UNSET) - set(_unset())) == []
