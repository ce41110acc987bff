"""The library offers only what a command, an acceptance criterion or the
benchmark uses.

- Every public module-level function and class of ``torweyl`` is referenced
  in ``src/torweyl`` beyond its own definition, or in
  ``tests/test_acceptance.py``.
- Every defaulted parameter of a library function or method, and every
  defaulted dataclass field, is set by some call and left at its default by
  another: an option with one value in use is a constant.
- Every dataclass field is read, and every public method is used.

The last two checks scan the library, ``perfbench/``, ``tools/`` and
``tests/test_acceptance.py``, and match calls, reads and uses by name.

- A call ``config_object(f, ...)`` counts as a call of ``f``.
- A call that passes on a defaulted parameter of its own function sets the
  callee's parameter only where that parameter is set.
- A ``*`` splat sets every position from its own on, and a ``**`` splat
  every parameter whose name is a string literal in the calling module;
  either may also leave them at their defaults.
- An attribute load reads a field, and so does a ``fields(self)`` loop in
  one of its class's methods.

The command line offers only what something outside ``cli.py`` sets: every
config key of a ``cli.COMMANDS`` table, and every option of
``build_parser``, is named in a shipped config, the benchmark, a tool or a
test.
"""

import ast
import re
from pathlib import Path

from torweyl.cli import COMMANDS, build_parser

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "torweyl"
SCANNED = (sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
           + sorted((ROOT / "tools").glob("*.py"))
           + [ROOT / "tests" / "test_acceptance.py"])

# the quadrature-refinement test's reference budget: the full-grid sweep
# that the pruned sweep must match, kept in the library beside it
ALLOWED = {"boundary_cell_measure"}

# leftovers the checks below allow, each with its reason (none at present)
ALLOWED_UNSET: dict[str, str] = {}


def test_every_public_definition_is_used():
    defined, used = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defined[node.name] = path.stem
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    used |= set(re.findall(r"\w+", (ROOT / "tests" / "test_acceptance.py").read_text()))
    unused = sorted(f"{mod}.{name}" for name, mod in defined.items()
                    if name not in used and name not in ALLOWED)
    assert unused == []


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(getattr(d, "id", None) == "dataclass"
               or getattr(getattr(d, "func", None), "id", None) == "dataclass"
               for d in cls.decorator_list)


def _params(node):
    """(name, positional index or None, has a default) per parameter that a
    call passes, of a function, a method or a dataclass's constructor."""
    if isinstance(node, ast.ClassDef):
        return [(s.target.id, i, s.value is not None) for i, s in enumerate(
            s for s in node.body if isinstance(s, ast.AnnAssign))]
    a = node.args
    positional = a.posonlyargs + a.args
    first = len(positional) - len(a.defaults)
    out = [(p.arg, i, i >= first) for i, p in enumerate(positional)]
    out += [(p.arg, None, d is not None) for p, d in zip(a.kwonlyargs, a.kw_defaults)]
    return out


def _definitions():
    """(kind, label, name, params) per library function, method and
    dataclass; ``kind`` is "function", "method" or "dataclass"."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                yield "function", f"{path.stem}.{node.name}", node.name, _params(node)
            elif isinstance(node, ast.ClassDef):
                if _is_dataclass(node):
                    yield "dataclass", f"{path.stem}.{node.name}", node.name, _params(node)
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("__")):
                        params = _params(item)
                        if not any(getattr(d, "id", None) == "staticmethod"
                                   for d in item.decorator_list):
                            # self or cls: the call does not pass it
                            params = [(p, i if i is None else i - 1, d)
                                      for p, i, d in params[1:]]
                        yield ("method", f"{path.stem}.{node.name}.{item.name}",
                               item.name, params)


def _callee(func) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _calls(tree: ast.Module):
    """(callee, positional arguments, keyword arguments, star, open) per
    call in the tree.  An argument is None for a value, or (function,
    parameter) when it passes on a defaulted parameter of the enclosing
    function.  ``star`` holds when a ``*`` splat may fill the positions after
    the listed ones; a ``**`` splat adds the tree's string literals to the
    keywords.  ``open`` holds when either splat may leave a parameter out."""
    strings = {n.value for n in ast.walk(tree)
               if isinstance(n, ast.Constant) and isinstance(n.value, str)}

    def visit(node, enclosing, defaulted):
        if isinstance(node, ast.FunctionDef):
            enclosing = node.name
            defaulted = {p for p, _, d in _params(node) if d}
        for child in ast.iter_child_nodes(node):
            yield from visit(child, enclosing, defaulted)
        if not isinstance(node, ast.Call):
            return

        def source(arg):
            if isinstance(arg, ast.Name) and arg.id in defaulted:
                return enclosing, arg.id
            return None

        name, args = _callee(node.func), node.args
        if name == "config_object" and args:
            name, args = _callee(args[0]), args[1:]
        star = next((i for i, a in enumerate(args)
                     if isinstance(a, ast.Starred)), None)
        positional = [source(a) for a in args[:star]]
        keywords = {k.arg: source(k.value) for k in node.keywords if k.arg}
        double_star = len(keywords) < len(node.keywords)
        if double_star:
            keywords.update(dict.fromkeys(strings - set(keywords)))
        yield (name, positional, keywords, star is not None,
               star is not None or double_star)

    yield from visit(tree, None, set())


def _scan():
    """Over the scanned code: the calls by callee name, the loaded
    attribute names, and the classes that loop over ``fields(self)``."""
    calls, loads, all_fields = {}, set(), set()
    for path in SCANNED:
        tree = ast.parse(path.read_text())
        for name, *call in _calls(tree):
            calls.setdefault(name, []).append(call)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loads.add(node.attr)
            elif isinstance(node, ast.ClassDef) and any(
                    isinstance(n, ast.Call) and _callee(n.func) == "fields"
                    and [getattr(a, "id", None) for a in n.args] == ["self"]
                    for n in ast.walk(node)):
                all_fields.add(node.name)
    return calls, loads, all_fields


_MISSING = object()


def test_every_default_is_set_by_a_call_and_used_by_one():
    calls, _, _ = _scan()
    params = {}
    for kind, label, name, ps in _definitions():
        for param, index, defaulted in ps:
            if defaulted:
                params.setdefault((name, param), []).append((kind, label, index))

    def passed(call, index, param):
        """What the call passes for the parameter: None for a value, a
        (function, parameter) it passes on, or _MISSING."""
        positional, keywords, star, _ = call
        if param in keywords:
            return keywords[param]
        if index is not None and index < len(positional):
            return positional[index]
        if index is not None and star:
            return None
        return _MISSING

    def is_set(name, param, seen=()):
        for _, _, index in params.get((name, param), ()):
            for call in calls.get(name, ()):
                src = passed(call, index, param)
                if src is None or (src is not _MISSING and src not in seen
                                   and is_set(*src, seen + (src,))):
                    return True
        return False

    leftovers = {}
    for (name, param), defs in params.items():
        for kind, label, index in defs:
            item = f"{label}.{param}" if kind == "dataclass" else f"{label}({param})"
            if not is_set(name, param):
                leftovers[item] = "no call sets it"
            elif not any(passed(call, index, param) is _MISSING or call[3]
                         for call in calls.get(name, ())):
                leftovers[item] = "every call sets it"
    # an exception whose option is gone, or now set, is deleted from the list
    assert sorted(set(ALLOWED_UNSET) - set(leftovers)) == []
    found = sorted(f"{item}: {why}" for item, why in leftovers.items()
                   if item not in ALLOWED_UNSET)
    assert not found, "options with one value in use:\n" + "\n".join(found)


def test_every_field_is_read_and_every_public_method_is_used():
    _, loads, all_fields = _scan()
    dead = []
    for kind, label, name, params in _definitions():
        if kind == "dataclass" and name not in all_fields:
            dead += [f"{label}.{p}" for p, _, _ in params if p not in loads]
        elif kind == "method" and not name.startswith("_") and name not in loads:
            dead.append(label)
    dead.sort()
    assert not dead, "fields nothing reads, methods nothing uses:\n" + "\n".join(dead)


def test_every_cli_key_and_option_is_set_outside_the_cli():
    texts = [p.read_text() for p in sorted((ROOT / "configs").glob("*.cfg"))
             + sorted((ROOT / "perfbench").glob("*.py"))
             + sorted((ROOT / "tools").glob("*.py"))
             + sorted((ROOT / "tests").glob("*.py"))]
    names = set().union(*(re.findall(r"[\w.]+", t) for t in texts))
    options = set().union(*(re.findall(r"--[\w-]+", t) for t in texts))
    unset = sorted({name for _, table in COMMANDS.values() for name in table}
                   - names)
    unset += sorted({opt for action in build_parser()._actions
                     for opt in action.option_strings
                     if opt.startswith("--") and opt != "--help"} - options)
    assert not unset, "CLI keys and options nothing sets:\n" + "\n".join(unset)
