"""Checks on the library's source text."""

import ast
import json
import re
from pathlib import Path

import pytest

import jumprl
from jumprl import cli

MODULES = sorted(p for p in Path(jumprl.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
TEST_MODULES = sorted(Path(__file__).parent.glob("*.py"))
README = Path(__file__).parent.parent / "README.md"
SKIPS = {"skip", "skipif", "xfail"}
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads. The package's __init__ is
    left out, since it imports names only to export them."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_found():
    source = "import os\nfrom math import inf, pi\n\nprint(os.sep, pi)\n"
    assert unused_imports(source) == ["line 2: inf"]


def double_bindings(sources: dict[str, str]) -> dict[str, list[str]]:
    """Module-level UPPER_CASE names that more than one module assigns, with
    the modules that assign them. Importing a name does not bind it anew."""
    where: dict[str, set] = {}
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and CONSTANT.fullmatch(name.id):
                        where.setdefault(name.id, set()).add(module)
    return {name: sorted(mods) for name, mods in sorted(where.items()) if len(mods) > 1}


def test_each_constant_is_bound_in_one_module():
    # a second binding can drift from the first; other modules import the one
    assert double_bindings({p.stem: p.read_text() for p in MODULES}) == {}


def test_double_binding_is_found():
    sources = {"a": "X = 1\n_Y: int = 2\nlower = 3\n",
               "b": "from a import X, _Y\nX = 2\nP, Q = 1, 2\n",
               "c": "P = 0\nlower = 1\n\ndef f():\n    _Y = 3\n"}
    assert double_bindings(sources) == {"P": ["b", "c"], "X": ["a", "b"]}


def skips(source: str) -> list[str]:
    """Every skip, skipif or xfail a module's code names through pytest:
    `pytest.mark.<name>` markers, `pytest.<name>(...)` calls, and names
    imported from pytest or pytest.mark."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in SKIPS:
            base = node.value
            if isinstance(base, ast.Attribute) and base.attr == "mark":
                base = base.value
            if isinstance(base, ast.Name) and base.id in ("pytest", "mark"):
                found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.ImportFrom) and node.module in ("pytest", "pytest.mark"):
            found += [(node.lineno, f"from {node.module} import {alias.name}")
                      for alias in node.names if alias.name in SKIPS]
    return [f"line {line}: {text}" for line, text in sorted(found)]


@pytest.mark.parametrize("path", TEST_MODULES, ids=lambda p: p.stem)
def test_test_module_skips_nothing(path):
    # every criterion runs: a test that cannot pass fails, it is never skipped
    assert skips(path.read_text()) == []


def test_skip_is_found():
    source = ("import pytest\nfrom pytest import xfail\n\n"
              "@pytest.mark.skipif(True, reason='r')\ndef test_a():\n    pytest.skip('r')\n\n"
              "@pytest.mark.xfail\ndef test_b():\n    assert 'pytest.skip'\n\n"
              "@pytest.mark.parametrize('x', [1])\ndef test_c(x):\n    pass\n")
    assert skips(source) == ["line 2: from pytest import xfail",
                             "line 4: pytest.mark.skipif",
                             "line 6: pytest.skip",
                             "line 8: pytest.mark.xfail"]


def unbounded_caches(source: str) -> list[str]:
    """Every functools.lru_cache or functools.cache a module applies without
    a finite integer maxsize: an int literal, or a module-level name bound to
    one. A bare lru_cache is reported too, since its bound is not written."""
    tree = ast.parse(source)
    ints = {target.id: node.value.value for node in tree.body if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Constant) and type(node.value.value) is int
            for target in node.targets if isinstance(target, ast.Name)}
    aliases = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "functools"
               for alias in node.names}

    def cache_kind(node):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "functools":
            return node.attr if node.attr in ("lru_cache", "cache") else None
        if isinstance(node, ast.Name) and aliases.get(node.id) in ("lru_cache", "cache"):
            return aliases[node.id]
        return None

    def bound(call):
        args = [kw.value for kw in call.keywords if kw.arg == "maxsize"] + call.args[:1]
        if not args:
            return None
        value = args[0]
        if isinstance(value, ast.Name):
            return ints.get(value.id)
        if isinstance(value, ast.Constant) and type(value.value) is int:
            return value.value
        return None

    found = []
    calls = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and cache_kind(node.func):
            # lru_cache(n) or lru_cache(maxsize=n); cache(f) has no bound at all
            limit = bound(node) if cache_kind(node.func) == "lru_cache" else None
            if limit is None or limit < 1:
                found.append((node.lineno, ast.unparse(node)))
        elif cache_kind(node) and id(node) not in calls:
            found.append((node.lineno, ast.unparse(node)))
    return [f"line {line}: {text}" for line, text in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_cache_is_bounded(path):
    # a cache without a bound grows with every distinct call, and so does peak RSS
    assert unbounded_caches(path.read_text()) == []


def test_unbounded_cache_is_found():
    source = ("import functools\nfrom functools import cache, lru_cache as lru\n\nN = 8\n\n"
              "@functools.lru_cache(maxsize=N)\ndef a(x):\n    return x\n\n"
              "@functools.lru_cache(maxsize=None)\ndef b(x):\n    return x\n\n"
              "@cache\ndef c(x):\n    return x\n\n"
              "@functools.lru_cache\ndef d(x):\n    return x\n\n"
              "e = lru(4)(abs)\nf = functools.cache(abs)\ng = lru(maxsize=M)(abs)\n")
    assert unbounded_caches(source) == ["line 10: functools.lru_cache(maxsize=None)",
                                        "line 14: cache",
                                        "line 18: functools.lru_cache",
                                        "line 23: functools.cache(abs)",
                                        "line 24: lru(maxsize=M)"]


EVALUATIONS = ("value", "dvalue_dtheta", "dvalue_dx")


def evaluations_without_out(source: str) -> list[str]:
    """Every value-family evaluation a module defines in a class without an
    `out` parameter defaulting to None: the backtest and the Monte-Carlo pass
    hand each evaluation the buffer it writes into."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for fn in cls.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name not in EVALUATIONS:
                continue
            args = fn.args
            positional = args.posonlyargs + args.args
            defaults = dict(zip([a.arg for a in positional][::-1], args.defaults[::-1]))
            defaults.update((a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults))
            default = defaults.get("out")
            if not (isinstance(default, ast.Constant) and default.value is None) \
                    or "out" in (a.arg for a in args.posonlyargs):
                found.append(f"line {fn.lineno}: {cls.name}.{fn.name}")
    return found


def test_every_evaluation_takes_out():
    models = Path(jumprl.__file__).parent / "models.py"
    assert evaluations_without_out(models.read_text()) == []


def test_evaluation_without_out_is_found():
    source = ("class A:\n    def value(self, theta, t, x, out=None):\n        pass\n\n"
              "    def dvalue_dx(self, theta, t, x):\n        pass\n\n"
              "class B:\n    def dvalue_dtheta(self, theta, t, x, *, out=None):\n        pass\n\n"
              "    def value(self, theta, t, x, out=0):\n        pass\n\n"
              "    def helper(self, x):\n        pass\n\n"
              "def value(theta, t, x):\n    pass\n")
    assert evaluations_without_out(source) == ["line 5: A.dvalue_dx", "line 12: B.value"]


SPEED_RECORDS = sorted(Path(__file__).parent.parent.glob("BENCH_*.json"))


def record_problems(text: str) -> list[str]:
    """Why a speed record does not state the core count it was measured on:
    it is not a JSON object, or its machine.nproc is not a positive integer."""
    try:
        record = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"not JSON: {exc}"]
    machine = record.get("machine") if isinstance(record, dict) else None
    nproc = machine.get("nproc") if isinstance(machine, dict) else None
    if isinstance(nproc, bool) or not (isinstance(nproc, int) and nproc >= 1):
        return [f"machine.nproc must be a positive integer, got {nproc!r}"]
    return []


def test_speed_records_are_found():
    assert SPEED_RECORDS


@pytest.mark.parametrize("path", SPEED_RECORDS, ids=lambda p: p.name)
def test_speed_record_states_its_core_count(path):
    assert record_problems(path.read_text()) == []


def test_record_without_core_count_is_found():
    assert record_problems('{"machine": {"nproc": 2}, "claim": null}') == []
    assert record_problems('{"machine": {"nproc": 2}')[0].startswith("not JSON: ")
    for text, got in (('{"machine": {"cpus": 2}}', "None"), ('{"nproc": 2}', "None"),
                      ('[{"machine": {"nproc": 2}}]', "None"),
                      ('{"machine": {"nproc": 0}}', "0"), ('{"machine": {"nproc": "2"}}', "'2'"),
                      ('{"machine": {"nproc": true}}', "True"),
                      ('{"machine": {"nproc": 2.0}}', "2.0")):
        assert record_problems(text) == [f"machine.nproc must be a positive integer, got {got}"]


def listed_key_problems(text: str, keys: dict) -> list[str]:
    """Where the bullet list after "Each subcommand reads:" differs from keys,
    {command: {key: ...}}: a listed name the command does not read, or a key
    it reads that its bullet leaves out. The list ends at a blank line, and
    every backquoted name after a bullet's colon counts as a key."""
    start = text.index("\n- ", text.index("Each subcommand reads:"))
    listed = {}
    for item in text[start:text.index("\n\n", start)].split("\n- ")[1:]:
        command, _, names = item.partition(":")
        listed[command.strip("`")] = set(re.findall(r"`(\w+)`", names))
    problems = []
    for command in sorted(set(keys) | set(listed)):
        named, read = listed.get(command, set()), set(keys.get(command, ()))
        problems += [f"{command}: does not read {key}" for key in sorted(named - read)]
        problems += [f"{command}: leaves out {key}" for key in sorted(read - named)]
    return problems


def test_readme_lists_exactly_the_keys_each_subcommand_reads():
    assert listed_key_problems(README.read_text(), cli.KEYS) == []


def test_listed_key_mismatch_is_found():
    text = ("Each subcommand reads:\n\n- `a`: `x`, `y`;\n- `b`: `x`, and the\n"
            "  `f` family's `w`.\n\nNot `listed`.\n")
    keys = {"a": {"x": 0, "y": 0}, "b": {"x": 0, "w": 0}}
    assert listed_key_problems(text, keys) == ["b: does not read f"]
    assert listed_key_problems(text.replace(", `y`", ""), keys) == ["a: leaves out y",
                                                                    "b: does not read f"]
    assert listed_key_problems(text, keys | {"c": {"x": 0}}) == ["b: does not read f",
                                                                 "c: leaves out x"]
