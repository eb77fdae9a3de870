"""Source hygiene: every name a module of `linfty`, the tests or the
scripts imports is used there, every import in `linfty` sits at module
level, every public name a module defines and every public method of its
classes has a user outside the test suite, every parameter with a default
is passed by some caller outside the test suite, only `poly.py` builds a
Poly unchecked, only `graded.py` builds a MultiOp unchecked or calls
`koszul_sign`, `modelio` tests no key against a space itself, `graded`'s
kernels build their results unchecked, only the
listed functions tabulate a closure with
`MultiOp.from_function`, only `algebra.linear_morphism` writes a
constant linear morphism out by hand, `graded`'s arithmetic on
operations runs on one path, `transfer` sums without the term-by-term
helpers and the exact modules have no floating point."""

import ast
import io
import re
import tokenize
from collections import Counter
from pathlib import Path
from typing import Iterator, Sequence

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "linfty"
NON_TEST_DIRS = ("src", "scripts", "perfbench")
# modules whose arithmetic is exact; geometry (the numeric point search),
# cli (its option parsing) and samples (its sampling knobs) are not among them
EXACT_MODULES = ("poly", "graded", "linalg", "algebra", "transfer", "pathspace", "modelio")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module's imports, with the line that binds them."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                out[name] = node.lineno
    return out


def referenced_names(tree: ast.Module) -> set[str]:
    """Names read anywhere, including inside string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations = []
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= referenced_names(ast.parse(ann.value, mode="eval"))
    return names


def imports_in_functions(tree: ast.Module) -> list[int]:
    """Lines of the imports that sit inside a function body."""
    out = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            out += [node.lineno for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))]
    return sorted(set(out))


# the benchmark's own code in perfbench/ is left to the benchmark
IMPORT_SCANNED = [*sorted(SRC.glob("*.py")), *sorted((ROOT / "tests").glob("*.py")),
                  *sorted((ROOT / "scripts").glob("*.py"))]


@pytest.mark.parametrize("path", IMPORT_SCANNED,
                         ids=lambda p: p.name if p.parent == SRC else str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = referenced_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_the_scan_finds_an_unused_import():
    tree = ast.parse("from math import factorial, gcd\n"
                     "def f(x: 'Fraction') -> int:\n"
                     "    return gcd(x, 2)\n"
                     "from fractions import Fraction\n")
    used = referenced_names(tree)
    assert [n for n in imported_names(tree) if n not in used] == ["factorial"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_sit_at_module_level(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = imports_in_functions(tree)
    assert not lines, f"{path.name} imports inside a function body at lines {lines}"


def test_the_scan_finds_an_import_in_a_function_body():
    tree = ast.parse("import math\n"
                     "def f(x):\n"
                     "    from fractions import Fraction\n"
                     "    def g():\n"
                     "        import os\n"
                     "    return Fraction(x)\n"
                     "class C:\n"
                     "    def m(self):\n"
                     "        import sys\n"
                     "if True:\n"
                     "    import json\n")
    assert imports_in_functions(tree) == [3, 5, 9]


def public_definitions(tree: ast.Module) -> list[str]:
    """Public names a module binds at top level by def, class or assignment."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if not n.startswith("_")]


def local_name_positions(tree: ast.Module, text: str) -> set[tuple[int, int]]:
    """(line, column) of every name inside a function that binds it
    locally, as a parameter or an assignment target.  A nested function
    sees the locals of the functions around it; a `global` declaration
    makes the name the module's again."""
    lines = io.StringIO(text).readlines()
    out = set()

    def at(node):
        # ast counts columns in UTF-8 bytes, tokenize in characters
        line = lines[node.lineno - 1].encode()
        out.add((node.lineno, len(line[:node.col_offset].decode())))

    def params(fn) -> list[ast.arg]:
        a = fn.args
        return [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]

    def scope(fn) -> tuple[set[str], set[str]]:
        bound, declared = {p.arg for p in params(fn)}, set()
        todo = list(fn.body) if isinstance(fn.body, list) else [fn.body]
        while todo:
            node = todo.pop()
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bound.add(node.id)
            elif isinstance(node, ast.Global):
                declared.update(node.names)
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                todo.extend(ast.iter_child_nodes(node))
        return bound, declared

    def visit(node, local):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            bound, declared = scope(node)
            local = (local | bound) - declared
            for p in params(node):
                at(p)
        elif isinstance(node, ast.Name) and node.id in local:
            at(node)
        for child in ast.iter_child_nodes(node):
            visit(child, local)

    visit(tree, frozenset())
    return out


def names_without_users(modules: list[str], users: list[str]) -> list[str]:
    """Public names defined in `modules` that no text in `users` mentions
    beyond their definitions.  Users are scanned by token, so a file that
    does not parse still counts.  A name right after `.`, `def` or `class`
    is an attribute access or a header, not a use of a module-level name,
    so a method of the same name does not keep a function alive.  In a
    file that parses, a name a function binds locally is not a use inside
    that function either."""
    seen = Counter()
    for text in users:
        try:
            local = local_name_positions(ast.parse(text), text)
        except SyntaxError:
            local = set()
        prev = None
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if (tok.type == tokenize.NAME and prev not in (".", "def", "class")
                    and tok.start not in local):
                seen[tok.string] += 1
            if tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT):
                prev = tok.string
    assigned = Counter()
    for text in modules:
        for node in ast.parse(text).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                assigned.update(t.id for t in targets if isinstance(t, ast.Name))
    defined = {n for text in modules for n in public_definitions(ast.parse(text))}
    return sorted(n for n in defined if seen[n] <= assigned[n])


def test_every_public_name_has_a_user_outside_the_tests():
    modules = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    users = [p.read_text() for d in NON_TEST_DIRS for p in sorted((ROOT / d).rglob("*.py"))]
    lonely = names_without_users(modules, users)
    assert not lonely, (f"public names used only by tests (move them to tests/oracles.py "
                        f"or delete them): {lonely}")


def test_the_scan_finds_a_test_only_name():
    module = ("LIMIT = 3\n"
              "def engine(x):\n"
              "    return helper(x) + LIMIT\n"
              "def helper(x):\n"
              "    return x\n"
              "def only_for_tests(x):\n"
              "    return engine(x)\n"
              "class Report:\n"
              "    pass\n")
    script = "from mod import engine,\n    Report\n"  # a syntax error, still scanned
    assert names_without_users([module], [module, script]) == ["only_for_tests"]


def test_the_scan_does_not_count_attributes_or_headers():
    # `staged` appears only as a method name and an attribute, `Shadow`
    # only in another module's class header: neither function has a user
    module = ("def staged(x):\n"
              "    return Runner(x).staged()\n"
              "def Shadow():\n"
              "    return 1\n"
              "class Runner:\n"
              "    def staged(self):\n"
              "        return self.x\n")
    script = ("from mod import Runner\n"
              "r = Runner(2)\n"
              "r.staged()\n"
              "class Shadow:\n"
              "    pass\n")
    assert names_without_users([module], [module, script]) == ["Shadow", "staged"]


def test_the_scan_does_not_count_a_local_of_the_same_name():
    # `mat` is only a parameter, a local variable, a closure's read of one
    # and a lambda's parameter outside its own definition
    module = ("def mat(rows):\n"
              "    return rows\n"
              "def kernel(a):\n"
              "    mat = [list(r) for r in a]\n"
              "    def width():\n"
              "        return len(mat[0])\n"
              "    return mat, width()\n"
              "def rank(mat):\n"
              "    return len(kernel(mat))\n"
              "def pivots(a):\n"
              "    return [lambda mat: mat for _ in rank(a)]\n")
    script = "from mod import pivots\n"
    assert names_without_users([module], [module, script]) == ["mat"]
    # a function that declares it global reads the module's name
    use = "def refresh(a):\n    global mat\n    mat = mat(a)\n"
    assert names_without_users([module], [module, script, use]) == []


def non_test_trees() -> tuple[list[ast.Module], list[str]]:
    """The parsed files of src/, scripts/ and perfbench/, and the names of
    the perfbench files that do not parse."""
    trees = [ast.parse(p.read_text()) for d in ("src", "scripts")
             for p in sorted((ROOT / d).rglob("*.py"))]
    unparsed = []
    for p in sorted((ROOT / "perfbench").glob("*.py")):
        try:
            trees.append(ast.parse(p.read_text()))
        except SyntaxError:
            unparsed.append(p.name)
    return trees, unparsed


def public_methods(tree: ast.Module) -> list[str]:
    """Public methods and properties of the classes a module defines;
    dunders and other private names are left out."""
    return [item.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not item.name.startswith("_")]


DOTTED_PATH = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")


def methods_without_readers(modules: list[ast.Module], users: list[ast.Module]) -> list[str]:
    """Public methods of `modules` that no file of `users` reads as an
    attribute: `x.name` in code, or a part after the first of a string
    that is one dotted path, as perfbench/layers.py names what it hooks.
    Storing to an attribute of that name is not a read."""
    read = set()
    for tree in users:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and DOTTED_PATH.fullmatch(node.value)):
                read.update(node.value.split(".")[1:])
    return sorted({name for tree in modules for name in public_methods(tree)} - read)


def test_every_public_method_is_read_outside_the_tests():
    modules = [ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))]
    users, _ = non_test_trees()
    unread = methods_without_readers(modules, users)
    assert not unread, (f"public methods read only by tests (make them functions in "
                        f"tests/oracles.py or delete them): {unread}")


def test_the_scan_finds_a_method_no_one_reads():
    module = ast.parse("class Report:\n"
                       "    def describe(self):\n"
                       "        return self.summary()\n"
                       "    def summary(self):\n"
                       "        return ''\n"
                       "    @property\n"
                       "    def size(self):\n"
                       "        return 0\n"
                       "    def hooked(self):\n"
                       "        return 1\n"
                       "    def unread(self):\n"
                       "        return 2\n"
                       "    def __eq__(self, other):\n"
                       "        return True\n"
                       "    def _cached(self):\n"
                       "        return 3\n")
    caller = ast.parse("r = Report()\n"
                       "r.describe()\n"
                       "r.size = 4\n"
                       "HOOKED = {'mod.Report.hooked'}\n"
                       "print('call r.unread() for details')\n")
    assert methods_without_readers([module], [module, caller]) == ["size", "unread"]


def defaulted_parameters(tree: ast.Module) -> list[tuple[str, str, int | None]]:
    """(callee name, parameter, positional index at a call) of every
    parameter with a default on a function or method the module defines.
    A method's index skips self or cls, and a class's __init__ is called
    by the class name; a keyword-only parameter has no index."""
    out = []

    def visit(body, cls):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                bound = cls is not None and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in node.decorator_list)
                name = cls if cls is not None and node.name == "__init__" else node.name
                first = len(positional) - len(args.defaults)
                out.extend((name, arg.arg, i - bound)
                           for i, arg in enumerate(positional[first:], first))
                out.extend((name, arg.arg, None)
                           for arg, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
                visit(node.body, None)

    visit(tree.body, None)
    return out


def parameters_no_call_passes(modules: list[ast.Module], users: list[ast.Module]) -> list[str]:
    """`name(parameter)` for each parameter with a default in `modules` that
    no call in `users` passes, by keyword or by position.  Calls are
    matched by the callee's name alone; one that spreads *args or
    **kwargs is taken to pass everything."""
    keywords, most_positional = set(), Counter()
    for tree in users:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if (any(isinstance(a, ast.Starred) for a in node.args)
                    or any(k.arg is None for k in node.keywords)):
                keywords.add((name, "*"))
            keywords.update((name, k.arg) for k in node.keywords)
            most_positional[name] = max(most_positional[name], len(node.args))
    return sorted({f"{name}({param})" for tree in modules
                   for name, param, index in defaulted_parameters(tree)
                   if (name, param) not in keywords and (name, "*") not in keywords
                   and (index is None or most_positional[name] <= index)})


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    # samples.py is exempt: its generator sizes are set by the tests and by
    # perfbench/make_pool.py.  make_pool.py does not parse, so it is skipped
    # below; outside samples.py it passes only `labels` and
    # `max_total_degree`, which src/ passes too
    modules = [ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))
               if p.name != "samples.py"]
    users, unparsed = non_test_trees()
    assert unparsed == ["make_pool.py"], f"perfbench files that do not parse: {unparsed}"
    unused = parameters_no_call_passes(modules, users)
    assert not unused, f"options no caller outside the tests sets (drop them): {unused}"


def test_the_scan_finds_an_option_no_call_passes():
    module = ast.parse("def solve(a, tol=0, *, steps=3, trace=False):\n"
                       "    return a\n"
                       "def scale(v, by=2, shift=0):\n"
                       "    return v\n"
                       "def spread(v, w=1):\n"
                       "    return v\n"
                       "class Report:\n"
                       "    def __init__(self, ok, note=''):\n"
                       "        self.ok = ok\n"
                       "    def describe(self, space=None, width=80):\n"
                       "        return ''\n"
                       "    @staticmethod\n"
                       "    def merge(a, b=None):\n"
                       "        return a\n")
    caller = ast.parse("solve(1, steps=4)\n"
                       "scale(1, 2)\n"
                       "spread(*args)\n"
                       "Report(True).describe(None)\n"
                       "Report.merge(1, 2)\n")
    assert parameters_no_call_passes([module], [module, caller]) == [
        "Report(note)", "describe(width)", "scale(shift)", "solve(tol)", "solve(trace)"]


def files_mentioning(name: str, files: dict[str, str]) -> list[str]:
    """Names of the files whose text mentions `name` anywhere."""
    return sorted(f for f, text in files.items() if name in text)


def test_trusted_poly_construction_stays_in_poly():
    # input parsed elsewhere (modelio.coeff_from_json, the CLI) must meet the checks
    files = {str(p.relative_to(ROOT)): p.read_text() for p in sorted((ROOT / "src").rglob("*.py"))}
    users = files_mentioning("_trusted", files)
    assert users == ["src/linfty/poly.py"], f"unchecked Poly construction outside poly.py: {users}"


def test_the_scan_finds_a_trusted_construction():
    files = {"poly.py": "def _trusted(cls, vars, terms): ...\n",
             "modelio.py": "p = Poly._trusted(coords, terms)\n",
             "cli.py": "p = Poly(coords, terms)\n"}
    assert files_mentioning("_trusted", files) == ["modelio.py", "poly.py"]


def test_unchecked_multiop_construction_stays_in_graded():
    # operations read from files or built by other modules must meet the checks
    files = {str(p.relative_to(ROOT)): p.read_text() for p in sorted((ROOT / "src").rglob("*.py"))}
    users = files_mentioning("_from_clean", files)
    assert users == ["src/linfty/graded.py"], f"unchecked MultiOp construction outside graded.py: {users}"


def test_the_scan_finds_an_unchecked_multiop_construction():
    files = {"graded.py": "def _from_clean(cls, arity, degree, source, target, coeffs): ...\n",
             "transfer.py": "pi = MultiOp._from_clean(1, 0, space, h_space, coeffs)\n",
             "modelio.py": "op = MultiOp(arity, degree, space, space, coeffs)\n"}
    assert files_mentioning("_from_clean", files) == ["graded.py", "transfer.py"]


def modules_calling(name: str, trees: dict[str, ast.Module]) -> list[str]:
    """Names of the modules with a call to `name`, bare or as an attribute."""
    out = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                if (func.attr if isinstance(func, ast.Attribute)
                        else getattr(func, "id", None)) == name:
                    out.add(module)
    return sorted(out)


def test_koszul_signs_of_block_choices_stay_in_graded():
    # one block feeder serves bullet and the tree terms; a sign computed
    # elsewhere is a second implementation of it
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    callers = modules_calling("koszul_sign", trees)
    assert callers == ["graded.py"], f"koszul_sign called outside graded.py: {callers}"


def test_the_scan_finds_a_koszul_sign_call():
    trees = {"graded.py": ast.parse("def unshuffle_sign(d, f):\n    return koszul_sign(d, f)\n"),
             "transfer.py": ast.parse("s = graded.koszul_sign(degs, flat)\n"),
             "algebra.py": ast.parse("from .graded import koszul_sign\n"
                                     "NOTE = 'koszul_sign(degs, flat)'\n")}
    assert modules_calling("koszul_sign", trees) == ["graded.py", "transfer.py"]


# a key's membership in a space; the model reader leaves it to
# MultiOp.from_entries, which tests each key read once, by a degree -> rank lookup
MEMBERSHIP_TESTS = ("contains", "check_key")


def membership_tests(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) for each call of a membership test, bare or as an attribute."""
    return sorted((_callee(node), node.lineno) for node in ast.walk(tree)
                  if _callee(node) in MEMBERSHIP_TESTS)


def test_the_model_reader_tests_no_key_itself():
    found = membership_tests(ast.parse((SRC / "modelio.py").read_text()))
    assert not found, f"modelio.py tests keys against a space itself: {found}"


def test_the_scan_finds_a_membership_test_in_the_reader():
    tree = ast.parse("if not space.contains(key):\n"
                     "    raise ValueError(key)\n"
                     "dst.check_key(okey)\n"
                     "found = contains(space, key)\n"
                     "NOTE = 'space.contains(key)'\n"
                     "test = space.contains\n")
    assert membership_tests(tree) == [("check_key", 3), ("contains", 1), ("contains", 4)]


# the functions that tabulate a closure over canonical tuples; every other
# operation is written from entries
FROM_FUNCTION_CALLERS = ["graded.bullet_op", "graded.treeterm",
                         "transfer.projection_morphism"]


def from_function_callers(trees: dict[str, ast.Module]) -> list[str]:
    """`module.function` for each function of the named modules whose body
    calls a `from_function` attribute; a method is `module.Class.method`
    and a nested function carries its enclosing names too."""
    out = set()

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, path + [child.name])
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "from_function"):
                out.add(".".join(path))
            visit(child, path)

    for name, tree in trees.items():
        visit(tree, [name])
    return sorted(out)


def test_only_the_listed_functions_tabulate_closures():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    callers = from_function_callers(trees)
    assert callers == FROM_FUNCTION_CALLERS, (
        f"MultiOp.from_function called from {callers}: write the operation from "
        f"entries, or update FROM_FUNCTION_CALLERS when a caller is gone")


def test_the_scan_finds_a_tabulating_function():
    tree = ast.parse("def build(space):\n"
                     "    def value(tup):\n"
                     "        return {}\n"
                     "    return MultiOp.from_function(1, 0, space, space, value)\n"
                     "def named(op):\n"
                     "    return op.from_function\n"
                     "class Family:\n"
                     "    def tabulate(self):\n"
                     "        def inner():\n"
                     "            return self.from_function(2)\n"
                     "        return inner\n"
                     "def written(op):\n"
                     "    return MultiOp(1, 0, op.source, op.target, {})\n")
    assert from_function_callers({"mod": tree}) == ["mod.Family.tabulate.inner", "mod.build"]


def _callee(node) -> str | None:
    """The name a call's function is spelled with, bare or as an attribute."""
    if not isinstance(node, ast.Call):
        return None
    return getattr(node.func, "id", None) or getattr(node.func, "attr", None)


def _arity_one(node) -> bool:
    """Whether node is a `MultiOp(1, ...)` call."""
    return (_callee(node) == "MultiOp" and bool(node.args)
            and isinstance(node.args[0], ast.Constant) and node.args[0].value == 1)


def hand_built_linear_morphisms(tree: ast.Module) -> list[int]:
    """Lines of the `Morphism(...)` calls outside `linear_morphism` whose
    fiber family is an inline `OpFamily(...)` holding no operation or one
    arity-1 `MultiOp(1, ...)`, written in place or bound to a name in the
    same function."""
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or (
                fn.name == "linear_morphism"):
            continue
        body = [n for stmt in fn.body for n in ast.walk(stmt)]
        bound = {t.id for n in body if isinstance(n, ast.Assign) and _arity_one(n.value)
                 for t in n.targets if isinstance(t, ast.Name)}
        for call in body:
            if _callee(call) != "Morphism":
                continue
            phi = call.args[3] if len(call.args) > 3 else next(
                (k.value for k in call.keywords if k.arg == "phi"), None)
            if _callee(phi) != "OpFamily" or len(phi.args) < 4:
                continue
            ops = phi.args[3]
            if not isinstance(ops, ast.Dict):
                continue
            if not ops.keys or (
                    len(ops.keys) == 1 and isinstance(ops.keys[0], ast.Constant)
                    and ops.keys[0].value == 1
                    and (_arity_one(ops.values[0]) or isinstance(ops.values[0], ast.Name)
                         and ops.values[0].id in bound)):
                out.append(call.lineno)
    return sorted(set(out))


def test_constant_linear_morphisms_are_built_by_linear_morphism():
    found = {p.name: lines for p in sorted(SRC.glob("*.py"))
             if (lines := hand_built_linear_morphisms(ast.parse(p.read_text())))}
    assert not found, f"constant linear morphisms written out by hand (use linear_morphism): {found}"


def test_the_scan_finds_a_hand_built_linear_morphism():
    tree = ast.parse("def linear_morphism(src, dst, base, cols):\n"
                     "    op = MultiOp(1, 0, src.fiber, dst.fiber, cols)\n"
                     "    return Morphism(src, dst, base, OpFamily(0, s, t, {1: op}))\n"
                     "def inline(a, b):\n"
                     "    return Morphism(a, b, (), OpFamily(0, s, t, {1: MultiOp(1, 0, s, t, {})}))\n"
                     "def bound(a, b):\n"
                     "    proj = MultiOp(1, 0, s, t, {})\n"
                     "    return Morphism(a, b, (), phi=OpFamily(0, s, t, {1: proj}))\n"
                     "def empty(a, b):\n"
                     "    return Morphism(a, b, (), OpFamily(0, s, t, {}))\n"
                     "def nonlinear(a, b, psi):\n"
                     "    two = MultiOp(2, 0, s, t, {})\n"
                     "    m = Morphism(a, b, (), OpFamily(0, s, t, {2: two}))\n"
                     "    n = Morphism(a, b, (), OpFamily(0, s, t, {1: psi}))\n"
                     "    return Morphism(a, b, (), psi.plus(m.phi))\n")
    assert hand_built_linear_morphisms(tree) == [5, 8, 10]


# the builders whose results are formed from checked operations, so they
# wrap their tables with _from_clean: each operation is checked once, where
# it enters, and not again on every product
TRUSTED_BUILDERS = ("circ", "bullet_op", "treeterm", "MultiOp.from_function")


def checked_constructions(tree: ast.Module) -> list[tuple[str, int]]:
    """(function, line) for each call of the checked constructor in a
    trusted builder, its nested functions included: `MultiOp(...)`, or
    `cls(...)` in a method of MultiOp."""
    out = set()
    for top in tree.body:
        fns = [(top.name, top)] if isinstance(top, ast.FunctionDef) else [
            (f"{top.name}.{f.name}", f) for f in getattr(top, "body", ())
            if isinstance(top, ast.ClassDef) and isinstance(f, ast.FunctionDef)]
        for name, fn in fns:
            if name not in TRUSTED_BUILDERS:
                continue
            for node in ast.walk(fn):
                callee = _callee(node)
                if callee == "MultiOp" or callee == "cls" and name.startswith("MultiOp."):
                    out.add((name, node.lineno))
    return sorted(out)


def test_kernel_results_skip_the_checked_constructor():
    found = checked_constructions(ast.parse((SRC / "graded.py").read_text()))
    assert not found, f"a kernel result re-checked by the MultiOp constructor: {found}"


def test_the_scan_finds_a_checked_construction_in_a_kernel():
    tree = ast.parse("class MultiOp:\n"
                     "    def from_function(cls, arity, fn):\n"
                     "        return cls(arity, 0, s, t, {})\n"
                     "    def zero(cls, arity):\n"
                     "        return cls(arity, 0, s, t, {})\n"
                     "def circ(lam, mu):\n"
                     "    ops = {n: MultiOp._from_clean(n, 1, s, t, c) for n, c in sums}\n"
                     "    return {1: MultiOp(1, 1, s, t, {})}\n"
                     "def treeterm(op_k, parts):\n"
                     "    def value(tup):\n"
                     "        return graded.MultiOp(1, 0, s, t, {})\n"
                     "    return value\n"
                     "def bullet(lam, phi):\n"
                     "    return MultiOp(0, 1, s, t, {})\n")
    assert checked_constructions(tree) == [
        ("MultiOp.from_function", 3), ("circ", 8), ("treeterm", 11)]


# the term-by-term arithmetic that the staged numerators replace: graded
# runs every operation through _staged and _rationals, and transfer sums
# into plain dicts
GRADED_GENERIC = ("vec_add_into", "_times", "evaluate")
TRANSFER_GENERIC = ("vec_add_into", "_times")


def _scoped_nodes(tree: ast.Module) -> Iterator[tuple[str, ast.AST]]:
    """(scope, node) for every node of the module: scope is the module-level
    function or the method (as Class.method) the node lies in, "" outside
    any."""
    for top in tree.body:
        if isinstance(top, ast.FunctionDef):
            scoped = [(top.name, top)]
        elif isinstance(top, ast.ClassDef):
            scoped = [(f"{top.name}.{f.name}" if isinstance(f, ast.FunctionDef) else "", f)
                      for f in top.body]
        else:
            scoped = [("", top)]
        for scope, node in scoped:
            for sub in ast.walk(node):
                yield scope, sub


def _mentioned(node: ast.AST) -> list[str]:
    """The names a node spells: a name, an attribute, a def, an import."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.FunctionDef):
        return [node.name]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [alias.name for alias in node.names]
    return []


def generic_arithmetic(tree: ast.Module, names: Sequence[str]) -> list[tuple[str, str, int]]:
    """(scope, name, line) for each mention of one of names anywhere in the
    module, imports and definitions included."""
    return sorted({(scope, name, node.lineno) for scope, node in _scoped_nodes(tree)
                   for name in _mentioned(node) if name in names})


def second_arithmetic_paths(tree: ast.Module) -> list[tuple[str, str, int]]:
    """graded's rules: the generic arithmetic anywhere, a `Fraction(...)`
    call anywhere but `_rationals`, and a use of `_exact` anywhere but
    `MultiOp.__post_init__`, the checked constructor."""
    out = set(generic_arithmetic(tree, GRADED_GENERIC))
    for scope, node in _scoped_nodes(tree):
        if _callee(node) == "Fraction" and scope != "_rationals":
            out.add((scope, "Fraction", node.lineno))
        if (isinstance(node, (ast.Name, ast.Attribute)) and "_exact" in _mentioned(node)
                and scope != "MultiOp.__post_init__"):
            out.add((scope, "_exact", node.lineno))
    return sorted(out)


def test_graded_products_run_on_one_arithmetic_path():
    # every operation's arithmetic sums staged numerators and divides once
    # in _rationals; a Poly coefficient takes that path too
    found = second_arithmetic_paths(ast.parse((SRC / "graded.py").read_text()))
    assert not found, f"a second arithmetic path in graded.py: {found}"


def test_transfer_sums_without_the_generic_arithmetic():
    found = generic_arithmetic(ast.parse((SRC / "transfer.py").read_text()), TRANSFER_GENERIC)
    assert not found, f"term-by-term arithmetic in transfer.py: {found}"


def test_the_scan_finds_a_second_arithmetic_path():
    tree = ast.parse("from .poly import _exact, _times\n"
                     "def _rationals(nums, den):\n"
                     "    return {k: Fraction(x, den) for k, x in nums.items()}\n"
                     "def circ(lam, mu):\n"
                     "    vec_add_into(out, key, _times(a, b))\n"
                     "def _feeder(op_k, parts):\n"
                     "    def into(out, tup, scale):\n"
                     "        evaluate = op_k.evaluate\n"
                     "    return into\n"
                     "class MultiOp:\n"
                     "    def __post_init__(self):\n"
                     "        self.coeffs = {k: _exact(c) for k, c in self.coeffs.items()}\n"
                     "    def evaluate(self, vectors):\n"
                     "        return poly._exact(Fraction(1, 2))\n"
                     "class OpFamily:\n"
                     "    def __post_init__(self):\n"
                     "        self.degree = _exact(self.degree)\n"
                     "def bullet_op(lam, phi, n):\n"
                     "    return Fraction(1, n)\n")
    assert second_arithmetic_paths(tree) == [
        ("", "_times", 1), ("MultiOp.evaluate", "Fraction", 14),
        ("MultiOp.evaluate", "_exact", 14), ("MultiOp.evaluate", "evaluate", 13),
        ("OpFamily.__post_init__", "_exact", 17), ("_feeder", "evaluate", 8),
        ("bullet_op", "Fraction", 19), ("circ", "_times", 5), ("circ", "vec_add_into", 5)]
    tree = ast.parse("from .graded import MultiOp, vec_add_into\n"
                     "from .poly import _exact, _times\n"
                     "def _apply_k(ab, state):\n"
                     "    vec_add_into(out, key, _times(c, x))\n"
                     "    return {k: _exact(c) for k, c in out.items()}\n")
    assert generic_arithmetic(tree, TRANSFER_GENERIC) == [
        ("", "_times", 2), ("", "vec_add_into", 1),
        ("_apply_k", "_times", 4), ("_apply_k", "vec_add_into", 4)]


def floating_point_lines(tree: ast.Module) -> list[int]:
    """Lines that name `float`, hold a float literal or divide with `/`."""
    out = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Name) and node.id == "float"
                or isinstance(node, ast.Constant) and type(node.value) in (float, complex)
                or isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)):
            out.append(node.lineno)
    return sorted(set(out))


@pytest.mark.parametrize("name", EXACT_MODULES)
def test_exact_modules_have_no_floating_point(name):
    tree = ast.parse((SRC / f"{name}.py").read_text())
    lines = floating_point_lines(tree)
    assert not lines, f"{name}.py uses floating point at lines {lines}"


def test_the_scan_finds_floating_point():
    tree = ast.parse("from fractions import Fraction\n"
                     "def f(a: int, b: int) -> int:\n"
                     "    c = a // b * 2 + len('1.5 / float')\n"
                     "    c /= 2\n"
                     "    return a / b\n"
                     "def g(a) -> 'Fraction':\n"
                     "    return float(a) + 1e-9\n"
                     "def h(a):\n"
                     "    return Fraction(a) * 2j\n")
    assert floating_point_lines(tree) == [4, 5, 7, 9]
