"""Static checks over the package source, standing in for a linter."""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "limla"


def unused_imports(source: str) -> list:
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_detector_flags_only_unread_names():
    src = "import os\nimport sys\nfrom x import a, b as c\nprint(sys.argv, c)\n"
    assert unused_imports(src) == [(1, "os"), (3, "a")]


def test_no_unused_imports():
    # the package's __init__.py exists to re-export, so its imports are exempt
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
             if path != SRC / "__init__.py"
             for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert found == []


# Names that only tests read, kept on purpose.  Keys are "module.name" or
# "module.Class.member" for a method or field; every entry states why it stays.
KEPT_FOR_TESTS = {
    "mapping.oracle_compose": "oracle: plain path-following reference for compose_full",
    "bench.fit_scaling": "step-growth tooling: log-log slope of step counts against n",
    "bench.doubling_ratios": "step-growth tooling: step ratios over doubled lengths",
    "bench.ScalingFit.slope": "step-growth tooling: log-log slope of step counts against n",
    "bench.ScalingFit.residual": "step-growth tooling: log-log slope of step counts against n",
    "bench.ScalingFit.points": "step-growth tooling: log-log slope of step counts against n",
}


def defined_names(tree) -> dict:
    """What a module defines: top-level functions, classes and assigned names,
    and the methods of its top-level classes, each with its defining node.

    Keys are "name" or "Class.method".  Imports are left out (unused_imports
    covers them), and so are dunder names, which the interpreter and tools read.
    """
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [ast.Name(node.name)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        else:
            continue
        for target in targets:
            for leaf in ast.walk(target):
                if isinstance(leaf, ast.Name) and not leaf.id.startswith("__"):
                    names.setdefault(leaf.id, node)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("__")):
                    names[f"{node.name}.{item.name}"] = item
    return names


def class_fields(tree) -> dict:
    """The fields of a module's top-level classes, each with its defining node:
    annotated class attributes (dataclass and NamedTuple fields) and the
    entries of __slots__.  Keys are "Class.field"."""
    fields = {}
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for item in cls.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                names = [item.target.id]
            elif isinstance(item, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets):
                names = [leaf.value for leaf in ast.walk(item.value)
                         if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str)]
            else:
                continue
            for name in names:
                fields[f"{cls.name}.{name}"] = item
    return fields


def read_names(tree, skip=(), bare=True) -> set:
    """Every name a tree reads outside the nodes in skip: loaded names, attributes,
    imported names, and identifiers spelled as strings (as getattr and the
    benchmark's tracer take them).  With bare=False only attributes and
    strings count, the ways a field is read."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if bare:
                out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            if bare:
                out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                out.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return out


def unread_names(modules: dict, readers) -> list:
    """(module, line, name) for each name that modules (module name -> source)
    define and that neither the readers, the other modules nor the rest of
    its own module reads; a definition that reads itself, as a recursive
    call does, is not its own reader.  Class fields count as read only by an
    attribute load or an identifier string anywhere in modules or readers
    outside the fields' own definitions (the strings of __slots__): a local
    variable named like a field is not its reader.

    Readers are matched by bare name, so a field shares its readers with
    every attribute of that name: RunOutcome.visits would pass on the
    engines' reads of ListTape.visits alone."""
    trees = {mod: ast.parse(src) for mod, src in modules.items()}
    trees.update((f"<reader {i}>", ast.parse(src)) for i, src in enumerate(readers))
    reads = {mod: read_names(tree) for mod, tree in trees.items()}
    field_reads = set().union(*(
        read_names(tree, skip=tuple(class_fields(tree).values()), bare=False)
        for tree in trees.values()))
    found = []
    for mod in modules:
        tree = trees[mod]
        read = set().union(*(r for other, r in reads.items() if other != mod))
        for name, node in defined_names(tree).items():
            leaf = name.rpartition(".")[2]
            if leaf not in read and leaf not in read_names(tree, skip=(node,)):
                found.append((mod, node.lineno, name))
        found.extend((mod, node.lineno, name) for name, node in class_fields(tree).items()
                     if name.rpartition(".")[2] not in field_reads)
    return sorted(found)


# Readers are matched by bare name, so a method named like a builtin
# container's (clear, get, add, ...) would count every dict.get or set.add
# as its reader and never be flagged dead.
CONTAINER_ATTRS = frozenset(
    name for kind in (dict, list, set, frozenset, tuple, str, bytes)
    for name in dir(kind) if not name.startswith("__"))


def container_named_methods(tree) -> list:
    """(line, "Class.method") for each method of a top-level class whose name
    a builtin container's attribute shares."""
    return sorted((node.lineno, name) for name, node in defined_names(tree).items()
                  if "." in name and name.rpartition(".")[2] in CONTAINER_ATTRS)


def test_dead_name_detector_flags_only_unread_names():
    src = ("import os\nA = 1\nB, _c = 2, 3\n__all__ = []\n"
           "def f():\n    return A\nclass K:\n    def loop(self):\n        return self.loop()\n"
           "    def n(self):\n        pass\n    def __repr__(self):\n        return ''\n"
           "X: int = 4\nY = 5\ndef g(k):\n    return g(k - 1)\n"
           "class T:\n    def get(self):\n        pass\n"
           "class R:\n    kept: int\n    named: int\n    dead: int = 0\n"
           "class S:\n    __slots__ = ('used', 'spare')\n"
           "    def __init__(self):\n        self.used = self.spare = 0\n")
    other = ("from m import K, T, R, S\nprint(m.X)\nm.Y = 6\nk.n()\ngetattr(m, 'f')\n{}.get(1)\n"
             "print(r.kept, getattr(s, 'used'))\nnamed = 7\nprint(named)\n")
    # a field is read only by an attribute load or a string: the bare name
    # named and the stores in S.__init__ read no field
    assert unread_names({"m": src}, [other]) == [
        ("m", 3, "B"), ("m", 3, "_c"), ("m", 8, "K.loop"), ("m", 15, "Y"), ("m", 16, "g"),
        ("m", 23, "R.named"), ("m", 24, "R.dead"), ("m", 26, "S.spare")]
    # dict.get reads "get", so only the name check catches the dead T.get
    assert container_named_methods(ast.parse(src)) == [(19, "T.get")]


def test_no_dead_module_names():
    # Readers are the package itself (its __init__ exports count) and the
    # benchmark, not the tests: a name only tests read is dead code unless
    # KEPT_FOR_TESTS gives the reason it stays.
    modules = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    readers = [path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "perfbench").glob("*.py"))
               if not path.name.startswith("test_")]
    unread = {f"{mod}.{name}": f"{mod}.py:{line}: {name}"
              for mod, line, name in unread_names(modules, readers)}
    assert [where for key, where in unread.items() if key not in KEPT_FOR_TESTS] == []
    # every entry still exists, still has no library reader, and says why it stays
    assert sorted(set(KEPT_FOR_TESTS) - set(unread)) == []
    assert all(reason.strip() for reason in KEPT_FOR_TESTS.values())


def test_no_method_named_like_a_container_method():
    found = [f"{path.name}:{line}: {name}"
             for path in sorted(SRC.glob("*.py"))
             for line, name in container_named_methods(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


# The freeze rule's facts live in model.visit_limit and CompiledAutomaton.fixed,
# so the engines read neither the mode nor the d-limit of a machine.
FREEZE_FACTS = frozenset({"RANKED", "COUNTED", "d_of", "mode", "dlimit"})


def freeze_fact_reads(source: str) -> list:
    """The names of FREEZE_FACTS that a module reads."""
    return sorted(read_names(ast.parse(source)) & FREEZE_FACTS)


def test_engines_take_the_freeze_rule_from_the_model():
    assert freeze_fact_reads("from .model import RANKED, visit_limit\n"
                             "ranked = aut.mode == RANKED\nd_of(aut.dlimit, n)\n") == [
        "RANKED", "d_of", "dlimit", "mode"]
    found = {name: freeze_fact_reads((SRC / name).read_text(encoding="utf-8"))
             for name in ("naive.py", "linear.py")}
    assert found == {"naive.py": [], "linear.py": []}


# Each transition's exit is compiled once, as a directed state, into
# CompiledAutomaton.out_tab, which the linear engine and cf_idx read; of
# the two modules only the oracle describe_indices reads the step tables.
STEP_TABLES = frozenset({"to_tab", "mv_tab"})


def step_table_reads(source: str) -> dict:
    """For each top-level statement of a module that reads names of
    STEP_TABLES, those names, keyed on its name or "<module>"."""
    found = {}
    for node in ast.parse(source).body:
        names = sorted(read_names(node) & STEP_TABLES)
        if names:
            found[getattr(node, "name", "<module>")] = names
    return found


def test_the_engine_reads_exits_from_the_exit_table():
    assert step_table_reads("to_tab = c.to_tab\ndef f(c, k):\n    return c.mv_tab[k]\n"
                            "class C:\n    def g(self, c):\n        return c.out_tab\n") == {
        "<module>": ["to_tab"], "f": ["mv_tab"]}
    found = {name: step_table_reads((SRC / name).read_text(encoding="utf-8"))
             for name in ("linear.py", "mapping.py")}
    assert found == {"linear.py": {}, "mapping.py": {"describe_indices": ["mv_tab", "to_tab"]}}


# The composition memo's store, its cap and its charges are facts of
# mapping.py alone: the linear engine opens and ends a run on the memo and
# reads its generators, cf, and nothing else of it.
MEMO_INTERNALS = frozenset({"maps", "row", "entries", "canonical", "COMPOSE_MEMO_BYTES"})
MEMO_CHARGES = frozenset({224, 256})  # the per-entry and per-map bytes over 16|Q|


def memo_internal_reads(source: str) -> list:
    """The names of MEMO_INTERNALS that a module reads, and the charges it spells."""
    tree = ast.parse(source)
    charges = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)
               and type(node.value) is int and node.value in MEMO_CHARGES}
    return sorted(read_names(tree) & MEMO_INTERNALS) + sorted(charges)


def test_the_memo_is_mapping_facts_alone():
    assert memo_internal_reads("from .mapping import COMPOSE_MEMO_BYTES\n"
                               "if len(memo.maps) * (16 * q + 224) > COMPOSE_MEMO_BYTES:\n"
                               "    empty(f.row, memo.entries)\n") == [
        "COMPOSE_MEMO_BYTES", "entries", "maps", "row", 224]
    assert memo_internal_reads((SRC / "linear.py").read_text(encoding="utf-8")) == []
    defining = [path.name for path in sorted(SRC.glob("*.py"))
                if "COMPOSE_MEMO_BYTES" in defined_names(ast.parse(path.read_text(encoding="utf-8")))]
    assert defining == ["mapping.py"]


def node_scopes(source: str, hit) -> list:
    """For each node of a module that hit accepts, the dotted names of the
    classes and functions around it, or "<module>" outside any."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        elif hit(node):
            found.append(scope or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return sorted(found)


def maker_calls(source: str, maker: str) -> list:
    """Where a module calls maker: node_scopes of its calls."""
    return node_scopes(source, lambda node: isinstance(node, ast.Call) and maker in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)))


def package_maker_calls(maker: str) -> dict:
    """maker_calls of maker in each package module that has any."""
    found = {path.name: maker_calls(path.read_text(encoding="utf-8"), maker)
             for path in sorted(SRC.glob("*.py"))}
    return {name: where for name, where in found.items() if where}


# A map is made by its machine's memo, which keeps one map per table and
# gives it the row its compositions go into: SegmentMap is called only in
# CompositionMemo.canonical.
def test_maps_are_made_by_their_memo_alone():
    assert maker_calls("m = SegmentMap(t, memo)\n"
                       "class C:\n    def canonical(self, t):\n"
                       "        return SegmentMap(t, self)\n"
                       "def f(t):\n    return [mapping.SegmentMap(t) for _ in t]\n",
                       "SegmentMap") == ["<module>", "C.canonical", "f"]
    assert package_maker_calls("SegmentMap") == {"mapping.py": ["CompositionMemo.canonical"]}


# A state's row offset in the flat tables is compiled once, into
# CompiledAutomaton.head_row, by model._compile alone; the linear engine
# indexes the tables by head_row[head] + symbol and reads no width, so
# (head >> 1) * width cannot come back as a second spelling of the row.
def head_row_builders(source: str) -> list:
    """node_scopes of the head_row= keywords and head_row attribute stores."""
    return node_scopes(source, lambda node: (
        isinstance(node, ast.keyword) and node.arg == "head_row"
        or isinstance(node, ast.Attribute) and node.attr == "head_row"
        and isinstance(node.ctx, ast.Store)))


def test_rows_are_compiled_once_into_head_row():
    assert head_row_builders("c = C(head_row=[0, 0])\ndef f(c):\n    c.head_row = []\n"
                             "    return c.head_row\nclass K:\n    def g(self, c):\n"
                             "        head_row = c.head_row\n") == ["<module>", "f"]
    found = {path.name: head_row_builders(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: where for name, where in found.items() if where} == {"model.py": ["_compile"]}
    assert "width" in read_names(ast.parse("k = (head >> 1) * width + s\n"))
    assert "width" not in read_names(ast.parse((SRC / "linear.py").read_text(encoding="utf-8")))


# Each seeded stream has one maker: a machine's in random_automaton, the
# words' in random_words (make_word's words among them) and fuzz's master
# seed in cmd_fuzz, so no second loop draws the same kind of thing.
def test_one_maker_per_seeded_stream():
    assert maker_calls("def make_word(n, s):\n    rng = rng_mod.SplitMix64(s + n)\n"
                       "    return SplitMix64(s).take(n)\n", "SplitMix64") == [
        "make_word", "make_word"]
    assert package_maker_calls("SplitMix64") == {
        "cli.py": ["cmd_fuzz"], "difftest.py": ["random_words"], "zoo.py": ["random_automaton"]}


# Usage errors have one channel: the CLI's commands and helpers raise
# cli.UsageError, and main alone words its messages as "error: ..." lines.
def error_line_scopes(source: str) -> list:
    """The top-level functions and classes of a module that spell a string
    beginning "error: " (an f-string's leading text counts), or "<module>"."""
    found = set()
    for node in ast.parse(source).body:
        if any(isinstance(leaf, ast.Constant) and isinstance(leaf.value, str)
               and leaf.value.startswith("error: ") for leaf in ast.walk(node)):
            found.add(getattr(node, "name", "<module>"))
    return sorted(found)


def test_only_main_writes_error_lines():
    assert error_line_scopes("E = 'error: x'\ndef f(e):\n    print(f'error: {e}')\n"
                             "def g(e):\n    raise UsageError(f'{e}: error: no')\n"
                             "class C:\n    def h(self):\n        return 'error: h'\n") == [
        "<module>", "C", "f"]
    found = error_line_scopes((SRC / "cli.py").read_text(encoding="utf-8"))
    assert found == ["main"]


# Output errors are reported at one site: a command writes its output files
# inside cli._output's block, which turns their OSErrors into usage errors.
# The other handlers are the machine file's (_load) and stdout's (main, and
# _silence_stdout's probe of its descriptor).
def oserror_handler_scopes(source: str) -> list:
    """The top-level functions and classes of a module with an except clause
    naming OSError, alone or in a tuple, or "<module>"."""
    found = set()
    for node in ast.parse(source).body:
        if any(isinstance(leaf, ast.ExceptHandler) and leaf.type is not None
               and any(isinstance(name, ast.Name) and name.id == "OSError"
                       for name in ast.walk(leaf.type)) for leaf in ast.walk(node)):
            found.add(getattr(node, "name", "<module>"))
    return sorted(found)


def test_output_errors_are_reported_at_one_site():
    assert oserror_handler_scopes(
        "try:\n    import x\nexcept ImportError:\n    x = None\n"
        "def cmd_run(fp):\n    try:\n        fp.write('v')\n"
        "    except OSError as e:\n        raise UsageError(str(e))\n"
        "def g(fp):\n    try:\n        fp.close()\n    except (ValueError, OSError):\n"
        "        pass\n"
        "class C:\n    def h(self):\n        try:\n            pass\n"
        "        except OSError:\n            pass\n"
        "def k():\n    try:\n        pass\n    except:\n        pass\n") == [
        "C", "cmd_run", "g"]
    found = oserror_handler_scopes((SRC / "cli.py").read_text(encoding="utf-8"))
    assert found == ["_load", "_output", "_silence_stdout", "main"]


# A freezing visit is folded into its segment by one deletion_scan call in
# run_linear, traced or not: the trace record is read from the tape the scan
# leaves, so no second path makes the same scan.
def call_sites(source: str, is_site) -> dict:
    """For each top-level function of a module with calls whose callee
    expression is_site accepts, the lines of those calls."""
    found = {}
    for node in ast.parse(source).body:
        lines = [leaf.lineno for leaf in ast.walk(node)
                 if isinstance(leaf, ast.Call) and is_site(leaf.func)]
        if lines:
            found[getattr(node, "name", "<module>")] = sorted(lines)
    return found


def scan_call_sites(source: str) -> dict:
    """call_sites of deletion_scan, called bare or as an attribute."""
    return call_sites(source, lambda f: "deletion_scan" in (getattr(f, "id", None),
                                                            getattr(f, "attr", None)))


def test_the_letter_run_scans_at_one_site():
    assert scan_call_sites("def f(t):\n    if t:\n        deletion_scan(t)\n    else:\n"
                           "        linear.deletion_scan(t)\n"
                           "def g(t):\n    return deletion_scan\n") == {"f": [3, 5]}
    found = {path.name: scan_call_sites(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    sites = {name: where for name, where in found.items() if where}
    assert list(sites) == ["linear.py"] and list(sites["linear.py"]) == ["run_linear"]
    assert len(sites["linear.py"]["run_linear"]) == 1, sites


# run_linear records a plain visit, a scan (completed or not) and a map jump
# or marker move at one site each: a scan's segment is read by one rule, so
# no second site spells it another way.
def trace_append_sites(source: str) -> dict:
    """call_sites of appends to a trace list named tr."""
    return call_sites(source, lambda f: getattr(f, "attr", None) == "append"
                      and getattr(f.value, "id", None) == "tr")


def test_run_linear_records_at_three_sites():
    # a scan recorded on two branches makes a fourth site, which the check flags
    sample = ("def run_linear(t, tr, xs):\n    tr.append(1)\n    if t < 0:\n"
              "        tr.append(2)\n    else:\n        tr.append(3)\n"
              "    tr.append(4)\n    xs.append(5)\n")
    assert trace_append_sites(sample) == {"run_linear": [2, 4, 6, 7]}
    found = trace_append_sites((SRC / "linear.py").read_text(encoding="utf-8"))
    assert list(found) == ["run_linear"] and len(found["run_linear"]) == 3, found


# A machine's rules are stated by model.validate_automaton alone:
# model._compile looks every name up and refuses a failed lookup at one
# raise, whose message is the validator's first violation.
def raise_calls(source: str, function: str) -> list:
    """For each raise in a module's top-level function, the sorted names
    that its exception expression calls, bare or as an attribute."""
    fn = next(node for node in ast.parse(source).body
              if isinstance(node, ast.FunctionDef) and node.name == function)
    return [sorted(getattr(leaf.func, "id", None) or leaf.func.attr
                   for leaf in ast.walk(r.exc) if isinstance(leaf, ast.Call))
            for r in ast.walk(fn) if isinstance(r, ast.Raise)]


def test_compile_refuses_through_the_validator():
    assert raise_calls("def f(a):\n    if a:\n        raise ValueError('a')\n"
                       "    try:\n        g[a]\n    except KeyError:\n"
                       "        raise ValueError(f'{m.check(a).v[0]}') from None\n"
                       "def g(a):\n    raise KeyError\n", "f") == [
        ["ValueError"], ["ValueError", "check"]]
    source = (SRC / "model.py").read_text(encoding="utf-8")
    assert raise_calls(source, "_compile") == [["ValueError", "validate_automaton"]]
    assert "_first_bad_row" not in defined_names(ast.parse(source))


# The d-limit rule is stated once, by model.dlimit_error, which the
# validator, the parser and the generator call.
DLIMIT_RULES = ("ranked mode requires a constant d", "d must be >= 0")


def literal_scopes(source: str, literal: str) -> list:
    """node_scopes of the string constants equal to literal."""
    return node_scopes(source, lambda node: isinstance(node, ast.Constant)
                       and node.value == literal)


def test_the_dlimit_rule_is_stated_once():
    assert literal_scopes("E = 'd must be >= 0'\ndef f(k):\n"
                          "    return f'{k}: d must be >= 0' if k < 0 else 'd must be >= 0'\n",
                          "d must be >= 0") == ["<module>", "f"]
    for literal in DLIMIT_RULES:
        found = {path.name: literal_scopes(path.read_text(encoding="utf-8"), literal)
                 for path in sorted(SRC.glob("*.py"))}
        assert {name: where for name, where in found.items() if where} == {
            "model.py": ["dlimit_error"]}, literal
