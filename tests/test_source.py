import ast
import re
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "linkset"


def _private_helpers(tree: ast.Module) -> list:
    """The module-level functions and classes whose names start with one
    underscore."""
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")]


def test_no_private_helper_is_defined_in_two_modules():
    """A private helper (a module-level function or class whose name starts
    with one underscore) lives in one module; two of the same name are two
    paths for one job."""
    where = defaultdict(list)
    for path in sorted(SRC.glob("*.py")):
        for node in _private_helpers(ast.parse(path.read_text())):
            where[node.name].append(path.name)
    assert len(where) > 50  # the scan sees the package's helpers
    assert {name: files for name, files in where.items() if len(files) > 1} == {}


def _reads(trees: list[ast.Module]) -> defaultdict:
    """name -> ids of the top-level statements that read it, as a name or an
    attribute (an import or an assignment alone is no read)."""
    read = defaultdict(set)
    for tree in trees:
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read[node.id].add(id(stmt))
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read[node.attr].add(id(stmt))
    return read


def _unreferenced_helpers(trees: list[ast.Module]) -> list[str]:
    """The private module-level helpers that no top-level statement other
    than their own definition reads."""
    read = _reads(trees)
    return sorted(node.name for tree in trees for node in _private_helpers(tree)
                  if not read[node.name] - {id(node)})


def test_every_private_helper_is_used():
    """A private module-level helper that nothing in the package calls is
    dead code."""
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    assert _unreferenced_helpers(trees) == []
    # the scan sees a helper used only by itself or only imported, and
    # counts a use in another module or inside a class
    assert _unreferenced_helpers([ast.parse(
        "from m import _b\ndef _a(n):\n    return _a(n - 1)\n"
        "def _c():\n    pass\nclass K:\n    def f(self):\n        return _c()\n"),
        ast.parse("def _b():\n    pass\n")]) == ["_a", "_b"]


def _module_constants(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """(name, statement) for each module-level UPPER_CASE name the module
    assigns."""
    found = []
    for stmt in tree.body:
        targets = (stmt.targets if isinstance(stmt, ast.Assign)
                   else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
        found += [(node.id, stmt) for target in targets for node in ast.walk(target)
                  if isinstance(node, ast.Name) and node.id.lstrip("_").isupper()]
    return found


def _unread_constants(constants: list[ast.Module], readers: list[ast.Module]) -> list[str]:
    """The module-level UPPER_CASE constants of the ``constants`` modules
    that no top-level statement of the ``readers`` other than their own
    assignment reads."""
    read = _reads(readers)
    return sorted(name for tree in constants for name, stmt in _module_constants(tree)
                  if not read[name] - {id(stmt)})


def test_every_module_constant_is_read():
    """A module-level constant of the package that nothing in the package,
    its tests or its demos reads is dead code."""
    root = SRC.parent.parent
    package = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    others = [ast.parse(path.read_text()) for folder in ("tests", "demos")
              for path in sorted((root / folder).glob("*.py"))]
    assert sum(len(_module_constants(tree)) for tree in package) >= 27  # the scan sees them
    assert _unread_constants(package, package + others) == []
    # a constant set twice, set through an attribute or named only in a
    # string is unread; one read in another module, as an attribute or
    # inside a function is read
    trees = [ast.parse("A = 1\nA = 2\nB: int = 3\nC = 4\n_D = 5\nm.B = 6\n"
                       "x = 'C'\ndef f():\n    return _D\n"),
             ast.parse("import m\ny = m.C\n")]
    assert _unread_constants(trees[:1], trees) == ["A", "A", "B"]


SIZE_NAME = re.compile(r"BLOCK|ROWS|BYTES|CHUNK|BATCH|TILE|STEP")
# module constants that size something other than a loop's scratch, each
# with its reason beside it in its module: the rows that share one loop
# over a quotient, the transform's block order, and a cache
NOT_SCRATCH = {"search.CONTRACTION_BLOCK", "group_ring.NTT_BLOCK", "diffmat.KILL_CACHE_BYTES"}


def _size_constants(tree: ast.Module, module: str) -> set[str]:
    """``module.NAME`` for each module constant that looks like a size: its
    name says block, rows, bytes, chunk, batch, tile or step, or its value
    is a shift ``1 << n``."""
    return {f"{module}.{name}" for name, stmt in _module_constants(tree)
            if SIZE_NAME.search(name) or any(
                isinstance(node, ast.BinOp) and isinstance(node.op, ast.LShift)
                for node in ast.walk(stmt))}


def test_one_scratch_bound():
    """Every batched loop sizes its blocks from one byte bound,
    ``groups.SCRATCH_BYTES``, through ``groups._scratch_rows``: no other
    module constant sizes a scratch block, and nothing but
    ``_scratch_rows`` and the ``--out`` writer's buffer reads the bound."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    sizes = set().union(*(_size_constants(tree, stem) for stem, tree in trees.items()))
    assert sizes - NOT_SCRATCH == {"groups.SCRATCH_BYTES"} and NOT_SCRATCH <= sizes
    readers = set().union(*(_scopes_where(tree, stem, lambda node: _named(
        node, {"SCRATCH_BYTES"}) and isinstance(node.ctx, ast.Load))
        for stem, tree in trees.items()))
    assert readers == {"groups._scratch_rows", "cli._write_out"}
    # the scan sees a size by its name or by a shift, annotated or not; an
    # order, a limit or a power written as ** is none
    tree = ast.parse("SET_BLOCK = 64\nN: int = 1 << 16\nMAX_ORDER = 53\n"
                     "LIMIT = 2.0 ** 52\nKEY_ROWS, Y = 5, 6\nx_block = 1 << 4\n")
    assert _size_constants(tree, "m") == {"m.SET_BLOCK", "m.N", "m.KEY_ROWS"}


# the command line imports the self-test's module only when it runs, and the
# census imports its worker pool only when it starts one
LAZY_IMPORTS = {"cli._cmd_selftest", "search.build_linking_graph"}


def _local_imports(tree: ast.Module, module: str) -> set[str]:
    """The scopes other than the module's own that hold an import."""
    return _scopes_where(tree, module, lambda node: isinstance(
        node, (ast.Import, ast.ImportFrom))) - {module}


def test_imports_are_at_module_tops():
    """Every import of the package sits at the top of its module, where a
    reader sees what the module needs, apart from the two lazy imports in
    LAZY_IMPORTS; none of the moved ones broke an import cycle."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= _local_imports(ast.parse(path.read_text()), path.stem)
    assert found == LAZY_IMPORTS
    # the scan sees an import and a from-import in a function, a nested
    # function and a method; a module-level or conditional top import is none
    tree = ast.parse("import os\nif os:\n    from x import y\n"
                     "def f():\n    import json\n"
                     "def g():\n    def h():\n        from . import io\n"
                     "class K:\n    def k(self):\n        from .a import b\n")
    assert _local_imports(tree, "m") == {"m.f", "m.g.h", "m.K.k"}


SCALAR_GROUP_METHODS = {"mul", "power", "inv", "element_order"}
# the self-test spells out its small examples element by element on purpose
SCALAR_LOOP_MODULES = {"selftest.py"}
LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp)


def _scalar_calls_in_loops(tree: ast.Module) -> list[tuple[int, str]]:
    """Calls ``x.mul(...)``, ``x.power(...)``, ``x.inv(...)`` or
    ``x.element_order(...)`` that sit inside a loop or comprehension.  A
    class calling one of its own methods on ``self`` (``FiniteGroup``'s word
    parser, ``GaloisRing``'s squaring ladder) is the method's own business
    and is not counted."""
    found = []

    def visit(node, in_loop: bool, own: frozenset):
        if isinstance(node, ast.ClassDef):
            own = frozenset(n.name for n in node.body if isinstance(n, ast.FunctionDef))
        if (in_loop and isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in SCALAR_GROUP_METHODS
                and not (isinstance(node.func.value, ast.Name) and node.func.value.id == "self"
                         and node.func.attr in own)):
            found.append((node.lineno, node.func.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, in_loop or isinstance(node, LOOPS), own)

    visit(tree, False, frozenset())
    return found


def test_scalar_group_calls_stay_out_of_loops():
    """Per-element group work is a table gather (``G.table``,
    ``G.inv_table``, ``G.element_orders``), not a Python loop of scalar
    ``mul``/``power``/``inv``/``element_order`` calls."""
    offenders = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name not in SCALAR_LOOP_MODULES:
            calls = _scalar_calls_in_loops(ast.parse(path.read_text()))
            if calls:
                offenders[path.name] = calls
    assert offenders == {}
    # the scan sees such calls where they are: the exempt example module has them
    assert _scalar_calls_in_loops(ast.parse((SRC / "selftest.py").read_text()))
    assert _scalar_calls_in_loops(ast.parse("for a in s:\n    G.inv(a)\n")) == [(2, "inv")]
    assert _scalar_calls_in_loops(ast.parse("[G.mul(a, b) for a in s]")) == [(1, "mul")]
    assert _scalar_calls_in_loops(ast.parse("G.mul(a, b)")) == []


def _scopes_where(tree: ast.Module, module: str, hit) -> set[str]:
    """The scopes (``module.f``, ``module.Class.f``; ``module`` for a
    statement outside any function or class) that hold a node for which
    ``hit(node)`` is true."""
    found = set()

    def visit(node, where: str):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        if hit(node):
            found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, module)
    return found


def _named(node, names: set[str]) -> bool:
    """Whether ``node`` is a name, or an attribute, in ``names``."""
    return ((isinstance(node, ast.Name) and node.id in names)
            or (isinstance(node, ast.Attribute) and node.attr in names))


def _functions_comparing_with(tree: ast.Module, module: str, names: set[str]) -> set[str]:
    """The scopes that compare a value with a name, or an attribute, in
    ``names``."""
    return _scopes_where(tree, module, lambda node: isinstance(node, ast.Compare) and any(
        _named(x, names) for x in (node.left, *node.comparators)))


def _calls_to(tree: ast.Module, module: str, names: set[str]) -> set[str]:
    """The scopes that call a function named, or an attribute, in ``names``."""
    return _scopes_where(tree, module,
                         lambda node: isinstance(node, ast.Call) and _named(node.func, names))


def _membership_tests_on_calls_to(tree: ast.Module, module: str, names: set[str]) -> set[str]:
    """The scopes that test ``x in E`` or ``x not in E`` where E holds a
    call to a function in ``names``."""
    def hit(node) -> bool:
        return (isinstance(node, ast.Compare)
                and any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops)
                and any(isinstance(sub, ast.Call) and _named(sub.func, names)
                        for x in node.comparators for sub in ast.walk(x)))

    return _scopes_where(tree, module, hit)


def test_one_two_valued_test():
    """Whether a product is valued in {mu, nu} is decided in one place, the
    pair check's pair pass ``linking.PairCheck._upper``, with
    ``group_ring.decompose_two_valued`` as its one-element oracle; no other
    function compares a value with mu or nu."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= _functions_comparing_with(ast.parse(path.read_text()), path.stem, {"mu", "nu"})
    assert found == {"linking.PairCheck._upper", "group_ring.decompose_two_valued"}
    # the scan sees a comparison on either side, in a nested function, in a
    # method, through an attribute and outside any function, and no arithmetic
    tree = ast.parse("def f(x, mu):\n    def g():\n        return 1 < x == mu\n"
                     "class K:\n    def h(self, c):\n        return self.nu < c\n"
                     "def k(mu):\n    return mu - 1\nmu != 1\n")
    assert _functions_comparing_with(tree, "m", {"mu", "nu"}) == {"m.f.g", "m.K.h", "m"}


def test_one_pair_pass():
    """Every pair check is one pass over the pairs i < j: only
    ``linking.PairCheck._upper`` calls the product kernel ``_products``,
    ``PairCheck`` has no ``block``, ``square`` or ``pairs`` method and no
    method with a boolean flag, and the only ``pairs`` method called in the
    package is ``ReducedLinkingSystem.pairs``, the pair order of its
    witnesses."""
    from linkset.linking import PairCheck

    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    found = set().union(*(_calls_to(tree, stem, {"_products"}) for stem, tree in trees.items()))
    assert found == {"linking.PairCheck._upper"}
    assert not any(hasattr(PairCheck, name) for name in ("block", "square", "pairs"))
    calls = {name: set().union(*(_calls_to(tree, stem, {name}) for stem, tree in trees.items()))
             for name in ("block", "square", "pairs")}
    assert calls == {"block": set(), "square": set(),
                     "pairs": {"io._witness_keys", "linking.ReducedLinkingSystem.witnesses"}}
    check = next(node for node in trees["linking"].body
                 if isinstance(node, ast.ClassDef) and node.name == "PairCheck")
    defaults = [d for f in check.body if isinstance(f, ast.FunctionDef)
                for d in f.args.defaults + f.args.kw_defaults]
    assert not any(isinstance(d, ast.Constant) and isinstance(d.value, bool) for d in defaults)


def test_one_guard_on_the_mu_nu_branch():
    """Whether (mu, nu) is a branch of ``mu_nu_candidates`` is asked in one
    place, ``linking.PairCheck.check_branch``, which every pair pass of the
    pair check goes through."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= _membership_tests_on_calls_to(ast.parse(path.read_text()), path.stem,
                                               {"mu_nu_candidates"})
    assert found == {"linking.PairCheck.check_branch"}
    # the scan sees `in` and `not in`, through a comprehension or an
    # attribute; iteration and `==` are no membership test
    tree = ast.parse("def f(m, p):\n    return m in [x for x in mu_nu_candidates(p)]\n"
                     "class K:\n    def g(self, m, p):\n"
                     "        return m not in linking.mu_nu_candidates(p)\n"
                     "def h(p):\n    return [m for m in mu_nu_candidates(p)]\n"
                     "def i(m, p):\n    return m == mu_nu_candidates(p)\n")
    assert _membership_tests_on_calls_to(tree, "m", {"mu_nu_candidates"}) == {"m.f", "m.K.g"}


def test_sets_are_checked_for_the_pair_check_in_one_place():
    """In ``linking`` and ``search`` the difference-set batch checks run only
    in ``PairCheck`` (the first precondition of its lemma), in the sweeps'
    ``verified_sets`` count and in the enumeration of difference sets."""
    checks = {"difference_set_mask", "difference_set_params", "_autocorrelation_params",
              "is_difference_set"}
    found = set()
    for name in ("linking", "search"):
        found |= _calls_to(ast.parse((SRC / f"{name}.py").read_text()), name, checks)
    assert found == {"linking.PairCheck.__init__", "search._sweep_report",
                     "search.enumerate_difference_sets"}
    # the scan sees a call by name, through a module and in a method; an
    # import or a mention that is not a call is none
    tree = ast.parse("from d import difference_set_mask\n"
                     "def f(G, s, p):\n    return difference_set_mask(G, s, p)\n"
                     "class K:\n    def g(self, G, s):\n"
                     "        return designs._autocorrelation_params(G, s)\n"
                     "def h():\n    return difference_set_params\n")
    assert _calls_to(tree, "m", checks) == {"m.f", "m.K.g"}


def test_one_product_path():
    """Products of sets are made through ``group_ring.RowProducts``, which
    is built only by the pair check's product kernel
    ``linking.PairCheck._products`` and by the public
    ``group_ring.pair_products``: ``verify_full`` and every other caller
    makes no products of its own."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= _calls_to(ast.parse(path.read_text()), path.stem, {"RowProducts"})
    assert found == {"linking.PairCheck._products", "group_ring.pair_products"}
    # the scan sees a construction by name, through a module and in a
    # method; an annotation, a mention or a class definition is none
    tree = ast.parse("class RowProducts:\n    pass\n"
                     "def f(G, rows):\n    return RowProducts(G, rows)(a, b)\n"
                     "class K:\n    def g(self, G, rows):\n"
                     "        self.p: rg.RowProducts = rg.RowProducts(G, rows)\n"
                     "def h() -> rg.RowProducts:\n    return rg.RowProducts\n")
    assert _calls_to(tree, "m", {"RowProducts"}) == {"m.f", "m.K.g"}


def test_each_product_kernel_has_one_caller():
    """Each group has one S S^(-1) route: the spectral difference-set test
    ``_character_norms`` is reached only through its block loop
    ``character_norm_blocks``, the exact count ``_count_autocorrelations``
    only through ``autocorrelation_blocks``, and the left factor of the
    transform's products, ``_Transform.left``, only from the pair products
    ``RowProducts.__call__``."""
    kernels = {"_character_norms": {"group_ring.character_norm_blocks"},
               "_count_autocorrelations": {"group_ring.autocorrelation_blocks"},
               "left": {"group_ring.RowProducts.__call__"}}
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    for name, callers in kernels.items():
        assert set().union(*(_calls_to(tree, stem, {name}) for stem, tree in trees.items())) \
            == callers, name


def _indented_dumps(tree: ast.Module, module: str) -> set[str]:
    """The scopes that call ``json.dumps`` (or ``dumps``) with an ``indent``."""
    return _scopes_where(tree, module, lambda node: isinstance(node, ast.Call)
                         and _named(node.func, {"dumps"})
                         and any(kw.arg == "indent" for kw in node.keywords))


def test_one_json_renderer():
    """Certificate text is rendered in one place, ``io._json_pieces``: it is
    defined only there, the only indented ``json.dumps`` is its own fallback,
    and both the certificate writer ``cli._write_json`` and the fast reader
    ``io.canonical_system``, which compares a file with the writer's bytes,
    call it."""
    defined, calls, dumps = set(), set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined |= _scopes_where(tree, path.stem, lambda node: isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "_json_pieces")
        calls |= _calls_to(tree, path.stem, {"_json_pieces"})
        dumps |= _indented_dumps(tree, path.stem)
    assert defined == {"io._json_pieces"}
    assert calls == {"io._json_pieces", "io.canonical_system", "cli._write_json"}
    assert dumps == {"io._json_pieces"}
    # the scan sees a call by name and through a module, and an indented
    # dumps by name or through json; a compact dumps is none
    tree = ast.parse("def f(x):\n    return lio._json_pieces(x)\n"
                     "def g(x):\n    return json.dumps(x, indent=2)\n"
                     "def h(x):\n    return dumps(x, sort_keys=True, indent=None)\n"
                     "def k(x):\n    return json.dumps(x, separators=(',', ':'))\n")
    assert _calls_to(tree, "m", {"_json_pieces"}) == {"m.f"}
    assert _indented_dumps(tree, "m") == {"m.g", "m.h"}


def test_one_way_out_for_certificates():
    """Every command that makes a certificate reports through ``cli._report``:
    in ``cli`` only it builds one (``io.certificate``) and writes ``--out``
    (``_write_out``)."""
    tree = ast.parse((SRC / "cli.py").read_text())
    assert _calls_to(tree, "cli", {"certificate"}) == {"cli._report"}
    assert _calls_to(tree, "cli", {"_write_out"}) == {"cli._report"}
    assert _calls_to(tree, "cli", {"_report"}) == {
        "cli._cmd_dm_construct", "cli._cmd_bent_kerdock", "cli._cmd_build", "cli._cmd_census",
        "cli._cmd_nonexist"}
    # the scan counts a call inside a lambda for the function that holds it
    tree = ast.parse("def f(x):\n    return g(lambda: lio.certificate(x))\n")
    assert _calls_to(tree, "m", {"certificate"}) == {"m.f"}


TRANSFORM_NAME = re.compile(r"transform|wht|walsh|hadamard|fourier|ntt|butterfl", re.IGNORECASE)


def _transform_definitions(tree: ast.Module, module: str) -> set[str]:
    """The scopes of the functions and classes whose names say they are a
    transform (``transform``, ``wht``, ``walsh``, ``hadamard``, ...)."""
    return _scopes_where(tree, module, lambda node: isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and TRANSFORM_NAME.search(node.name) is not None)


def test_one_transform():
    """Group-ring transforms are built in one place, the cache
    ``group_ring._factor_transform`` keyed by the factor tuple, which
    serves ``_transform(G)`` and the bent layer's Walsh-Hadamard spectra;
    outside ``group_ring`` no module defines a transform but the public
    one-line wrapper ``bent.wht``."""
    built, defined = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        built |= _calls_to(tree, path.stem, {"_Transform"})
        if path.stem != "group_ring":
            defined |= _transform_definitions(tree, path.stem)
    assert built == {"group_ring._factor_transform"}
    assert defined == {"bent.wht"}
    # the scan sees a construction by name, through a module and in a
    # method, and a transform defined as a function, a method or a class;
    # an annotation or another name is none
    tree = ast.parse("class _Transform:\n    pass\n"
                     "def cache(f):\n    return _Transform(f)\n"
                     "class K:\n    def g(self, f):\n        return gr._Transform(f)\n"
                     "    def fwht(self, x):\n        return x\n"
                     "def wht_signs(x):\n    return x\nclass Walsh:\n    pass\n"
                     "def h(x) -> gr._Transform:\n    return x\n")
    assert _calls_to(tree, "m", {"_Transform"}) == {"m.cache", "m.K.g"}
    assert _transform_definitions(tree, "m") == {"m._Transform", "m.K.fwht", "m.wht_signs",
                                                 "m.Walsh"}


OUTCOME_WORDS = {"found", "absent", "inconclusive"}


def _outcome_constants(tree: ast.Module) -> list[str]:
    """The module-level UPPER_CASE names assigned by a statement that holds
    a string naming a search outcome (found, absent or inconclusive)."""
    return [name for name, stmt in _module_constants(tree)
            if any(isinstance(node, ast.Constant) and isinstance(node.value, str)
                   and node.value.lower() in OUTCOME_WORDS for node in ast.walk(stmt))]


def test_search_outcomes_are_values_not_strings():
    """A difference-matrix search answers with its rows, None (absence
    proved) or the SearchInconclusive it raises: no module defines an
    outcome-string constant, and SearchInconclusive is constructed only at
    the node where ``diffmat._backtrack_dm`` runs out of budget."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert [name for tree in trees.values() for name in _outcome_constants(tree)] == []
    raised = set().union(*(_calls_to(tree, stem, {"SearchInconclusive"})
                           for stem, tree in trees.items()))
    assert raised == {"diffmat._backtrack_dm.fill"}
    # the scan sees outcome strings unpacked or annotated, in any case; an
    # exit code or another string is none
    tree = ast.parse("FOUND, ABSENT = 'found', 'absent'\nX: str = 'Inconclusive'\n"
                     "EXIT_INCONCLUSIVE = 3\nNAME = 'file.json'\nfound = 'found'\n")
    assert _outcome_constants(tree) == ["FOUND", "ABSENT", "X"]


ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(tree: ast.Module, module: str) -> set[str]:
    """The scopes that name ``os.environ`` or ``os.getenv``, or import them."""
    return _scopes_where(tree, module, lambda node: _named(node, ENVIRONMENT_NAMES) or (
        isinstance(node, ast.alias) and node.name in ENVIRONMENT_NAMES))


def test_no_module_reads_the_environment():
    """Every setting comes from a function argument or a command-line flag:
    no module of the package reads an environment variable."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= _environment_reads(ast.parse(path.read_text()), path.stem)
    assert found == set()
    # the scan sees a read through os, an imported name and a getenv call
    tree = ast.parse("import os\ndef f():\n    return os.environ.get('X', '1')\n"
                     "from os import environ\nclass K:\n    def g(self):\n"
                     "        return os.getenv('Y')\n")
    assert _environment_reads(tree, "m") == {"m.f", "m", "m.K.g"}


def _attribute_stores(tree: ast.Module, module: str) -> set[str]:
    """The scopes that assign to an attribute (``x.a = ...``, ``x.a += ...``)."""
    return _scopes_where(tree, module, lambda node: isinstance(node, ast.Attribute)
                         and isinstance(node.ctx, ast.Store))


def test_each_fact_is_held_once():
    """A (mu, nu) branch is its two values: which branch it is follows from
    mu < nu, and only ``linking.mu_nu_candidates`` makes one, so every
    branch in the package is a branch of some parameters.  A linking
    graph's linked pairs are read off its adjacency, and a census result's
    group is its graph's.  The pair check holds
    its sets, their parameters and its product kernel, set once: the branch
    is an argument of each question, never state, so ``PairCheck`` has no
    ``bind`` and assigns no attribute outside ``__init__``."""
    from dataclasses import fields

    from linkset.linking import MuNu, PairCheck
    from linkset.search import CensusResult, LinkingGraph

    assert [f.name for f in fields(MuNu)] == ["mu", "nu"]
    assert [f.name for f in fields(LinkingGraph)] == ["group", "records", "munu", "adjacency"]
    assert [f.name for f in fields(CensusResult)] == ["graph", "systems", "max_size",
                                                      "runtime_seconds"]
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    made = set().union(*(_calls_to(tree, stem, {"MuNu"}) for stem, tree in trees.items()))
    assert made == {"linking.mu_nu_candidates"}
    check = next(node for node in trees["linking"].body
                 if isinstance(node, ast.ClassDef) and node.name == "PairCheck")
    assert _attribute_stores(check, "linking") == {"linking.PairCheck.__init__"}
    assert not any(hasattr(PairCheck, name) for name in ("bind", "munu"))
    # the scan sees a plain, a tuple and an augmented store in a method; a
    # read or a store to a name is none
    tree = ast.parse("class K:\n    def __init__(self):\n        self.a, self.b = 1, 2\n"
                     "    def f(self):\n        self.n += 1\n        return self.a\n"
                     "    def g(self):\n        x = self.a\n")
    assert _attribute_stores(tree, "m") == {"m.K.__init__", "m.K.f"}


def _raises_with(tree: ast.Module, module: str, text: str) -> set[str]:
    """The scopes that raise with a message, or a piece of an f-string
    message, containing ``text``."""
    return _scopes_where(tree, module, lambda node: isinstance(node, ast.Raise) and any(
        isinstance(sub, ast.Constant) and isinstance(sub.value, str) and text in sub.value
        for sub in ast.walk(node)))


ORDERINGS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _order_comparisons(tree: ast.Module, module: str) -> set[str]:
    """The scopes that compare a value with a group order (an attribute
    ``order``) by <, <=, > or >=, other than two orders or an order and
    an UPPER_CASE module constant: the shape of an id range test."""
    def sizes(x) -> bool:
        return _named(x, {"order"}) or (isinstance(x, ast.Name) and x.id.isupper())

    return _scopes_where(tree, module, lambda node: isinstance(node, ast.Compare)
                         and any(isinstance(op, ORDERINGS) for op in node.ops)
                         and sum(_named(x, {"order"}) for x in (node.left, *node.comparators)) == 1
                         and sum(sizes(x) for x in (node.left, *node.comparators)) == 1)


def _modulo_element_orders(tree: ast.Module, module: str) -> set[str]:
    """The scopes that take a value modulo ``element_orders[...]``: the shape
    of an exponent test, whether a^p = 1."""
    return _scopes_where(tree, module, lambda node: isinstance(node, ast.BinOp)
                         and isinstance(node.op, ast.Mod) and isinstance(node.right, ast.Subscript)
                         and _named(node.right.value, {"element_orders"}))


def test_one_check_per_precondition():
    """Each precondition of the constructions is checked in one scope.
    Element ids are let in through one door, ``groups._id_array``, the only
    scope that compares a value with a group's order; the one other message
    on ids is the enumeration's own check that the rows it keys are
    strictly increasing (``search._translation_classes``).  That
    representatives lie in distinct cosets is ``groups._distinct_cosets``,
    called by the transversal, the hyperplane constructions and the direct
    witness.  That E is elementary
    abelian of exponent p is ``designs._check_elementary``, which
    ``hyperplanes`` and ``_check_central_elementary`` call; the only other
    exponent test is the torsion filter of ``find_central_elementary_abelian``,
    which selects the elements with a^p = 1 and checks nothing.  Every
    McFarland and Spence set, one or all, is built by one
    ``designs._hyperplane_sets``: the three fronts call it, it alone checks
    their slot, index, representatives and assignment, and it is the one
    caller of ``_slot_parts`` and the one McFarland/Spence caller of
    ``_coset_unions`` (the others build the difference-matrix systems).
    That a subgroup belongs to the group it is used in is
    ``groups._check_subgroup_of``, called by the coset numbering and by
    ``designs._check_central_elementary``."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}

    def scan(shape, *args) -> set[str]:
        return set().union(*(shape(tree, stem, *args) for stem, tree in trees.items()))

    builder = {"designs._hyperplane_sets"}
    assert scan(_order_comparisons) == {"groups._id_array"}
    assert scan(_raises_with, "element id") == {"groups._id_array", "search._translation_classes"}
    assert scan(_raises_with, "distinct cosets") == {"groups._distinct_cosets"}
    assert scan(_calls_to, {"_distinct_cosets"}) == {
        "groups.CosetTransversal.__post_init__", *builder, "diffmat.witness_direct"}
    assert scan(_raises_with, "elementary abelian of") == {"designs._check_elementary"}
    assert scan(_modulo_element_orders) == {"designs._check_elementary",
                                           "groups.find_central_elementary_abelian"}
    assert scan(_calls_to, {"_check_elementary"}) == {"designs.hyperplanes",
                                                      "designs._check_central_elementary"}
    assert scan(_calls_to, {"_check_central_elementary"}) == {*builder, "diffmat.linked_from_dm"}
    assert scan(_calls_to, {"_hyperplane_sets"}) == {
        "designs.mcfarland_construct", "designs.spence_construct", "designs.construction_sets"}
    for message in ("works over GF(3)", "complemented slot out of range",
                    "subgroup index must be", "coset representatives, got",
                    "assignment must injectively"):
        assert scan(_raises_with, message) == builder, message
    assert scan(_calls_to, {"_slot_parts"}) == builder
    assert scan(_raises_with, "belongs to a different group") == {"groups._check_subgroup_of"}
    assert scan(_calls_to, {"_check_subgroup_of"}) == {"groups._cosets",
                                                       "designs._check_central_elementary"}
    assert scan(_calls_to, {"_coset_unions"}) == {
        *builder, "diffmat.linked_from_dm", "diffmat.witness_direct",
        "worked_examples.construction_side_systems"}
    assert not scan(_scopes_where, lambda node: isinstance(node, ast.FunctionDef)
                    and node.name == "_hyperplane_construct")
    # the scans see a range test on either side and in a method, an exponent
    # test on element_orders, and a message in an f-string; a comparison of
    # two orders or with a limit, a modulo by anything else and a docstring
    # are none
    tree = ast.parse("def f(G, a):\n    return a.max() >= G.order\n"
                     "class K:\n    def g(self, x):\n        return self.G.order > x\n"
                     "def h(G, H):\n    return H.order < G.order or G.order <= MAX_ORDER\n"
                     "def k(G, p, e):\n    return p % G.element_orders[e]\n"
                     "def m(p, e):\n    return p % orders[e]\n"
                     "def n(x):\n    raise ValueError(f'element id {x} out of range')\n"
                     "def q(x):\n    'an element id'\n    return x\n")
    assert _order_comparisons(tree, "m") == {"m.f", "m.K.g"}
    assert _modulo_element_orders(tree, "m") == {"m.k"}
    assert _raises_with(tree, "m", "element id") == {"m.n"}
