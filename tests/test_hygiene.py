"""Source rules of the library: a stdlib-only runtime, no floats, a light
import, no reads of the environment outside the CLI and one way into a
subgroup.

Every module under src/qsubgroups is parsed, not imported, so a rule
breach is reported with its file and line even if the module would fail
to import.  The import check runs the CLI's import in a child process.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
SOURCES = sorted((SRC / "qsubgroups").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_sources_found():
    assert any(p.name == "exact.py" for p in SOURCES)


def _absolute_imports(path):
    """(line, top-level package) of every absolute import in the file."""
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        yield from ((node.lineno, name.split(".")[0]) for name in names)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_absolute_imports_are_stdlib(path):
    bad = [f"{path.name}:{line} {name}" for line, name in _absolute_imports(path)
           if name not in sys.stdlib_module_names]
    assert not bad


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_floats(path):
    bad = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            bad.append(f"{path.name}:{node.lineno} literal {node.value!r}")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            bad.append(f"{path.name}:{node.lineno} float(...) call")
    assert not bad


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dataclasses(path):
    """Records come from qsubgroups._record: importing dataclasses costs
    the CLI more start-up time than the library's own modules."""
    bad = [f"{path.name}:{line}" for line, name in _absolute_imports(path)
           if name == "dataclasses"]
    assert not bad


def test_cli_import_loads_no_introspection_modules():
    code = ("import sys, qsubgroups.cli; print(sorted(set(sys.modules) & "
            "{'dataclasses', 'inspect', 'ast', 'dis', 'typing'}))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["kernel", "--help"],
    ["kernel", "--type", "A", "--rank", "2", "--ell", "x"],
    ["validate-phi", "--type", "A", "--rank", "2", "--ell", "5"],
], ids=["help", "subcommand-help", "parse-failure", "validate-phi"])
def test_cli_child_loads_no_archive_modules(argv):
    """argparse reads the help width through shutil, which imports zlib,
    bz2 and lzma; the CLI's parser reads it from os, so a CLI child, with
    or without --help and whether or not its arguments parse, loads none."""
    code = ("import sys; from qsubgroups.cli import main; main(sys.argv[1:]); "
            "print(sorted(set(sys.modules) & {'shutil', 'zlib', 'bz2', 'lzma'}))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-S", "-c", code, *argv], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.splitlines()[-1] == "[]"


def _int_constants(tree):
    """Module-level NAME = <int literal> assignments."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant) \
                and type(node.value.value) is int:
            out.update((t.id, node.value.value) for t in node.targets
                       if isinstance(t, ast.Name))
    return out


def _cache_decorators(func):
    """The functools.lru_cache / functools.cache decorators of a function."""
    for dec in func.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else \
            getattr(target, "id", None)
        if name in ("lru_cache", "cache"):
            yield dec


def _bounded(dec, constants) -> bool:
    """Whether a cache decorator sets an integer maxsize."""
    if not isinstance(dec, ast.Call):
        return False
    size = [kw.value for kw in dec.keywords if kw.arg == "maxsize"] + dec.args[:1]
    if not size:
        return False  # lru_cache() defaults to 128, but say it
    node = size[0]
    if isinstance(node, ast.Constant):
        return type(node.value) is int
    return isinstance(node, ast.Name) and node.id in constants


def _keyed_by_cartan_datum(func) -> bool:
    params = func.args.posonlyargs + func.args.args + func.args.kwonlyargs
    return (len(params) == 1 and not func.args.vararg and not func.args.kwarg
            and isinstance(params[0].annotation, ast.Name)
            and params[0].annotation.id == "CartanDatum")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_caches_are_bounded_or_keyed_by_cartan_datum(path):
    """No cache over user input grows without bound: an lru_cache either
    has one CartanDatum parameter (there are a handful of root systems in
    any run) or an integer maxsize."""
    tree = _tree(path)
    constants = _int_constants(tree)
    bad = [f"{path.name}:{func.lineno} {func.name}"
           for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
           for dec in _cache_decorators(func)
           if not (_bounded(dec, constants) or _keyed_by_cartan_datum(func))]
    assert not bad


def test_cache_rule_sees_every_cache():
    """The rule above finds all 10 caches, the two CartanDatum caches
    and the eight bounded memos (built-in Cartan data, spans, factored
    systems, the required rows of (I+, I-), triple and datum analyses,
    cyclotomic polynomials, h-axis weights of the group-algebra product),
    so it is not vacuous."""
    found = {}
    for path in SOURCES:
        tree = _tree(path)
        constants = _int_constants(tree)
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                for dec in _cache_decorators(func):
                    found[func.name] = ("bounded" if _bounded(dec, constants)
                                        else "datum" if _keyed_by_cartan_datum(func)
                                        else "unbounded")
    assert found == {
        "_adjugate_cartan": "datum",
        "positive_roots": "datum",
        "_builtin_datum": "bounded",
        "_span": "bounded", "_factored": "bounded",
        "_required_memo": "bounded", "analyze_datum": "bounded", "analyze_triple": "bounded",
        "cyclotomic_polynomial": "bounded", "_h_axis_weights": "bounded",
    }


def test_memo_helper_clears_every_cache():
    """oracles.clear_library_memos, which walks the imported modules,
    clears the caches that the rule above finds in the sources."""
    from oracles import clear_library_memos

    found = {func.name for path in SOURCES for func in ast.walk(_tree(path))
             if isinstance(func, ast.FunctionDef) and any(_cache_decorators(func))}
    assert sorted(name.split(".")[1] for name in clear_library_memos()) == sorted(found)


def test_only_int_matrix_defines_setattr():
    """Immutable classes come from qsubgroups._record, which checks fields
    in __post_init__; only IntMatrix, built in every Hermite step, keeps a
    hand-written constructor and __setattr__."""
    found = [f"{path.name}:{cls.name}" for path in SOURCES
             for cls in ast.walk(_tree(path)) if isinstance(cls, ast.ClassDef)
             if any(isinstance(f, ast.FunctionDef) and f.name == "__setattr__"
                    for f in cls.body)]
    assert found == ["exact.py:IntMatrix"]



# One way into a subgroup of (Z/ell)^n: TorusSubgroup.from_generators for a
# span, behind which the span memo torus._span stays, and
# TorusSubgroup.kernel for the solutions of a row system.  Each takes an
# IntMatrix as checked, so the library's kernels pass the matrix they hold.

def _defs(tree):
    """(qualified name, node) of every top-level function and every method
    of a top-level class; a nested function counts as its outer one."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def _where(pred):
    """file:function of every function in the sources with a node that
    pred accepts, and file:<module> where such a node lies outside them."""
    found = set()
    for path in SOURCES:
        tree = _tree(path)
        inside = set()
        for name, func in _defs(tree):
            nodes = list(ast.walk(func))
            inside.update(map(id, nodes))
            if any(map(pred, nodes)):
                found.add(f"{path.name}:{name}")
        if any(pred(node) and id(node) not in inside for node in ast.walk(tree)):
            found.add(f"{path.name}:<module>")
    return found


def _is_kernel_call(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "kernel" and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "TorusSubgroup")


def test_span_memo_is_read_only_by_from_generators():
    def names_span(node):
        return ((isinstance(node, ast.Name) and node.id == "_span")
                or (isinstance(node, ast.Attribute) and node.attr == "_span")
                or (isinstance(node, ast.alias) and "_span" in (node.name, node.asname)))

    assert _where(names_span) == {"torus.py:TorusSubgroup.from_generators"}


def test_subgroups_are_built_only_behind_the_doors():
    """TorusSubgroup(...) anywhere, and cls(...) in TorusSubgroup's own
    classmethods."""
    def builds(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "TorusSubgroup")

    found = _where(builds)
    tree = _tree(SRC / "qsubgroups" / "torus.py")
    found |= {f"torus.py:{name}" for name, func in _defs(tree)
              if name.startswith("TorusSubgroup.") for node in ast.walk(func)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "cls"}
    assert found == {"torus.py:_span", "torus.py:TorusSubgroup.kernel",
                     "torus.py:enumerate_subgroups"}


def test_kernels_go_through_torus_subgroup_kernel():
    """The library's kernels call TorusSubgroup.kernel, and no caller
    passes a matrix's .data to it."""
    assert {"torus.py:t_hat_I_complement", "torus.py:annihilator",
            "datum.py:TorusEmbedding.is_injective",
            "cocycle.py:twist_J_group_algebra"} <= _where(_is_kernel_call)
    assert not _where(lambda node: _is_kernel_call(node) and any(
        isinstance(arg, ast.Attribute) and arg.attr == "data" for arg in node.args))


def _checked_matrix_calls(funcs):
    """Line numbers of the IntMatrix(...) calls in the functions."""
    return [node.lineno for func in funcs for node in ast.walk(func)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "IntMatrix"]


def test_subgroup_walk_builds_no_checked_matrix():
    """enumerate_subgroups' walk, the generator _sublattices with its
    column solver _cosets, yields Hermite forms, which enumerate_subgroups
    wraps unchecked."""
    walks = [func for name, func in _defs(_tree(SRC / "qsubgroups" / "torus.py"))
             if name in ("enumerate_subgroups", "_sublattices", "_cosets")]
    assert len(walks) == 3
    assert not _checked_matrix_calls(walks)


def test_per_pair_path_builds_no_checked_matrix():
    """The classification's per-pair path wraps what the library built
    from a checked twist: torus._required_memo reads the required rows
    from the twist's exponent rows, datum.enumerate_triples builds each
    record's dimensions field by field, and twist.enumerate_valid_twists
    wraps the integer Y and X it computed."""
    wanted = {"torus.py": "_required_memo", "datum.py": "enumerate_triples",
              "twist.py": "enumerate_valid_twists"}
    funcs = [func for file, want in wanted.items()
             for name, func in _defs(_tree(SRC / "qsubgroups" / file)) if name == want]
    assert len(funcs) == 3
    assert not _checked_matrix_calls(funcs)


def test_group_algebra_product_builds_no_checked_matrix():
    """The factors of a group-algebra product were checked when they were
    built, so TorusPairElement.convolve, its packing and unpacking, the
    support coordinates of _Axes (whose span rows are wrapped unchecked)
    and the evaluated product build no checked IntMatrix."""
    wanted = {"TorusPairElement.convolve", "TorusPairElement._mass",
              "TorusPairElement._packed_fibers", "TorusPairElement._unpacked",
              "_Axes.__init__", "_Axes.offsets", "_Axes.steps", "_Axes.points", "_sweep",
              "_evaluates", "_h_axis_weights", "_along_axes", "_evaluated_product"}
    funcs = [func for name, func in _defs(_tree(SRC / "qsubgroups" / "cocycle.py"))
             if name in wanted]
    assert len(funcs) == len(wanted)
    assert not _checked_matrix_calls(funcs)


def _positional_exponent_reads(tree):
    """Line numbers of the subscripts of an attribute named _exponents by
    an int constant, such as tw._exponents[1] or tw._exponents[-1]."""
    def int_constant(node):
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            node = node.operand
        return isinstance(node, ast.Constant) and type(node.value) is int

    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
            and node.value.attr == "_exponents" and int_constant(node.slice)]


def test_exponent_rule_is_not_vacuous():
    tree = ast.parse("tw._exponents[1]\ntw._exponents['kbar'][0]\nrows[1]\n"
                     "self._exponents[-1][i - 1]\n")
    assert _positional_exponent_reads(tree) == [1, 4]


def test_exponent_rows_are_read_by_kind():
    """A twist's exponent rows are one table keyed by kind ("tau", "kbar",
    "ktilde"), so no module reads a row by a position that another module
    would have to agree on."""
    assert not [f"{path.name}:{line}" for path in SOURCES
                for line in _positional_exponent_reads(_tree(path))]


ENVIRONMENT_READS = ("environ", "environb", "getenv", "getenvb")


def _reads_environment(node) -> bool:
    """os.environ, os.getenv and their bytes forms, read as attributes of
    os or imported from it."""
    if isinstance(node, ast.ImportFrom):
        return node.module == "os" and any(a.name in ENVIRONMENT_READS for a in node.names)
    return (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READS
            and isinstance(node.value, ast.Name) and node.value.id == "os")


def test_environment_rule_is_not_vacuous():
    tree = ast.parse("import os\nos.environ.get('A')\nos.getenv('B')\n"
                     "from os import environ\nos.path.join('c')\nenviron = {}\n"
                     "self.environ\nfrom os import getenvb as g\n")
    assert sorted(node.lineno for node in ast.walk(tree) if _reads_environment(node)) == \
        [2, 3, 4, 8]


def test_only_the_cli_reads_the_environment():
    """A library result depends on its arguments alone: the enumeration
    cap comes in as cap=, and only the CLI reads QSUBGROUPS_ENUM_CAP (and
    COLUMNS, for its help width)."""
    assert _where(_reads_environment) == {"cli.py:_Parser._get_formatter",
                                          "cli.py:cmd_enumerate"}


# Build, don't patch: a record is complete when its constructor returns,
# and a recursive walk is a module-level function, which leaves no cycle
# for the cyclic collector (a nested function that calls itself holds
# itself through its closure cell).

def test_records_are_written_only_in_post_init():
    """Outside IntMatrix and _record, object.__setattr__ appears only in a
    __post_init__, where a record normalises or derives its own fields."""
    def object_setattr(node):
        return (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                and isinstance(node.value, ast.Name) and node.value.id == "object")

    found = _where(object_setattr)
    assert "torus.py:TorusSubgroup.__post_init__" in found
    assert not [where for where in found if not where.endswith(".__post_init__")
                and not where.startswith(("exact.py:IntMatrix.", "_record.py:"))]


def _self_referencing_nested(tree):
    """(line, name) of every function defined inside another function
    whose body names it."""
    return [(inner.lineno, inner.name) for _, func in _defs(tree)
            for inner in ast.walk(func)
            if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)) and inner is not func
            and any(isinstance(node, ast.Name) and node.id == inner.name
                    for node in ast.walk(inner))]


def test_self_reference_rule_is_not_vacuous():
    tree = ast.parse("def outer():\n    def walk(i):\n        return walk(i - 1)\n"
                     "    def leaf():\n        return outer\n"
                     "class C:\n    def m(self):\n        def again():\n"
                     "            yield from again()\n")
    assert _self_referencing_nested(tree) == [(2, "walk"), (8, "again")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_nested_function_refers_to_itself(path):
    assert not _self_referencing_nested(_tree(path))


SOURCE_LINE_BUDGET = 3828  # src/qsubgroups at the seed (ROADMAP item 3)


def test_source_line_budget():
    """The library stays within the seed's size: the physical lines of
    src/qsubgroups/*.py, counted as wc -l counts them (newlines)."""
    counts = {p.name: p.read_bytes().count(b"\n") for p in SOURCES}
    total = sum(counts.values())
    assert total <= SOURCE_LINE_BUDGET, f"{total} lines: {counts}"


def _empty_container(node) -> bool:
    """Whether an expression is an empty dict, list or set: {}, [],
    dict(), list() or set()."""
    if isinstance(node, (ast.Dict, ast.List)):
        return not (node.keys if isinstance(node, ast.Dict) else node.elts)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("dict", "list", "set")
            and not node.args and not node.keywords)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_level_empty_containers(path):
    """A module-level empty dict, list or set is a cache or registry that
    fills at run time, out of sight of the bounded-cache rule above: the
    two unbounded Q(eps) caches were such dicts.  Memoise with a bounded
    lru_cache instead."""
    bad = [f"{path.name}:{node.lineno}" for node in _tree(path).body
           if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None
           and _empty_container(node.value)]
    assert not bad


def test_empty_container_rule_is_not_vacuous():
    tree = ast.parse("A = {}\nB: list = []\nC = set()\nD = dict()\n"
                     "E = {1: 2}\nF = [0]\nG = set(x)\nH: int\n")
    hits = [node.targets[0].id if isinstance(node, ast.Assign) else node.target.id
            for node in tree.body
            if getattr(node, "value", None) is not None and _empty_container(node.value)]
    assert hits == ["A", "B", "C", "D"]


# the names the package exported when it listed them by hand
LISTED_EXPORTS = """
CyclotomicNumber IntMatrix Rational cyclotomic_polynomial euler_phi hermite_normal_form
kernel_mod root_of_unity_power Basis CartanDatum LatticeElement Root alpha_to_omega
bilinear_form cartan_matrix omega_to_alpha positive_roots roots_supported symmetrizers
TwistMap apply_phi build_twist c3_parameter_matrix enumerate_valid_twists kbar_exponent
ktilde_exponent r_operator require_twist zero_twist Bidegree GroupTwoCocycle chi_exponent
deformation_exponent sigma_inverse_exponent twist_J twist_J_group_algebra Character
SigmaGenerator TorusSubgroup Triple analyze_triple annihilator enumerate_subgroups
n_phi_from_sigma s_phi_matrix sigma_order_identity t_hat_I_complement t_phi_I
validate_triple INFINITE DualHom FiniteAbelianGroup OpaqueGroup TorusEmbedding
TwistedSubgroupDatum datum_equiv datum_leq dim_A dim_H enumerate_triples
obstruction_check predicates validate_datum
""".split()


def test_package_exports_every_module_all():
    """The package's public names are exactly the union of its modules'
    __all__ lists, and every name it used to list by hand still resolves
    to the module's own object."""
    import types

    import qsubgroups
    from qsubgroups import cocycle, datum, exact, lie, torus, twist

    modules = (exact, lie, twist, cocycle, torus, datum)
    public = {name for name, value in vars(qsubgroups).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set().union(*(mod.__all__ for mod in modules))
    assert len(LISTED_EXPORTS) == len(set(LISTED_EXPORTS)) == 63
    owners = {name: mod for mod in modules for name in mod.__all__}
    for name in LISTED_EXPORTS:
        assert getattr(qsubgroups, name) is getattr(owners[name], name)
