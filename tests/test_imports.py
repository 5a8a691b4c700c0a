"""Every imported name in the package and the tests is used, every
parameter of the package's functions is read, every parameter with a
default is set by some call in the package, and every public function and
method of the package is referenced by the package's own code.

An AST scan: a name bound by ``import`` or ``from ... import`` counts as
used when the module reads it anywhere (a bare name, the root of an
attribute chain, a decorator or an annotation).  The package
``__init__.py`` is skipped, since its imports are the public re-exports.
A parameter of a ``def`` counts as read when its body (nested functions
included) loads the name; the receiver of a method is not a parameter.
A defaulted parameter counts as set when a call in the package, matched
to the function by its bare name (to a constructor by its class name),
passes it by keyword or by position, or passes *args or **kwargs.
A public function or method counts as referenced when any module of the
package loads its name as a bare name or an attribute, or imports it;
docstrings and comments are not code, so they never count.
No comparison in the package reads a verdict by its name outside
``runner.RunReport.exit_code``: a check or an axiom record derives its
verdict from measurements, and code that needs a residual judges the
residual.  No function of the package calls ``np.kron`` outside a short
allowance, so operators stay d x d matrices.  No module but ``lattice``
calls the point relations ``spacelike`` and ``causal_leq``: the others
read the site tables.  No comparison reads ``causal_mode`` outside
``ModelParams.__post_init__``, so the model has one causal structure.
Every ``ModelParams`` that ``scenarios`` builds takes N and s from the
config, but the one pinned witness model, so a run checks one model.  No
module but ``frames`` reads a frame's layout (``convolution_kernel``,
``free_index``, ``_site_shifts``), so no caller branches on it.  No
function of the package reads ``numpy.fft``: every sum over translation
characters is ``lattice.site_transform`` by ``lattice.characters``, and a
run of every check never imports it.
"""

import ast
import os
import pathlib
import subprocess
import sys
from collections import Counter

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "relqft").glob("*.py"))
MODULES = sorted(
    p for p in [*(ROOT / "src" / "relqft").glob("*.py"),
                *(ROOT / "tests").glob("*.py")]
    if p.name != "__init__.py")

#: Imports that are kept although the module never reads them, with the
#: reason.  ``fields.born_measure`` and ``net.born_measure`` are read
#: through the module attribute by ``perfbench/test_perfbench.py``, which
#: checks that the tracer rebinds every ``relqft.*`` binding of a function
#: and restores it afterwards; the Born measure itself is taken by
#: ``frames.OrientedFrame``.
ALLOWED = {("src/relqft/fields.py", "born_measure"),
           ("src/relqft/net.py", "born_measure")}


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import in the module, at any depth."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def read_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


@pytest.mark.parametrize("path", MODULES,
                         ids=[p.relative_to(ROOT).as_posix() for p in MODULES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = read_names(tree)
    rel = path.relative_to(ROOT).as_posix()
    unused = [f"{rel}:{line}: {name}"
              for name, line in imported_names(tree).items()
              if name not in used and (rel, name) not in ALLOWED]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_allowed_imports_are_still_unused():
    # an allowance that no longer applies must be removed, not kept
    for rel, name in ALLOWED:
        tree = ast.parse((ROOT / rel).read_text(encoding="utf-8"))
        assert name in imported_names(tree)
        assert name not in read_names(tree)


def unread_parameters(tree: ast.Module) -> list[tuple[str, int, str]]:
    """(function, line, parameter) for every parameter its body never
    reads."""
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
               for f in c.body if isinstance(f, ast.FunctionDef)}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [a.arg for a in [*args.posonlyargs, *args.args,
                                  *args.kwonlyargs, args.vararg, args.kwarg]
                  if a is not None]
        if id(node) in methods:
            params = params[1:]
        read = {name for stmt in node.body for name in read_names(stmt)}
        out += [(node.name, node.lineno, p) for p in params if p not in read]
    return out


def test_no_unused_parameters():
    # the check registry calls every scenarios.check_* as fn(cfg, rng),
    # whether or not the check draws from rng
    unused = []
    for path in sorted((ROOT / "src" / "relqft").glob("*.py")):
        rel = path.relative_to(ROOT).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        unused += [f"{rel}:{line}: {name}({param})"
                   for name, line, param in unread_parameters(tree)
                   if not (rel == "src/relqft/scenarios.py"
                           and name.startswith("check_")
                           and param in ("cfg", "rng"))]
    assert not unused, "unread parameters:\n" + "\n".join(unused)


#: Public functions and methods that no code in the package references,
#: kept because code outside the package calls them.
UNREFERENCED_API = {
    # wrapped by name by the benchmark's span tracer (perfbench/tracer.py)
    "fields.oriented_field", "fields.extend_trace_class",
    "fields.relational_local_field", "operators.double_commutant",
    # oracles the tests check frame builders and algebras against
    "frames.FrameObservable.normalization_defect",
    "frames.FrameObservable.covariance_defect",
    "operators.AlgebraSubspace.is_product_closed",
    # helpers the tests and the benchmark import
    "operators.make_rng", "runner.load_report",
    "runner.RunReport.canonical_bytes", "lattice.transporter",
    "lattice.ModelParams.identity", "scenarios.CheckOutcome.residuals",
}


def public_definitions() -> dict[str, str]:
    """"module.name" or "module.Class.name" -> bare name, for every public
    module-level function and every public method of the package."""
    out = {}
    for path in PACKAGE:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                members = [(node.name, node)]
            elif isinstance(node, ast.ClassDef):
                members = [(f"{node.name}.{f.name}", f) for f in node.body
                           if isinstance(f, ast.FunctionDef)]
            else:
                continue
            out.update((f"{path.stem}.{qualname}", fn.name)
                       for qualname, fn in members
                       if not fn.name.startswith("_"))
    return out


def referenced_names() -> set[str]:
    """Every name the package's code loads as a bare name or an attribute,
    or imports."""
    names = set()
    for path in PACKAGE:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        names |= read_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_every_public_function_is_referenced():
    names = referenced_names()
    unreferenced = sorted(
        qualname for qualname, name in public_definitions().items()
        if name not in names and qualname not in UNREFERENCED_API)
    assert not unreferenced, (
        "public functions no code in src/relqft references:\n"
        + "\n".join(unreferenced))


#: Bare names that two or more public definitions of the package share,
#: each definition checked by hand to have a caller in the package.
SHARED_NAMES = {
    # SystemModel.dim (net.local_algebra reads system.dim),
    # FrameObservable.dim (fields.relativize reads rf.frame.dim) and
    # VacuumModel.dim (wightman.gram_matrix reads vac.dim)
    "dim",
    # RelationalField.params (fields.relational_local_field reads
    # rf.params), FrameObservable.params (net.verify_net_axioms reads
    # net.frame.params) and VacuumModel.params (wightman.difference_kernel
    # reads vac.params)
    "params",
    # ScenarioConfig.to_dict (RunReport.to_dict calls it) and
    # RunReport.to_dict (RunReport.canonical_bytes calls it)
    "to_dict",
    # CheckOutcome.verdict (RunReport.exit_code reads o.verdict) and
    # tolerances.verdict (CheckOutcome.verdict and net._judged call it)
    "verdict",
}


def test_shared_public_names_are_checked_by_hand():
    """The reference scan matches a definition to its callers by bare
    name, so a method whose name another public definition shares counts
    as referenced through the other's callers.  Every such name is listed
    in SHARED_NAMES once its definitions are checked, so a new collision
    fails here until someone checks it.  A name the package loads only on
    objects from outside it (a numpy attribute, say) is still out of
    reach: a public definition of that name passes the scan unchecked."""
    counts = Counter(public_definitions().values())
    assert {name for name, n in counts.items() if n > 1} == SHARED_NAMES


def test_unreferenced_allowances_are_still_needed():
    # an allowance for a function that is gone or now referenced must go
    definitions = public_definitions()
    names = referenced_names()
    for qualname in sorted(UNREFERENCED_API):
        assert qualname in definitions, f"{qualname} is not defined"
        assert definitions[qualname] not in names, f"{qualname} is referenced"


#: Parameters with a default that no call in the package sets, kept on
#: purpose, with the reason.
UNSET_DEFAULTS = {
    # an oracle: the tests check covariance over the whole group
    ("frames.FrameObservable.covariance_defect", "elements"),
    # the reference the tests compare generated_algebra against
    ("operators.double_commutant", "dim"),
    # the tests cap the iterations to reach the undecided branch
    ("causality.find_joint_state", "max_iter"),
}


def defaulted_parameters() -> dict[tuple[str, str], tuple[str, int | None]]:
    """(qualified function, parameter) -> (the name a call uses, the
    parameter's position or None when keyword-only), for every parameter
    with a default of every function and method of the package, nested
    ones included.  A constructor is called by its class name; the
    receiver of a method takes no position."""
    out = {}

    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}", child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}.{child.name}"
                called = (in_class if in_class and child.name == "__init__"
                          else child.name)
                args = child.args
                positional = [*args.posonlyargs, *args.args][bool(in_class):]
                first = len(positional) - len(args.defaults)
                for i, a in enumerate(positional[first:], start=first):
                    out[(qualname, a.arg)] = (called, i)
                for a, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        out[(qualname, a.arg)] = (called, None)
                visit(child, qualname, None)
            else:
                visit(child, prefix, in_class)

    for path in PACKAGE:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        visit(tree, path.stem, None)
    return out


def set_parameters() -> set[tuple[str, object]]:
    """(called name, keyword or position) for every argument some call of
    the package passes; (name, "*") when a call passes *args or **kwargs,
    which may set any parameter."""
    out = set()
    for path in PACKAGE:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else getattr(func, "attr", None))
            if (any(isinstance(a, ast.Starred) for a in node.args)
                    or any(k.arg is None for k in node.keywords)):
                out.add((name, "*"))
            out.update((name, i) for i in range(len(node.args)))
            out.update((name, k.arg) for k in node.keywords)
    return out


def unset_defaults() -> list[tuple[str, str]]:
    passed = set_parameters()
    return sorted(
        key for key, (called, position) in defaulted_parameters().items()
        if not {(called, "*"), (called, key[1]), (called, position)} & passed)


def test_every_default_is_set_somewhere():
    # a default that no call overrides is a constant: write it as one
    unset = [f"{qualname}({param})" for qualname, param in unset_defaults()
             if (qualname, param) not in UNSET_DEFAULTS]
    assert not unset, (
        "parameters no call in src/relqft sets:\n" + "\n".join(unset))


def test_unset_default_allowances_are_still_needed():
    # an allowance for a parameter that is gone or now set must go
    defined = defaulted_parameters()
    unset = set(unset_defaults())
    for key in sorted(UNSET_DEFAULTS):
        assert key in defined, f"{key[0]}({key[1]}) is not defined"
        assert key in unset, f"{key[0]}({key[1]}) is set by a call"


#: The names ``tolerances.verdict`` gives a verdict.
VERDICTS = {"verified", "vacuous", "failed", "no-certificate"}

#: The one function that may compare a verdict with a name: the exit code
#: maps the run's verdicts to 0 or 1.
VERDICT_READERS = {("runner", "RunReport.exit_code")}


def verdict_comparisons(tree: ast.Module, module: str) -> list[int]:
    """Line of every comparison with a verdict name, or with a set, tuple
    or list literal holding one, outside VERDICT_READERS."""
    lines = []

    def names(node):
        if isinstance(node, (ast.Set, ast.Tuple, ast.List)):
            return {e.value for e in node.elts if isinstance(e, ast.Constant)}
        return {node.value} if isinstance(node, ast.Constant) else set()

    def visit(node, qualname):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                inner = f"{qualname}.{child.name}".lstrip(".")
                if (module, inner) not in VERDICT_READERS:
                    visit(child, inner)
                continue
            if isinstance(child, ast.Compare) and any(
                    names(operand) & VERDICTS
                    for operand in [child.left, *child.comparators]):
                lines.append(child.lineno)
            visit(child, qualname)

    visit(tree, "")
    return lines


def test_the_scan_finds_verdict_comparisons():
    source = ('x = r.verdict == "verified"\n'
              'if v in ("vacuous", "failed"): pass\n'
              'y = "no-certificate" != v and v == "verify"\n'
              'class RunReport:\n'
              '    def exit_code(self): return self.v in {"failed"}\n')
    assert verdict_comparisons(ast.parse(source), "runner") == [1, 2, 3]
    assert verdict_comparisons(ast.parse(source), "net") == [1, 2, 3, 5]


def test_no_verdict_is_read_by_its_name():
    found = []
    for path in PACKAGE:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        rel = path.relative_to(ROOT).as_posix()
        found += [f"{rel}:{line}"
                  for line in verdict_comparisons(tree, path.stem)]
    assert not found, "comparisons with a verdict name:\n" + "\n".join(found)


def test_verdict_readers_are_still_defined():
    # an allowance for a function that is gone must go
    definitions = public_definitions()
    for module, qualname in VERDICT_READERS:
        assert f"{module}.{qualname}" in definitions


#: The functions that take a support tolerance, with the reason.  A
#: preparation carries its own (``frames.OrientedFrame``), so a predicate
#: reads the support of the records it is given and takes no tolerance.
TOL_SUPP_TAKERS = {
    # the record of a preparation: its disintegration is taken at it
    "frames.OrientedFrame.__init__",
    # the support rule itself, which the record applies
    "frames.disintegrate",
    # builds the localized premise preparations of the causality axiom
    "net.verify_net_axioms",
}


def tol_supp_takers(tree: ast.Module, module: str) -> set[str]:
    """"module.function" or "module.Class.method" of every function of
    the module, nested ones included, with a ``tol_supp`` parameter."""
    out = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                qualname = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    args = child.args
                    if "tol_supp" in {a.arg for a in [
                            *args.posonlyargs, *args.args, *args.kwonlyargs]}:
                        out.add(qualname)
                visit(child, qualname)
            else:
                visit(child, prefix)

    visit(tree, module)
    return out


def test_the_scan_finds_tol_supp_parameters():
    source = ("def f(x, tol_supp=1.0): pass\n"
              "class C:\n"
              "    def m(self, *, tol_supp):\n"
              "        def inner(tol_supp): pass\n"
              "    def n(self, tol_eq): pass\n")
    assert tol_supp_takers(ast.parse(source), "mod") == {
        "mod.f", "mod.C.m", "mod.C.m.inner"}


def test_only_the_allowed_functions_take_tol_supp():
    # the allowance is exact: a function that stops taking tol_supp leaves it
    found = set()
    for path in PACKAGE:
        found |= tol_supp_takers(
            ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert found == TOL_SUPP_TAKERS


#: The functions that may call ``np.kron``, with the reason.  Every other
#: operator of the package stays a d x d matrix, or a stack of them: a
#: map on operators is a contraction or a Kraus stack, not a lifted
#: d^2 x d^2 matrix.
KRON_CALLERS = {
    # the tensor product of two operators, with its size guard
    "operators.tensor",
    # the Gram operator of the commutator maps on vectorized matrices
    "operators.commutant",
}


def functions_with(tree: ast.Module, module: str, hit) -> set[str]:
    """"module.function" or "module.Class.method" of every function of
    the module with a node in its own body for which hit(node) holds;
    "module" for the module body."""
    out = set()

    def visit(node, qualname):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                visit(child, f"{qualname}.{child.name}")
                continue
            if hit(child):
                out.add(qualname)
            visit(child, qualname)

    visit(tree, module)
    return out


def kron_callers(tree: ast.Module, module: str) -> set[str]:
    """The functions of the module that call ``np.kron`` or
    ``numpy.kron``, or a bare ``kron``, in their own body."""

    def is_kron(node):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        if isinstance(func, ast.Attribute):
            return (func.attr == "kron" and isinstance(func.value, ast.Name)
                    and func.value.id in {"np", "numpy"})
        return isinstance(func, ast.Name) and func.id == "kron"

    return functions_with(tree, module, is_kron)


def test_the_scan_finds_kron_calls():
    source = ("import numpy as np\n"
              "x = np.kron(a, b)\n"
              "def f(a): return numpy.kron(a, a)\n"
              "class C:\n"
              "    def m(self): return kron(self, self)\n"
              "    def n(self): return np.tensordot(self, self)\n")
    assert kron_callers(ast.parse(source), "mod") == {"mod", "mod.f", "mod.C.m"}


def test_operators_stay_square():
    # the allowance is exact: a function that stops calling np.kron leaves it
    found = set()
    for path in PACKAGE:
        found |= kron_callers(
            ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert found == KRON_CALLERS


#: The functions that may compare ``causal_mode`` with anything: the
#: lifted chart is the model's one causal structure, and only the
#: constructor reads the field, to refuse any other value.
CAUSAL_MODE_READERS = {"lattice.ModelParams.__post_init__"}


def causal_mode_readers(tree: ast.Module, module: str) -> set[str]:
    """The functions of the module with a comparison, in their own body,
    that reads ``causal_mode`` as a name or an attribute."""

    def reads_mode(node):
        return isinstance(node, ast.Compare) and any(
            getattr(operand, "attr", getattr(operand, "id", None)) == "causal_mode"
            for operand in [node.left, *node.comparators])

    return functions_with(tree, module, reads_mode)


def test_the_scan_finds_causal_mode_comparisons():
    source = ("class ModelParams:\n"
              "    def __post_init__(self):\n"
              "        if self.causal_mode != 'lifted': raise ValueError\n"
              "def spacelike(x, y, params):\n"
              "    return x if params.causal_mode == 'modular' else y\n"
              "def hull(params, causal_mode):\n"
              "    mode = params.causal_mode\n"
              "    return 'lifted' in (mode, causal_mode)\n"
              "flag = 'lifted' is causal_mode\n")
    assert causal_mode_readers(ast.parse(source), "mod") == {
        "mod", "mod.ModelParams.__post_init__", "mod.spacelike"}


def test_one_causal_structure():
    # the allowance is exact: a constructor that stops reading the field
    # leaves it
    found = set()
    for path in PACKAGE:
        found |= causal_mode_readers(
            ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert found == CAUSAL_MODE_READERS


#: The causal relations on a pair of points.  ``lattice`` builds its site
#: tables from them; every other module reads the tables
#: (``lattice.spacelike_table``, ``lattice.causal_hull``,
#: ``lattice.region_spacelike``).
POINT_RELATIONS = {"spacelike", "causal_leq"}


def point_relation_calls(tree: ast.Module) -> list[int]:
    """Line of every call of a point relation, by bare name or as an
    attribute."""
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) in POINT_RELATIONS
             or getattr(node.func, "attr", None) in POINT_RELATIONS))


def test_the_scan_finds_point_relation_calls():
    source = ("from relqft import lattice\n"
              "a = lattice.spacelike(x, y, p)\n"
              "b = [causal_leq(x, y, p) for x in xs]\n"
              "c = lattice.spacelike_table(p)\n"
              "spacelike = c[0, 1]\n")
    assert point_relation_calls(ast.parse(source)) == [2, 3]


def test_only_lattice_evaluates_point_relations():
    found = []
    for path in PACKAGE:
        if path.stem == "lattice":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        rel = path.relative_to(ROOT).as_posix()
        found += [f"{rel}:{line}" for line in point_relation_calls(tree)]
    assert not found, "point relations called outside lattice:\n" + "\n".join(found)


#: The models of ``scenarios`` that do not read N and s from the config,
#: with the reason.
PINNED_MODELS = {
    # the N = 3 product-frame witness of intrinsic-causality-pipeline and
    # spectral-condition, whose joint state is exact there
    "_WITNESS_MODEL",
}


def pinned_model_calls(tree: ast.Module) -> list[int]:
    """Line of every ``ModelParams`` call whose N and s, by position or
    keyword, are not ``cfg.N`` and ``cfg.s``, outside the assignment of a
    name in PINNED_MODELS."""
    allowed = {id(node.value) for node in ast.walk(tree)
               if isinstance(node, ast.Assign)
               and {getattr(t, "id", None) for t in node.targets} & PINNED_MODELS}

    def from_config(node, attr):
        return (isinstance(node, ast.Attribute) and node.attr == attr
                and getattr(node.value, "id", None) == "cfg")

    lines = []
    for node in ast.walk(tree):
        if (not isinstance(node, ast.Call) or id(node) in allowed
                or getattr(node.func, "id", getattr(node.func, "attr", None))
                != "ModelParams"):
            continue
        given = dict(zip(("N", "s"), node.args))
        given.update((k.arg, k.value) for k in node.keywords)
        if not all(from_config(given.get(attr), attr) for attr in ("N", "s")):
            lines.append(node.lineno)
    return sorted(lines)


def test_the_scan_finds_pinned_models():
    source = ("_WITNESS_MODEL = ModelParams(3, 2)\n"
              "_LIFTED = ModelParams(5, 2, causal_mode='lifted')\n"
              "def f(cfg, other):\n"
              "    a = ModelParams(cfg.N, cfg.s, causal_mode='lifted')\n"
              "    b = lattice.ModelParams(N=cfg.N, s=2)\n"
              "    c = ModelParams(cfg.N, s=cfg.s)\n"
              "    d = ModelParams(other.N, other.s)\n"
              "    e = ModelParams(cfg.s, cfg.N)\n")
    assert pinned_model_calls(ast.parse(source)) == [2, 5, 7, 8]


def test_scenarios_build_the_configured_model():
    tree = ast.parse((ROOT / "src" / "relqft" / "scenarios.py").read_text(
        encoding="utf-8"))
    assert pinned_model_calls(tree) == [], "models not read from the config"
    # an allowance for a model that is gone must go
    assigned = {t.id for node in tree.body if isinstance(node, ast.Assign)
                for t in node.targets if isinstance(t, ast.Name)}
    assert PINNED_MODELS <= assigned


#: The names that choose a frame's layout: the kernel of a frame on the
#: free layout, the index tables of that layout, and the translations'
#: free action on the sites that selects the block normalization of
#: ``build_frame``.  ``operators`` defines the tables and ``frames`` alone
#: reads them, so no caller branches on a frame's layout.
LAYOUT_NAMES = {"convolution_kernel", "free_index", "_site_shifts"}


def layout_reads(tree: ast.Module) -> list[int]:
    """Line of every load of a layout name, as a bare name or an
    attribute."""
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(getattr(node, "ctx", None), ast.Load)
        and (getattr(node, "attr", None) in LAYOUT_NAMES
             or getattr(node, "id", None) in LAYOUT_NAMES))


def test_the_scan_finds_layout_reads():
    source = ("B = frame.convolution_kernel\n"
              "if rf.frame.rep.free_index is None: pass\n"
              "act = free_index.act\n"
              "class UnitaryRep:\n"
              "    def free_index(self): return None\n"
              "    free_index = None\n"
              "frame.convolution_kernel = B\n"
              "shifts = frames._site_shifts(rep)\n")
    assert layout_reads(ast.parse(source)) == [1, 2, 3, 8]


def test_only_frames_reads_a_frame_layout():
    found = []
    for path in PACKAGE:
        if path.stem == "frames":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        rel = path.relative_to(ROOT).as_posix()
        found += [f"{rel}:{line}" for line in layout_reads(tree)]
    assert not found, "frame layouts read outside frames:\n" + "\n".join(found)



#: The functions that may read ``numpy.fft``: none.  Importing it and
#: taking a first small ``fft2`` add 0.3 to 0.5 MB to the resident set of
#: a process that has already run its first BLAS product (numpy 2.4),
#: where the products with the N x N character table that
#: ``lattice.site_transform`` takes add nothing of their own.
FFT_READERS: set[str] = set()


def fft_readers(tree: ast.Module, module: str) -> set[str]:
    """The functions of the module that read ``np.fft`` or ``numpy.fft``
    as an attribute, or import ``numpy.fft`` or a name from it, in their
    own body."""

    def reads_fft(node):
        if isinstance(node, ast.Attribute):
            return (node.attr == "fft" and isinstance(node.value, ast.Name)
                    and node.value.id in {"np", "numpy"})
        if isinstance(node, ast.Import):
            return any(alias.name.startswith("numpy.fft") for alias in node.names)
        if isinstance(node, ast.ImportFrom):
            return (node.module or "").startswith("numpy.fft") or (
                node.module == "numpy"
                and any(alias.name == "fft" for alias in node.names))
        return False

    return functions_with(tree, module, reads_fft)


def test_the_scan_finds_fft_reads():
    source = ("import numpy as np\n"
              "import numpy.fft\n"
              "def f(x): return np.fft.fft2(x)\n"
              "class C:\n"
              "    def m(self):\n"
              "        from numpy import fft, linalg\n"
              "    def n(self):\n"
              "        from numpy.fft import ifft2\n"
              "    def o(self): return np.linalg.eigh(self), self.fft\n")
    assert fft_readers(ast.parse(source), "mod") == {
        "mod", "mod.f", "mod.C.m", "mod.C.n"}


def test_only_the_allowed_functions_read_numpy_fft():
    found = set()
    for path in PACKAGE:
        found |= fft_readers(
            ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert found == FFT_READERS


def test_a_run_of_every_check_never_imports_numpy_fft():
    # a fresh interpreter, since the test process may have imported it
    script = ("import sys\n"
              "from relqft import runner\n"
              "from relqft.config import DEFAULT_CONFIG\n"
              "report = runner.run(DEFAULT_CONFIG)\n"
              "assert report.exit_code == 0 and len(report.outcomes) == 13\n"
              "print('numpy.fft' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"
