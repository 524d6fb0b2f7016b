"""Every name a module under src/modinvar or tests/ imports is used there."""

import ast
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (module, name, why the unused import stays)
ALLOWED = {
    ("src/modinvar/checks.py", "invariant_dimension",
     "the benchmark tracer binds analysis functions through checks"),
    ("src/modinvar/analysis.py", "in_row_space",
     "the benchmark tracer self-test binds it in analysis, where the "
     "principal transfer check used it"),
}


def _modules():
    for folder in (ROOT / "src" / "modinvar", ROOT / "tests"):
        yield from sorted(folder.glob("*.py"))


def unused_imports(path):
    """(line, name) of each imported name the module never references; the
    strings in ``__all__`` count as references."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {e.value for e in node.value.elts}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports():
    allowed = {(module, name) for module, name, _ in ALLOWED}
    found = []
    for path in _modules():
        rel = path.relative_to(ROOT).as_posix()
        found += [f"{rel}:{line}: {name}"
                  for line, name in unused_imports(path)
                  if (rel, name) not in allowed]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_allowlist_entries_are_still_unused():
    for module, name, _ in ALLOWED:
        assert name in [n for _, n in unused_imports(ROOT / module)], name


def wall_clock_calls(path):
    """Lines of a module that read the wall clock through `time.time`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "time" and \
                isinstance(node.value, ast.Name) and node.value.id == "time":
            found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "time" and \
                any(alias.name == "time" for alias in node.names):
            found.append(node.lineno)
    return found


def test_src_times_with_a_monotonic_clock():
    """Check times come from `time.perf_counter` in `checks.run_check`; the
    wall clock can step backwards or jump."""
    found = [f"{path.relative_to(ROOT).as_posix()}:{line}"
             for path in sorted((ROOT / "src" / "modinvar").glob("*.py"))
             for line in wall_clock_calls(path)]
    assert not found, "time.time in src:\n" + "\n".join(found)


# Functions that pick a subset of an enumerated group by a predicate and so
# hand `MatrixGroup` its elements; every other group is enumerated from its
# generators by `MatrixGroup.enumerate`.
PREDICATE_SUBSETS = {"stabilizer_of_polynomial", "singular_form_group"}


def element_list_groups(path):
    """(line, enclosing function) of each `MatrixGroup(...)` call in a
    module that passes `elements=`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            callee = node.func
            name = callee.id if isinstance(callee, ast.Name) else \
                getattr(callee, "attr", None)
            if name == "MatrixGroup" and \
                    any(k.arg == "elements" for k in node.keywords):
                found.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_groups_are_enumerated_by_the_closure():
    found = [f"{path.relative_to(ROOT).as_posix()}:{line} in {function}"
             for path in sorted((ROOT / "src" / "modinvar").glob("*.py"))
             for line, function in element_list_groups(path)
             if function not in PREDICATE_SUBSETS]
    assert not found, "MatrixGroup(elements=...) outside the predicate " \
        "subsets:\n" + "\n".join(found)


def test_predicate_subsets_still_pass_elements():
    functions = {function
                 for path in sorted((ROOT / "src" / "modinvar").glob("*.py"))
                 for _, function in element_list_groups(path)}
    assert functions == PREDICATE_SUBSETS


def f_p_coordinate_layer_uses(path):
    """(line, what) of each place a module names the companion powers or
    forms base-p place values (`p ** np.arange(...)`, `field.p ** ...`).
    Base-q radices, such as the closure's int64 keys, are another concept
    and are not flagged."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if isinstance(node, (ast.alias, ast.FunctionDef)):
            name = node.name
        if isinstance(name, str) and "companion" in name:
            found.append((getattr(node, "lineno", 0), name))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) and \
                isinstance(node.right, ast.Call) and \
                getattr(node.right.func, "attr", None) == "arange" and \
                "p" in (getattr(node.left, "id", None),
                        getattr(node.left, "attr", None)):
            found.append((node.lineno, "p ** np.arange"))
    return found


def test_f_p_coordinates_live_in_gfq():
    """GF(p^r) is written over F_p only by `FieldSpec.digits`, `indices`
    and `regular`; every other module goes through them."""
    found = [f"{path.relative_to(ROOT).as_posix()}:{line}: {what}"
             for path in sorted((ROOT / "src" / "modinvar").glob("*.py"))
             if path.name != "gfq.py"
             for line, what in f_p_coordinate_layer_uses(path)]
    assert not found, "F_p coordinates outside gfq:\n" + "\n".join(found)
    assert f_p_coordinate_layer_uses(ROOT / "src" / "modinvar" / "gfq.py")


# The field's tables and the limits that choose its routes: only gfq reads
# them, so that its array arithmetic (`FieldSpec.multiply`, `power`,
# `negate`, `run_sums`) is the one place that branches on the field.
FIELD_INTERNALS = {"_mul_array", "_mul_table", "_add_table", "_neg_table",
                   "_inv_table", "TABLE_LIMIT", "NUMPY_PRIME_LIMIT"}


def field_internal_uses(path):
    """(line, name) of each name or attribute of FIELD_INTERNALS, or import
    of one, in a module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if isinstance(node, ast.alias):
            name = node.name
        if name in FIELD_INTERNALS:
            found.append((getattr(node, "lineno", 0), name))
    return found


def test_field_tables_and_limits_live_in_gfq():
    """No module outside gfq reads the field's tables or names the limits
    that decide between tables, residue products and the modulus
    reduction; they multiply, negate and sum indices through `FieldSpec`."""
    found = [f"{path.relative_to(ROOT).as_posix()}:{line}: {name}"
             for path in sorted((ROOT / "src" / "modinvar").glob("*.py"))
             if path.name != "gfq.py"
             for line, name in field_internal_uses(path)]
    assert not found, "field internals outside gfq:\n" + "\n".join(found)
    assert field_internal_uses(ROOT / "src" / "modinvar" / "gfq.py")


# Exceptions that `checks.run_check` alone turns into a report: a budget
# overrun into "skipped", a refuted claim into "fail".
REPORTED_EXCEPTIONS = {"BudgetExceeded", "ClaimRefuted", "InvarianceError"}


def reported_exception_handlers(path):
    """(line, enclosing function, name) of each `except` clause in a module
    that names one of REPORTED_EXCEPTIONS."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []

    def names(node):
        if node is None:
            return []
        if isinstance(node, ast.Tuple):
            return [n for elt in node.elts for n in names(elt)]
        return [getattr(node, "id", None) or getattr(node, "attr", None)]

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.ExceptHandler):
            found.extend((node.lineno, function, name)
                         for name in names(node.type)
                         if name in REPORTED_EXCEPTIONS)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


# `checks.run_check` makes the reports; `cli.main` prints an overrun outside
# any check (`group enumerate`, `glue`) as the command's error, no report.
ALLOWED_HANDLERS = {("checks.py", "run_check"), ("cli.py", "main")}


def test_only_run_check_turns_exceptions_into_reports():
    found = [f"{path.relative_to(ROOT).as_posix()}:{line} in {function}: "
             f"{name}"
             for path in sorted((ROOT / "src" / "modinvar").glob("*.py"))
             for line, function, name in reported_exception_handlers(path)
             if (path.name, function) not in ALLOWED_HANDLERS]
    assert not found, "handlers outside checks.run_check:\n" + \
        "\n".join(found)
    handled = {name for _, _, name in reported_exception_handlers(
        ROOT / "src" / "modinvar" / "checks.py")}
    assert handled == {"BudgetExceeded", "ClaimRefuted"}


def test_checks_take_params_only():
    """Budgets reach a check through the run (`checks.run_check`), never as
    an argument."""
    from modinvar.checks import CHECKS
    found = {kind: list(inspect.signature(check).parameters)
             for kind, check in CHECKS.items()}
    assert {kind: names for kind, names in found.items()
            if names != ["params"]} == {}


def test_only_groups_names_default_cap():
    """The default cap is a default of the run, held by `groups`."""
    found = [path.name
             for path in sorted((ROOT / "src" / "modinvar").glob("*.py"))
             if "DEFAULT_CAP" in path.read_text()]
    assert found == ["groups.py"]


def test_checks_restate_no_order_formula():
    """A group's order is claimed by its constructor and certified by
    `MatrixGroup.enumerate()`; checks do not compute it a second time.
    (`field_from_order` builds GF(q) from q and is no order formula.)"""
    tree = ast.parse((ROOT / "src" / "modinvar" / "checks.py").read_text())
    found = [f"{node.lineno}: {alias.name}" for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and node.module == "modinvar.groups"
             for alias in node.names if alias.name.endswith("_order")
             and alias.name != "field_from_order"]
    assert not found, "order formulas imported by checks:\n" + \
        "\n".join(found)


def numpy_unique_uses(path):
    """Lines where a module names `np.unique`: its first call imports
    numpy.ma, about 12 ms and 1.4 MB, which no pass otherwise needs
    (`groups._sorted_unique` and the sorts of `SymmetricPowers._step` and
    `linalg.sparse_rank_mod_p` do the same work without it)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.Attribute) and node.attr == "unique"
                and getattr(node.value, "id", None) in ("np", "numpy"))
            or (isinstance(node, ast.alias) and node.name == "unique")]


def test_src_does_not_call_np_unique():
    found = [f"{path.relative_to(ROOT).as_posix()}:{line}"
             for path in sorted((ROOT / "src" / "modinvar").glob("*.py"))
             for line in numpy_unique_uses(path)]
    assert not found, "np.unique in src:\n" + "\n".join(found)


# The scalar matrix products that stay, each the oracle of a batched route
# through `groups.index_matmul` and named so in its docstring.
SCALAR_ORACLES = {"GroupElement.__mul__", "GroupElement.apply",
                  "semidirect_mul"}

# Scalar matrix helpers and Gaussian eliminations that the batched kernel,
# `GluingGroup.blocks` and `linalg.rref_mod_p` replaced.
REPLACED = {"mat_neg", "mat_add", "mat_scale", "mat_apply", "mat_det",
            "mat_inv", "det", "is_symplectic", "_block_matrix", "_zero_phi"}


def functions_calling(path, callee):
    """(line, enclosing function as Class.name or name) of each call of
    `callee` by name in a module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []

    def visit(node, owner, function):
        if isinstance(node, ast.ClassDef):
            owner = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = f"{owner}.{node.name}" if owner else node.name
            owner = None
        if isinstance(node, ast.Call) and \
                getattr(node.func, "id", None) == callee:
            found.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, owner, function)

    visit(tree, None, None)
    return found


def defined_functions(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def test_mat_mul_is_called_only_by_the_scalar_oracles():
    callers = {function
               for path in sorted((ROOT / "src" / "modinvar").glob("*.py"))
               for _, function in functions_calling(path, "mat_mul")}
    assert callers == SCALAR_ORACLES


def test_act_packed_has_one_caller_the_job_driver():
    """Every stacked action reaches the kernel through `mvpoly._act_blocks`,
    which bounds the terms and matrices of each call; the blockings of its
    callers that it replaced are gone."""
    callers = [(path.name, function)
               for path in sorted((ROOT / "src" / "modinvar").glob("*.py"))
               for _, function in functions_calling(path, "_act_packed")]
    assert callers == [("mvpoly.py", "_act_blocks")]
    assert not defined_functions(ROOT / "src" / "modinvar" / "mvpoly.py") \
        & {"_act_sums", "_blocks", "_tagged", "_act_family"}


def removed_names(path):
    """(line, what) of each use of a removed route in a module: the small
    action threshold `ACT_MIN_TERMS`, and `numpy.random`, whose first
    import costs more than the bulk draws it could replace."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if name == "ACT_MIN_TERMS":
            found.append((node.lineno, name))
        elif isinstance(node, ast.Attribute) and node.attr == "random" and \
                getattr(node.value, "id", None) in ("np", "numpy"):
            found.append((node.lineno, "numpy.random"))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name.startswith("numpy.random")]
        elif isinstance(node, ast.ImportFrom) and node.module and (
                node.module.startswith("numpy.random") or
                node.module == "numpy" and any(
                    alias.name == "random" for alias in node.names)):
            found.append((node.lineno, "numpy.random"))
    return found


def test_src_names_no_removed_route():
    """Stacks of matrices always run the packed kernel, so no module names
    a small-action threshold, and the sampled checks draw through
    `random.Random`, so none imports `numpy.random`."""
    found = [f"{path.name}:{line}: {what}"
             for path in sorted((ROOT / "src" / "modinvar").glob("*.py"))
             for line, what in removed_names(path)]
    assert not found, "removed routes named in src:\n" + "\n".join(found)


def test_rref_mod_p_is_the_only_dense_elimination():
    """`groups` defines no determinant or inverse loop of its own, and no
    module keeps a replaced scalar helper."""
    groups = defined_functions(ROOT / "src" / "modinvar" / "groups.py")
    assert not groups & {"mat_det", "mat_inv", "det"}
    found = {f"{path.name}: {name}"
             for path in sorted((ROOT / "src" / "modinvar").glob("*.py"))
             for name in defined_functions(path) & REPLACED}
    assert not found, "replaced scalar helpers in src:\n" + "\n".join(found)


# The functions that hand out a GroupElement: the scalar oracles and the
# API edge.  Constructors and consumers work on index arrays
# (`MatrixGroup.generator_rows`), and `MatrixGroup.generators` and
# `elements` build their GroupElements through `groups._row_elements`.
GROUP_ELEMENT_MAKERS = {"GroupElement.__mul__", "MatrixGroup.identity",
                        "GluingGroup.triple", "semidirect_mul",
                        "check_semidirect_law"}


def test_group_elements_are_made_only_at_the_api_edge():
    callers = {function
               for path in sorted((ROOT / "src" / "modinvar").glob("*.py"))
               for _, function in functions_calling(path, "GroupElement")}
    assert callers == GROUP_ELEMENT_MAKERS


def function_level_imports(path):
    """(line, module) of each import of a modinvar module inside a
    function."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(function):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [(node.lineno, name) for name in names
                      if name.split(".")[0] == "modinvar"]
    return found


def test_src_imports_modinvar_at_module_level():
    """The modules import in one order (gfq, linalg, mvpoly, groups,
    gluing, invariants, analysis, checks, cli), so no import of one by
    another has to wait inside a function."""
    found = [f"{path.relative_to(ROOT).as_posix()}:{line}: {module}"
             for path in sorted((ROOT / "src" / "modinvar").glob("*.py"))
             for line, module in function_level_imports(path)]
    assert not found, "function-level modinvar imports:\n" + \
        "\n".join(found)


def test_only_the_literal_oracle_forms_the_span_product():
    """Orbit products go through the Frobenius recursion of
    `orbit_product`; `subspace_product` is the one place in src that
    multiplies a factor for every span element."""
    callers = {function
               for path in sorted((ROOT / "src" / "modinvar").glob("*.py"))
               for _, function in functions_calling(path, "balanced_product")}
    assert callers == {"subspace_product"}


# (importing module, source module, name) of each private name a src module
# imports from another modinvar module.  The list may only shrink: a new
# entry means a module reaching into another's internals, which wants a
# public name instead.
PRIVATE_IMPORTS = {
    *(("analysis", "mvpoly", name) for name in (
        "_act_sum", "_combine_keys", "_key_weights", "_stack",
        "_term_arrays")),
    *(("analysis", "groups", name)
      for name in ("_keys", "_rows", "_sorted_unique")),
    ("analysis", "linalg", "_matrix_dtype"),
    ("analysis", "invariants", "_as_field"),
    *(("checks", "groups", name) for name in (
        "_digit_matmul", "_expand", "_keys", "_matmul_mod",
        "_sorted_unique")),
    ("gluing", "groups", "_index_rows"),
    ("invariants", "gluing", "_parabolic_blocks"),
}


def private_imports(path):
    """(source module, name) of each private name a module imports from
    another modinvar module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return {(node.module.split(".")[-1], alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "modinvar"
            for alias in node.names if alias.name.startswith("_")}


def src_private_imports():
    return {(path.stem, source, name)
            for path in sorted((ROOT / "src" / "modinvar").glob("*.py"))
            for source, name in private_imports(path)}


def test_no_new_private_imports_across_modules():
    found = sorted(src_private_imports() - PRIVATE_IMPORTS)
    assert not found, "private names imported across modules:\n" + \
        "\n".join(f"{module}.py: {name} from {source}"
                  for module, source, name in found)


def test_pinned_private_imports_are_still_imported():
    assert sorted(PRIVATE_IMPORTS - src_private_imports()) == []
