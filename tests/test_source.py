"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

import fwlab
from fwlab import harness, matfunc, models

SRC = Path(__file__).resolve().parent.parent / "src" / "fwlab"

# os.environ, os.environb, os.getenv and os.getenvb, read as attributes or imported by name
ENVIRONMENT_READS = {"environ", "environb", "getenv", "getenvb"}


def test_no_module_reads_the_environment():
    # every setting of a run is an argument; an environment variable would be a hidden one
    reads = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = ([node.attr] if isinstance(node, ast.Attribute)
                     else [alias.name for alias in node.names]
                     if isinstance(node, ast.ImportFrom) and node.module == "os" else [])
            reads += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name in ENVIRONMENT_READS]
    assert list(SRC.glob("*.py"))
    assert reads == []


def _slices_parameters():
    """'module:function' of each function under src/fwlab with a ``slices`` parameter, and of
    those whose ``slices`` has a default."""
    taking, defaulted = [], []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args, where = node.args, f"{path.stem}:{getattr(node, 'name', '<lambda>')}"
            positional = args.posonlyargs + args.args
            with_default = positional[len(positional) - len(args.defaults):] + [
                arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default]
            taking += [where for arg in positional + args.kwonlyargs if arg.arg == "slices"]
            defaulted += [where for arg in with_default if arg.arg == "slices"]
    return taking, defaulted


def test_kernels_take_stacks_only():
    # a default for ``slices`` is a second, single-model path through a kernel; the single-model
    # names run their kernel on Slices(1) instead
    taking, defaulted = _slices_parameters()
    assert {"matfunc:inv_sqrt_stack", "matfunc:unitary_log_stack", "eriksen:eriksen_stack",
            "eriksen:eriksen_alt_stack", "exact_case:u_fw_stack", "exact_case:weak_root_stack",
            "exact_case:weak_field_stack"} <= set(taking)
    assert defaulted == []


def _users(path, matches):
    """'module:function' of each node of one module that ``matches``, by enclosing def."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            defines = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            inner = child.name if defines else where
            if matches(child):
                found.append(f"{path.stem}:{where}")
            visit(child, inner)

    visit(ast.parse(path.read_text(), filename=str(path)), "<module>")
    return found


def _uses_linalg_norm(node):
    return (isinstance(node, ast.Attribute) and node.attr == "norm"
            and ast.unparse(node.value).endswith("linalg")
            or isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg"
            and any(alias.name == "norm" for alias in node.names))


def test_only_frobenius_calls_linalg_norm():
    # every norm runs on the one pinned kernel, whose stacked form is bit for bit np.linalg.norm
    users = {user for path in sorted(SRC.rglob("*.py"))
             for user in _users(path, _uses_linalg_norm)}
    assert users == {"algebra:frobenius"}


def _opens_proc(node):
    return isinstance(node, ast.Constant) and isinstance(node.value, str) and (
        node.value.startswith("/proc"))


def _names_cdll(node):
    return (isinstance(node, ast.Attribute) and node.attr == "CDLL"
            or isinstance(node, ast.ImportFrom) and node.module == "ctypes"
            and any(alias.name == "CDLL" for alias in node.names))


def test_blas_is_found_through_numpy_only():
    # no module reads the process's files, and one function opens numpy's BLAS
    paths = sorted(SRC.rglob("*.py"))
    assert [user for path in paths for user in _users(path, _opens_proc)] == []
    assert {user for path in paths for user in _users(path, _names_cdll)} == {
        "matfunc:numpy_openblas"}


def _names(name):
    return lambda node: (isinstance(node, ast.Name) and node.id == name
                         or isinstance(node, ast.ImportFrom)
                         and any(alias.name == name for alias in node.names))


def test_one_pin_sets_blas():
    # every name that computes a report row, from the CLI or the library, runs under the one pin
    # (entered by ``with`` or as a decorator), and only the pin reads or sets the thread count
    paths = sorted(SRC.rglob("*.py"))
    assert [user for path in paths for user in _users(path, _names("numpy_openblas"))] == [
        "matfunc:single_blas_thread"]
    pinned = [user for path in paths for user in _users(
        path, lambda node: isinstance(node, ast.Name) and node.id == "single_blas_thread")]
    assert sorted(pinned) == ["eriksen:_alone", "exact_case:weak_field_sqrt",
                              "harness:run_comparisons"]
    assert not {"ctypes", "contextlib"} & _imported(SRC / "harness.py")


def _function(path, name):
    """The one top-level or nested def ``name`` of a module."""
    [function] = [node for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.FunctionDef) and node.name == name]
    return function


def _kind_name(node):
    name = (node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute)
            else node.name if isinstance(node, ast.alias) else "")
    return name.startswith("KIND_")


def test_one_lock_sets_up_each_batch():
    # the harness reads no model kind, and a comparison's one lock guards its task stream,
    # which builds each batch, and the batch's reports, so no batch has a lock of its own
    path = SRC / "harness.py"
    assert _users(path, _kind_name) == []
    locks = [node for node in ast.walk(_function(path, "run_comparisons"))
             if isinstance(node, ast.Call) and ast.unparse(node.func) == "threading.Lock"]
    assert len(locks) == 1


def test_closed_forms_run_as_one_task():
    # the closed forms are one task per batch, which owns the batch's ModelStack and drops it
    # when it ends, so no reader count, reader-first sort or SVD forced by the stream comes back
    source = (SRC / "harness.py").read_text()
    assert [gone for gone in ("_PARTS_READERS", "readers", "odd_svd") if gone in source] == []
    assert (harness.METHOD_WEAK_FIELD, harness.METHOD_EXACT_CASE) in harness._TASKS
    assert sorted(m for task in harness._TASKS for m in task) == sorted(harness.METHOD_TAGS)


def test_closed_forms_task_builds_the_stack_and_run_builds_the_reports():
    # the task stream only builds models and H's eigh; the closed forms' task builds the batch's
    # ModelStack and contexts, and run, when a batch's last task ends, builds its reports
    stream = ast.unparse(_function(SRC / "harness.py", "stream"))
    assert [name for name in ("ModelStack", "report_contexts") if name in stream] == []
    nested = [node.name for node in ast.walk(_function(SRC / "harness.py", "run_comparisons"))
              if isinstance(node, ast.FunctionDef)]
    assert "finish" not in nested and "run" in nested

    def assembles(node):
        return isinstance(node, ast.Call) and ast.unparse(node.func) == "assemble_report"

    assert [where for path in sorted(SRC.rglob("*.py")) for where in _users(path, assembles)] == [
        "harness:run"]


def test_numpy_openblas_round_trip():
    pytest.importorskip("scipy.linalg")  # its own OpenBLAS is loaded beside numpy's
    controls = matfunc.numpy_openblas()
    if controls is None:
        pytest.skip("numpy does not run on OpenBLAS")
    assert len(controls) == 2 and all(callable(f) for f in controls)
    get, set_ = controls
    before = get()
    try:
        for count in (2, 1):
            set_(count)
            assert get() == count
    finally:
        set_(before)
    assert matfunc.numpy_openblas() is controls


def _top_level_users(path, matches):
    """The name each top-level statement of a module defines, once per node in it that
    ``matches``."""
    found = []
    for statement in ast.parse(path.read_text(), filename=str(path)).body:
        name = (getattr(statement, "name", None)
                or isinstance(statement, ast.Assign) and ast.unparse(statement.targets[0]))
        found += [name for node in ast.walk(statement) if matches(node)]
    return found


def _constant_in(values):
    return lambda node: isinstance(node, ast.Constant) and node.value in values


def test_one_table_per_catalog():
    # a model kind is named by its KIND_* constant, which only _KINDS reads, and an analytic
    # potential only by its POTENTIALS key
    path = SRC / "models.py"
    constants = {name for name in vars(models) if name.startswith("KIND_")}
    assert set(models._KINDS) == {getattr(models, name) for name in constants}
    assert set(_top_level_users(path, _kind_name)) == constants | {"_KINDS"}
    assert set(_top_level_users(path, _constant_in(set(models._KINDS)))) == constants
    assert set(_top_level_users(path, _constant_in(set(models.POTENTIALS)))) == {"POTENTIALS"}
    source = path.read_text()
    for gone in ("_REQUIRED_FIELDS", "_check_fields", "POTENTIAL_PARAM_COUNTS"):
        assert gone not in source


def _refuses_bool(node):
    return (isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance"
            and "bool" in ast.unparse(node.args[1]))


def test_one_number_rule():
    # only as_number tells a bool or a non-integer from a number; ToleranceConfig and ModelSpec
    # call it instead of checks of their own
    paths = sorted(SRC.rglob("*.py"))
    assert [user for path in paths for user in _users(path, _refuses_bool)] == [
        "algebra:as_number"]
    assert [user for path in paths
            for user in _users(path, lambda node: getattr(node, "attr", None) == "Integral")] == [
        "algebra:as_number"]
    for path, owner in ((SRC / "stepwise.py", "stepwise:__post_init__"),
                        (SRC / "models.py", "models:__post_init__"),
                        (SRC / "models.py", "models:build_free_particle"),
                        (SRC / "models.py", "models:build_lattice_1d"),
                        (SRC / "models.py", "models:build_synthetic_commuting")):
        assert owner in _users(path, _names("as_number"))


def test_one_unitarity_verdict():
    # one function reads UNITARY_TOL, and diagnose and unitary_log_stack call it; FWResult is a
    # record, so no type switches the verdict on or off, and the diagnostics take stacks only
    paths = sorted(SRC.rglob("*.py"))
    reads = {f"{path.stem}:{name}" for path in paths for name in _top_level_users(
        path, lambda node: _names("UNITARY_TOL")(node) and not isinstance(
            getattr(node, "ctx", None), ast.Store))}
    assert reads == {"matfunc:check_unitarity"}
    calls = {f"{path.stem}:{name}" for path in paths for name in _top_level_users(
        path, lambda node: isinstance(node, ast.Call)
        and ast.unparse(node.func) == "check_unitarity")}
    assert calls == {"eriksen:diagnose", "matfunc:unitary_log_stack"}
    assert "__post_init__" not in vars(fwlab.FWResult)
    assert not hasattr(fwlab.eriksen, "_Approximate")


def test_one_commuting_verdict():
    # the verdict is one comparison of a model's residual with COMMUTE_TOL, in _odd_block's gate;
    # report only serializes the tolerance, so no record of the verdict comes back
    paths = sorted(SRC.rglob("*.py"))
    assert [path.name for path in paths if "CommutationReport" in path.read_text()] == []
    assert not hasattr(fwlab, "CommutationReport")
    compares = {f"{path.stem}:{name}" for path in paths for name in _top_level_users(
        path, lambda node: isinstance(node, ast.Compare)
        and any(_names("COMMUTE_TOL")(x) for x in ast.walk(node)))}
    assert compares == {"exact_case:_odd_block"}
    assert _users(SRC / "report.py", _names("COMMUTE_TOL")) == ["report:<module>", "report:to_dict"]


def test_one_diagnostics_path():
    # the routes pass their stacks to diagnose, which gates a non-finite slice before computing
    # instead of catching an error and computing again; unitary_log_stack trusts the finiteness
    # and the defects its callers give it, so only unitary_log and diagnose's gate, which
    # FWResult.of's route ``given`` reaches, check a U, and require_hermitian an H
    paths = sorted(SRC.rglob("*.py"))
    diagnose = _function(SRC / "eriksen.py", "diagnose")
    assert not [node for node in ast.walk(diagnose) if isinstance(node, ast.Try)]
    log_stack = _function(SRC / "matfunc.py", "unitary_log_stack")
    assert [arg.arg for arg in log_stack.args.args] == ["slices", "u", "defect"]
    assert log_stack.args.defaults == []
    assert not [node for node in ast.walk(log_stack) if _names("require_finite")(node)]
    checks = {user for path in paths for user in _users(
        path, lambda node: isinstance(node, ast.Name) and node.id == "require_finite")}
    assert checks == {"matfunc:unitary_log", "eriksen:diagnose", "algebra:require_hermitian"}
    assert [user for path in paths for user in _users(
        path, lambda node: isinstance(node, ast.Call)
        and ast.unparse(node.func).endswith("FWResult.of"))] == []


def _holds(phrase):
    """Matches a node with a str constant child that holds ``phrase``, a docstring's Expr aside."""
    return lambda node: not isinstance(node, ast.Expr) and any(
        isinstance(child, ast.Constant) and isinstance(child.value, str) and phrase in child.value
        for child in ast.iter_child_nodes(node))


def test_one_owner_per_operand_rule():
    # algebra alone decides when a matrix is square and when it is finite, and builds the
    # messages; odd_exp keeps its entries-only check, as a stepwise c may have an inf norm
    paths = sorted(SRC.rglob("*.py"))
    builders = {phrase: [user for path in paths for user in _users(path, _holds(phrase))]
                for phrase in ("must be a square matrix", "has non-finite entries",
                               "has a Frobenius norm that overflows")}
    assert builders == {"must be a square matrix": ["algebra:require_square"],
                        "has non-finite entries": ["algebra:require_finite", "matfunc:odd_exp"],
                        "has a Frobenius norm that overflows": ["algebra:require_finite"]}
    defines = [f"{path.stem}:{node.name}" for path in paths
               for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
               if isinstance(node, ast.FunctionDef)
               and node.name in ("require_square", "require_finite")]
    assert defines == ["algebra:require_square", "algebra:require_finite"]


# 'module:name' of each name a module imports only for others to import from it, with the reason
REEXPORTS = {"harness:report_json": "benchmarks/workloads.py calls it as harness.report_json"}


def test_no_module_imports_a_name_it_never_reads():
    # an import no code reads is dead, in the tests too; the package's __init__ only re-exports
    unread = []
    for path in sorted(SRC.rglob("*.py")) + sorted(Path(__file__).parent.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{path.stem}:{bound}" for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"
                   for alias in node.names
                   if (bound := alias.asname or alias.name.partition(".")[0]) not in read]
    assert unread == list(REEXPORTS)


def test_one_single_model_path():
    # a single model reaches its FWResult through _alone alone, FWResult.of and stepwise_fw
    # included, so diagnose has one caller per path: _alone and the scheduler's
    paths = sorted(SRC.rglob("*.py"))
    calls = [user for path in paths for user in _users(
        path, lambda node: isinstance(node, ast.Call) and ast.unparse(node.func) == "diagnose")]
    assert sorted(calls) == ["eriksen:_alone", "harness:_run_method"]
    assert "eriksen:of" in _users(SRC / "eriksen.py", _names("_alone"))
    assert "stepwise:stepwise_fw" in _users(SRC / "stepwise.py", _names("_alone"))
    assert not hasattr(fwlab.eriksen, "hamiltonian_spectrum")


def test_one_way_to_diagnose_a_callers_transform():
    # FWResult.of diagnoses one U; a stack goes through diagnose, the only caller of the
    # diagnostics kernel, and a closed form is diagnosed against its own H
    assert not hasattr(fwlab, "compute_diagnostics")
    assert not hasattr(fwlab.eriksen, "compute_diagnostics")
    paths = sorted(SRC.rglob("*.py"))
    assert [user for path in paths for user in _users(path, _names("_diagnostics"))] == [
        "eriksen:diagnose"]
    assert _parameters(_function(SRC / "exact_case.py", "u_fw_exact")) == ["d"]


def test_models_check_no_input_themselves():
    # as_number reads every vector and number a model takes, so finiteness of an input is tested
    # by it, require_hermitian and the file readers, which name a line; no builder or Potential
    # converts or checks one of its own
    attrs = ("isfinite", "asarray")
    assert _users(SRC / "models.py", lambda node: getattr(node, "attr", None) in attrs) == []


def _imported(path):
    """The modules one module imports, a package module by its own name ("fileio")."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and not node.module:
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            found.add(node.module)
    return found


def _parameters(node):
    args = node.args
    return [arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs]


def test_the_grading_is_the_shape():
    # beta is read off each operand's 2n x 2n shape, so no function takes a grading beside it
    assert [f"{path.stem}:{getattr(node, 'name', '<lambda>')}" for path in sorted(SRC.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            and "grading" in _parameters(node)] == []
    assert not hasattr(fwlab, "Grading")


def test_report_has_one_owner():
    # report.py owns the schema, the rows and its serializers, and the harness only schedules:
    # assemble_report alone builds rows and cross rows, from the outcomes _run_method gives; the
    # one opt-in, the rows' timings, is a parameter of report_json alone
    assert _users(SRC / "harness.py", _names("dataclass")) == []
    assert not {"json", "fileio", "dataclasses"} & _imported(SRC / "harness.py")
    rows = ("MethodRow", "CrossRow")
    assert [user for name in (*rows, "frobenius")
            for user in _users(SRC / "harness.py", _names(name))] == []
    assert [user for path in sorted(SRC.rglob("*.py")) for user in _users(
        path, lambda node: isinstance(node, ast.Call) and ast.unparse(node.func) in rows)] == [
        "report:assemble_report"] * 2
    assert "harness" not in _imported(SRC / "report.py")
    assert [f"{path.stem}:{node.name}" for path in sorted(SRC.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and "include_timings" in _parameters(node)] == ["report:report_json"]


def test_stepwise_keeps_one_series():
    # each step of the lockstep takes one stacked norm, the odd ratios', and the exponent norms
    # are read off them, so no overflow of a second norm needs a rescue
    path = SRC / "stepwise.py"
    [loop] = [node for node in ast.walk(_function(path, "stepwise_lockstep"))
              if isinstance(node, ast.While)]
    calls = [node for node in ast.walk(loop)
             if isinstance(node, ast.Call) and ast.unparse(node.func) == "frobenius"]
    assert len(calls) == 1
    assert _users(path, lambda node: getattr(node, "attr", None) == "isfinite") == []


def test_one_command_path_per_kind():
    # every single-model command runs cmd_model, which reads its (spec, tolerances) off the
    # subparser's ``spec`` default, so no per-command copy of the report path comes back
    tree = ast.parse((SRC / "cli.py").read_text())
    funcs = [ast.unparse(keyword.value) for node in ast.walk(tree)
             if isinstance(node, ast.Call) and ast.unparse(node.func).endswith(".set_defaults")
             for keyword in node.keywords if keyword.arg == "func"]
    assert sorted(funcs) == ["cmd_model"] * 3 + ["cmd_sweep"]
    assert [node.name for node in tree.body if isinstance(node, ast.FunctionDef)
            and node.name.startswith("cmd_")] == ["cmd_model", "cmd_sweep"]
    assert "_emit" not in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
