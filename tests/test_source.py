"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

from fwlab import harness, models

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
        "harness:numpy_openblas"}


def _names(name):
    return lambda node: (isinstance(node, ast.Name) and node.id == name
                         or isinstance(node, ast.ImportFrom)
                         and any(alias.name == name for alias in node.names))


def test_one_pin_sets_blas():
    # every comparison, from the CLI or the library, runs under the one pin, and only the pin
    # reads or sets the thread count
    paths = sorted(SRC.rglob("*.py"))
    for name, owner in (("numpy_openblas", "harness:single_blas_thread"),
                        ("single_blas_thread", "harness:run_comparisons")):
        assert [user for path in paths for user in _users(path, _names(name))] == [owner]


def _kind_name(node):
    name = (node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute)
            else node.name if isinstance(node, ast.alias) else "")
    return name.startswith("KIND_")


def test_one_lock_sets_up_each_batch():
    # the harness reads no model kind, and a comparison's one lock guards its task stream,
    # which builds and prepares each batch, so no batch has a lock of its own
    path = SRC / "harness.py"
    assert _users(path, _kind_name) == []
    [function] = [node for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.FunctionDef) and node.name == "run_comparisons"]
    locks = [node for node in ast.walk(function)
             if isinstance(node, ast.Call) and ast.unparse(node.func) == "threading.Lock"]
    assert len(locks) == 1


def test_numpy_openblas_round_trip():
    pytest.importorskip("scipy.linalg")  # its own OpenBLAS is loaded beside numpy's
    controls = harness.numpy_openblas()
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
    assert harness.numpy_openblas() is controls


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
                        (SRC / "models.py", "models:build_synthetic_commuting")):
        assert owner in _users(path, _names("as_number"))


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


def test_report_has_one_owner():
    # report.py owns the schema and its serializers, and the harness only schedules; the one
    # opt-in, the rows' timings, is a parameter of report_json alone
    assert _users(SRC / "harness.py", _names("dataclass")) == []
    assert not {"json", "fileio", "dataclasses"} & _imported(SRC / "harness.py")
    assert "harness" not in _imported(SRC / "report.py")
    assert [f"{path.stem}:{node.name}" for path in sorted(SRC.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and "include_timings" in _parameters(node)] == ["report:report_json"]
