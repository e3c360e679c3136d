"""Each quantity has one source: structural checks on the package's own code."""

import ast
import importlib
import re
from pathlib import Path

import kolmo

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = None

SOURCES = sorted(Path(kolmo.__file__).parent.glob("*.py"))
ROOT = Path(kolmo.__file__).parents[2]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _trees():
    return {path.name: ast.parse(path.read_text()) for path in SOURCES}


def test_expm_imported_only_where_needed():
    # gramian: the Van Loan exponential, its stacked flows and the input
    # response.  The checked gramian's cross-check takes no exponential.
    importers = {
        name
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and any(a.name == "expm" for a in node.names)
    }
    assert importers == {"gramian.py"}


_QUADRATURE = re.compile(
    r"simpson|romberg|trapz|trapezoid|leggauss|(^|_)quad($|_)", re.IGNORECASE
)


def _is_quadrature(node):
    """A quadrature routine defined or called, or ``scipy.integrate`` imported."""
    if isinstance(node, ast.FunctionDef):
        return bool(_QUADRATURE.search(node.name))
    if isinstance(node, ast.Call):
        return bool(_QUADRATURE.search(getattr(node.func, "id", getattr(node.func, "attr", ""))))
    if isinstance(node, ast.Import):
        return any(a.name.startswith("scipy.integrate") for a in node.names)
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return module.startswith("scipy.integrate") or (
            module == "scipy" and any(a.name == "integrate" for a in node.names)
        )
    return False


def test_no_quadrature_routine_in_src():
    # Every covariance is read off exponentials, the checked gramian's
    # cross-check is a Taylor series with semigroup doublings, and the
    # kernel's semigroup check is the covariance composition law; the
    # Simpson and Gauss-Legendre oracles live in tests/conftest.py.
    found = [
        (name, node.lineno)
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if _is_quadrature(node)
    ]
    assert found == []


def test_only_main_writes_cli_files():
    tree = _trees()["cli.py"]
    writers = {
        func.name
        for func in tree.body
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) in ("_write_csv", "_write_json")
    }
    assert writers == {"main"}


def test_environment_read_only_for_the_lane_count():
    # One setting comes from the environment: KOLMO_THREADS, read where the
    # simulation picks its lane count.
    mentions = [
        name
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if getattr(node, "attr", getattr(node, "id", getattr(node, "name", None)))
        in ("environ", "environb", "getenv", "getenvb")
    ]
    assert mentions == ["mc.py"]
    reads = [
        node.args[0].value
        for node in ast.walk(_trees()["mc.py"])
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "get"
        and getattr(node.func.value, "attr", None) == "environ"
    ]
    assert reads == ["KOLMO_THREADS"]


def test_dilation_exponents_called_only_in_model():
    # Everything else scales through dilation_scales or dilation_matrix.
    callers = {
        name
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "dilation_exponents"
    }
    assert callers == {"model.py"}


def test_solve_triangular_imported_only_in_gramian():
    # Quadratic forms go through gramian.quadratic_form.
    importers = {
        name
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and any(a.name.split(".")[-1] == "solve_triangular" for a in node.names)
    }
    assert importers == {"gramian.py"}


def _attribute_callers(attr, owner):
    """Modules that call ``<owner>.<attr>(...)``, ``owner`` the name of the last link."""
    return {
        name
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == attr
        and ast.unparse(node.func.value).split(".")[-1] == owner
    }


def test_gramians_factored_only_in_gramian():
    # Every factored C(s) comes from Propagator.factor or gramian_weighted.
    assert _attribute_callers("from_matrix", "Gramian") == {"gramian.py"}
    assert _attribute_callers("cholesky", "linalg") == {"gramian.py"}


def test_no_function_local_imports():
    local = [
        (name, node.lineno)
        for name, tree in _trees().items()
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert local == []


def test_exports_resolve():
    # Every name a module exports exists, and every name the package
    # re-exports is exported by the module it comes from.
    modules = {
        path.stem: importlib.import_module(f"kolmo.{path.stem}")
        for path in SOURCES
        if path.stem != "__init__"
    }
    for stem, module in modules.items():
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert missing == [], (stem, missing)
    reexports = [
        (node.module, alias.name)
        for node in _trees()["__init__.py"].body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert reexports
    unexported = [(m, n) for m, n in reexports if n not in modules[m].__all__]
    assert unexported == []


def _references(tree):
    """``(defined name or None, names loaded and attributes read)`` per top-level statement."""
    out = []
    for node in tree.body:
        names = {
            sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))
        }
        out.append((getattr(node, "name", None), names))
    return out


def test_every_export_has_a_caller():
    # A name in a module's __all__ is used by the library outside its own
    # definition, or by a demo; the package's re-exports do not count.
    assert DEMOS
    refs = {name: _references(tree) for name, tree in _trees().items() if name != "__init__.py"}
    in_src = {
        ref for statements in refs.values() for defined, names in statements for ref in names - {defined}
    }
    in_demos = {ref for p in DEMOS for _, names in _references(ast.parse(p.read_text())) for ref in names}
    uncalled = [
        f"{name[:-3]}.{export}"
        for name in refs
        for export in getattr(importlib.import_module(f"kolmo.{name[:-3]}"), "__all__", ())
        if export not in in_src and export not in in_demos
    ]
    assert uncalled == []


def test_random_draws_only_in_mc():
    # The model's constants come from each field's closed-form range and
    # the equivalence constants from a pencil's eigenvalues, so no other
    # module mentions ``random`` or ``default_rng``: the simulation seeds its
    # own Philox streams.
    mentions = {
        name
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if getattr(node, "attr", getattr(node, "id", None)) in ("random", "default_rng")
    }
    assert mentions == {"mc.py"}


def test_blas_threads_set_only_in_cli():
    # The BLAS thread pools are process-wide state: only the CLI pins them,
    # for the length of a subcommand, so only cli.py imports ctypes.
    def imported(node):
        if isinstance(node, ast.Import):
            return [a.name for a in node.names]
        return [node.module or ""] if isinstance(node, ast.ImportFrom) else []

    importers = {
        name
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if any(module.split(".")[0] == "ctypes" for module in imported(node))
    }
    assert importers == {"cli.py"}


def test_pyproject_version_is_package_version():
    text = (ROOT / "pyproject.toml").read_text()
    if tomllib is not None:
        version = tomllib.loads(text)["project"]["version"]
    else:
        version = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE).group(1)
    assert version == kolmo.__version__


def _call_sites(callee):
    """``(module, top-level definition)`` of every call to ``callee`` in the package."""
    return {
        (name, getattr(top, "name", None))
        for name, tree in _trees().items()
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == callee
    }


def test_one_gaussian_law():
    # Every Gaussian law, the operator's exact one included, is a
    # GaussianKernel: it alone reads densities and shifts means by the
    # input response, which otherwise only the stepped runner's steps and
    # the least-norm oracle's steps take.
    assert _call_sites("log_density") == {("kernel.py", "GaussianKernel")}
    assert _call_sites("input_response") == {
        ("kernel.py", "GaussianKernel"),
        ("mc.py", "_stepped_chunk_runner"),
        ("control.py", "discrete_least_norm_control"),
    }
    assert "mc.py" not in {module for module, _ in _call_sites("gramian_weighted")}


def test_uniform_gramian_grid_only_for_kappa():
    # Every other C(s) is read from the propagator's cached exponential at s;
    # the batched uniform grid serves only the kappa estimate's 1024 horizons.
    assert _call_sites("gramians") == {("control.py", "kappa_estimate")}


def test_route_decided_once():
    # mc.route alone reads the zero-coefficient test and builds the
    # operator's one-shot law, and each of its two refusals is written once.
    assert _call_sites("is_zero") == {("mc.py", "route")}
    assert not hasattr(importlib.import_module("kolmo.mc"), "_exact_law")
    assert all(
        node.name != "_exact_law"
        for tree in _trees().values()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
    )
    refusals = [
        "simulation requires a vanishing zeroth-order coefficient",
        "tabulated space-dependent diffusion is piecewise constant; "
        "the scheme has no convergence guarantees there",
    ]
    strings = [
        node.value
        for tree in _trees().values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]
    assert [sum(refusal in text for text in strings) for refusal in refusals] == [1, 1]
