"""The package's declared public surface, and the README's quick tour run as
code."""

import ast
import importlib
import inspect
import pathlib
import re

import pytest

import bosonic_telesim as bt
from bosonic_telesim import (capacity, channels, convergence, dilation, errors, fidelity,
                             peeling, symplectic, teleportation)

LAYERS = (symplectic, channels, teleportation, dilation, fidelity, convergence, peeling,
          capacity)
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _classes(mod):
    return {name for name, obj in vars(mod).items()
            if inspect.isclass(obj) and obj.__module__ == mod.__name__}


class TestExports:
    def test_package_exports_the_layers_declared_names(self):
        # the package binds its names lazily (PEP 562): they are read as dir()
        # and getattr() see them, and each is the identical object of its layer
        exported = {name for name in dir(bt)
                    if not name.startswith("_") and not inspect.ismodule(getattr(bt, name))}
        declared = set().union(*(mod.__all__ for mod in LAYERS))
        assert exported == declared | _classes(errors)
        assert set(bt.__all__) == exported
        for mod in (*LAYERS, errors):
            for name in getattr(mod, "__all__", _classes(mod)):
                assert getattr(bt, name) is getattr(mod, name)

    # names that only tests used: the generators now live in tests/_helpers.py;
    # the protocol checks are epsilon_tp_bound's, the rank r is classify's, and
    # capacity._phi evaluates the key capacity without the entropic h
    @pytest.mark.parametrize("name", ["bloch_messiah_2x2", "BlochMessiah2x2",
                                      "bures_distance", "random_symplectic",
                                      "random_state", "AdaptiveProtocolSpec",
                                      "entropic_h", "channel_rank"])
    def test_test_only_names_not_exported(self, name):
        with pytest.raises(ImportError):
            exec(f"from bosonic_telesim import {name}", {})
        assert not any(hasattr(importlib.import_module(mod.__name__), name)
                       for mod in LAYERS)


class TestReadme:
    def test_quick_tour_runs(self):
        tour = README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
        code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
        namespace = {}
        exec(compile(code, str(README), "exec"), namespace)
        # the tau printed in the comment is the one classify returns
        assert f"tau={bt.classify(namespace['loss']).tau!r}" in code


PACKAGE = pathlib.Path(bt.__file__).resolve().parent

# module: the (module, name) pairs of private helpers it takes from other modules
# of the package.  Each rule has one owner; a new entry is a decision to share a
# helper, made here, not a second copy of the rule.
PRIVATE_IMPORTS = {
    "capacity": {("_floats", "_real"), ("peeling", "_check_count"), ("peeling", "_eps_tp"),
                 ("peeling", "_protocol_form")},
    "channels": {("_floats", "_checked2"), ("_floats", "_det"), ("_floats", "_entries"),
                 ("_floats", "_readonly"), ("_floats", "_real"), ("_floats", "_square")},
    "cli": {("convergence", "_scan")},
    "convergence": {("_floats", "_real"), ("fidelity", "_b1_witness_infidelity"),
                    ("fidelity", "_b2_root_infidelity"), ("fidelity", "_env_root_infidelity"),
                    ("teleportation", "_env_gamma"), ("teleportation", "_frame_r"),
                    ("teleportation", "_frame_row"), ("teleportation", "_xi_column")},
    "dilation": {("_floats", "_real"), ("_floats", "_self_check_tol")},
    "fidelity": {("_floats", "_integers"), ("_floats", "_real"), ("teleportation", "_frame_r"),
                 ("teleportation", "_frame_row")},
    "peeling": {("_floats", "_integral"), ("_floats", "_real"), ("_floats", "_self_check_tol"),
                ("convergence", "_diamond_bound"), ("convergence", "_known_params")},
    # the plain-float rules of _floats: the state layer's CM test and its one
    # symmetrization rule, integer rule, invariant spectrum, matrix reader and
    # array views
    "symplectic": {("_floats", "_EPS"), ("_floats", "_ROUNDOFF"), ("_floats", "_SYMMETRY"),
                   ("_floats", "_UNCERTAINTY"), ("_floats", "_check_tol"),
                   ("_floats", "_checked2"), ("_floats", "_entries"), ("_floats", "_integral"),
                   ("_floats", "_mid"), ("_floats", "_nus"), ("_floats", "_readonly"),
                   ("_floats", "_real"), ("_floats", "_square")},
    "teleportation": {("_floats", "_real"), ("_floats", "_self_check_tol")},
}


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _private_imports(source):
    """The (module, name) pairs of private names that ``source`` takes from
    the package's modules: ``from .mod import _name`` (or
    ``bosonic_telesim.mod``), and ``mod._name`` of a module bound by
    ``from . import mod``."""
    found, modules = set(), {}
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module
        if not node.level:
            package, _, module = (module or "").partition(".")
            if package != "bosonic_telesim":
                continue
        for alias in node.names:
            if module:
                if _private(alias.name):
                    found.add((module, alias.name))
            elif _private(alias.name):
                found.add(("__init__", alias.name))
            else:
                modules[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            found.add((modules[node.value.id], node.attr))
    return found


# numpy's fromnumeric functions: each runs an ndarray method (mostly a ufunc
# reduction) behind Python-level wrapper frames, which cost more than the
# reduction on the 2x2 and 4x4 arrays of src/, so src/ calls the method.  The
# list is fixed, not introspected, so that numpy 1.24 and 2.x hold the same one.
FROMNUMERIC = frozenset({
    "all", "amax", "amin", "any", "argmax", "argmin", "argsort", "clip", "cumprod",
    "cumsum", "max", "mean", "min", "nonzero", "prod", "ptp", "ravel", "repeat",
    "reshape", "round", "sort", "squeeze", "std", "sum", "swapaxes", "take", "trace",
    "transpose", "var"})


def _wrapper_calls(source):
    """``(line, name)`` of each ``np.<name>(...)`` call in source with a name in
    :data:`FROMNUMERIC`."""
    return sorted((node.lineno, node.func.attr) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
                  and node.func.attr in FROMNUMERIC)


class TestNoNumpyWrapperCalls:
    @pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
    def test_reductions_call_the_array_method(self, path):
        assert _wrapper_calls(path.read_text(encoding="utf-8")) == []

    def test_walker_sees_each_wrapper_call(self):
        source = ("x = np.max(np.abs(m))\n"
                  "y = np.abs(m).max() + np.linalg.det(m) + np.maximum(m, 1.0)\n"
                  "z = np.sum(\n    m, axis=0)\n"
                  "w = f(np.sort, numpy.sum(m))\n")
        assert _wrapper_calls(source) == [(1, "max"), (3, "sum")]


class TestPrivateImports:
    @pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
    def test_private_imports_are_listed(self, path):
        assert _private_imports(path.read_text(encoding="utf-8")) == PRIVATE_IMPORTS.get(
            path.stem, set())

    def test_every_listed_module_exists(self):
        assert set(PRIVATE_IMPORTS) <= {p.stem for p in PACKAGE.glob("*.py")}

    def test_rules_have_one_owner(self):
        taken = set().union(*PRIVATE_IMPORTS.values())
        # purity is decided by GaussianState.is_pure from the one invariant
        # kernel, with no certificate or second spectral route; witness
        # rounding by convergence
        assert not {name for _, name in taken} & {"is_pure", "_spectrum", "_sqrt_form"}
        for name in ("_certainly_mixed", "_MIXED_SCALE", "_spectrum", "_sqrt_form"):
            assert not hasattr(symplectic, name)
        assert not hasattr(fidelity, "_one_mode_mean_factor")
        assert not {name for _, name in taken} & {"_B1_ROUND_DOWN", "_identity_witness"}
        assert hasattr(convergence, "_B1_ROUND_DOWN") and not hasattr(fidelity, "_B1_ROUND_DOWN")
        assert not hasattr(fidelity, "_identity_witness")
        # the class table is owned by the CanonicalClass rows: no side table
        # of fixed tau, rank or spec keys, and no second rank(N) map
        for name in ("_FIXED_TAU", "_FIXED_RANK", "_CANONICAL_KEYS"):
            assert not hasattr(channels, name)
        assert not hasattr(convergence, "_noise_rank")
        # det T and det N have one exact kernel, _floats._det: no numpy det
        # or second determinant of N; the integer rule of counts is _floats' too
        assert not hasattr(channels, "_sqrt_det") and "linalg" not in inspect.getsource(channels)
        assert not any(re.search(r"def _det\(|numbers\.Integral", inspect.getsource(mod))
                       for mod in LAYERS)
        # a record holds only its floats: one read-only array builder
        # (_floats._readonly), one float core per record and one row form
        # (GaussianState._fields, channel_to_dict); no cached array views
        assert not any(re.search(r"def (_readonly|_array|_pairs)\(", inspect.getsource(mod))
                       for mod in LAYERS)
        assert not hasattr(importlib.import_module("bosonic_telesim.cli"), "_state_to_dict")
        for record in (symplectic.GaussianState, channels.GaussianChannel):
            assert "_arrays" not in record.__slots__ and not hasattr(record, "_read")
        # float64's failures are the library's UnresolvableError, raised by
        # fidelity and mapped by cli.main alone; one reader of every 2x2 and
        # square matrix (_floats._square); eps_TP = n delta / 2 formed once
        cli = importlib.import_module("bosonic_telesim.cli")
        assert not hasattr(fidelity, "_linalg_error")
        assert not hasattr(cli, "_state_command") and not hasattr(cli, "_numpy_errors")
        nodes = list(ast.walk(ast.parse(inspect.getsource(cli))))
        words = ({node.id for node in nodes if isinstance(node, ast.Name)}
                 | {node.name for node in nodes if isinstance(node, ast.alias)}
                 | {node.value for node in nodes if isinstance(node, ast.Constant)})
        assert not words & {"np", "numpy"}  # no name, import or key of numpy in its code
        assert not any(re.search(r"def (_matrix|_square)\(", inspect.getsource(mod))
                       for mod in LAYERS)
        assert "_diamond_bound(" not in inspect.getsource(capacity)

    def test_walker_sees_each_form_of_import(self):
        source = ("from .fidelity import _new, fid_env_C\n"
                  "from bosonic_telesim.channels import _physical\n"
                  "from numpy import _private_of_numpy\n"
                  "from . import symplectic as sp, __version__\n"
                  "x = sp._certainly_mixed(state)\n")
        assert _private_imports(source) == {("fidelity", "_new"), ("channels", "_physical"),
                                            ("symplectic", "_certainly_mixed")}
