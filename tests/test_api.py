"""The package's declared public surface, and the README's quick tour run as
code."""

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
        exported = {name for name, obj in vars(bt).items()
                    if not name.startswith("_") and not inspect.ismodule(obj)}
        declared = set().union(*(mod.__all__ for mod in LAYERS))
        assert exported == declared | _classes(errors)

    # names that only tests used; the generators now live in tests/_helpers.py
    @pytest.mark.parametrize("name", ["bloch_messiah_2x2", "BlochMessiah2x2",
                                      "bures_distance", "random_symplectic",
                                      "random_state"])
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
