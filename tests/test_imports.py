"""Which modules a process loads, and the package's lazily bound names.

``theory`` and ``loss`` load on first use, so the checks that a command
leaves them out run in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest

import wildgraph
from test_golden import README_CONFIG

LAZY_MODULES = {"wildgraph.loss", "wildgraph.theory"}


def loaded_after(script):
    """The wildgraph modules a fresh interpreter holds after running ``script``."""
    src = str(Path(wildgraph.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script += "\nimport json, sys\nprint(json.dumps([n for n in sys.modules if n.startswith('wildgraph')]))"
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def run_cli(argv):
    return f"from wildgraph.cli import main\nassert main({argv!r}) == 0"


def test_detect_loads_neither_theory_nor_loss(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(README_CONFIG))
    loaded = loaded_after(run_cli(["detect", "--config", str(config), "--out", str(tmp_path / "m.json")]))
    assert "wildgraph.evaluation" in loaded
    assert not loaded & LAZY_MODULES


def test_factorize_loads_loss_but_not_theory(tmp_path):
    loaded = loaded_after(run_cli(["factorize", "--out", str(tmp_path / "fact")]))
    assert "wildgraph.loss" in loaded
    assert "wildgraph.theory" not in loaded


def test_unknown_name_raises_without_importing_the_lazy_modules():
    loaded = loaded_after(
        "import wildgraph\n"
        "try:\n"
        "    wildgraph.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert 'no_such_name' in str(exc)\n"
        "else:\n"
        "    raise SystemExit('no AttributeError')\n"
        "assert not hasattr(wildgraph, 'no_such_name')"
    )
    assert "wildgraph" in loaded
    assert not loaded & LAZY_MODULES


@pytest.mark.parametrize("name, module", [("matrix_loss", "loss"), ("loss", "loss"),
                                          ("closed_form", "theory"), ("theory", "theory")])
def test_a_lazy_name_loads_only_its_own_module(name, module):
    loaded = loaded_after(f"import wildgraph\nwildgraph.{name}")
    assert loaded & LAZY_MODULES == {f"wildgraph.{module}"}


def test_each_exported_name_is_its_submodule_object():
    submodules = (wildgraph.population, wildgraph.graph, wildgraph.spectral,
                  wildgraph.evaluation, wildgraph.loss, wildgraph.theory)
    for name in wildgraph.__all__:
        owners = [module for module in submodules if name in module.__all__]
        assert owners, f"{name} is in no submodule's __all__"
        for module in owners:
            assert getattr(wildgraph, name) is getattr(module, name), (name, module.__name__)


def test_all_is_the_ordered_union_of_the_submodules_lists():
    # Each submodule's __all__ is the one list of its public names; the
    # package adds none and drops none.
    from wildgraph import evaluation, graph, loss, population, spectral, theory

    union = [*population.__all__, *graph.__all__, *spectral.__all__, *evaluation.__all__,
             *loss.__all__, *theory.__all__]
    assert wildgraph.__all__ == list(dict.fromkeys(union))
    assert wildgraph.__all__.count("TheoryVariant") == 1


def test_lazy_lists_exactly_the_verification_layers_names():
    from wildgraph import loss, theory

    eager = {*wildgraph.population.__all__, *wildgraph.graph.__all__,
             *wildgraph.spectral.__all__, *wildgraph.evaluation.__all__}
    owners = {name: module.__name__.rsplit(".", 1)[1]
              for module in (loss, theory) for name in module.__all__ if name not in eager}
    assert wildgraph._LAZY == owners


def test_a_submodule_error_is_reachable_from_the_package():
    assert wildgraph.FactorizationError is wildgraph.spectral.FactorizationError
    huge = np.full((3, 3), 1e200)
    with pytest.raises(wildgraph.FactorizationError, match="iteration"):
        wildgraph.lowrank_factorize(huge, 2, wildgraph.FactorizerOptions(seed=0))


def test_all_lists_every_public_name_once():
    assert len(wildgraph.__all__) == len(set(wildgraph.__all__))
    public = {
        name
        for name, value in vars(wildgraph).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert public <= set(wildgraph.__all__)
    assert set(wildgraph.__all__) <= set(dir(wildgraph))
    assert {"loss", "theory"} <= set(dir(wildgraph))


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from wildgraph import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(wildgraph.__all__)


def test_readme_quickstart_runs():
    # The README's library quickstart, run as written: every name it uses
    # is public, and each of its assertions holds.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "wg." in block
    exec(compile(block, "README.md quickstart", "exec"), {})
