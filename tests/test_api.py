import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import contrascale
from contrascale.datasets import medical_diagnosis
from contrascale.formats import dumps_cxt

# ``__main__`` runs the command line on import.
_MODULES = ["contrascale"] + [
    f"contrascale.{info.name}"
    for info in pkgutil.iter_modules(contrascale.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", _MODULES)
def test_all_names_exist_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)


# The package's ``__all__``, in order, as the package listed it when it
# imported every submodule up front.
_PUBLIC_NAMES = [
    "__version__", "FormalContext", "SubcontextSelection", "ClarificationMap",
    "ReductionTrace", "NotClarifiedError", "ContextParseError", "derive_attributes",
    "derive_objects", "complement", "clarify", "reduce_context", "pq_core",
    "apply_selection", "make_contranominal", "load_context", "save_context",
    "ContranominalScale", "ScaleCount", "ConflictGraph", "BipartiteGraph",
    "enumerate_scales", "count_scales", "max_dimension", "conflict_graph",
    "enumerate_bronkerbosch", "scales_from_clarified", "scales_from_reduced",
    "to_bipartite", "induced_matchings", "FormalConcept", "ConceptSet", "Implication",
    "ImplicationBase", "enumerate_concepts", "meet", "attribute_concept",
    "generated_sub_meet_semilattice", "is_boolean_suborder", "is_valid_implication",
    "canonical_base", "restrict_base_on_removal", "CubicSet", "AttributeInfluence",
    "InfluenceReport", "AdjustedSelection", "NotPreprocessedError", "cubic_sets",
    "influence", "select_attributes", "delta_adjust", "ExperimentConfig",
    "ExperimentResult", "sample_attributes", "decision_tree_accuracy",
    "run_knowledge_experiment", "run_structure_experiment", "benchmark_enumeration",
    "medical_diagnosis",
]


def test_all_is_unchanged():
    assert contrascale.__all__ == _PUBLIC_NAMES


def test_star_import_binds_each_name_to_its_defining_module():
    namespace: dict = {}
    exec("from contrascale import *", namespace)
    assert namespace["__version__"] == contrascale.__version__
    for name in _PUBLIC_NAMES[1:]:
        value = namespace[name]
        assert value.__module__.startswith("contrascale.")
        assert getattr(sys.modules[value.__module__], name) is value


def test_dir_lists_every_public_name():
    assert set(_PUBLIC_NAMES) <= set(dir(contrascale))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        contrascale.no_such_name


def _fresh_run(code: str) -> str:
    """Stdout of ``code`` in a fresh interpreter that imports the package from its source."""
    src = str(Path(contrascale.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        timeout=60, check=True,
    )
    return done.stdout


def _loaded_after(code: str) -> set[str]:
    """The package's submodules, ``fractions`` and ``csv``, that ``code`` leaves loaded."""
    report = (
        "\nimport sys\n"
        "print(*(m.removeprefix('contrascale.') for m in sys.modules"
        " if m.startswith('contrascale.') or m in ('fractions', 'csv')))"
    )
    return set(_fresh_run(code + report).split())


def test_from_package_import_submodule_returns_it():
    out = _fresh_run(
        "import sys, types\nfrom contrascale import adjust\n"
        "print(isinstance(adjust, types.ModuleType), adjust is sys.modules['contrascale.adjust'])"
    )
    assert out.split() == ["True", "True"]


def test_package_import_loads_no_submodule():
    assert _loaded_after("import contrascale") == set()


def test_cli_parser_loads_only_what_every_command_needs():
    loaded = _loaded_after("import contrascale.cli as cli\ncli.build_parser()")
    assert loaded == {"cli", "context", "formats"}


@pytest.fixture
def diagnosis_path(tmp_path):
    path = tmp_path / "diagnosis.cxt"
    path.write_text(dumps_cxt(medical_diagnosis()))
    return str(path)


def _loaded_by_command(*argv: str) -> set[str]:
    return _loaded_after(
        f"from contrascale.cli import main\nassert main({list(argv)!r}) == 0"
    )


@pytest.mark.parametrize(
    "argv", [["preprocess"], ["scales", "--count-only"]], ids=["preprocess", "scales"]
)
def test_walk_commands_leave_the_rest_unloaded(diagnosis_path, argv):
    loaded = _loaded_by_command(*argv, diagnosis_path, "-o", os.devnull)
    assert "cli" in loaded
    unused = {"adjust", "lattice", "bench", "tree", "rng", "datasets", "fractions"}
    assert loaded & unused == set()


@pytest.mark.parametrize(
    "argv",
    [
        ["preprocess"],
        ["convert", "--to", "cxt"],
        ["stats"],
        ["core", "-p", "1", "-q", "1"],
        ["concepts"],
        ["base"],
    ],
    ids=["preprocess", "convert-cxt", "stats", "core", "concepts", "base"],
)
def test_cxt_commands_leave_csv_and_the_scale_walk_unloaded(diagnosis_path, argv):
    loaded = _loaded_by_command(*argv, diagnosis_path, "-o", os.devnull)
    assert "cli" in loaded
    assert loaded & {"csv", "scales"} == set()


def test_csv_output_loads_csv_alone(diagnosis_path):
    loaded = _loaded_by_command("convert", "--to", "csv", diagnosis_path, "-o", os.devnull)
    assert "csv" in loaded and "scales" not in loaded


@pytest.mark.parametrize(
    "argv",
    [
        ["preprocess"],
        ["scales"],
        ["scales", "--count-only"],
        ["adjust", "--delta", "0.5"],
        ["influence"],
        ["stats", "--full"],
        ["concepts", "--count-only"],
        ["base", "--count-only"],
        ["convert", "--to", "csv"],
        ["stats"],
        ["core", "-p", "1", "-q", "1"],
        ["scales", "--pretty"],
        ["influence", "--pretty"],
        ["concepts"],
        ["base"],
        ["base", "--pretty"],
        ["experiment", "structure"],
        ["experiment", "knowledge", "--seed", "1", "--repetitions", "5"],
        ["bench"],
    ],
    ids=[
        "preprocess",
        "scales",
        "scales-count-only",
        "adjust",
        "influence",
        "stats-full",
        "concepts-count-only",
        "base-count-only",
        "convert",
        "stats",
        "core",
        "scales-pretty",
        "influence-pretty",
        "concepts",
        "base",
        "base-pretty",
        "experiment-structure",
        "experiment-knowledge",
        "bench",
    ],
)
def test_walk_and_adjust_commands_leave_dataclasses_unloaded(diagnosis_path, argv):
    # Every subcommand runs here, so no command of the package loads dataclasses.
    # The bundled context is clarified and reduced, as adjust, influence and
    # the experiments need.
    out = _fresh_run(
        "from contrascale.cli import main\n"
        f"assert main({[*argv, diagnosis_path, '-o', os.devnull]!r}) == 0\n"
        "import sys\nprint('dataclasses' in sys.modules)"
    )
    assert out.split() == ["False"]


def test_adjust_leaves_the_experiments_unloaded(diagnosis_path):
    loaded = _loaded_by_command("adjust", "--delta", "0.5", diagnosis_path, "-o", os.devnull)
    assert "adjust" in loaded
    assert loaded & {"lattice", "bench", "tree", "rng"} == set()
