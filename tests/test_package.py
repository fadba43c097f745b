"""The package's public surface: ``import fpiter`` and the README example."""

import ast
import dataclasses
import inspect
import re
from pathlib import Path

import pytest

import fpiter
from fpiter import algorithms, experiments, operators, schedules, space

MODULES = (algorithms, experiments, operators, schedules, space)
README = Path(__file__).resolve().parents[1] / "README.md"


def test_exports_are_the_modules_public_names():
    expected = [name for module in MODULES for name in module.__all__]
    assert fpiter.__all__ == expected
    assert len(set(expected)) == len(expected)
    assert "PROJECTION_MODES" in fpiter.__all__


def test_every_export_is_the_modules_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(fpiter, name) is getattr(module, name), name


def test_every_public_name_has_its_own_docstring():
    # read from the source, so a dataclass's generated signature or an
    # inherited docstring does not count; fields that hold functions (such
    # as Schedules.psi) are not definitions and are skipped
    missing = []
    for module in MODULES:
        defs = {
            node.name: node
            for node in ast.parse(inspect.getsource(module)).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        for name in module.__all__:
            node = defs.get(name)
            if node is None:  # a constant such as ALGORITHMS
                continue
            if not ast.get_docstring(node):
                missing.append(name)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    public = isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                    if public and not ast.get_docstring(item):
                        missing.append(f"{name}.{item.name}")
    assert missing == []


def test_deleted_names_stay_gone():
    gone = (
        "cq_step", "inertial_mann_step", "halfspace_from_cq_sets", "default_nu", "distance_metric"
    )
    for name in gone:
        assert not hasattr(fpiter, name), name
        assert all(not hasattr(module, name) for module in MODULES), name
    assert not hasattr(fpiter.Schedules(), "index_offset")
    assert [f.name for f in dataclasses.fields(fpiter.Operator)] == ["space", "func"]
    with pytest.raises(TypeError):
        fpiter.Operator(fpiter.EuclideanSpace(2), lambda x, out: x, name="x")
    assert not hasattr(fpiter.PeriodicGridSpace(8), "num_points")
    # a BallSet keeps its inputs; the cfp sweep's constants are bound by its caller
    assert [f.name for f in dataclasses.fields(fpiter.BallSet)] == ["centers", "radii"]
    balls = fpiter.BallSet([[0.0], [1.0], [-1.0]], [1.0, 1.0, 1.0])
    for name in ("inner_centers", "inner_radii", "inner_count", "outer_center", "outer_radius"):
        assert not hasattr(balls, name), name
    # a spec's space is its operator's, and details keep no copy of a size
    spec = fpiter.build_sfp(grid_points=8)
    assert spec.space is spec.operator.space
    assert "space" not in [f.name for f in dataclasses.fields(fpiter.ExperimentSpec)]
    with pytest.raises(TypeError):
        fpiter.ExperimentSpec(spec.id, spec.operator, spec.defaults, space=spec.space)
    assert "grid_points" not in spec.details
    assert not {"dim", "num_balls"} & fpiter.build_cfp().details.keys()


def test_readme_library_example_runs(capsys):
    text = README.read_text()
    section = text[text.index("Example library use:"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "fp.build_weber()" in code and 'fp.run("mimva"' in code
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    trace = namespace["trace"]
    assert trace.iterations >= 1
    assert capsys.readouterr().out.split()[0] == str(trace.iterations)
