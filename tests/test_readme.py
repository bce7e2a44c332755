"""The README's Python API tour runs and prints the values its comments state."""

import ast
import pathlib

import numpy as np
import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _tour_values() -> dict:
    """Run the tour's code block; map each bare expression's source to its value."""
    section = README.read_text().split("## Python API tour", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    shown = {}
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), str(README), "eval")
            shown[ast.get_source_segment(block, stmt)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), str(README), "exec"), namespace)
    return shown


def test_tour_values_match_its_comments():
    tour = _tour_values()
    assert tour["cert.depth"] == pytest.approx(2.0 / 3.0, abs=1e-15)
    np.testing.assert_allclose(tour["cert.atom_weights"], [0.25, 0.75], atol=1e-15)
    np.testing.assert_array_equal(tour["cert.dual_direction.vec"], [1.0])
    assert tour["cert.to_json_dict()"] == {
        "depth": pytest.approx(2.0 / 3.0, abs=1e-15), "status": "interior", "dual_direction": [1.0],
        "max_weight_ratio": 1.5, "iterations": 1, "bound_flips": 0, "dual_degenerate": False,
    }
    assert tour["support_trimmed(mu, q)"] == 1.0
    np.testing.assert_array_equal(tour["trimmed_boundary_point(mu, q)"], [1.0])
    assert tour["mu.project(u.vec).tail_mean(0.5)"] == 1.0
    assert tour["mu.project(u.vec).tail_mean_level(0.5)"] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert tour["res.halfspace.offset"] == -1.0
    assert tour["res.alpha"] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert tour["res.unique"] is False
    assert tour["gaussian_depth(g, [radius(0.25), 0.0])"] == pytest.approx(0.25, abs=1e-15)
    np.testing.assert_allclose(tour["g.halfspace_barycenter(rr.halfspace)"], [0.5, 0.0], atol=1e-15)
