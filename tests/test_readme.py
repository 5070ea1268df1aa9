"""README's library quick start runs as written and gives the values its comments state."""

import ast
import re
import warnings
from pathlib import Path

from reelab import ConvergenceWarning

README = Path(__file__).resolve().parent.parent / "README.md"

# an expression statement whose comment states a number: cut after the
# digits shown when "..." follows, else rounded to them
_STATED = re.compile(r"^(?P<expr>\S.*?)\s+#\s+(?P<value>-?\d+\.\d+)(?P<cut>\.\.\.)?")


def quick_start() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_runs_as_advertised():
    block = quick_start()
    namespace = {}
    values = {}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for node in ast.parse(block).body:
            if isinstance(node, ast.Expr):
                code = compile(ast.Expression(node.value), "README.md", "eval")
                values[ast.get_source_segment(block, node)] = eval(code, namespace)
            else:
                exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    # only the ConvergenceWarning of the max_iters=2 line
    assert [w.category for w in caught] == [ConvergenceWarning]
    stated = [m for m in map(_STATED.match, block.splitlines()) if m]
    assert [m["value"] for m in stated] == ["1.2075", "-0.2075", "-0.25", "0.18872", "0.18872"]
    for m in stated:
        got = values[m["expr"]]
        if m["cut"]:
            assert repr(got).startswith(m["value"]), (m["expr"], got)
        else:
            places = len(m["value"].split(".")[1])
            assert round(got, places) == float(m["value"]), (m["expr"], got)
    assert values["reelab.ppt_criterion(state).holds"] is False
    assert values["reelab.operator_monotone_search(LOG, 2, 100, seed=1)"] is None
