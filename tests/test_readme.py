"""README's library example stays true.

The code block of the ``## Library`` section is run statement by
statement.  An expression statement followed by a line that is only a
``# value`` comment must evaluate to that value.
"""

import ast
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    text = README.read_text().split("\n## Library\n", 1)[1]
    return text.split("```python\n", 1)[1].split("```", 1)[0]


def test_the_library_example_gives_its_commented_values():
    source = library_block()
    lines = source.splitlines()
    namespace = {}
    checked = 0
    for node in ast.parse(source).body:
        following = lines[node.end_lineno:node.end_lineno + 1]
        if (isinstance(node, ast.Expr) and following
                and following[0].startswith("# ")):
            value = eval(compile(ast.Expression(node.value), str(README),
                                 "eval"), namespace)
            expected = ast.literal_eval(following[0][2:])
            assert value == expected, (ast.unparse(node), following[0])
            checked += 1
        else:
            exec(compile(ast.Module([node], type_ignores=[]), str(README),
                         "exec"), namespace)
    assert checked == 3
