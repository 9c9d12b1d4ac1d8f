import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "linecov.py"
_spec = importlib.util.spec_from_file_location("linecov", TOOL)
linecov = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(linecov)

TOY = '''\
"""A toy module."""


def pick(x):
    """Its docstring."""
    if x:
        return "never"
    return (
        "always")


pick(0)
'''


def test_only_the_branch_that_never_runs_is_reported(tmp_path):
    path = tmp_path / "toy.py"
    path.write_text(TOY)
    code = compile(TOY, str(path), "exec")
    with linecov.LineRecorder(tmp_path) as recorder:
        exec(code, {})
    ran = recorder.hits[str(path)]
    assert linecov.never_ran(TOY, ran) == [7]
    assert [line for line, _ in linecov.statements(TOY)] == [6, 7, 8, 12]
