"""Run the interpreter with every block generated, and check the sources.

``every_block_generated()`` patches ``HOT_BLOCK_EXECUTIONS`` to 1, so a
block's first execution generates its function (``repro.sim.blockgen``)
and runs it, and records each source generated meanwhile;
``check_source`` holds a source to the rule that keeps client assembly
out of it: int, ``True``/``False``/``None`` and register-group constants
only, and no name, attribute or function the generator does not write.
"""

import ast
import contextlib
import re
from unittest import mock

from repro.sim import blockgen, interp
from repro.x86.registers import ALL_GROUPS

_NAMES = re.compile(r"(?:[sex]\d+|interp|state|gp|f|xmm|read|write|a|b|r"
                    r"|res|v|sa|product|rip|taken|_PARITY)\Z")
_ATTRIBUTES = {"state", "gp", "flags", "xmm", "memory", "read", "write",
               "CF", "OF", "AF", "ZF", "SF", "PF"}
_GROUPS = frozenset(ALL_GROUPS)


def check_source(text):
    """Assert that a generated source holds only what the generator may
    write: one ``block_<hex>(interp)`` function whose constants are ints,
    ``True``, ``False``, ``None`` and register-group names."""
    tree = ast.parse(text)
    (function,) = tree.body
    assert isinstance(function, ast.FunctionDef)
    assert re.match(r"block_[0-9a-f]+\Z", function.name), function.name
    assert [arg.arg for arg in function.args.args] == ["interp"]
    for node in ast.walk(function):
        if isinstance(node, ast.Constant):
            value = node.value
            assert value is None or type(value) in (bool, int) \
                or (type(value) is str and value in _GROUPS), (value, text)
        elif isinstance(node, ast.Name):
            assert _NAMES.match(node.id), (node.id, text)
        elif isinstance(node, ast.Attribute):
            assert node.attr in _ATTRIBUTES, (node.attr, text)
        else:
            assert not isinstance(node, (ast.JoinedStr, ast.FunctionDef,
                                         ast.Lambda, ast.Import,
                                         ast.ImportFrom)) \
                or node is function, text


@contextlib.contextmanager
def every_block_generated():
    """Generate each block's function at its first execution; yields the
    list of sources generated, each checked on the way out."""
    sources = []
    source = blockgen.source

    def recording(*args):
        text, names = source(*args)
        sources.append(text)
        return text, names

    with mock.patch.object(interp, "HOT_BLOCK_EXECUTIONS", 1), \
            mock.patch.object(blockgen, "source", recording):
        yield sources
    for text in sources:
        check_source(text)
