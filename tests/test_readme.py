"""The README's documented usage runs as written, and the names it and the
package's docstrings give resolve in the package."""

import collections
import functools
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import graphrec

README = Path(__file__).resolve().parents[1] / "README.md"
# modules by import path: the package's train() shadows graphrec.train
MODULES = {info.name: importlib.import_module(f"graphrec.{info.name}")
           for info in pkgutil.iter_modules(graphrec.__path__)}
CLASSES = {name: obj for module in MODULES.values()
           for name, obj in vars(module).items()
           if inspect.isclass(obj) and obj.__module__ == module.__name__}


def test_quick_start_runs():
    section = README.read_text().split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    report = namespace["report"]
    assert 0.0 <= report.hr[10] <= 1.0 and report.per_field


@functools.cache
def _source(cls):
    """The source of the class ``cls``, or "" where it cannot be found (a
    class made by ``collections.namedtuple`` has no class statement)."""
    try:
        return inspect.getsource(cls)
    except OSError:
        return ""


def has_member(obj, name):
    """Whether ``name`` is an attribute of ``obj``, a field of a dataclass
    ``obj``, or an attribute a method of the class ``obj`` sets on self."""
    return (hasattr(obj, name) or name in getattr(obj, "__dataclass_fields__", ())
            or inspect.isclass(obj)
            and re.search(rf"\bself\.{name}\s*=", _source(obj)) is not None)


def resolves(name, scope=None):
    """Whether the dotted ``name`` is a member chain from a graphrec module
    (``graph.NodeRows``, ``graphrec.graph``) or class (``BipartiteGraph.blocks``)
    or, given a module ``scope``, from a name in that module, or is a member
    of one of its classes (``user_degrees`` in graph.py)."""
    head, *rest = name.split(".")
    if head == "graphrec" and rest:
        head, *rest = rest
    for root in (MODULES.get(head), CLASSES.get(head), getattr(scope, head, None)):
        obj = root
        for part in rest:
            if not has_member(obj, part):
                break
            obj = getattr(obj, part, None)
        else:
            if root is not None:
                return True
    return scope is not None and not rest and any(
        has_member(cls, head) for cls in CLASSES.values() if cls.__module__ == scope.__name__)


def test_readme_names_exist():
    # every backticked dotted name whose head is a graphrec module or class
    names = set(re.findall(r"`((?:graphrec\.)?[A-Za-z_]\w*(?:\.\w+)+)`", README.read_text()))
    named = sorted(n for n in names if n.split(".")[0] in {*MODULES, *CLASSES, "graphrec"})
    assert len(named) >= 25
    assert [n for n in named if not resolves(n)] == []


@pytest.mark.parametrize("module", sorted(MODULES))
def test_docstring_references_exist(module):
    text = Path(MODULES[module].__file__).read_text()
    refs = re.findall(r":(?:func|class|meth|attr|data):`~?([\w.]+)`", text)
    assert [r for r in refs if not resolves(r, MODULES[module])] == []


Pair = collections.namedtuple("Pair", "left right")


def test_has_member_of_a_namedtuple():
    # found as an attribute; a missing name falls through to the source scan
    assert has_member(Pair, "left")
    assert not has_member(Pair, "middle")
