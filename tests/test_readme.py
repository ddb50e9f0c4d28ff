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


def defined_in(obj, module):
    """Whether ``obj``, if a function or class, is defined in ``module``;
    any other object passes."""
    return (not (inspect.isroutine(obj) or inspect.isclass(obj))
            or getattr(obj, "__module__", None) == module.__name__)


def resolves(name, scope=None):
    """Whether the dotted ``name`` is a member chain from a graphrec module
    (``graph.NodeRows``, ``graphrec.graph``) or class (``BipartiteGraph.blocks``)
    or, given a module ``scope``, from a name in that module, or is a member
    of one of its classes (``user_degrees`` in graph.py). A function or class
    named from a module must be defined there, not only imported there."""
    head, *rest = name.split(".")
    if head == "graphrec" and rest:
        head, *rest = rest
    module = MODULES.get(head)
    if module is not None and rest and not defined_in(getattr(module, rest[0], None), module):
        return False
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


def dotted_names(text):
    """The backticked dotted names in ``text`` whose head is a graphrec
    module or class, sorted."""
    names = set(re.findall(r"`((?:graphrec\.)?[A-Za-z_]\w*(?:\.\w+)+)`", text))
    return sorted(n for n in names if n.split(".")[0] in {*MODULES, *CLASSES, "graphrec"})


def test_readme_names_exist():
    named = dotted_names(README.read_text())
    assert len(named) >= 25
    assert [n for n in named if not resolves(n)] == []


def test_names_flag_a_function_a_module_only_imports():
    # train.py imports forward from model.py, so `train.forward` resolves
    # as an attribute but names the wrong module
    text = ("`model.forward`, `train.forward`, `graph.attribute_block`, "
            "`graphrec.train.TrainConfig`, `BipartiteGraph.blocks`, `evaluate.TARGETS`")
    assert [n for n in dotted_names(text) if not resolves(n)] == ["train.forward"]
    assert not resolves("train.forward", MODULES["cli"])


@pytest.mark.parametrize("module", sorted(MODULES))
def test_docstring_references_exist(module):
    text = Path(MODULES[module].__file__).read_text()
    refs = re.findall(r":(?:func|class|meth|attr|data):`~?([\w.]+)`", text)
    assert [r for r in refs if not resolves(r, MODULES[module])] == []


# a backticked call form, `name(args)`, and a keyword among its arguments
CALL = re.compile(r"`([A-Za-z_][\w.]*)\(([^`]*)\)`")
KEYWORD = re.compile(r"(?:^|,)\s*(\w+)=(?!=)")


def named_callable(name):
    """The graphrec function or class a call form names, or None: a dotted
    name is a member chain from a module or class; a bare one is what the
    package exports (its train() shadows the graphrec.train module), else
    what a module defines."""
    head, *rest = name.split(".")
    if rest:
        obj = MODULES.get(head) or CLASSES.get(head)
        for part in rest:
            obj = getattr(obj, part, None)
        return obj
    found = (getattr(scope, head, None) for scope in (graphrec, *MODULES.values()))
    return next((obj for obj in found if callable(obj)), None)


def call_keywords(text):
    """(call, keyword, whether the keyword is a parameter) for each keyword
    of each backticked call form in ``text`` that names a graphrec function
    or class."""
    for name, args in CALL.findall(text):
        obj = named_callable(name)
        if obj is not None:
            params = inspect.signature(obj).parameters
            yield from ((name, kw, kw in params) for kw in KEYWORD.findall(args))


def split_arguments(args):
    """The arguments of a call form's text, split at its top-level commas."""
    parts, depth, start = [], 0, 0
    for i, char in enumerate(args):
        depth += (char in "([{") - (char in ")]}")
        if char == "," and depth == 0:
            parts.append(args[start:i])
            start = i + 1
    return [part.strip() for part in parts + [args[start:]] if part.strip()]


def call_forms_bound(text):
    """(call, arguments, whether they bind to its signature) for each
    backticked call form in ``text`` that names a graphrec function or class
    and elides nothing with ``...``. Each argument is bound as written: a
    keyword by name, any other by position."""
    for name, args in CALL.findall(text):
        obj = named_callable(name)
        if obj is None or "..." in args:
            continue
        positional, keywords = [], {}
        for arg in split_arguments(args):
            keyword = re.match(r"(\w+)=(?!=)", arg)
            if keyword:
                keywords[keyword.group(1)] = arg
            else:
                positional.append(arg)
        try:
            inspect.signature(obj).bind_partial(*positional, **keywords)
            bound = True
        except TypeError:
            bound = False
        yield name, args, bound


def test_readme_call_forms_bind():
    # `sparsity_groups(dataset, ranking)` must fit sparsity_groups()
    found = list(call_forms_bound(README.read_text()))
    assert len(found) >= 10
    assert [(name, args) for name, args, bound in found if not bound] == []


def test_call_forms_flag_a_stale_form():
    # a positional argument too many is flagged by binding, an elided form
    # by its keywords only
    text = ("`sparsity_groups(dataset, ranking, default_bins(dataset))`, "
            "`load_interactions(path, keep=...)`, `sparsity_groups(dataset, ranking)`, "
            "`load_interactions(path, min_rating=4)`, `rank_and_score(trace, f(a, b), [10])`")
    assert list(call_forms_bound(text)) == [
        ("sparsity_groups", "dataset, ranking, default_bins(dataset)", False),
        ("sparsity_groups", "dataset, ranking", True),
        ("load_interactions", "path, min_rating=4", True),
        ("rank_and_score", "trace, f(a, b), [10]", True)]
    assert [(name, kw) for name, kw, known in call_keywords(text) if not known] == [
        ("load_interactions", "keep")]


def test_readme_call_keywords_exist():
    # `train(..., checkpoint_path=path)` must name a parameter of train()
    found = list(call_keywords(README.read_text()))
    assert len(found) >= 3
    assert [(name, kw) for name, kw, known in found if not known] == []


def test_call_keywords_flag_a_parameter_that_is_gone():
    text = ("`train(..., resume_from=load_checkpoint(path))`, "
            "`evaluate_model(..., hr_mode=)`, `train.epochs(dataset, config, state=None)`")
    assert list(call_keywords(text)) == [("train", "resume_from", False),
                                         ("evaluate_model", "hr_mode", False),
                                         ("train.epochs", "state", True)]


Pair = collections.namedtuple("Pair", "left right")


def test_has_member_of_a_namedtuple():
    # found as an attribute; a missing name falls through to the source scan
    assert has_member(Pair, "left")
    assert not has_member(Pair, "middle")
