import ast
import pathlib
import sys

import eisenfold


def test_root_exports():
    assert eisenfold.__version__ == "0.1.0"
    z = eisenfold.EisensteinInt(2, 3)
    assert eisenfold.is_primitive(z)
    assert eisenfold.cf_fold_count(2, 3) == 23
    assert callable(eisenfold.cli_main)
    assert callable(eisenfold.eta_limit_numeric)
    assert callable(eisenfold.render_svg)


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_runtime_imports_only_the_standard_library():
    # pyproject declares dependencies = []; an installed third-party package
    # must not slip into src/
    modules = sorted(pathlib.Path(eisenfold.__file__).parent.glob("*.py"))
    assert len(modules) > 10
    foreign = [
        (path.name, name)
        for path in modules
        for name in _absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names | {"eisenfold"}
    ]
    assert foreign == []
