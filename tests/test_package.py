import ast
import pathlib
import subprocess
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


REPO = pathlib.Path(__file__).resolve().parent.parent

# public names that nothing but the tests reads, each kept on purpose
TEST_ONLY_PUBLIC = {}


def _read_names(path):
    """Every name the module reads as code: a Name, an Attribute or an import."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
    return out


def _tracer_targets(path):
    """The attribute paths of the benchmark tracer's ENTRY_POINTS, split at dots."""
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "ENTRY_POINTS":
            for entry in node.value.elts:
                yield from entry.elts[1].value.split(".")


def test_every_public_name_has_a_reader_outside_the_tests():
    # a function or class that only tests read belongs in tests/oracles.py
    src = pathlib.Path(eisenfold.__file__).parent
    readers = set(_tracer_targets(REPO / "bench" / "tracing.py"))
    readers |= _read_names(REPO / "tests" / "test_acceptance.py")
    for path in [*src.glob("*.py"), *(REPO / "bench").glob("*.py")]:
        if path != src / "__init__.py":
            readers |= _read_names(path)
    unread = [
        f"{path.name}:{node.name}"
        for path in sorted(src.glob("*.py"))
        for node in ast.parse(path.read_text(), str(path)).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in readers | TEST_ONLY_PUBLIC.keys()
    ]
    assert unread == []


def test_the_library_does_not_import_the_oracles():
    modules = sorted(pathlib.Path(eisenfold.__file__).parent.glob("*.py"))
    assert not [
        (path.name, name)
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in [getattr(node, "module", None) or ""] + [a.name for a in node.names]
        if "oracles" in name.split(".")
    ]


def test_importing_the_library_loads_neither_dataclasses_nor_inspect():
    # each CLI command pays for what the import loads; the records are built
    # by eisenfold._record, and dataclasses would bring inspect, ast and dis
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(REPO / 'src')!r})\n"
        "import eisenfold, eisenfold.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    done = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                          capture_output=True, text=True, check=True, timeout=60)
    assert done.stdout.split() == ["[]"]


def test_every_module_reads_each_name_it_imports():
    # a name imported and never read is what a deleted check leaves behind
    src = pathlib.Path(eisenfold.__file__).parent
    unused = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.name}:{bound}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
            for bound in [alias.asname or alias.name.split(".")[0]]
            if bound not in read
        ]
    assert unused == []
