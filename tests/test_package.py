"""Rules that hold for the source of every module under src/ncrf."""

import ast
from pathlib import Path

import ncrf

CONCURRENCY_MODULES = {"threading", "concurrent", "multiprocessing"}
ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


def test_no_module_reads_the_environment_or_imports_concurrency():
    # a worker pool or an environment knob is a second, user-selected code
    # path; one comes back only with a measurement that shows it pays
    found = []
    for path in sorted(Path(ncrf.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module or ""]
                if node.module == "os":
                    found += [f"{where}: os.{a.name}" for a in node.names
                              if a.name in ENVIRONMENT_NAMES]
            else:
                modules = []
            found += [f"{where}: imports {m}" for m in modules
                      if m.split(".")[0] in CONCURRENCY_MODULES]
            if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_NAMES
                    and isinstance(node.value, ast.Name) and node.value.id == "os"):
                found.append(f"{where}: os.{node.attr}")
    assert found == []


def test_no_module_calls_id_or_imports_weakref():
    # a tensor's identity on the tape is its key; id() repeats once an
    # object dies, and working round that is what the key replaced
    found = []
    for path in sorted(Path(ncrf.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module or ""]
            else:
                modules = []
            found += [f"{where}: imports {m}" for m in modules if m.split(".")[0] == "weakref"]
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "id"):
                found.append(f"{where}: calls id()")
    assert found == []
