import ast
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "multinoise"


def test_no_module_imports_a_private_name_from_a_sibling():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("multinoise"):
                continue  # third-party or standard library
            offenders += [
                f"{path.name}: {node.module}.{alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert not offenders, offenders


def test_every_name_in_all_is_defined_in_its_module():
    undefined = []
    for path in sorted(SRC.glob("*.py")):
        name = "multinoise" if path.stem == "__init__" else f"multinoise.{path.stem}"
        module = importlib.import_module(name)
        for public in getattr(module, "__all__", ()):
            obj = vars(module).get(public, undefined)
            # functions and classes must come from this module, not be re-exported
            if obj is undefined or getattr(obj, "__module__", name) != name:
                undefined.append(f"{name}.{public}")
    assert not undefined, undefined


def test_only_shape_ops_knows_the_selection_matrices():
    # the reduced (svec) coordinate map lives behind shape_ops' helpers; the
    # package __init__ only re-exports it
    names = {"selection_matrices", "SelectionMatrices"}
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem in ("shape_ops", "__init__"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                offenders += [f"{path.name}: imports {a.name}" for a in node.names if a.name in names]
            elif isinstance(node, ast.Attribute) and node.attr in names:
                offenders.append(f"{path.name}: uses .{node.attr}")
    assert not offenders, offenders


def test_no_private_helper_has_a_parameter_its_body_never_reads():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p]
            read = {
                n.id
                for stmt in node.body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            offenders += [f"{path.name}: {node.name}({p})" for p in params if p not in read | {"self", "cls"}]
    assert not offenders, offenders
