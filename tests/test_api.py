"""Package surface: every exported name is reached inside src/, and README's example runs."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fadingdof"


def module_trees():
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}


def exported(tree) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def defined_names(node) -> set:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def test_every_exported_name_is_referenced_in_src():
    # a reference is a name or attribute use in any top-level statement other
    # than the name's own definition; imports and export lists do not count
    trees = module_trees()
    referenced = set()
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for stmt in tree.body:
            own = defined_names(stmt)
            if "__all__" in own:
                continue
            for n in ast.walk(stmt):
                name = n.id if isinstance(n, ast.Name) else getattr(n, "attr", None)
                if name is not None and name not in own:
                    referenced.add(name)
    unreached = [
        f"{module}.{name}"
        for module, tree in sorted(trees.items())
        for name in exported(tree)
        if name not in referenced
    ]
    assert not unreached, unreached


def test_package_reexports_only_module_exports():
    trees = module_trees()
    stray = [
        f"{node.module}.{alias.name}"
        for node in trees["__init__"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name not in exported(trees[node.module])
    ]
    assert not stray, stray


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == "3/2"
