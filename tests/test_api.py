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


def references(node, kinds=(ast.Name, ast.Attribute)) -> set:
    """Names and attributes node uses outside the definitions of the names it defines.

    A class counts its members one by one, so a method or property that only
    refers to itself is not referenced.
    """
    if isinstance(node, ast.ClassDef):
        parts = [*node.bases, *node.keywords, *node.decorator_list, *node.body]
        return set().union(*(references(part, kinds) for part in parts)) - {node.name}
    used = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node) if isinstance(n, kinds)}
    return used - defined_names(node)


def src_references(kinds=(ast.Name, ast.Attribute)) -> set:
    # imports and export lists do not count
    return {
        name
        for module, tree in module_trees().items()
        if module != "__init__"
        for stmt in tree.body
        if "__all__" not in defined_names(stmt)
        for name in references(stmt, kinds)
    }


def test_every_exported_name_is_referenced_in_src():
    referenced = src_references()
    unreached = [
        f"{module}.{name}"
        for module, tree in sorted(module_trees().items())
        for name in exported(tree)
        if name not in referenced
    ]
    assert not unreached, unreached


def test_every_public_member_of_an_exported_class_is_referenced_in_src():
    # members are reached as attributes, so a local variable of the same name does not count
    referenced = src_references(kinds=(ast.Attribute,))
    unreached = [
        f"{module}.{node.name}.{member.name}"
        for module, tree in sorted(module_trees().items())
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name in exported(tree)
        for member in node.body
        if isinstance(member, ast.FunctionDef)
        and not member.name.startswith("_")
        and member.name not in referenced
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
