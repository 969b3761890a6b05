"""Properties of the library source itself."""

import ast
import doctest
import importlib
from pathlib import Path

import weakorder

SRC = Path(weakorder.__file__).resolve().parent
BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_no_invariant_rests_on_assert():
    # python -O strips assert statements, so every check must raise
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# the root-set codec in coxeter.py: the only code that packs or unpacks bits
CODEC = {"_pack_words", "_unpack_words", "bits_to_words", "words_to_bits", "_word_keys"}
BIT_FORMAT = {"packbits", "unpackbits", "from_bytes", "to_bytes"}


def test_bit_packing_stays_in_the_root_set_codec():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {
            line
            for node in ast.walk(tree)
            if path.name == "coxeter.py"
            and isinstance(node, ast.FunctionDef)
            and node.name in CODEC
            for line in range(node.lineno, node.end_lineno + 1)
        }
        found += [
            f"{path.name}:{node.lineno} .{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in BIT_FORMAT
            and node.lineno not in allowed
        ]
    assert found == []


# exact ring products and signs in coxeter.py stay where W-equivariance cannot
# reach: the roots and their order, the int64 check and the rank x n_roots base
# cones; the simple rows are one integer product with 2B, and the rest of act
# and of the cone table are gathers
EXACT_ARITHMETIC = {"times", "signs"}
EXACT_CALLERS = {
    "RootTable.__init__", "RootTable._generate", "RootTable._order",
    "_narrow", "_base_cones",
}


def test_exact_arithmetic_stays_in_the_root_and_base_cone_steps():
    tree = ast.parse((SRC / "coxeter.py").read_text(encoding="utf-8"))
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in EXACT_ARITHMETIC
                and scope not in EXACT_CALLERS
            ):
                found.append(f"coxeter.py:{child.lineno} {scope} .{child.func.attr}")
            visit(child, scope)

    visit(tree, "")
    assert found == []


def test_docstring_examples_run():
    failed, attempted = 0, 0
    for path in sorted(SRC.glob("*.py")):
        name = "weakorder" if path.stem == "__init__" else f"weakorder.{path.stem}"
        result = doctest.testmod(importlib.import_module(name))
        failed += result.failed
        attempted += result.attempted
    assert failed == 0
    assert attempted >= 15


def test_public_names_resolve_once():
    names = weakorder.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(weakorder, name)]
    assert missing == []


def test_every_name_the_benchmark_tracer_wraps_exists(monkeypatch):
    # a renamed helper would drop its per-layer metric from traced runs
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    with tracer.installed():
        pass
    assert tracer.absent == []
