"""Only arith knows how a coefficient is inverted: every other module spells
inversion ``1 / c`` and never names the prime-field element type. The
Groebner layer has one term order and reads its pair budget from the
module, so none of its entry points takes an order or a budget. Monomials
are plain exponent tuples: no module wraps them in a class."""

import ast
import inspect
import pathlib

import slopelab
from slopelab import groebner

PACKAGE = pathlib.Path(slopelab.__file__).parent


def field_dispatch(path):
    """Lines of one module that branch on, or call into, the F_p element."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            func, args = node.func, node.args
            if (isinstance(func, ast.Name) and func.id == "hasattr"
                    and len(args) == 2 and isinstance(args[1], ast.Constant)
                    and args[1].value == "p"):
                hits.append((node.lineno, 'hasattr(..., "p")'))
            if isinstance(func, ast.Attribute) and func.attr == "inverse":
                hits.append((node.lineno, ".inverse()"))
        named = (node.id if isinstance(node, ast.Name)
                 else node.attr if isinstance(node, ast.Attribute)
                 else node.name if isinstance(node, ast.alias) else None)
        if named == "PrimeFieldElement":
            hits.append((getattr(node, "lineno", 0), "PrimeFieldElement"))
    return hits


def test_the_scan_sees_arith_itself():
    kinds = {kind for _, kind in field_dispatch(PACKAGE / "arith.py")}
    assert kinds == {".inverse()", "PrimeFieldElement"}


def test_no_module_but_arith_knows_the_field():
    found = {path.name: field_dispatch(path)
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "arith.py"}
    assert found and not any(found.values()), found


def test_groebner_takes_no_order_or_budget():
    assert not hasattr(groebner, "order_key")
    for entry in (groebner.buchberger, groebner.normal_form,
                  groebner.ideal_member, groebner.radical_member,
                  groebner.GroebnerBasis):
        params = set(inspect.signature(entry).parameters)
        assert not params & {"order", "budget"}, entry


def monomial_wrappers(source):
    """Lines of one module that define a Monomial class or read `.exps`."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and node.name == "Monomial":
            hits.append((node.lineno, "class Monomial"))
        if isinstance(node, ast.Attribute) and node.attr == "exps":
            hits.append((node.lineno, ".exps"))
    return hits


def test_monomials_are_not_wrapped():
    sample = "class Monomial:\n    pass\n\nkey = m.exps\n"
    assert monomial_wrappers(sample) == [(1, "class Monomial"), (4, ".exps")]
    found = {path.name: monomial_wrappers(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert found and not any(found.values()), found
    assert not hasattr(slopelab, "Monomial")
