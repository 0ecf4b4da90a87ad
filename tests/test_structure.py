"""Only arith knows how a coefficient is inverted: every other module spells
inversion ``1 / c`` and never names the prime-field element type. The
Groebner layer's entry points work in grevlex, but for local_basis, which
alone uses the private local degree order, and the pair budget is read
from the module, so none of them takes an order or a budget. Monomials are
plain exponent tuples: no module wraps them in a class. A presented local
ring owns its Groebner bases, so nu and nubar take no cache, and nu
against m is one division, with no search over the powers of m. Division
takes its leading term off a heap, never from a scan. Each route is
picked in one place: kernel_lambda takes the point, and hord_report the
fiber degree, so the command line and the corpus name neither route and
never ask which kind of point they hold. A p-presentation is one monic
polynomial in the one fiber variable, with p read from the ring. One
check admits a germ for hord, so MultiplicityBelowDegree is raised in
one place, and only arith's field handles take the exponent of the
characteristic in an integer. The Samuel slope takes one route, nubar's
limit route, so samuel_slope takes no certificate and no switch for its
search, and its complement variables come from the one echelon routine.
The input picks the kernel's route, so kernel_lambda takes no method, and
it alone builds a KernelReport, which classifies every route the same way.
The slope reads its elimination order off the exponents, so elimpres
builds no list of elimination generators. The input picks nubar's exact
route, so its strategy choices are auto and limit, and nubar_monomial,
ValuationCertificate.validate and ValuationCertificate.evaluate call the
one weight helper, which closure_member, the independent route, does
not. Each kind of value from outside the program has one check, in the
library type that holds it: samuel._check_cap for caps, PointSpec for
points, arith for the characteristic and for weights and claimed values,
which ValuationCertificate reads with arith.rational, so the job loader
checks only the shape of its JSON and converts no number itself. A
certificate is one list of (weights, value) pairs, with no valuation
type of its own: cli imports nothing from newton, Job.__init__ never
reads the certificates section, and only the nubar command asks the job
for the certificate it names. One
answer type, arith.Bounds, carries the label of nu, nubar and the Samuel
slope: no other class defines it, and only the benchmark reads its old
names. Every name the benchmark's tracer patches still exists. One path
leads from a job file to an exit code: cli.main alone loads the job,
reads --json and --require-exact, and the command line names no cap
default, so the library's are the only ones. A presented local ring owns
its tangent data: its tangent-cone method alone refuses a dimension, and
it alone passes its relations to _linear_part_rows, for the one span of
their linear parts that m/m^2 is read against; arith alone reduces one
row by a multiple of another, so _modulo_linear_parts is gone. No
function takes a parameter it never reads, except the shared signature
of the job commands, cmd_<name>(job, args), and the rational field's
char_exponent(n), which is 0 whatever n is. Each elimpres report is built
once and stores only what its computation decided: no statement outside
__init__ assigns an attribute there, hord, degenerate, passed and
inconclusive are read-only properties, and a theorem check's verdict is a
stored string. Every divisor the Groebner layer divides by is an (lm, g)
entry with g monic, so only _monic_lead divides and a reduction step
never does."""

import ast
import importlib
import inspect
import pathlib
import textwrap

import slopelab
from slopelab import arith, cli, elimpres, groebner, newton, samuel

PACKAGE = pathlib.Path(slopelab.__file__).parent
ROOT = pathlib.Path(__file__).parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


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
    for entry in (groebner.buchberger, groebner.local_basis,
                  groebner.normal_form, groebner.radical_member,
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


def test_the_presentation_owns_the_bases():
    assert not hasattr(samuel, "_PowerCache")
    assert list(inspect.signature(samuel.nu).parameters) == [
        "presentation", "f", "cap"]
    assert "_cache" not in inspect.signature(samuel.nubar).parameters


def test_nu_searches_no_power_of_m():
    assert not hasattr(samuel, "_in_power")
    assert "floor" not in inspect.signature(samuel._orders).parameters


def called_names(function):
    """Names of the plain functions a function's body calls."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    return {node.func.id for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}


def scanned_lead(terms):
    """A leading term found by a scan, the control for the check below."""
    return max(terms)


def test_division_scans_for_no_largest_term():
    assert "max" in called_names(scanned_lead)  # the scan sees a max
    called = called_names(groebner._reduce)
    assert "heappop" in called and "max" not in called


def division_sites(source):
    """Names of the top-level functions and classes of one module whose
    bodies hold a `/`, "<module>" for one outside them."""
    sites = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                    node.op, ast.Div):
                sites.append(getattr(top, "name", "<module>"))
    return sites


def test_every_divisor_is_a_monic_pair():
    sample = "def f(a):\n    return 1 / a\n\nb = f(2) / 3\n"
    assert division_sites(sample) == ["f", "<module>"]
    assert division_sites(inspect.getsource(groebner)) == ["_monic_lead"]
    assert not hasattr(groebner, "leading")
    assert not hasattr(groebner, "_grevlex")
    for char in (0, 5):
        ring = slopelab.Ring(("x", "y", "z"), char)
        ideal = groebner.IdealPresentation(ring, [
            ring.parse(text) for text in ("2*x^2 - 3*y^3", "3*x*y - z^2")])
        for basis in (groebner.buchberger(ideal),
                      groebner.local_basis(ideal, 6)):
            assert basis.leads
            for lm, g in basis.leads:
                assert g.terms[lm] == ring.field.one


def route_picks(source):
    """Lines of one module that name a route of the kernel or of hord, or
    read the kind of a point."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        named = (node.id if isinstance(node, ast.Name)
                 else node.attr if isinstance(node, ast.Attribute)
                 else node.name if isinstance(node, ast.alias) else None)
        if named in ("tschirnhausen_ord", "kernel_lambda_at_prime"):
            hits.append((getattr(node, "lineno", 0), named))
        if isinstance(node, ast.Attribute) and node.attr == "kind":
            hits.append((node.lineno, ".kind"))
    return hits


def test_one_place_picks_each_route():
    sample = ("from .elimpres import tschirnhausen_ord\n"
              "if at.kind == 'prime':\n"
              "    samuel.kernel_lambda_at_prime(A, at.variables)\n")
    assert {kind for _, kind in route_picks(sample)} == {
        "tschirnhausen_ord", ".kind", "kernel_lambda_at_prime"}
    found = {name: route_picks((PACKAGE / name).read_text())
             for name in ("cli.py", "corpus.py")}
    assert not any(found.values()), found
    assert not hasattr(slopelab, "kernel_lambda_at_prime")
    assert not hasattr(samuel, "kernel_lambda_at_prime")


def test_a_p_presentation_is_one_fiber_polynomial():
    for gone in ("Fiber", "_apply_cleaning", "elimination_algebra",
                 "elimination_generators"):
        assert not hasattr(elimpres, gone), gone
    assert not hasattr(elimpres.PointSpec, "contains_all")
    for entry in (elimpres.build_p_presentation, elimpres.PPresentation):
        assert "p" not in inspect.signature(entry).parameters, entry
    names = {node.id if isinstance(node, ast.Name) else node.attr
             if isinstance(node, ast.Attribute) else node.name
             for node in ast.walk(ast.parse(inspect.getsource(elimpres)))
             if isinstance(node, (ast.Name, ast.Attribute, ast.alias))}
    assert "is_prime" not in names


def raisers(source, error):
    """Names of the functions of one module that raise the error."""
    return {func.name for func in ast.walk(ast.parse(source))
            if isinstance(func, ast.FunctionDef)
            for node in ast.walk(func)
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
            and isinstance(node.exc.func, ast.Name)
            and node.exc.func.id == error}


def test_one_check_admits_a_germ():
    found = {path.name: raisers(path.read_text(), "MultiplicityBelowDegree")
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: funcs for name, funcs in found.items() if funcs} \
        == {"elimpres.py": {"_admit"}}


def p_adic_loops(source):
    """Lines of one module that loop while an integer is divisible."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.While)
            and any(isinstance(op, ast.Mod) for op in ast.walk(node.test))]


def test_only_the_field_takes_the_exponent_of_the_characteristic():
    assert p_adic_loops("while n % p == 0:\n    n //= p\n") == [1]
    assert len(p_adic_loops((PACKAGE / "arith.py").read_text())) == 1
    found = {path.name: p_adic_loops(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "arith.py"}
    assert found and not any(found.values()), found


def test_the_slope_search_takes_one_route_and_one_elimination():
    assert list(inspect.signature(samuel.samuel_slope).parameters) == [
        "presentation", "candidates", "max_n"]
    assert "echelon" in called_names(samuel._complement_variables)


def callers(source, name):
    """Names of the functions of one module whose bodies call name."""
    return {func.name for func in ast.walk(ast.parse(source))
            if isinstance(func, ast.FunctionDef)
            for node in ast.walk(func)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == name}


def test_the_input_picks_the_kernel_route():
    sample = "def route(A):\n    return KernelReport([], 0, 'partial')\n"
    assert callers(sample, "KernelReport") == {"route"}
    assert list(inspect.signature(samuel.kernel_lambda).parameters) == [
        "presentation", "prime"]
    assert callers((PACKAGE / "samuel.py").read_text(), "KernelReport") \
        == {"kernel_lambda"}


def choices(source, check):
    """The constant choices each call of check in the source offers."""
    return [ast.literal_eval(node.args[2])
            for node in ast.walk(ast.parse(textwrap.dedent(source)))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == check]


def test_the_input_picks_the_nubar_route():
    sample = "def f(s):\n    _check_choice('kind', s, ('a', 'b'))\n"
    assert choices(sample, "_check_choice") == [("a", "b")]
    assert choices(inspect.getsource(samuel.nubar), "_check_choice") \
        == [("auto", "limit")]
    helper = "least_weight_ratio"
    for function in (newton.nubar_monomial,
                     samuel.ValuationCertificate.validate,
                     samuel.ValuationCertificate.evaluate):
        assert helper in called_names(function), function
    assert helper not in called_names(newton.closure_member)


def test_each_outside_value_has_one_check():
    sources = {path.name: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}

    def holders(text):
        return [name for name, source in sources.items() if text in source]

    assert not hasattr(cli, "_positive_int")
    assert holders("must be a positive integer") == ["samuel.py"]
    assert holders("point vars need kind prime") == ["elimpres.py"]
    assert "Fraction(" not in sources["cli.py"]
    assert "ExtendedRational" not in sources["cli.py"]
    for function in (samuel.ValuationCertificate.__init__, samuel._weights):
        assert "Fraction" not in called_names(function), function
    for function in (samuel._weights, arith.ExtendedRational.__init__):
        assert "rational" in called_names(function), function


def test_only_the_nubar_command_reads_a_certificate():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert sources and not any("MonomialValuation" in s for s in sources)
    cli_tree = ast.parse((PACKAGE / "cli.py").read_text())
    imported = {node.module for node in ast.walk(cli_tree)
                if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in ast.walk(cli_tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 for alias in node.names}
    assert "newton" not in imported and "slopelab.newton" not in imported
    init = ast.parse(textwrap.dedent(inspect.getsource(cli.Job.__init__)))
    assert "certificates" not in {node.value for node in ast.walk(init)
                                  if isinstance(node, ast.Constant)}
    assert "certificates" not in {node.attr for node in ast.walk(cli_tree)
                                  if isinstance(node, ast.Attribute)}
    callers = {function.name for function in ast.walk(cli_tree)
               if isinstance(function, ast.FunctionDef)
               for node in ast.walk(function)
               if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute)
               and node.func.attr == "certificate"}
    assert callers == {"cmd_nubar"}


def test_every_traced_name_resolves():
    # run the tracer's source rather than importing it, so nothing is
    # written next to it
    tracing = {"__name__": "tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), tracing)
    names = [(mod, None, attr) for mod, attr, _ in tracing["FUNCTIONS"]]
    names += [entry[:3] for entry in tracing["METHODS"]]
    names += [entry[:3] for entry in tracing["COUNTED"]]
    missing = []
    for mod, cls, attr in names:
        owner = importlib.import_module("slopelab." + mod)
        if cls is not None:
            owner = owner.__dict__.get(cls)
        if attr not in getattr(owner, "__dict__", {}):
            missing.append((mod, cls, attr))
    assert names and not missing, missing


LABELS = ("status", "exact", "at_least", "lower_bound", "capped")
OLD_NAMES = ("at_least", "lower_bound")


def label_holders(source):
    """(class, name) for each label name a class of one module defines as
    a method, assigns in its body or on an attribute, or lists in its
    slots."""
    hits = set()
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in ast.walk(cls):
            if isinstance(node, ast.FunctionDef):
                names = [node.name]
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Store):
                names = [node.attr]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets
                         if isinstance(t, ast.Name)]
                if names == ["__slots__"]:
                    names = [c.value for c in ast.walk(node.value)
                             if isinstance(c, ast.Constant)]
            else:
                continue
            hits.update((cls.name, name) for name in names if name in LABELS)
    return hits


def old_name_reads(source, exempt=None):
    """Lines of one module that read .at_least or .lower_bound, outside the
    function named exempt."""
    tree = ast.parse(source)
    skipped = {id(node) for func in ast.walk(tree)
               if isinstance(func, ast.FunctionDef) and func.name == exempt
               for node in ast.walk(func)}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in OLD_NAMES
            and id(node) not in skipped]


def test_one_answer_type_carries_the_label():
    sample = ("class R:\n"
              "    __slots__ = ('capped',)\n"
              "    exact = True\n"
              "    def status(self):\n"
              "        self.at_least = r.lower_bound\n")
    assert label_holders(sample) == {("R", "capped"), ("R", "exact"),
                                     ("R", "status"), ("R", "at_least")}
    found = {path.name: label_holders(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert found["samuel.py"] == set()
    assert {(name, cls, label) for name, hits in found.items()
            for cls, label in hits if label in ("exact", "status")} \
        == {("arith.py", "Bounds", "exact"), ("arith.py", "Bounds", "status")}
    assert not hasattr(samuel, "NuValue")
    for result in (samuel.NubarResult, samuel.SlopeResult):
        assert result.__bases__ == (arith.Bounds,), result


def test_only_the_benchmark_reads_the_old_label_names():
    exempt = "test_bounds_keep_the_names_the_benchmark_reads"
    pinning = (ROOT / "tests" / "test_arith.py").read_text()
    assert old_name_reads(pinning) and exempt in pinning
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "demos").glob(
        "*.py")) + sorted((ROOT / "tests").glob("*.py"))
    found = {path.name: old_name_reads(path.read_text(), exempt)
             for path in files}
    assert len(found) > 20 and not any(found.values()), found


def readers(source):
    """(function, what) for each read of args.json or args.require_exact
    and each call of Job.load in one module, by the function it is in."""
    hits = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name):
                if node.value.id == "args" \
                        and node.attr in ("json", "require_exact"):
                    hits.add((func.name, "args." + node.attr))
                if node.value.id == "Job" and node.attr == "load":
                    hits.add((func.name, "Job.load"))
    return hits


def test_main_alone_turns_a_job_into_output_and_an_exit_code():
    sample = ("def cmd(args):\n"
              "    job = Job.load(args.job)\n"
              "    return 2 if args.require_exact else args.json\n")
    assert readers(sample) == {("cmd", "Job.load"),
                               ("cmd", "args.require_exact"),
                               ("cmd", "args.json")}
    source = (PACKAGE / "cli.py").read_text()
    assert readers(source) == {("main", "Job.load"),
                               ("main", "args.require_exact"),
                               ("main", "args.json")}
    names = {node.id if isinstance(node, ast.Name) else node.attr
             if isinstance(node, ast.Attribute) else node.name
             for node in ast.walk(ast.parse(source))
             if isinstance(node, (ast.Name, ast.Attribute, ast.alias))}
    assert not {name for name in names if name.endswith("_DEFAULT")}


def unread_parameters(source):
    """(qualified function name, parameter) for each parameter of a
    function of one module that its body never reads; self and cls are
    not counted."""
    hits = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name + ".")
            elif isinstance(child, ast.FunctionDef):
                a = child.args
                params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                          + [v for v in (a.vararg, a.kwarg) if v]]
                read = {n.id for n in ast.walk(child)
                        if isinstance(n, ast.Name)
                        and isinstance(n.ctx, ast.Load)}
                hits.update((owner + child.name, p) for p in params
                            if p not in read and p not in ("self", "cls"))
                visit(child, owner + child.name + ".")
            else:
                visit(child, owner)

    visit(ast.parse(source), "")
    return hits


def test_no_function_takes_a_parameter_it_never_reads():
    sample = ("class C:\n"
              "    def f(self, a, b):\n"
              "        def g(c):\n"
              "            return b\n"
              "        a = 1\n"
              "        return g\n")
    assert unread_parameters(sample) == {("C.f", "a"), ("C.f.g", "c")}
    allowed = {("arith.py", "RationalField.char_exponent", "n")}
    found = {(path.name, func, param)
             for path in sorted(PACKAGE.glob("*.py"))
             for func, param in unread_parameters(path.read_text())}
    # the job commands share one signature, cmd_<name>(job, args)
    found = {(name, func, param) for name, func, param in found
             if not (name == "cli.py" and func.startswith("cmd_")
                     and param in ("job", "args"))}
    assert found == allowed


def row_reductions(source):
    """Lines of one module that subtract a multiple of one row from
    another, as a - c * b over a zip of the two rows."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            continue
        elt = node.elt
        if isinstance(elt, ast.BinOp) and isinstance(elt.op, ast.Sub) \
                and isinstance(elt.right, ast.BinOp) \
                and isinstance(elt.right.op, ast.Mult) \
                and any(isinstance(gen.iter, ast.Call)
                        and isinstance(gen.iter.func, ast.Name)
                        and gen.iter.func.id == "zip"
                        for gen in node.generators):
            hits.append(node.lineno)
    return hits


def test_arith_alone_reduces_rows():
    assert not hasattr(samuel, "_modulo_linear_parts")
    sample = ("row = [a - c * b for a, b in zip(row, lin)]\n"
              "gap = [a - b for a, b in zip(m, common)]\n")
    assert row_reductions(sample) == [1]
    found = {path.name: row_reductions(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name for name, lines in found.items() if lines} == {"arith.py"}


def top_functions(source):
    """(class name or None, function) for each function defined at the top
    of one module or of one of its classes; nested functions count as
    part of the function that holds them."""
    tree = ast.parse(source)
    scopes = [(None, tree.body)] + [(node.name, node.body)
                                    for node in tree.body
                                    if isinstance(node, ast.ClassDef)]
    return [(owner, func) for owner, body in scopes for func in body
            if isinstance(func, ast.FunctionDef)]


def relation_row_readers(source):
    """(class, function) for each call of _linear_part_rows on an argument
    that names the relations."""
    return {(owner, func.name) for owner, func in top_functions(source)
            for node in ast.walk(func)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "_linear_part_rows"
            and any(isinstance(a, ast.Attribute) and a.attr == "relations"
                    for arg in node.args for a in ast.walk(arg))}


def test_the_presentation_alone_reads_its_cotangent_space():
    sample = ("def f(A):\n"
              "    return _linear_part_rows(A.relations.generators, R)\n")
    assert relation_row_readers(sample) == {(None, "f")}
    found = {path.name: relation_row_readers(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} \
        == {"samuel.py": {("LocalRingPresentation", "linear_span")}}


def dimension_refusals(source):
    """Names of the module-level functions and methods of one module that
    raise NotApplicable with a message about the dimension."""
    return {func.name for _, func in top_functions(source)
            for node in ast.walk(func)
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
            and isinstance(node.exc.func, ast.Name)
            and node.exc.func.id == "NotApplicable"
            and any(isinstance(c, ast.Constant) and "dimension" in str(c.value)
                    for c in ast.walk(node.exc))}


def test_the_tangent_cone_alone_refuses_a_dimension():
    sample = ("class A:\n"
              "    def dimension(self):\n"
              "        def check():\n"
              "            raise NotApplicable('no dimension for %s' % 1)\n"
              "        raise NotApplicable('regular')\n")
    assert dimension_refusals(sample) == {"dimension"}
    found = {path.name: dimension_refusals(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: funcs for name, funcs in found.items() if funcs} \
        == {"samuel.py": {"tangent_cone"}}


def attribute_writes(source):
    """(function, attribute) for each attribute that a statement of one
    module assigns, or setattr sets, outside every __init__."""
    tree = ast.parse(source)
    inside = {id(node) for func in ast.walk(tree)
              if isinstance(func, ast.FunctionDef) and func.name == "__init__"
              for node in ast.walk(func)}
    hits = set()
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if id(node) in inside:
                continue
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Store):
                hits.add((func.name, node.attr))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "setattr":
                hits.add((func.name, "setattr"))
    return hits


def test_no_elimpres_statement_writes_to_a_built_report():
    sample = ("class R:\n"
              "    def __init__(self):\n"
              "        self.hord = None\n"
              "def clean(r):\n"
              "    r.transcript, r.hord = [], 1\n"
              "    setattr(r, 'case', 'A')\n")
    assert attribute_writes(sample) == {("clean", "transcript"),
                                        ("clean", "hord"),
                                        ("clean", "setattr")}
    assert attribute_writes((PACKAGE / "elimpres.py").read_text()) == set()


def test_hord_degenerate_passed_and_inconclusive_are_derived():
    derived = {(elimpres.SlopeReport, "hord"),
               (elimpres.SlopeReport, "degenerate"),
               (elimpres.CheckReport, "passed"),
               (elimpres.CheckReport, "inconclusive")}
    for cls, name in derived:
        found = inspect.getattr_static(cls, name, None)
        assert isinstance(found, property) and found.fset is None, name


def test_a_theorem_check_stores_its_verdict():
    assert not callable(getattr(elimpres.CheckReport, "verdict", None))
    report = elimpres.CheckReport("pass", "smooth", applicable=False)
    assert report.verdict == "pass" and not callable(report.verdict)
