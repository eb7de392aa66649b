"""Static hygiene of the package source: one index per module, one table of rules.

Each module is parsed once, with ``ast`` only, into an index of its nodes by owner: the dotted
name of the innermost def or class, ``None`` at module level. A ``RULES`` row matches sites in
the indexes, lists the entries that allow a site, and says whether an entry that allows none is
stale. Rule r runs as ``test_r``; its findings read ``(rule, module, owner, line, detail)``.
Each ``SELF_TESTS`` row shows rules finding the sites of a snippet.
"""

import ast
import functools
from pathlib import Path
from types import SimpleNamespace

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "czframe"
MODULES = sorted(SRC.glob("*.py"))
DEFS, FUNCTIONS = "FunctionDef AsyncFunctionDef ClassDef", "FunctionDef AsyncFunctionDef Lambda"
# The (module, top-level def) that may call kernel_matrix: discretize's dense backend and the
# dense oracle; svdvals: the oracle of the tail solves; _scale_rows: frame_rows alone, the one door
# to every row; frame_rows: analyze/synthesize, the decay fit, the analysis operator and the
# paraproduct; a lattice's _rows cache: frame_rows alone.
DENSE_ASSEMBLY = {("operators", "discretize"), ("compactness", "operator_matrix")}
DENSE_SVD = {("compactness", "singular_spectrum")}
ROW_BUILDS = {("wavelets", "frame_rows")}
FRAME_ROWS_CALLERS = {("wavelets", "analyze"), ("wavelets", "synthesize"),
                      ("localization", "verify_decay"), ("compactness", "analysis_operator"),
                      ("paraproducts", "paraproduct_operator")}
ROW_CACHE_READERS = {("wavelets", "frame_rows")}
GENERATOR_NAMES = {"psi", "phi"}  # frame_rows, analyze and synthesize take one as ``fn``
# rmatvec time-reverses a real Toeplitz column: it applies the conjugate of the column's FFT
# symbol, taken once when the operator is made.
COMPLEX_ALLOWED = {("operators", "DiscreteOperator.__init__", "conj()")}
# The tables that may spell a bound; the first argument of a record builder is a record's name.
BOUND_TABLES, RECORD_BUILDERS = {"CHECKS", "_COMPARATORS"}, {"record", "sweep"}
COMPARATOR_LITERALS = {"<=", "<", ">=", ">"}
# Each record-path construct and the functions that alone spell it (run_suite's error record
# bypasses CHECKS on purpose), then how each is spelled: (node kinds, test of a node).
RECORD_PATH = {"_record()": {"_Context.record"}, "record literal": {"_record", "run_suite"},
               "solver statistics": {"_Context.record"}, "convergence rule": {"_Context.record"},
               "R,value profile": {"_Context.sweep"}}
RECORD_SPELLINGS = {
    "_record()": ("_record()", bool),
    "record literal": ("Dict", lambda n: {"name", "verdict"} <= {_value(k) for k in n.keys}),
    "solver statistics": ("Constant", lambda n: n.value in {"iterations", "converged", "residual"}),
    "convergence rule": ("_solver_stats() all()", lambda n: _callee(n) == "_solver_stats"
                         or "converged" in map(_name, ast.walk(n))),
    "R,value profile": ("_profile()", lambda n: isinstance((n.args or [None])[0], ast.List)
                        and [_value(e) for e in n.args[0].elts] == ["R", "value"])}
CASE_COVERED = {"_diag_rk_tail", "_diag_weak_compactness"}  # read their operators from CHECKS
# _Context's methods, and run_suite, which empties the buffers and merges them into the Report.
BUFFER_WRITERS, BUFFERS = {"_Context", "run_suite"}, {"records", "profiles"}
MUTATORS = {"append", "extend", "insert", "update", "setdefault", "pop", "popitem", "clear",
            "remove", "__setitem__"}
TREND_LABELS = {"vanishing", "non-vanishing", "inconclusive"}
BUMP_PRIMITIVE = ("grids", "_exp_neg_inv")
BUMP_FUNCTIONS = {BUMP_PRIMITIVE, ("grids", "smooth_bump"), ("wavelets", "_bump_derivative"),
                  ("wavelets", "_transition"), ("wavelets", "bump_phi")}


def _name(node):
    """The ``id`` of a ``Name``, the ``attr`` of an ``Attribute``, else ``None``."""
    return getattr(node, "id", getattr(node, "attr", None))


def _value(node):
    return getattr(node, "value", None)


def _callee(node):
    """``f`` of a call ``f(...)`` or ``m.f(...)``, else ``None``."""
    return _name(getattr(node, "func", None))


def _top(owner):
    return owner and owner.split(".")[0]


@functools.lru_cache(maxsize=None)
def index(source):
    """``owners`` {owner: {kind: nodes}} of ``source``, and its module-level imports and names.

    A def is filed under its parent's owner, its arguments and body under its own name. A node's
    kinds are its class name and, for a call of f, ``"f()"``. A from-import on a line ending
    ``# noqa: F401`` binds no name.
    """
    tree, lines, owners = ast.parse(source), source.splitlines(), {}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            kinds, kind = owners.setdefault(owner, {}), type(child).__name__
            kinds.setdefault(kind, []).append(child)
            if kind == "Call":
                kinds.setdefault(f"{_callee(child)}()", []).append(child)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if owner is None else f"{owner}.{child.name}")
            else:
                visit(child, owner)

    visit(tree, None)
    values = {t.id: n.value for n in tree.body if isinstance(n, (ast.Assign, ast.AnnAssign))
              for t in getattr(n, "targets", None) or [n.target] if isinstance(t, ast.Name)}
    imported = {a.asname or a.name: (n.module, n.lineno) for n in tree.body
                if isinstance(n, ast.ImportFrom) and n.module != "__future__"
                and not lines[n.lineno - 1].endswith("# noqa: F401") for a in n.names}
    defs = [n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))]
    return SimpleNamespace(
        owners=owners, imported=imported, values=values, defined={*imported, *values, *defs},
        exported=[ast.literal_eval(e) for e in getattr(values.get("__all__"), "elts", [])],
        loaded={n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)})


def _sites(pkg, kinds, module=None):
    """(module, owner, node) of each node of the space-separated ``kinds`` in ``pkg``."""
    return [(m, o, n) for m, idx in pkg.items() if module in (None, m)
            for o, nodes in idx.owners.items() for kind in kinds.split() for n in nodes.get(kind, ())]


def _literal(pkg, module, name):
    value = pkg[module].values.get(name) if module in pkg else None
    return {} if value is None else ast.literal_eval(value)


def _held(pkg, tables):
    """The ids of the nodes of reporting's assignments to one of ``tables``."""
    return {id(n) for _, _, a in _sites(pkg, "Assign", "reporting")
            if {getattr(t, "id", None) for t in a.targets} & tables for n in ast.walk(a)}


def _params(fn):
    a = fn.args
    return [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]


def _reciprocal_exps(pkg):
    """Each owner calling ``exp`` on a reciprocal (``+-1 / x``, ``divide(+-1, x)``,
    ``reciprocal(x)``), or on a name that it assigns one to or passes as one's ``out=``."""
    def reciprocal(node):
        one = node.left if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div) else None
        if _callee(node) in ("divide", "true_divide"):
            one = (node.args or [None])[0]
        if isinstance(one, ast.UnaryOp) and isinstance(one.op, (ast.USub, ast.UAdd)):
            one = one.operand
        return _callee(node) == "reciprocal" or (
            type(_value(one)) in (int, float) and abs(one.value) == 1)

    for m, idx in pkg.items():
        for owner, kinds in idx.owners.items():
            held = {t.id for n in kinds.get("Assign", ()) if any(map(reciprocal, ast.walk(n.value)))
                    for t in n.targets if isinstance(t, ast.Name)}
            held |= {k.value.id for n in kinds.get("Call", ()) if reciprocal(n)
                     for k in n.keywords if k.arg == "out" and isinstance(k.value, ast.Name)}
            lines = [n.lineno for n in kinds.get("exp()", ()) if any(
                reciprocal(x) or getattr(x, "id", None) in held for a in n.args for x in ast.walk(a))]
            if lines:
                yield m, owner, min(lines), None


def _classifiers(pkg):
    held = _held(pkg, {"TRENDS"}) | {
        id(c.args[1]) for _, _, c in _sites(pkg, "next()", "reporting") if isinstance(c.func, ast.Name)
        and len(c.args) == 2 and "TRENDS" in [getattr(n, "id", None) for n in ast.walk(c.args[0])]}
    names = [(m, o, n.lineno, n.id) for m, o, n in _sites(pkg, "Name") if isinstance(n.ctx, ast.Store)]
    names += [(m, o, n.lineno, getattr(n, "arg", None) or n.name)
              for m, o, n in _sites(pkg, "arg " + DEFS)]
    return [(m, o, n.lineno, n.value) for m, o, n in _sites(pkg, "Constant")
            if n.value in TREND_LABELS and (m != "reporting" or id(n) not in held)] + [
        site for site in names if site[3].endswith("THRESHOLD")]


def _bounds(pkg):
    banned = COMPARATOR_LITERALS | set(_literal(pkg, "config", "DEFAULT_TOLERANCES"))
    builders = " ".join(f"{b}()" for b in RECORD_BUILDERS)
    held = _held(pkg, BOUND_TABLES) | {id(c.args[0]) for _, _, c in _sites(pkg, builders, "reporting")
                                       if isinstance(c.func, ast.Attribute) and c.args}
    reads = [(m, o, n.lineno, "cfg.tol()") for m, o, n in _sites(pkg, "tol()", "reporting")
             if _name(_value(n.func)) == "cfg"]
    return [(m, o, n.lineno, n.value) for m, o, n in _sites(pkg, "Constant", "reporting")
            if isinstance(n.value, str) and n.value in banned and id(n) not in held] + (
        [] if len(reads) == 1 else reads or [("reporting", None, None, "no cfg.tol()")])


def _output_path(pkg):
    def buffer(node):
        return isinstance(node, ast.Attribute) and node.attr in BUFFERS

    def writes(n):
        if isinstance(n, ast.Call):
            return (isinstance(n.func, ast.Attribute) and n.func.attr in MUTATORS
                    and buffer(n.func.value))
        return any(buffer(e) or (isinstance(e, ast.Subscript) and buffer(e.value))
                   for t in getattr(n, "targets", None) or [n.target]
                   for e in (t.elts if isinstance(t, ast.Tuple) else [t]))

    returns = [(m, o, n.lineno, "return") for m, o, n in _sites(pkg, "Return", "reporting")
               if n.value and o and "." not in o
               and (o.startswith("_diag_") or o == "_carleson_profiles")]
    return returns + [(m, _top(o), n.lineno, "write") for m, o, n in _sites(
        pkg, "Assign AugAssign AnnAssign Delete Call", "reporting") if writes(n)]


def _open_cones(pkg):
    sites = [(m, _top(o), n.lineno, None) for m, o, n in _sites(pkg, "Compare", "carleson")
             if [type(op) for op in n.ops] == [ast.Lt] and _callee(n.left) == "abs"
             and [type(getattr(a, "op", None)) for a in n.left.args] == [ast.Sub]]
    owners = {site[1] for site in sites}
    if len(owners) == 1 and None not in owners:
        sites = []
    elif not sites:
        sites = [("carleson", None, None, "no open cone")]
    return sites + [(m, o, n.lineno, n.name) for m, o, n in _sites(pkg, DEFS, "carleson")
                    if n.name == "_cone_mask"]


def _calls(callee):
    """The matcher of the calls of ``callee``, each at its top-level def."""
    return lambda pkg: [(m, _top(o), n.lineno, None) for m, o, n in _sites(pkg, f"{callee}()")]


# rule: (matcher of (module, owner, line, detail) sites, allow-list entries (module, owner or
# owners[, detail]), whether an entry that allows no site is stale); the first six run per module.
RULES = {
    # A module-level from-import is used, re-exported, or kept with # noqa: F401.
    "no_unused_from_imports": (lambda pkg: [
        (m, None, line, f"{name} (from {mod})") for m, idx in pkg.items() for name, (mod, line)
        in idx.imported.items() if name not in idx.loaded and name not in idx.exported], (), False),
    # Every __all__ entry is defined in its module.
    "all_entries_are_defined": (lambda pkg: [(m, None, None, name) for m, idx in pkg.items()
                                             for name in set(idx.exported) - idx.defined], (), False),
    # No **kwargs: every parameter a caller may pass is named.
    "no_function_declares_kwargs": (lambda pkg: [
        (m, o, fn.lineno, f"{getattr(fn, 'name', 'lambda')}(**{fn.args.kwarg.arg})")
        for m, o, fn in _sites(pkg, FUNCTIONS) if fn.args.kwarg], (), False),
    # The frame generators are fixed in wavelets: no parameter or dataclass field is psi or phi.
    "no_function_or_field_takes_a_generator": (lambda pkg: [
        (m, o, p.lineno, f"{getattr(fn, 'name', 'lambda')}({p.arg})")
        for m, o, fn in _sites(pkg, FUNCTIONS) for p in _params(fn) if p.arg in GENERATOR_NAMES] + [
        (m, o, f.lineno, f"{c.name}.{f.target.id}") for m, o, c in _sites(pkg, "ClassDef")
        if "dataclass" in [_name(getattr(d, "func", d)) for d in c.decorator_list] for f in c.body
        if isinstance(f, ast.AnnAssign) and getattr(f.target, "id", None) in GENERATOR_NAMES],
        (), False),
    # Sampled data is real: no complex(), conj(), .real, .imag or abs(x)**2 (bitwise x * x).
    "no_complex_arithmetic": (lambda pkg: [
        (m, o, n.lineno, f"{_callee(n)}()") for m, o, n in _sites(pkg, "complex() conj()")] + [
        (m, o, n.lineno, f".{n.attr}") for m, o, n in _sites(pkg, "Attribute")
        if n.attr in ("real", "imag")] + [
        (m, o, n.lineno, "abs()**2") for m, o, n in _sites(pkg, "BinOp") if isinstance(n.op, ast.Pow)
        and _callee(n.left) in ("abs", "absolute") and _value(n.right) == 2],
        COMPLEX_ALLOWED, True),
    # A tail ratio is classified by its CHECKS bounds alone: labels only in TRENDS, no *THRESHOLD.
    "one_tail_classifier": (_classifiers, (), False),
    # Every other kernel application goes through operators.discretize.
    "dense_kernel_assembly_is_confined": (_calls("kernel_matrix"), DENSE_ASSEMBLY, True),
    "dense_svd_is_confined": (_calls("svdvals"), DENSE_SVD, True),  # the one dense SVD
    "frame_row_builder_is_confined": (_calls("_scale_rows"), ROW_BUILDS, True),  # built one way
    # Every other pairing, with psi or the bump phi, goes through analyze/synthesize.
    "frame_rows_callers_are_confined": (_calls("frame_rows"), FRAME_ROWS_CALLERS, True),
    "frame_row_cache_is_confined": (lambda pkg: [(m, _top(o), n.lineno, None) for m, o, n
                                                 in _sites(pkg, "Attribute") if n.attr == "_rows"],
                                    ROW_CACHE_READERS, True),
    # reporting spells a bound only in BOUND_TABLES, and reads cfg.tol( once, in _record.
    "bounds_live_only_in_checks": (_bounds, (), False),
    # One record path; _record takes no case; CASE_COVERED diagnostics spell no operator label.
    "one_record_path": (lambda pkg: [
        (m, o, n.lineno, kind) for kind, (kinds, keep) in RECORD_SPELLINGS.items()
        for m, o, n in _sites(pkg, kinds, "reporting") if keep(n)] + [
        (m, "_record", p.lineno, "case") for m, o, fn in _sites(pkg, "FunctionDef", "reporting")
        if o is None and fn.name == "_record" for p in _params(fn) if p.arg == "case"] + [
        (m, _top(o), n.lineno, "label") for m, o, n in _sites(pkg, "Tuple List Set", "reporting")
        if _top(o) in CASE_COVERED and n.elts and all(type(_value(e)) is str for e in n.elts)
        and {e.value for e in n.elts} & {key[1] for key in _literal(pkg, "reporting", "CHECKS")
                                         if isinstance(key, tuple)}],
        [("reporting", owners, kind) for kind, owners in RECORD_PATH.items()], True),
    # _Context is the one output path: no diagnostic returns a value or writes a buffer.
    "context_is_the_one_output_path": (_output_path, [("reporting", BUFFER_WRITERS, "write")], False),
    # One function of carleson spells the open cone abs(x - b) < a; no _cone_mask is defined.
    "one_open_cone_convention": (_open_cones, (), False),
    "one_bump_primitive": (_reciprocal_exps, [BUMP_PRIMITIVE], True),  # exp(-1/t) in one place
    # The bump functions built on it are defined, evaluate every point and index nothing.
    "bump_functions_index_nothing": (lambda pkg: [
        (m, _top(o), n.lineno, None) for m, o, n in _sites(pkg, "Subscript")
        if (m, _top(o)) in BUMP_FUNCTIONS] + [
        (m, f, None, "undefined") for m, f in BUMP_FUNCTIONS
        - {(m, fn.name) for m, o, fn in _sites(pkg, "FunctionDef") if o is None}], (), False),
}


def check(rule, pkg, allowed=None):
    """``rule``'s sorted findings in ``pkg`` {module: index}: each site no entry allows, and each
    entry that allows no site if stale ones count. ``allowed`` replaces the rule's entries."""
    match, entries, stale = RULES[rule]
    entries = [(e[0], {e[1]} if isinstance(e[1], str) else e[1], e[2] if len(e) > 2 else None)
               for e in (entries if allowed is None else allowed)]
    sites = list(match(pkg))
    hits = [[s for s in sites if s[0] == m and s[1] in owners and d in (None, s[3])]
            for m, owners, d in entries]
    found = [(rule, *s) for s in sites if not any(s in h for h in hits)]
    found += [(rule, m, ", ".join(sorted(owners)), None, f"stale {d}" if d else "stale")
              for (m, owners, d), h in zip(entries, hits) if stale and not h]
    return sorted(found, key=repr)


def _rule_test(rule):
    def test(path):
        found = check(rule, {p.stem: index(p.read_text()) for p in MODULES})
        assert not (found := [f for f in found if path in (None, f[1])]), found

    if rule in list(RULES)[:6]:
        return pytest.mark.parametrize("path", [p.stem for p in MODULES], ids="{}.py".format)(test)
    return lambda: test(None)


def _self_test(rows):
    def test():
        for snippet, expected, *allowed in rows:
            pkg, first = {m: index(s) for m, s in snippet.items()}, next(iter(snippet))
            allowed = dict(*allowed)
            for rule, found in expected.items():
                assert check(rule, pkg, allowed.get(rule)) == sorted(
                    [(rule, *f) if len(f) == 4 else (rule, first, *f) for f in found], key=repr)
    return test


def test_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "reporting.py", "geometry.py"}
    # A per-module test sees only its module's findings, so every entry must name a module.
    assert {e[0] for _, entries, _ in RULES.values() for e in entries} <= {p.stem for p in MODULES}


# name: rows (snippet {module: source}, {rule: findings (module, owner, line, detail), or without
# module in the snippet's first}[, {rule: the allow-list entries it runs with}])
SELF_TESTS = {
    "an_unused_import_and_a_stale_export": [({"m": """from .geometry import dist, mul
from .grids import smooth_bump  # noqa: F401
__all__ = ['gone']
def f():
    return mul
"""}, {"no_unused_from_imports": [(None, 1, "dist (from geometry)")],
       "all_entries_are_defined": [(None, None, "gone")]})],
    "kwargs_declarations": [({"m": """def f(a, *args, seed=0):
    return g(a, **opts)
def g(a, **opts):
    h = lambda **kw: kw
class C:
    async def m(self, **kw):
        pass
"""}, {"no_function_declares_kwargs": [
        (None, 3, "g(**opts)"), ("g", 4, "lambda(**kw)"), ("C", 6, "m(**kw)")]})],
    "generator_declarations": [({"m": """def f(kernel, psi, grid):
    return lambda x, *, phi=None: x
@dataclass
class D:
    symbol: object
    phi: object
class C:
    psi = None
    def m(self, fn, /, *psi):
        pass
@dataclasses.dataclass(frozen=True)
class E:
    psi: object = None
def analyze(f, fn, fgrid):
    phi = fn
"""}, {"no_function_or_field_takes_a_generator": [(None, 1, "f(psi)"), ("f", 2, "lambda(phi)"),
                                                  (None, 6, "D.phi"), ("C", 9, "m(psi)"),
                                                  (None, 13, "E.psi")]})],
    "complex_arithmetic": [({"m": """v = complex(inner_product(f, g)).real
def pair(f, g):
    k = conjugate(kernel, g)
    return np.sum(f * np.conj(g)), np.iscomplexobj(f)
def energy(v):
    return np.sum(np.abs(v) ** 2), abs(v) ** 3, np.abs(v * v), v**2
class Op:
    real = None
    def rmatvec(self, x):
        return np.real(x), x.imag, self.symbol.conj()
"""}, {"no_complex_arithmetic": [
        (None, 1, ".real"), (None, 1, "complex()"), ("pair", 4, "conj()"), ("energy", 6, "abs()**2"),
        ("Op.rmatvec", 10, ".imag"), ("Op.rmatvec", 10, ".real"), ("Op.rmatvec", 10, "conj()")]},
        {"no_complex_arithmetic": ()})],
    "a_paraproduct_taking_frame_rows": [({"paraproducts": """\
def paraproduct_apply(symbol, f, phi, psi):
    return frame_rows(phi, symbol.fgrid, f.grid) @ f.values
def paraproduct_operator(symbol, phi, psi, grid):
    return wavelets.frame_rows(psi, symbol.fgrid, grid)
"""}, {"frame_rows_callers_are_confined": [
        ("paraproduct_apply", 2, None), ("wavelets", "analyze", None, "stale"),
        ("wavelets", "synthesize", None, "stale"), ("localization", "verify_decay", None, "stale"),
        ("compactness", "analysis_operator", None, "stale")]})],
    "a_second_row_builder": [({"wavelets": """def frame_rows(fn, fgrid, grid):
    return _scale_rows(fn, fgrid, grid)
def analyze(f, fn, fgrid):
    return _scale_rows(fn, fgrid, f.grid) @ f.values
"""}, {"frame_row_builder_is_confined": [("analyze", 4, None)]})],
    "a_second_row_cache_reader": [({"localization": """def verify_decay(kernel, fgrid, grid):
    return fgrid._rows.get((psi, grid))
"""}, {"frame_row_cache_is_confined": [("verify_decay", 2, None),
                                       ("wavelets", "frame_rows", None, "stale")]})],
    "kernel_matrix_calls": [({"m": """K = kernel_matrix(k, g)
def f():
    return operators.kernel_matrix(k, g) * h
class C:
    def m(self):
        return kernel_matrix
"""}, {"dense_kernel_assembly_is_confined": [(None, 1, None), ("f", 3, None)]},
        {"dense_kernel_assembly_is_confined": ()})],
    # Module m is allowed its calls; in n they are stray and its entries stale, as is o's.
    "stray_calls_and_stale_entries": [(dict.fromkeys("mn", """def dense(k, g):
    return kernel_matrix(k, g)
def fast(k, g):
    return discretize(k, g)
def spectrum(A):
    return scipy.linalg.svdvals(A)
"""), {"dense_kernel_assembly_is_confined": [
        ("n", "dense", 2, None), ("n", "fast", None, "stale"), ("o", "gone", None, "stale")],
       "dense_svd_is_confined": [("n", "spectrum", 6, None), ("n", "dense", None, "stale")]},
        {"dense_kernel_assembly_is_confined": {("m", "dense"), ("n", "fast"), ("o", "gone")},
         "dense_svd_is_confined": {("m", "spectrum"), ("n", "dense")}})],
    "an_inline_bound": [({"reporting": """\
CHECKS = {'carleson_constant': (('x', '<=', 'carleson_constant'),)}
_COMPARATORS = {'<=': le, '<': lt}
def _diag(cfg):
    rec = ctx.record('carleson_constant', None, {})
    swept = ctx.sweep('carleson_constant', 'x', [0.0], [1.0], {}, 'csv')
    inline = ctx.record('x', None, {}, ('metric', '<', 'parseval'))
    return rec, swept, inline, _record(cfg, 'carleson_constant', None, {}, {})
""", "config": "DEFAULT_TOLERANCES = {'parseval': 0.02, 'carleson_constant': 1.0}\n"},
        {"bounds_live_only_in_checks": [("_diag", 6, "<"), ("_diag", 6, "parseval"),
                                        ("_diag", 7, "carleson_constant"),
                                        (None, None, "no cfg.tol()")]})],
    "a_second_tolerance_read": [(
        {"reporting": "def _record(cfg, ctx):\n    return cfg.tol('a'), ctx.cfg.tol('b')\n"},
        {"bounds_live_only_in_checks": [("_record", 2, "cfg.tol()")] * 2})],
    "a_second_record_path": [({"reporting": """class _Context:
    def record(self, name, operator, values, solve):
        it, converged, res = solve
        ok = np.all(converged) and all(values)
        return _record(self.cfg, name, operator, {**values, 'iterations': it}, {})
    def sweep(self, name, tf, radii, prof):
        return self.record(name, None, {}), _profile(['R', 'value'], radii, prof)
def _record(cfg, name, operator, values, grid_meta):
    return {'name': name, 'verdict': 'PASS', **values}
def _diag_rk_tail(ctx):
    for label in ('hilbert', 'finite_rank'):
        rec = _record(ctx.cfg, 'rk_tail', label, {**_solver_stats(tf)}, {})
    ok = tf.converged.all() and all(ok) and label in ['zero']
    return [rec, {'name': 'x', 'verdict': 'FAIL'}], {
        'x': _profile(['R', 'value'], r, v), 'w': _profile(['x', 'value'], x, w),
        'v': {'verdict': 'FAIL', 'residual': res.residual}}
def _diag_power(ctx):
    ctx.record('p', None, {}, ok=bool(np.all(res.converged)))
CHECKS = {('rk_tail', 'hilbert'): (), ('rk_tail', 'zero'): ()}
"""}, {"one_record_path": [
        ("_diag_rk_tail", 12, "_record()"), ("_diag_rk_tail", 12, "convergence rule"),
        ("_diag_rk_tail", 13, "convergence rule"), ("_diag_rk_tail", 14, "record literal"),
        ("_diag_rk_tail", 15, "R,value profile"), ("_diag_rk_tail", 16, "solver statistics"),
        ("_diag_power", 18, "convergence rule"), ("_diag_rk_tail", 11, "label"),
        ("_diag_rk_tail", 13, "label")]}),
        ({"reporting": "def f(ctx):\n    return _record(ctx)\n"}, {"one_record_path": [
            ("f", 2, "_record()")] + [(", ".join(sorted(owners)), None, f"stale {kind}")
                                      for kind, owners in RECORD_PATH.items()]})],
    "a_case_argument": [({"reporting": "def _record(cfg, name, operator, values, case):\n    pass\n"},
                         {"one_record_path": [("_record", 1, "case")]}, {"one_record_path": ()})],
    "a_label_in_a_case_covered_diagnostic": [({"reporting": """CHECKS = {('rk_tail', 'zero'): ()}
def _diag_rk_tail(ctx):
    ctx.sweep('rk_tail', ('zero', 'hilbert'))
"""}, {"one_record_path": [("_diag_rk_tail", 3, "label")]}, {"one_record_path": ()})],
    "a_second_output_path": [({"reporting": """class _Context:
    def __init__(self):
        self.records, self.profiles = [], {}
    def profile(self, name, cols):
        self.profiles[name] = cols
def run_suite(ctx, report):
    ctx.records = []
    report.records.extend(ctx.records)
    return report
def _diag_a(ctx):
    def inner():
        return 1
    ctx.record('a', None, {})
    return
def _diag_b(ctx):
    ctx.records.append({})
    return [], {}
def _carleson_profiles(ctx):
    ctx.profiles['x'] = {}
    return ctx.records
def _helper(ctx, report):
    ctx.records += [1]
    report.profiles.update({})
    ctx.records, other = [], 0
    del ctx.profiles['x']
    return sorted(ctx.profiles), ctx.records[0]
"""}, {"context_is_the_one_output_path": [
        ("_carleson_profiles", 20, "return"), ("_diag_b", 17, "return"),
        ("_carleson_profiles", 19, "write"), ("_diag_b", 16, "write"), ("_helper", 22, "write"),
        ("_helper", 23, "write"), ("_helper", 24, "write"), ("_helper", 25, "write")]})],
    "open_cone_tests": [({"carleson": """def _cone_mask(x, fgrid):
    return np.abs(x - fgrid.b) < fgrid.a
def carleson_function(mu, x):
    tent = np.abs(mu.b - x) <= mu.a
    near = abs(x - 1.0) > 2.0
    return [b for b in mu.b if abs(x - b) < mu.a[0]]
inside = np.abs(x + b) < a
"""}, {"one_open_cone_convention": [("_cone_mask", 2, None), ("carleson_function", 6, None),
                                    (None, 1, "_cone_mask")]})],
    "a_second_classifier": [(dict.fromkeys(("reporting", "m"), """VANISHING_THRESHOLD = 1e-2
TRENDS = {'rk_tail': (('vanishing', 'finite_rank'), ('non-vanishing', 'hilbert'))}
def tail_verdict(values, NON_VANISHING_THRESHOLD=0.1):
    if values[0] <= 0.0:
        return 'vanishing'
    return next(iter(values), 'inconclusive')
def _record(name, ok):
    return next((label for label, c in TRENDS[name] if ok), 'inconclusive')
class TREND_THRESHOLD:
    pass
"""), {"one_tail_classifier": [
        ("tail_verdict", 5, "vanishing"), ("tail_verdict", 6, "inconclusive"),
        ("m", None, 2, "vanishing"), ("m", None, 2, "non-vanishing"),
        ("m", "tail_verdict", 5, "vanishing"), ("m", "tail_verdict", 6, "inconclusive"),
        ("m", "_record", 8, "inconclusive")] + [
        (m, o, line, name) for m in ("reporting", "m") for o, line, name in [
            (None, 1, "VANISHING_THRESHOLD"), ("tail_verdict", 3, "NON_VANISHING_THRESHOLD"),
            (None, 9, "TREND_THRESHOLD")]]})],
    "a_second_bump": [({"m": """def e(t, out):
    np.divide(-1.0, np.fmax(t, tiny, out=out), out=out)
    return np.exp(out, out=out)
def theta_prime(x):
    d = 1.0 - x * x
    out = np.divide(-1.0, d, out=np.empty_like(d))
    return np.exp(out, out=out) * (-2.0 * x / (d * d))
class Step:
    def g(self, t):
        return exp(-(1 / t)) + t
def zoo(x):
    c = 1.0 / math.pi
    return math.exp(-2.0) * c, np.exp(-x * x) / (1.0 + x)
def outer(t):
    def inner(s):
        r = np.reciprocal(s)
        return math.exp(-r)
    return np.exp(t), -1.0 / t
v = np.exp(-1 / x)
"""}, {"one_bump_primitive": [("e", 3, None), ("theta_prime", 7, None), ("Step.g", 10, None),
                              ("outer.inner", 17, None), (None, 19, None)]},
        {"one_bump_primitive": ()})],
    "an_indexing_bump": [({"grids": "def smooth_bump(x):\n    return np.exp(-x[1:])\n"}, {
        "bump_functions_index_nothing": [("smooth_bump", 2, None)] + [
            (m, f, None, "undefined") for m, f in BUMP_FUNCTIONS - {("grids", "smooth_bump")}]})],
}
# One test per rule and per self-test case: test_<rule>, over each module (test_<rule>[<module>.py])
# for the first six rules, and test_checker_sees_<case>.
for _rule in RULES:
    globals()[f"test_{_rule}"] = _rule_test(_rule)
for _case, _rows in SELF_TESTS.items():
    globals()[f"test_checker_sees_{_case}"] = _self_test(_rows)
