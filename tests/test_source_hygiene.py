"""Static hygiene of the package source: no unused imports, no stale exports.

Parsed with ``ast`` only, so the check needs no linter. A name bound by a
module-level ``from .x import y`` must be used in the module or re-exported
through its ``__all__``, unless its line carries ``# noqa: F401`` (the
pyflakes marker for an import kept on purpose); every ``__all__`` entry must
be defined there.  A dense N x N ``kernel_matrix`` is assembled only where
``DENSE_ASSEMBLY`` allows it, and every entry there still assembles one; every
other kernel application goes through ``operators.discretize``.  Likewise a
dense SVD (``svdvals``) is taken only where ``DENSE_SVD`` allows it, frame
rows are built (``_scale_rows``) only where ``ROW_BUILDS`` allows it, and the
cached frame-row matrix (``frame_rows``) is taken only where
``FRAME_ROWS_CALLERS`` allows it.  No function declares ``**kwargs``: every
parameter a caller may pass is named.  No function, lambda or dataclass field
is named ``psi`` or ``phi``: the two frame generators are fixed in
``wavelets``, not passed around.  In ``reporting.py`` a bound is spelled
only in ``BOUND_TABLES``: no comparator or tolerance key appears elsewhere.
Sampled data is real, so no module calls ``complex`` or ``conj``, reads a
``.real`` or ``.imag`` attribute or squares an ``abs``, except where
``COMPLEX_ALLOWED`` says.  exp(-1/t) is evaluated in one function,
``grids._exp_neg_inv``, and the bump functions built on it index nothing.  The
open-cone test ``abs(x - b) < a`` is spelled in one function of
``carleson.py``, and no ``_cone_mask`` is defined there.  The tail-trend
labels are spelled only in ``reporting.TRENDS`` and its fallback, and no
name ends in ``THRESHOLD``: a tail ratio is classified by its record's
``CHECKS`` bounds alone.  ``reporting.py`` has one record path
(``RECORD_PATH``): ``_record`` is called only by ``_Context.record``, which
alone spells a solver's statistics and the convergence rule, and every
``R,value`` profile lives only in ``_Context.sweep``; ``_record`` takes no
case, and the diagnostics in ``CASE_COVERED`` read their operators from
``CHECKS``.  ``_Context`` is its one output path: no diagnostic returns a
value, and the ``records`` and ``profiles`` buffers are written only in
``BUFFER_WRITERS``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "czframe"
MODULES = sorted(SRC.glob("*.py"))
# (module, top-level function): the dense backend of discretize and the dense
# oracle matrix.
DENSE_ASSEMBLY = {
    ("operators", "discretize"),
    ("compactness", "operator_matrix"),
}
# The one dense SVD, the oracle of the Lanczos tail solves.
DENSE_SVD = {("compactness", "singular_spectrum")}
# Frame rows are built one way: the cached whole-lattice matrix and the
# uncached scale blocks of the decay fit.
ROW_BUILDS = {("wavelets", "frame_rows"), ("wavelets", "_analysis_blocks")}
# Every pairing, with psi or the bump phi, goes through analyze/synthesize;
# only the analysis operator and the factored paraproduct take the matrix.
FRAME_ROWS_CALLERS = {
    ("wavelets", "analyze"),
    ("wavelets", "synthesize"),
    ("compactness", "analysis_operator"),
    ("paraproducts", "paraproduct_operator"),
}

# The reporting.py assignments that may spell a bound: the check table and the
# comparator map.
BOUND_TABLES = {"CHECKS", "_COMPARATORS"}
COMPARATOR_LITERALS = {"<=", "<", ">=", ">"}
# The two _Context methods through which reporting.py builds its records.
RECORD_BUILDERS = {"record", "sweep"}


def _parse(path: Path):
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    imported = {}  # bound name -> module it was imported from
    defined, exported = set(), []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            if lines[node.lineno - 1].endswith("# noqa: F401"):
                continue
            for alias in node.names:
                imported[alias.asname or alias.name] = node.module
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    defined.add(target.id)
                    if target.id == "__all__":
                        exported = [ast.literal_eval(e) for e in node.value.elts]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return imported, defined | set(imported), exported, used


def _calls(tree, name):
    """(enclosing top-level def or class, line) of every call to ``name``."""
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if callee == name:
                    yield getattr(top, "name", None), node.lineno


def test_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "reporting.py", "geometry.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_from_imports(path):
    imported, _, exported, used = _parse(path)
    unused = sorted(f"{name} (from {mod})" for name, mod in imported.items()
                    if name not in used and name not in exported)
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_entries_are_defined(path):
    _, defined, exported, _ = _parse(path)
    missing = sorted(set(exported) - defined)
    assert not missing, f"{path.name}: __all__ names undefined {missing}"


def test_checker_sees_an_unused_import_and_a_stale_export(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from .geometry import dist, mul\n"
        "from .grids import smooth_bump  # noqa: F401\n"
        "__all__ = ['gone']\n"
        "def f():\n"
        "    return mul\n"
    )
    imported, defined, exported, used = _parse(bad)
    assert {n for n in imported if n not in used and n not in exported} == {"dist"}
    assert set(exported) - defined == {"gone"}


def _kwargs_functions(tree):
    """(name, line) of every function or lambda in ``tree`` that declares ``**kwargs``."""
    return [(getattr(node, "name", "<lambda>"), node.lineno) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            and node.args.kwarg is not None]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_declares_kwargs(path):
    found = _kwargs_functions(ast.parse(path.read_text()))
    assert not found, f"{path.name}: functions declaring **kwargs {found}"


def test_checker_sees_kwargs_declarations():
    tree = ast.parse(
        "def f(a, *args, seed=0):\n"
        "    return g(a, **opts)\n"
        "def g(a, **opts):\n"
        "    h = lambda **kw: kw\n"
        "class C:\n"
        "    async def m(self, **kw):\n"
        "        pass\n"
    )
    assert set(_kwargs_functions(tree)) == {("g", 3), ("<lambda>", 4), ("m", 6)}


# The two frame generators are fixed in wavelets; frame_rows, analyze and
# synthesize, which serve both, take one as ``fn``.
GENERATOR_NAMES = {"psi", "phi"}


def _is_dataclass(node):
    """Whether ``node`` is decorated ``@dataclass``, ``@dataclasses.dataclass`` or a call of either."""
    decorators = (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
    return any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass" for d in decorators)


def _generator_declarations(tree):
    """(owner, name, line) of every parameter or dataclass field named psi or phi."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
            found += [(getattr(node, "name", "<lambda>"), p.arg, p.lineno) for p in params
                      if p.arg in GENERATOR_NAMES]
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            found += [(node.name, f.target.id, f.lineno) for f in node.body
                      if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)
                      and f.target.id in GENERATOR_NAMES]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_or_field_takes_a_generator(path):
    found = _generator_declarations(ast.parse(path.read_text()))
    assert not found, f"{path.name}: psi/phi declared as parameters or fields {found}"


def test_checker_sees_generator_declarations():
    tree = ast.parse(
        "def f(kernel, psi, grid):\n"
        "    return lambda x, *, phi=None: x\n"
        "@dataclass\n"
        "class D:\n"
        "    symbol: object\n"
        "    phi: object\n"
        "class C:\n"
        "    psi = None\n"
        "    def m(self, fn, /, *psi):\n"
        "        pass\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class E:\n"
        "    psi: object = None\n"
        "def analyze(f, fn, fgrid):\n"
        "    phi = fn\n"
    )
    assert sorted(_generator_declarations(tree)) == [
        ("<lambda>", "phi", 2), ("D", "phi", 6), ("E", "psi", 13), ("f", "psi", 1), ("m", "psi", 9)
    ]


# grids.SampledFunction rejects complex values.  The one complex site is the
# time reversal of a real Toeplitz column: rmatvec conjugates its FFT symbol.
COMPLEX_ALLOWED = {("operators", "DiscreteOperator.rmatvec", "conj()")}


def _callee(node):
    """The called name of a ``Call`` node (``f`` of ``f(...)`` or ``m.f(...)``), else ``None``."""
    if not isinstance(node, ast.Call):
        return None
    return node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)


def _own_nodes(tree):
    """{owner: nodes}: each node under the dotted name of its innermost function or class.

    ``owner`` is ``None`` at module level.
    """
    owned = {}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if owner is None else f"{owner}.{child.name}"
            else:
                owned.setdefault(owner, []).append(child)
            visit(child, inner)

    visit(tree, None)
    return owned


def _complex_uses(tree):
    """(owner, use, line) of each ``complex``/``conj`` call, ``.real``/``.imag``, ``abs(x) ** 2``.

    ``owner`` is as in :func:`_own_nodes`.  ``abs(x) ** 2`` of real x is
    bitwise ``x * x``; its ``abs`` is a leftover of complex data.
    """
    found = []
    for owner, nodes in _own_nodes(tree).items():
        for node in nodes:
            if _callee(node) in ("complex", "conj"):
                found.append((owner, f"{_callee(node)}()", node.lineno))
            elif isinstance(node, ast.Attribute) and node.attr in ("real", "imag"):
                found.append((owner, f".{node.attr}", node.lineno))
            elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                  and _callee(node.left) in ("abs", "absolute")
                  and isinstance(node.right, ast.Constant) and node.right.value == 2):
                found.append((owner, "abs()**2", node.lineno))
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_complex_arithmetic(path):
    uses = _complex_uses(ast.parse(path.read_text()))
    stray = [u for u in uses if (path.stem, u[0], u[1]) not in COMPLEX_ALLOWED]
    assert not stray, f"{path.name}: complex arithmetic on real data {stray}"
    stale = {(m, o, w) for m, o, w in COMPLEX_ALLOWED if m == path.stem} - {
        (path.stem, o, w) for o, w, _ in uses}
    assert not stale, f"allowed complex sites that are gone: {sorted(stale)}"


def test_checker_sees_complex_arithmetic():
    tree = ast.parse(
        "v = complex(inner_product(f, g)).real\n"
        "def pair(f, g):\n"
        "    k = conjugate(kernel, g)\n"
        "    return np.sum(f * np.conj(g)), np.iscomplexobj(f)\n"
        "def energy(v):\n"
        "    return np.sum(np.abs(v) ** 2), abs(v) ** 3, np.abs(v * v), v**2\n"
        "class Op:\n"
        "    real = None\n"
        "    def rmatvec(self, x):\n"
        "        return np.real(x), x.imag, self.symbol.conj()\n"
    )
    assert sorted(_complex_uses(tree), key=lambda u: (u[2], u[1])) == [
        (None, ".real", 1), (None, "complex()", 1), ("pair", "conj()", 4),
        ("energy", "abs()**2", 6),
        ("Op.rmatvec", ".imag", 10), ("Op.rmatvec", ".real", 10), ("Op.rmatvec", "conj()", 10),
    ]


def _assembly_errors(trees, callee, allowed):
    """``callee`` calls in ``{module: tree}`` outside ``allowed``; entries making none."""
    sites = [(mod, owner, line) for mod, tree in trees.items()
             for owner, line in _calls(tree, callee)]
    stray = [f"{mod}.{owner} (line {line})" for mod, owner, line in sites
             if (mod, owner) not in allowed]
    stale = sorted(allowed - {(mod, owner) for mod, owner, _ in sites})
    return stray, stale


def _assert_confined(callee, allowed):
    stray, stale = _assembly_errors({p.stem: ast.parse(p.read_text()) for p in MODULES},
                                    callee, allowed)
    assert not stray, f"{callee} called outside {sorted(allowed)}: {stray}"
    assert not stale, f"allowed sites that no longer call {callee}: {stale}"


def test_dense_kernel_assembly_is_confined():
    _assert_confined("kernel_matrix", DENSE_ASSEMBLY)


def test_dense_svd_is_confined():
    _assert_confined("svdvals", DENSE_SVD)


def test_frame_row_builder_is_confined():
    _assert_confined("_scale_rows", ROW_BUILDS)


def test_frame_rows_callers_are_confined():
    _assert_confined("frame_rows", FRAME_ROWS_CALLERS)


def test_checker_sees_a_paraproduct_taking_frame_rows():
    trees = {
        "paraproducts": ast.parse(
            "def paraproduct_apply(symbol, f, phi, psi):\n"
            "    return frame_rows(phi, symbol.fgrid, f.grid) @ f.values\n"
            "def paraproduct_operator(symbol, phi, psi, grid):\n"
            "    return wavelets.frame_rows(psi, symbol.fgrid, grid)\n"
        )
    }
    stray, stale = _assembly_errors(trees, "frame_rows", FRAME_ROWS_CALLERS)
    assert stray == ["paraproducts.paraproduct_apply (line 2)"]
    assert stale == sorted(FRAME_ROWS_CALLERS - {("paraproducts", "paraproduct_operator")})


def test_checker_sees_kernel_matrix_calls():
    tree = ast.parse(
        "K = kernel_matrix(k, g)\n"
        "def f():\n"
        "    return operators.kernel_matrix(k, g) * h\n"
        "class C:\n"
        "    def m(self):\n"
        "        return kernel_matrix\n"
    )
    assert list(_calls(tree, "kernel_matrix")) == [(None, 1), ("f", 3)]


def test_checker_sees_stray_calls_and_stale_entries():
    trees = {
        "m": ast.parse(
            "def dense(k, g):\n"
            "    return kernel_matrix(k, g)\n"
            "def fast(k, g):\n"
            "    return discretize(k, g)\n"
            "def spectrum(A):\n"
            "    return scipy.linalg.svdvals(A)\n"
        )
    }
    assert _assembly_errors(trees, "kernel_matrix", {("m", "dense")}) == ([], [])
    stray, stale = _assembly_errors(trees, "kernel_matrix", {("m", "fast"), ("n", "gone")})
    assert stray == ["m.dense (line 2)"]
    assert stale == [("m", "fast"), ("n", "gone")]
    assert _assembly_errors(trees, "svdvals", {("m", "spectrum")}) == ([], [])
    stray, stale = _assembly_errors(trees, "svdvals", {("m", "dense")})
    assert stray == ["m.spectrum (line 6)"]
    assert stale == [("m", "dense")]


def _module_literal(path: Path, name: str):
    """The literal value assigned to ``name`` at the top level of ``path``."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{path.name} assigns no {name}")


def _stray_bounds(tree, tolerance_keys):
    """(line, literal) of every comparator or tolerance key spelled outside ``BOUND_TABLES``.

    A record's name, the first argument of ``.record`` or ``.sweep``, is not a
    bound even where it equals a tolerance key (``carleson_constant``).
    """
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) in BOUND_TABLES
                                                for t in node.targets):
            allowed.update(id(n) for n in ast.walk(node))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in RECORD_BUILDERS):
            allowed.update(id(arg) for arg in node.args[:1])
    banned = COMPARATOR_LITERALS | set(tolerance_keys)
    return sorted((n.lineno, n.value) for n in ast.walk(tree)
                  if isinstance(n, ast.Constant) and isinstance(n.value, str)
                  and n.value in banned and id(n) not in allowed)


def test_bounds_live_only_in_checks():
    source = (SRC / "reporting.py").read_text()
    tolerances = _module_literal(SRC / "config.py", "DEFAULT_TOLERANCES")
    stray = _stray_bounds(ast.parse(source), tolerances)
    assert not stray, f"reporting.py spells bounds outside {sorted(BOUND_TABLES)}: {stray}"
    assert source.count("cfg.tol(") == 1  # the one read, in _record


def test_checker_sees_an_inline_bound():
    tree = ast.parse(
        "CHECKS = {'carleson_constant': (('x', '<=', 'carleson_constant'),)}\n"
        "_COMPARATORS = {'<=': le, '<': lt}\n"
        "def _diag(cfg):\n"
        "    rec = ctx.record('carleson_constant', None, {})\n"
        "    swept = ctx.sweep('carleson_constant', 'x', [0.0], [1.0], {}, 'csv')\n"
        "    inline = ctx.record('x', None, {}, ('metric', '<', 'parseval'))\n"
        "    return rec, swept, inline, _record(cfg, 'carleson_constant', None, {}, {})\n"
    )
    assert _stray_bounds(tree, {"parseval", "carleson_constant"}) == [
        (6, "<"), (6, "parseval"), (7, "carleson_constant")]


# reporting.py has one record path: each kind of record-path construct lives
# only in the functions named here, and every kind is still spelled in one of
# them. A record literal is a dict with "name" and "verdict" keys; run_suite's
# error record bypasses CHECKS on purpose.
RECORD_PATH = {
    "_record()": {"_Context.record"},
    "record literal": {"_record", "run_suite"},
    "solver statistics": {"_Context.record"},
    "convergence rule": {"_Context.record"},
    "R,value profile": {"_Context.sweep"},
}
SOLVER_STATS = {"iterations", "converged", "residual"}
# The diagnostics whose operators are read from CHECKS, not spelled out.
CASE_COVERED = {"_diag_rk_tail", "_diag_weak_compactness"}


def _record_path_sites(tree):
    """(line, kind, owner) of every record-path construct in ``tree``.

    The kinds are the keys of ``RECORD_PATH``: a ``_record`` call, a record
    literal, a ``SOLVER_STATS`` string, the convergence rule (a
    ``_solver_stats`` call, or any ``all`` call that reads a ``converged``
    name or attribute, such as ``x.converged.all()`` or ``np.all(converged)``)
    and a ``_profile(["R", "value"], ...)`` call.  ``owner`` is as in
    :func:`_own_nodes`.
    """
    found = []
    for owner, nodes in _own_nodes(tree).items():
        for node in nodes:
            callee, kind = _callee(node), None
            if callee == "_record":
                kind = "_record()"
            elif isinstance(node, ast.Dict) and {"name", "verdict"} <= {
                    getattr(k, "value", None) for k in node.keys}:
                kind = "record literal"
            elif isinstance(node, ast.Constant) and node.value in SOLVER_STATS:
                kind = "solver statistics"
            elif callee == "_solver_stats" or (callee == "all" and any(
                    getattr(n, "id", getattr(n, "attr", None)) == "converged"
                    for n in ast.walk(node))):
                kind = "convergence rule"
            elif (callee == "_profile" and node.args and isinstance(node.args[0], ast.List)
                  and [getattr(e, "value", None) for e in node.args[0].elts] == ["R", "value"]):
                kind = "R,value profile"
            if kind:
                found.append((node.lineno, kind, owner))
    return sorted(found)


def _record_path_errors(tree):
    """The sites outside their ``RECORD_PATH`` owners, and the kinds no owner spells."""
    sites = _record_path_sites(tree)
    stray = [site for site in sites if site[2] not in RECORD_PATH[site[1]]]
    missing = sorted(set(RECORD_PATH) - {kind for _, kind, owner in sites
                                         if owner in RECORD_PATH[kind]})
    return stray, missing


def _label_tuples(tree, functions, labels):
    """(function, line) of each literal string tuple, list or set in ``functions`` with a label."""
    return [(top.name, node.lineno) for top in tree.body
            if getattr(top, "name", None) in functions for node in ast.walk(top)
            if isinstance(node, (ast.Tuple, ast.List, ast.Set)) and node.elts
            and all(isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts)
            and any(e.value in labels for e in node.elts)]


def test_one_record_path():
    tree = ast.parse((SRC / "reporting.py").read_text())
    stray, missing = _record_path_errors(tree)
    assert not stray, f"record-path constructs outside {RECORD_PATH}: {stray}"
    assert not missing, f"record-path kinds no allowed function spells: {missing}"
    (record,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_record"]
    assert "case" not in {a.arg for a in ast.walk(record.args) if isinstance(a, ast.arg)}
    checks = _module_literal(SRC / "reporting.py", "CHECKS")
    labels = {key[1] for key in checks if isinstance(key, tuple)}
    assert not _label_tuples(tree, CASE_COVERED, labels)


def test_checker_sees_a_second_record_path():
    tree = ast.parse(
        "class _Context:\n"
        "    def record(self, name, operator, values, solve):\n"
        "        it, converged, res = solve\n"
        "        ok = np.all(converged) and all(values)\n"
        "        return _record(self.cfg, name, operator, {**values, 'iterations': it}, {})\n"
        "    def sweep(self, name, tf, radii, prof):\n"
        "        return self.record(name, None, {}), _profile(['R', 'value'], radii, prof)\n"
        "def _record(cfg, name, operator, values, grid_meta):\n"
        "    return {'name': name, 'verdict': 'PASS', **values}\n"
        "def _diag_rk_tail(ctx):\n"
        "    for label in ('hilbert', 'finite_rank'):\n"
        "        rec = _record(ctx.cfg, 'rk_tail', label, {**_solver_stats(tf)}, {})\n"
        "    ok = tf.converged.all() and all(ok) and label in ['zero']\n"
        "    return [rec, {'name': 'x', 'verdict': 'FAIL'}], {\n"
        "        'x': _profile(['R', 'value'], r, v), 'w': _profile(['x', 'value'], x, w),\n"
        "        'v': {'verdict': 'FAIL', 'residual': res.residual}}\n"
        "def _diag_power(ctx):\n"
        "    ctx.record('p', None, {}, ok=bool(np.all(res.converged)))\n"
    )
    stray, missing = _record_path_errors(tree)
    assert stray == [
        (12, "_record()", "_diag_rk_tail"), (12, "convergence rule", "_diag_rk_tail"),
        (13, "convergence rule", "_diag_rk_tail"),
        (14, "record literal", "_diag_rk_tail"), (15, "R,value profile", "_diag_rk_tail"),
        (16, "solver statistics", "_diag_rk_tail"), (18, "convergence rule", "_diag_power"),
    ]
    assert missing == []
    assert _label_tuples(tree, CASE_COVERED, {"hilbert", "zero"}) == [
        ("_diag_rk_tail", 11), ("_diag_rk_tail", 13)]
    stray, missing = _record_path_errors(ast.parse("def f(ctx):\n    return _record(ctx)\n"))
    assert stray == [(2, "_record()", "f")]
    assert missing == sorted(RECORD_PATH)


# The functions that may write the records and profiles buffers: _Context's
# methods and run_suite, which empties them and merges them into the Report.
BUFFER_WRITERS = {"_Context", "run_suite"}
BUFFERS = {"records", "profiles"}
MUTATORS = {"append", "extend", "insert", "update", "setdefault", "pop", "popitem",
            "clear", "remove", "__setitem__"}


def _output_path_errors(tree):
    """(owner, line) of each diagnostic ``return <value>`` and each stray buffer write.

    A diagnostic is a ``_diag_*`` function or ``_carleson_profiles``; a return
    in a function nested in one belongs to that function.  A buffer write
    assigns to ``x.records`` or ``x.profiles`` (or an item of one), or calls a
    mutating method on one, outside ``BUFFER_WRITERS`` (a class's methods
    count as the class).
    """
    def is_buffer(node):
        return isinstance(node, ast.Attribute) and node.attr in BUFFERS

    returns, writes = [], []
    for owner, nodes in _own_nodes(tree).items():
        top = (owner or "").split(".")[0]
        for node in nodes:
            if (isinstance(node, ast.Return) and node.value is not None and owner == top
                    and (top.startswith("_diag_") or top == "_carleson_profiles")):
                returns.append((owner, node.lineno))
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = node.targets
            targets = [e for t in targets
                       for e in (t.elts if isinstance(t, ast.Tuple) else [t])]
            written = any(is_buffer(t) or (isinstance(t, ast.Subscript) and is_buffer(t.value))
                          for t in targets)
            written |= (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr in MUTATORS and is_buffer(node.func.value))
            if written and top not in BUFFER_WRITERS:
                writes.append((owner, node.lineno))
    def order(site):
        return str(site[0]), site[1]

    return sorted(returns, key=order), sorted(writes, key=order)


def test_context_is_the_one_output_path():
    returns, writes = _output_path_errors(ast.parse((SRC / "reporting.py").read_text()))
    assert not returns, f"diagnostics that return a value: {returns}"
    assert not writes, f"records/profiles written outside {BUFFER_WRITERS}: {writes}"


def test_checker_sees_a_second_output_path():
    tree = ast.parse(
        "class _Context:\n"
        "    def __init__(self):\n"
        "        self.records, self.profiles = [], {}\n"
        "    def profile(self, name, cols):\n"
        "        self.profiles[name] = cols\n"
        "def run_suite(ctx, report):\n"
        "    ctx.records = []\n"
        "    report.records.extend(ctx.records)\n"
        "    return report\n"
        "def _diag_a(ctx):\n"
        "    def inner():\n"
        "        return 1\n"
        "    ctx.record('a', None, {})\n"
        "    return\n"
        "def _diag_b(ctx):\n"
        "    ctx.records.append({})\n"
        "    return [], {}\n"
        "def _carleson_profiles(ctx):\n"
        "    ctx.profiles['x'] = {}\n"
        "    return ctx.records\n"
        "def _helper(ctx, report):\n"
        "    ctx.records += [1]\n"
        "    report.profiles.update({})\n"
        "    ctx.records, other = [], 0\n"
        "    del ctx.profiles['x']\n"
        "    return sorted(ctx.profiles), ctx.records[0]\n"
    )
    returns, writes = _output_path_errors(tree)
    assert returns == [("_carleson_profiles", 20), ("_diag_b", 17)]
    assert writes == [("_carleson_profiles", 19), ("_diag_b", 16), ("_helper", 22),
                      ("_helper", 23), ("_helper", 24), ("_helper", 25)]


def _open_cone_tests(tree):
    """(top-level def, line) of every ``abs(u - v) < w`` comparison, and the defined names."""
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Compare) and len(node.ops) == 1
                    and isinstance(node.ops[0], ast.Lt) and isinstance(node.left, ast.Call)):
                func = node.left.func
                callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                args = node.left.args
                if (callee == "abs" and len(args) == 1 and isinstance(args[0], ast.BinOp)
                        and isinstance(args[0].op, ast.Sub)):
                    found.append((getattr(top, "name", None), node.lineno))
    defined = {n.name for n in ast.walk(tree)
               if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    return found, defined


def test_one_open_cone_convention():
    found, defined = _open_cone_tests(ast.parse((SRC / "carleson.py").read_text()))
    owners = {owner for owner, _ in found}
    assert len(owners) == 1 and None not in owners, f"open-cone tests in {sorted(found, key=str)}"
    assert "_cone_mask" not in defined


def test_checker_sees_open_cone_tests():
    tree = ast.parse(
        "def _cone_mask(x, fgrid):\n"
        "    return np.abs(x - fgrid.b) < fgrid.a\n"
        "def carleson_function(mu, x):\n"
        "    tent = np.abs(mu.b - x) <= mu.a\n"
        "    near = abs(x - 1.0) > 2.0\n"
        "    return [b for b in mu.b if abs(x - b) < mu.a[0]]\n"
        "inside = np.abs(x + b) < a\n"
    )
    found, defined = _open_cone_tests(tree)
    assert found == [("_cone_mask", 2), ("carleson_function", 6)]
    assert "_cone_mask" in defined


# A tail ratio is classified once: reporting reads verdict_trend from the
# record's CHECKS bounds through TRENDS, with "inconclusive" as the fallback
# of the one next() that reads it. No module keeps thresholds of its own.
TREND_LABELS = {"vanishing", "non-vanishing", "inconclusive"}


def _trend_spellings(tree, table=None):
    """(line, label) of every trend label spelled outside ``table`` and its fallback.

    The fallback is the default argument of a ``next`` call whose iterable
    reads ``table``. With no table, every spelling is stray.
    """
    allowed = set()
    for node in ast.walk(tree) if table else ():
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == table
                                                for t in node.targets):
            allowed.update(id(n) for n in ast.walk(node))
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "next"
              and len(node.args) == 2
              and any(getattr(n, "id", None) == table for n in ast.walk(node.args[0]))):
            allowed.add(id(node.args[1]))
    return sorted((n.lineno, n.value) for n in ast.walk(tree)
                  if isinstance(n, ast.Constant) and n.value in TREND_LABELS
                  and id(n) not in allowed)


def _threshold_names(tree):
    """(name, line) of every variable, parameter, function or class named ``*THRESHOLD``."""
    names = [(n.id, n.lineno) for n in ast.walk(tree)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
    names += [(n.arg, n.lineno) for n in ast.walk(tree) if isinstance(n, ast.arg)]
    names += [(n.name, n.lineno) for n in ast.walk(tree)
              if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    return sorted((name, line) for name, line in names if name.endswith("THRESHOLD"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_one_tail_classifier(path):
    tree = ast.parse(path.read_text())
    stray = _trend_spellings(tree, "TRENDS" if path.stem == "reporting" else None)
    assert not stray, f"{path.name}: trend labels spelled outside reporting.TRENDS {stray}"
    assert not _threshold_names(tree), f"{path.name}: thresholds {_threshold_names(tree)}"


def test_checker_sees_a_second_classifier():
    tree = ast.parse(
        "VANISHING_THRESHOLD = 1e-2\n"
        "TRENDS = {'rk_tail': (('vanishing', 'finite_rank'), ('non-vanishing', 'hilbert'))}\n"
        "def tail_verdict(values, NON_VANISHING_THRESHOLD=0.1):\n"
        "    if values[0] <= 0.0:\n"
        "        return 'vanishing'\n"
        "    return next(iter(values), 'inconclusive')\n"
        "def _record(name, ok):\n"
        "    return next((label for label, c in TRENDS[name] if ok), 'inconclusive')\n"
        "class TREND_THRESHOLD:\n"
        "    pass\n"
    )
    assert _trend_spellings(tree, "TRENDS") == [(5, "vanishing"), (6, "inconclusive")]
    assert [line for line, _ in _trend_spellings(tree)] == [2, 2, 5, 6, 8]
    assert _threshold_names(tree) == [
        ("NON_VANISHING_THRESHOLD", 3), ("TREND_THRESHOLD", 9), ("VANISHING_THRESHOLD", 1)]


# exp(-1/t) is evaluated in one function, the step grids._exp_neg_inv; the
# bump functions built on it evaluate every point and index nothing.
BUMP_PRIMITIVE = ("grids", "_exp_neg_inv")
BUMP_FUNCTIONS = {BUMP_PRIMITIVE, ("grids", "smooth_bump"), ("wavelets", "_bump_derivative"),
                  ("wavelets", "_transition"), ("wavelets", "bump_phi")}


def _is_unit(node):
    """Whether ``node`` is a literal +-1."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return (isinstance(node, ast.Constant) and not isinstance(node.value, bool)
            and isinstance(node.value, (int, float)) and abs(node.value) == 1)


def _is_reciprocal(node):
    """Whether ``node`` is ``+-1 / x``, ``divide(+-1, x)`` or ``reciprocal(x)``."""
    if isinstance(node, ast.BinOp):
        return isinstance(node.op, ast.Div) and _is_unit(node.left)
    if _callee(node) in ("divide", "true_divide"):
        return bool(node.args) and _is_unit(node.args[0])
    return _callee(node) == "reciprocal"


def _reciprocal_exps(tree):
    """(owner, line) of every function that calls ``exp`` on a reciprocal, at its first such call.

    An ``exp`` argument counts when it contains a reciprocal, or a name that
    the same function assigns one to or passes as a reciprocal's ``out=``.
    """
    found = []
    for owner, nodes in _own_nodes(tree).items():
        held = set()
        for n in nodes:
            if isinstance(n, ast.Assign) and any(map(_is_reciprocal, ast.walk(n.value))):
                held.update(t.id for t in n.targets if isinstance(t, ast.Name))
            elif isinstance(n, ast.Call) and _is_reciprocal(n):
                held.update(k.value.id for k in n.keywords
                            if k.arg == "out" and isinstance(k.value, ast.Name))
        lines = [n.lineno for n in nodes if _callee(n) == "exp"
                 and any(_is_reciprocal(m) or getattr(m, "id", None) in held
                         for arg in n.args for m in ast.walk(arg))]
        if lines:
            found.append((owner, min(lines)))
    return sorted(found, key=lambda site: site[1])


def test_one_bump_primitive():
    sites = [(p.stem, owner) for p in MODULES
             for owner, _ in _reciprocal_exps(ast.parse(p.read_text()))]
    assert sites == [BUMP_PRIMITIVE], f"exp(-1/t) evaluated in {sites}"


def test_bump_functions_index_nothing():
    indexed = sorted((p.stem, top.name, n.lineno) for p in MODULES
                     for top in ast.parse(p.read_text()).body
                     if (p.stem, getattr(top, "name", None)) in BUMP_FUNCTIONS
                     for n in ast.walk(top) if isinstance(n, ast.Subscript))
    assert not indexed, f"bump functions index arrays: {indexed}"
    defined = {(p.stem, top.name) for p in MODULES for top in ast.parse(p.read_text()).body
               if isinstance(top, ast.FunctionDef)}
    assert BUMP_FUNCTIONS <= defined


def test_checker_sees_a_second_bump():
    tree = ast.parse(
        "def e(t, out):\n"
        "    np.divide(-1.0, np.fmax(t, tiny, out=out), out=out)\n"
        "    return np.exp(out, out=out)\n"
        "def theta_prime(x):\n"
        "    d = 1.0 - x * x\n"
        "    out = np.divide(-1.0, d, out=np.empty_like(d))\n"
        "    return np.exp(out, out=out) * (-2.0 * x / (d * d))\n"
        "class Step:\n"
        "    def g(self, t):\n"
        "        return exp(-(1 / t)) + t\n"
        "def zoo(x):\n"
        "    c = 1.0 / math.pi\n"
        "    return math.exp(-2.0) * c, np.exp(-x * x) / (1.0 + x)\n"
        "def outer(t):\n"
        "    def inner(s):\n"
        "        r = np.reciprocal(s)\n"
        "        return math.exp(-r)\n"
        "    return np.exp(t), -1.0 / t\n"
        "v = np.exp(-1 / x)\n"
    )
    assert _reciprocal_exps(tree) == [
        ("e", 3), ("theta_prime", 7), ("Step.g", 10), ("outer.inner", 17), (None, 19)]
