"""The repo-specific rules enforced by ``repro check``.

Each rule is a small :mod:`ast` visitor scoped (via ``applies``) to the
part of the tree where its invariant matters.  Importing this module
populates :data:`repro.check.engine.ALL_RULES`.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .engine import CheckedFile, Finding, Rule, register

__all__ = [
    "DeterminismRule",
    "VersionBumpRule",
    "AtomicWriteRule",
    "AsyncBlockingRule",
    "SilentExceptRule",
    "PoolBoundaryRule",
]


def _dotted(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` call targets as a dotted string, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


# --------------------------------------------------------------------- RC001

#: Path prefixes (or exact files) whose output feeds scenario content
#: hashes / the sweep cache key — any nondeterminism here silently serves
#: stale cached results.
_HASH_CRITICAL = ("scenarios/", "ingest/", "sweep/", "dynamics/churn.py")

#: Prefix -> categories of nondeterminism that are *legitimate* there.
#: serve/ shows wall-clock timestamps to humans; obs/ additionally mints
#: trace ids from process entropy.
_RC001_ALLOW: Dict[str, Set[str]] = {
    "serve/": {"wallclock"},
    "obs/": {"wallclock", "entropy"},
    "faults.py": {"wallclock"},
    "perf.py": {"wallclock"},
    "cli.py": {"wallclock"},
}

_WALLCLOCK_CALLS = {
    "time.time": "time.time()",
    "time.time_ns": "time.time_ns()",
    "datetime.now": "datetime.now()",
    "datetime.utcnow": "datetime.utcnow()",
    "datetime.datetime.now": "datetime.now()",
    "datetime.datetime.utcnow": "datetime.utcnow()",
}

_ENTROPY_CALLS = {
    "os.urandom": "os.urandom()",
    "uuid.uuid4": "uuid.uuid4()",
    "secrets.token_bytes": "secrets.token_bytes()",
    "secrets.token_hex": "secrets.token_hex()",
}

#: Seeded-RNG constructors: fine *with* arguments, flagged bare.
_RNG_CTORS = {"random.Random", "numpy.random.default_rng",
              "np.random.default_rng"}


@register
class DeterminismRule(Rule):
    """RC001: hash-critical modules must be bit-deterministic.

    Scenario definitions are content-hashed and the sweep cache is keyed
    by that hash — a wall-clock read, an unseeded RNG draw, or iteration
    over a ``set`` (whose order varies with ``PYTHONHASHSEED``) anywhere
    in ``scenarios/``, ``ingest/``, ``sweep/`` or ``dynamics/churn.py``
    makes the cache serve results for inputs that never existed.
    Wall-clock and entropy use elsewhere is also flagged unless the
    module prefix is allowlisted for that category (``serve/`` shows
    wall-clock timestamps to humans, ``obs/`` mints trace ids).
    """

    id = "RC001"
    title = "determinism"

    def _allowed(self, cf: CheckedFile, category: str) -> bool:
        return any(cf.rel.startswith(prefix) and category in categories
                   for prefix, categories in _RC001_ALLOW.items())

    def _hash_critical(self, cf: CheckedFile) -> bool:
        return any(cf.rel == p or cf.rel.startswith(p)
                   for p in _HASH_CRITICAL)

    def check(self, cf: CheckedFile) -> Iterable[Finding]:
        findings: List[Finding] = []
        hash_critical = self._hash_critical(cf)
        allow_wall = self._allowed(cf, "wallclock") and not hash_critical
        allow_entropy = self._allowed(cf, "entropy") and not hash_critical
        for node in ast.walk(cf.tree):
            if isinstance(node, ast.Call):
                dotted = _dotted(node.func)
                if dotted in _WALLCLOCK_CALLS and not allow_wall:
                    findings.append(self.finding(
                        cf, node,
                        f"{_WALLCLOCK_CALLS[dotted]} is wall-clock; use "
                        f"time.monotonic()/perf_counter() for durations, "
                        f"noqa display-only timestamps"))
                elif dotted in _ENTROPY_CALLS and not allow_entropy:
                    findings.append(self.finding(
                        cf, node,
                        f"{_ENTROPY_CALLS[dotted]} draws process entropy; "
                        f"derive values from the scenario seed"))
                elif dotted in _RNG_CTORS and not node.args \
                        and not node.keywords and not allow_entropy:
                    findings.append(self.finding(
                        cf, node,
                        f"{dotted}() without a seed is nondeterministic; "
                        f"pass an explicit seed"))
                elif dotted is not None and dotted.startswith("random.") \
                        and dotted not in _RNG_CTORS \
                        and not dotted.startswith("random.SystemRandom") \
                        and not allow_entropy:
                    findings.append(self.finding(
                        cf, node,
                        f"{dotted}() uses the shared unseeded global RNG; "
                        f"use a seeded random.Random(seed) instance"))
            if hash_critical:
                findings.extend(self._set_iteration(cf, node))
        return findings

    def _set_iteration(self, cf: CheckedFile,
                       node: ast.AST) -> Iterable[Finding]:
        iters: List[ast.AST] = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iters.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            iters.extend(gen.iter for gen in node.generators)
        for it in iters:
            is_set = isinstance(it, (ast.Set, ast.SetComp))
            if isinstance(it, ast.Call):
                is_set = _dotted(it.func) in {"set", "frozenset"}
            if is_set:
                yield self.finding(
                    cf, it,
                    "iteration over a set depends on hash order; sort it "
                    "(sorted(...)) before iterating")


# --------------------------------------------------------------------- RC002

#: Attribute names that *are* version counters — writing one counts as a
#: bump, not as unversioned state.
_VERSION_ATTR_RE = re.compile(r"(version|epoch)", re.IGNORECASE)
#: Caches derived from versioned state: writes are invalidation, not
#: mutation, and don't require a bump.
_CACHE_ATTR_RE = re.compile(r"(cache|memo|_by_)", re.IGNORECASE)

#: Method names that mutate their receiver in place.
_MUTATOR_METHODS = {
    "append", "extend", "insert", "add", "add_node", "add_edge",
    "remove", "remove_node", "remove_edge", "discard", "pop", "popitem",
    "clear", "update", "setdefault", "register", "popleft", "appendleft",
}


@register
class VersionBumpRule(Rule):
    """RC002: every ``Platform`` method writing topology state bumps a
    version counter.

    ``ProbeMemo`` and the route cache key their entries on the platform's
    ``_version`` / element-version counters; a mutator that forgets the
    bump makes them serve measurements of a topology that no longer
    exists (the PR-4 ``set_hub_bandwidth`` staleness hole).  Methods are
    discovered by attribute-write analysis — including writes through
    local aliases like ``node = self.nodes[n]; node.bw = v`` — never a
    hardcoded list; a method is clean if it (transitively, via ``self``
    calls) writes any version/epoch attribute.
    """

    id = "RC002"
    title = "version-bump"

    def applies(self, cf: CheckedFile) -> bool:
        return "class Platform" in cf.source

    def check(self, cf: CheckedFile) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(cf.tree):
            if isinstance(node, ast.ClassDef) and node.name == "Platform":
                findings.extend(self._check_class(cf, node))
        return findings

    def _check_class(self, cf: CheckedFile,
                     cls: ast.ClassDef) -> Iterable[Finding]:
        methods = {n.name: n for n in cls.body
                   if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
        info = {name: self._analyze(fn) for name, fn in methods.items()}
        # Propagate bumps through self.method() calls to a fixpoint: a
        # mutator delegating to self._bump() (or to another bumping
        # mutator) is clean.
        bumping = {n for n, (_, b, _, _) in info.items() if b}
        changed = True
        while changed:
            changed = False
            for name, (_, _, calls, _) in info.items():
                if name not in bumping and calls & bumping:
                    bumping.add(name)
                    changed = True
        for name in sorted(methods):
            if name.startswith("__") or name in bumping:
                continue
            writes_state, _, _, first = info[name]
            if writes_state:
                node: ast.AST = first if first is not None else methods[name]
                yield self.finding(
                    cf, node,
                    f"Platform.{name} writes topology state without "
                    f"bumping a version counter (_version/epoch); stale "
                    f"ProbeMemo/route-cache entries will survive")

    def _analyze(self, fn: ast.AST
                 ) -> Tuple[bool, bool, Set[str], Optional[ast.AST]]:
        """(writes non-cache state, writes a version attr, self-calls,
        first offending node)."""
        aliases: Dict[str, str] = {}
        # Pass 1: local aliases of self attributes (x = self.nodes[...]).
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                attr = self._self_attr_of(node.value)
                if attr is not None:
                    aliases[node.targets[0].id] = attr
        writes_state = False
        bumps = False
        first: Optional[ast.AST] = None
        calls: Set[str] = set()
        for node in ast.walk(fn):
            attrs: List[Tuple[str, ast.AST]] = []
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    attr = self._write_target_attr(target, aliases)
                    if attr is not None:
                        attrs.append((attr, target))
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    attr = self._write_target_attr(target, aliases)
                    if attr is not None:
                        attrs.append((attr, target))
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute):
                if node.func.attr in _MUTATOR_METHODS:
                    attr = self._self_attr_of(node.func.value,
                                              aliases=aliases)
                    if attr is not None:
                        attrs.append((attr, node))
                dotted = _dotted(node.func)
                if dotted is not None and dotted.startswith("self."):
                    calls.add(dotted.split(".")[1])
            for attr, site in attrs:
                if _VERSION_ATTR_RE.search(attr):
                    bumps = True
                elif not _CACHE_ATTR_RE.search(attr):
                    writes_state = True
                    if first is None:
                        first = site
        return writes_state, bumps, calls, first

    def _self_attr_of(self, node: ast.AST,
                      aliases: Optional[Dict[str, str]] = None
                      ) -> Optional[str]:
        """The attribute adjacent to ``self`` in an access chain.

        ``self.links[n].bandwidth`` -> ``links``; with ``aliases``,
        ``node.bandwidth`` where ``node = self.nodes[n]`` -> ``nodes``.
        """
        last_attr: Optional[str] = None
        while True:
            if isinstance(node, ast.Attribute):
                last_attr = node.attr
                node = node.value
            elif isinstance(node, ast.Subscript):
                node = node.value
            else:
                break
        if isinstance(node, ast.Name):
            if node.id == "self":
                return last_attr
            if aliases is not None and node.id in aliases:
                return aliases[node.id]
        return None

    def _write_target_attr(self, target: ast.AST,
                           aliases: Dict[str, str]) -> Optional[str]:
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            return self._self_attr_of(target, aliases=aliases)
        return None


# --------------------------------------------------------------------- RC003

_WRITE_MODE_RE = re.compile(r"[wax+]")


@register
class AtomicWriteRule(Rule):
    """RC003: persistence flows through ``ioutils``, never raw writes.

    ``write_atomic`` and ``append_line`` carry the crash-safety contract
    (tempfile + ``os.replace``, torn-tail healing) *and* the fault-
    injection hook — a raw ``open(path, "w")`` elsewhere is a write site
    the chaos suite cannot see and a partial file waiting to happen.
    """

    id = "RC003"
    title = "atomic-write"

    def applies(self, cf: CheckedFile) -> bool:
        return cf.rel != "ioutils.py"

    def check(self, cf: CheckedFile) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(cf.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if dotted in {"open", "io.open", "os.fdopen"}:
                mode = self._mode_arg(node, dotted)
                if mode is not None and _WRITE_MODE_RE.search(mode):
                    findings.append(self.finding(
                        cf, node,
                        f"raw {dotted}(..., {mode!r}); route writes "
                        f"through ioutils.write_atomic/append_line"))
            elif dotted in {"os.replace", "os.rename"}:
                findings.append(self.finding(
                    cf, node,
                    f"{dotted}() outside ioutils bypasses the atomic-write "
                    f"and fault-injection layer"))
            elif isinstance(node.func, ast.Attribute) \
                    and node.func.attr in {"write_text", "write_bytes"}:
                findings.append(self.finding(
                    cf, node,
                    f"Path.{node.func.attr}() is a raw write; route "
                    f"through ioutils.write_atomic"))
        return findings

    def _mode_arg(self, call: ast.Call, dotted: str) -> Optional[str]:
        for kw in call.keywords:
            if kw.arg == "mode":
                if isinstance(kw.value, ast.Constant) \
                        and isinstance(kw.value.value, str):
                    return kw.value.value
                return None          # dynamic mode: benefit of the doubt
        if len(call.args) > 1:
            arg = call.args[1]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                return arg.value
            return None
        return None if dotted == "os.fdopen" else "r"


# --------------------------------------------------------------------- RC004

_BLOCKING_CALLS = {
    "time.sleep": "time.sleep() blocks the event loop; use asyncio.sleep()",
    "socket.socket": "raw socket use blocks the event loop; use asyncio "
                     "streams",
    "socket.create_connection": "blocking connect; use "
                                "asyncio.open_connection()",
    "urllib.request.urlopen": "blocking HTTP; use asyncio streams or a "
                              "thread executor",
    "os.system": "os.system() blocks the event loop",
    "os.wait": "os.wait() blocks the event loop",
    "os.waitpid": "os.waitpid() blocks the event loop",
    "os.popen": "os.popen() blocks the event loop",
}


@register
class AsyncBlockingRule(Rule):
    """RC004: no blocking calls inside ``async def`` under ``serve/``.

    One blocked coroutine stalls every in-flight request on the server's
    single event loop.  Pool ``AsyncResult.get()`` is only safe after a
    ``.ready()`` poll — sites doing that dance carry an explicit noqa.
    """

    id = "RC004"
    title = "async-blocking"

    def applies(self, cf: CheckedFile) -> bool:
        return cf.rel.startswith("serve/")

    def check(self, cf: CheckedFile) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(cf.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                findings.extend(self._check_async_body(cf, node))
        return findings

    def _check_async_body(self, cf: CheckedFile,
                          fn: ast.AsyncFunctionDef) -> Iterable[Finding]:
        findings: List[Finding] = []
        awaited: Set[int] = set()

        def visit(node: ast.AST) -> None:
            # Don't descend into nested defs: a sync helper defined inside
            # an async fn runs wherever it is *called* (often an executor).
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node is not fn:
                return
            if isinstance(node, ast.Await):
                awaited.add(id(node.value))
            if isinstance(node, ast.Call):
                check_call(node)
            for child in ast.iter_child_nodes(node):
                visit(child)

        def check_call(call: ast.Call) -> None:
            dotted = _dotted(call.func)
            if dotted in _BLOCKING_CALLS:
                findings.append(self.finding(cf, call,
                                             _BLOCKING_CALLS[dotted]))
            elif dotted is not None and dotted.startswith("subprocess."):
                findings.append(self.finding(
                    cf, call, f"{dotted}() blocks the event loop; use "
                    f"asyncio.create_subprocess_exec()"))
            elif dotted == "open":
                findings.append(self.finding(
                    cf, call, "sync file I/O inside async def blocks the "
                    "event loop; do it in an executor"))
            elif isinstance(call.func, ast.Attribute) \
                    and call.func.attr == "get" \
                    and not call.args and not call.keywords \
                    and id(call) not in awaited:
                base = call.func.value
                name = base.id if isinstance(base, ast.Name) else \
                    (base.attr if isinstance(base, ast.Attribute) else "")
                if name.lower().endswith("result"):
                    findings.append(self.finding(
                        cf, call,
                        f"{name}.get() on a pool result blocks the event "
                        f"loop; poll .ready() first or run in an executor"))

        visit(fn)
        return findings


# --------------------------------------------------------------------- RC005

@register
class SilentExceptRule(Rule):
    """RC005: no exception handler whose body only passes.

    A swallowed exception is an invisible failure mode: the fault-
    tolerance work (PR 8) counts every degradation with a labelled obs
    counter precisely so chaos runs can assert on them.  Handlers must
    log (``repro.obs.logs``) or bump a counter — or carry an explicit
    noqa stating why silence is correct.
    """

    id = "RC005"
    title = "silent-except"

    def check(self, cf: CheckedFile) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(cf.tree):
            if isinstance(node, ast.ExceptHandler) \
                    and self._is_silent(node.body):
                exc = "BaseException"
                if isinstance(node.type, ast.Tuple):
                    names = [_dotted(e) or "?" for e in node.type.elts]
                    exc = "(" + ", ".join(names) + ")"
                elif node.type is not None:
                    exc = _dotted(node.type) or "?"
                findings.append(self.finding(
                    cf, node,
                    f"except {exc}: pass swallows the failure silently; "
                    f"log it or bump a labelled obs counter"))
        return findings

    def _is_silent(self, body: List[ast.stmt]) -> bool:
        for stmt in body:
            if isinstance(stmt, (ast.Pass, ast.Continue)):
                continue
            if isinstance(stmt, ast.Expr) \
                    and isinstance(stmt.value, ast.Constant):
                continue             # docstring / Ellipsis
            return False
        return True


# --------------------------------------------------------------------- RC006

_POOL_CONSTRUCTORS = {"ProcessPoolExecutor"}
#: Pool methods taking the dispatched callable as first argument — matched
#: only on a receiver bound to a pool constructor, since ``submit`` alone
#: also names the serve job queue's entry point.
_DISPATCH_METHODS = {"submit", "map"}
#: The pool supervisor's entry point: its arguments cross the boundary too.
_DISPATCH_FUNCS = {"submit_scenario"}


def _is_pool_constructor(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and (
        _dotted(node.func) or "").rsplit(".", 1)[-1] in _POOL_CONSTRUCTORS


@register
class PoolBoundaryRule(Rule):
    """RC006: pool dispatch takes module-level callables only.

    A process pool pickles the dispatched callable by qualified name;
    lambdas and closures either fail outright or smuggle whole enclosing
    scopes across the process boundary.  ROADMAP item 5's zero-pickle
    shared-memory dispatch hardens this into a protocol — the boundary
    must already be clean.
    """

    id = "RC006"
    title = "pool-boundary"

    def check(self, cf: CheckedFile) -> Iterable[Finding]:
        findings: List[Finding] = []
        module_names = self._module_bindings(cf.tree)
        pools = self._pool_bindings(cf.tree)
        for fn in ast.walk(cf.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            local = self._local_bindings(fn)
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    findings.extend(self._check_dispatch(
                        cf, node, local, module_names, pools))
        return findings

    def _pool_bindings(self, tree: ast.AST) -> Set[str]:
        """Dotted names bound to a process-pool constructor anywhere in
        the file (``x = ...``, ``self.x = ...``, ``with ... as x``)."""
        names: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                value, targets = node.value, node.targets
            elif isinstance(node, ast.AnnAssign):
                value, targets = node.value, [node.target]
            elif isinstance(node, ast.withitem):
                value, targets = node.context_expr, [node.optional_vars]
            else:
                continue
            if _is_pool_constructor(value):
                names.update(filter(None, map(_dotted, targets)))
        return names

    def _module_bindings(self, tree: ast.AST) -> Set[str]:
        names: Set[str] = set()
        for node in ast.iter_child_nodes(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    names.add(alias.asname or alias.name.split(".")[0])
        return names

    def _local_bindings(self, fn: ast.AST) -> Set[str]:
        names: Set[str] = set()
        args = getattr(fn, "args", None)
        if args is not None:
            for arg in (args.posonlyargs + args.args + args.kwonlyargs
                        + ([args.vararg] if args.vararg else [])
                        + ([args.kwarg] if args.kwarg else [])):
                names.add(arg.arg)
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    for leaf in ast.walk(target):
                        if isinstance(leaf, ast.Name):
                            names.add(leaf.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node is not fn:
                names.add(node.name)
        return names

    def _check_dispatch(self, cf: CheckedFile, call: ast.Call,
                        local: Set[str], module_names: Set[str],
                        pools: Set[str]) -> Iterable[Finding]:
        # Executor dispatch takes the callable as its first arg;
        # submit_scenario takes a registered scenario's name, so only the
        # lambda/closure sweep of its arguments applies.
        first_arg_is_callable = False
        if isinstance(call.func, ast.Attribute) \
                and call.func.attr in _DISPATCH_METHODS \
                and (_is_pool_constructor(call.func.value)
                     or _dotted(call.func.value) in pools):
            first_arg_is_callable = True
        elif not (isinstance(call.func, ast.Name)
                  and call.func.id in _DISPATCH_FUNCS):
            return
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            for leaf in ast.walk(arg):
                if isinstance(leaf, ast.Lambda):
                    yield self.finding(
                        cf, leaf,
                        "lambda crosses the pool boundary; dispatch a "
                        "module-level callable")
                    break
        if not first_arg_is_callable or not call.args:
            return
        target = call.args[0]
        if isinstance(target, ast.Lambda):
            return                   # already reported above
        if isinstance(target, ast.Attribute):
            dotted = _dotted(target) or f"<expr>.{target.attr}"
            yield self.finding(
                cf, target,
                f"{dotted} is a bound/attribute callable; dispatch a "
                f"module-level function")
        elif isinstance(target, ast.Name):
            if target.id in local and target.id not in module_names:
                yield self.finding(
                    cf, target,
                    f"{target.id} is bound in the enclosing function "
                    f"(closure); dispatch a module-level callable")
