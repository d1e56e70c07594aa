"""``races`` pass: static lockset + thread-root race detection.

The ``protocol`` pass model-checks the *simulated* coherence invariant
(one writer, no stale sharers); since the serve subsystem landed, the
repo itself is a concurrent system — a ThreadingHTTPServer, worker
threads, a condition-variable work queue, a run journal, and a SIGTERM
bridge — and none of that Python-level sharing was verified by
anything but whichever interleavings the tests happen to hit.  This pass closes the gap with an Eraser-style static lockset
analysis rooted at *thread roots* rather than the registry alone:

- **thread-root discovery** — every ``threading.Thread(target=...)`` /
  ``threading.Timer`` callable, every ``do_*`` method of a
  ``*HTTPRequestHandler`` subclass (one thread per connection), and
  every ``signal.signal`` handler is a concurrency entry point, next to
  the registry entry points (which all share one sequential ``main``
  root — two experiments never run concurrently in one process).
- **shared-state inference** — an instance or module attribute written
  outside ``__init__`` and reachable from two distinct roots (or from
  one root that can run as multiple threads) is shared.  Fields holding
  ``threading.Event`` / ``queue.Queue`` / lock objects are whitelisted
  (internally synchronized), and accesses through a *fresh* local —
  one every assignment of which is a constructor call — are owned by
  the creating thread until publication and not counted.
- **lockset analysis** — ``with self._lock:`` / ``.acquire()`` scopes
  are tracked through each function and interprocedurally (the held
  set flows into callees; ``threading.Condition(self._lock)`` aliases
  back to the wrapped lock).  The guarding lock of a shared field is
  the intersection of the locksets at its write sites.

| rule | severity | rejects |
|---|---|---|
| ``race-unguarded`` | error | an access to a shared field outside the lock(s) guarding its other sites |
| ``race-guard-mix`` | error | a shared field whose write sites hold disjoint locks (every site locked, no common lock) |
| ``race-lock-order`` | error | two locks acquired in both nesting orders on different paths (deadlock) |
| ``race-signal-unsafe`` | error | lock acquisition or I/O (``print``/``open``/``.write``/``.flush``) reachable from a signal handler |
| ``race-check-then-act`` | warning | ``if key in d: ... d[key]`` on a shared container with no lock held across the window |
| ``race-thread-root`` | warning | a ``Thread`` target / signal handler naming no known function (the thread dies silently at runtime) |

**Precision policy** (documented limits, mirrored in CHECKS.md §6):
``race-unguarded`` / ``race-guard-mix`` fire only for fields with *lock
evidence* — at least one access under some lock, or an access inside a
function that manipulates locks.  A structure that is lock-free by
design (per-thread partitioned tallies merged after ``join()``, the
tracer's atomic-append record list) stays silent apart from
check-then-act warnings; deleting one ``with`` block from otherwise
guarded code still fires, because the remaining guarded sites are the
evidence.  Callables handed to the *process* pool are not thread roots.

Witnesses are call chains from the thread root that reaches the access
(``[thread root: <kind>]`` on the root line), the same counterexample
discipline as the protocol checker.  Suppressions share the inline
``# repro: allow(<rule>)`` namespace; race-rule suppressions that
suppress nothing are reported as ``unused-suppression`` by this pass.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.check.callgraph import (
    MODULE_BODY,
    CallGraph,
    ModuleInfo,
    _dotted,
    build_callgraph,
    canonicalize,
)
from repro.check.report import Finding, PassResult

RACES_RULES: tuple[str, ...] = (
    "race-unguarded",
    "race-guard-mix",
    "race-lock-order",
    "race-signal-unsafe",
    "race-check-then-act",
    "race-thread-root",
)

#: Constructors whose instances ARE locks (with/acquire targets).
_LOCK_TYPES = frozenset({
    "threading.Lock", "threading.RLock", "threading.Condition",
    "threading.Semaphore", "threading.BoundedSemaphore",
})

#: Internally synchronized (or synchronization-only) types: a field
#: holding one is safe to share without an external guard.
_SAFE_TYPES = _LOCK_TYPES | frozenset({
    "threading.Event", "threading.Barrier",
    "queue.Queue", "queue.SimpleQueue", "queue.LifoQueue",
    "queue.PriorityQueue",
})

#: Thread-root walk depth bound (recursion through resolved callees).
_MAX_DEPTH = 64


@dataclass(frozen=True)
class _Root:
    """One concurrency entry point of the analysis."""

    id: str  # "main" | "thread:<fn>" | "handler:<fn>" | "signal:<fn>"
    kind: str  # "main" | "thread" | "http-handler" | "signal"
    fns: tuple[str, ...]
    multi: bool  # may run as several threads at once (self-racing)


@dataclass
class _FieldFact:
    """What the class/module scan knows about one attribute."""

    typ: str | None = None  # canonical in-package class of the value
    is_lock: bool = False
    is_safe: bool = False
    alias: str | None = None  # Condition(self.X): guard aliases to X


@dataclass(frozen=True)
class _Access:
    """One recorded read/write of a shared candidate field."""

    kind: str  # "read" | "write"
    module: str
    lineno: int
    fn: str
    root: str
    locks: frozenset[str]


@dataclass
class _FnEntry:
    """Index entry: the AST and ownership of one function."""

    module: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    owner: str | None  # canonical class for methods
    is_property: bool = False


class _Ctx:
    """Per-walk function context: local typing and ownership."""

    __slots__ = ("fn", "mod", "owner", "env", "globals_declared", "init")

    def __init__(self, fn: str, mod: ModuleInfo, owner: str | None,
                 self_owned: bool, params: list[tuple[str, str | None]],
                 init: bool, owned_params: frozenset[str]) -> None:
        self.fn = fn
        self.mod = mod
        self.owner = owner
        self.init = init
        self.globals_declared: set[str] = set()
        # name -> (canonical class | None, owned-by-this-thread)
        self.env: dict[str, tuple[str | None, bool]] = {}
        for name, typ in params:
            self.env[name] = (typ, name in owned_params)
        if owner is not None and params and params[0][0] in ("self", "cls"):
            self.env[params[0][0]] = (owner, self_owned)


class _RacesAnalysis:
    def __init__(self, graph: CallGraph, entry_points: dict[str, str]) -> None:
        self.graph = graph
        self.entry_points = entry_points
        self.result = PassResult("races")
        self._suppression_cache: dict[str, dict[int, set[str]]] = {}
        self._hits: set[tuple[str, int, str]] = set()

        # Indexes built from one AST scan per module.
        self.fn_nodes: dict[str, _FnEntry] = {}
        self.class_nodes: dict[str, tuple[str, ast.ClassDef]] = {}
        self.class_bases: dict[str, list[str]] = {}  # class -> dotted bases
        self.fields: dict[str, dict[str, _FieldFact]] = {}  # class -> attr
        self.properties: dict[tuple[str, str], str | None] = {}
        self.fn_returns: dict[str, str] = {}  # fn -> canonical class
        self.module_locks: dict[str, set[str]] = {}  # module -> lock names
        self.module_safe: dict[str, set[str]] = {}

        # Walk products.
        self.roots: dict[str, _Root] = {}
        self.parents: dict[str, dict[str, tuple[str, int] | None]] = {}
        self.accesses: dict[str, list[_Access]] = {}
        self.lock_users: set[str] = set()  # fns that hold/take some lock
        self.lock_edges: dict[tuple[str, str],
                              tuple[str, int, str, str]] = {}
        self.signal_sites: list[tuple[str, int, str, str, str]] = []
        self.cta_sites: list[tuple[str, str, int, str, str]] = []
        self.locks_seen: set[str] = set()
        self._memo: set[tuple[str, str, frozenset[str], bool]] = set()
        self._acc_seen: set[tuple] = set()
        self._external_targets = 0
        self._dynamic_targets = 0

        self._index_modules()
        self._collect_field_facts()
        self._discover_roots()

    # -- plumbing ----------------------------------------------------------

    def _location(self, module_name: str, lineno: int) -> str:
        info = self.graph.modules.get(module_name)
        if info is None:
            return f"{module_name}:{lineno}"
        path = info.path
        try:
            path = path.relative_to(self.graph.root.parent)
        except ValueError:
            pass
        return f"{path}:{lineno}"

    def _allowed(self, module_name: str, lineno: int, rule: str) -> bool:
        """Is the finding suppressed?  Suppressed findings count as
        hits so their allow() comments are not reported unused."""
        if module_name not in self._suppression_cache:
            from repro.check.lints import _suppressions

            info = self.graph.modules.get(module_name)
            source = ""
            if info is not None:
                try:
                    source = info.path.read_text()
                except OSError:
                    source = ""
            self._suppression_cache[module_name] = _suppressions(source)
        if rule in self._suppression_cache[module_name].get(lineno, ()):
            self._hits.add((module_name, lineno, rule))
            return True
        return False

    def _find(self, rule: str, severity: str, location: str, message: str,
              trace: tuple[str, ...] = ()) -> None:
        self.result.findings.append(
            Finding("races", rule, severity, location, message, trace))

    def _witness(self, root: _Root, fn_name: str, leaf: str) -> tuple[str, ...]:
        parents = self.parents.get(root.id, {})
        if fn_name not in parents:
            return (leaf,)
        chain: list[str] = []
        current: str | None = fn_name
        while current is not None:
            fn = self.graph.functions.get(current)
            where = ""
            if fn is not None:
                where = f" ({self._location(fn.module, fn.lineno)})"
            parent = parents.get(current)
            if parent is None:
                chain.append(f"{current}{where} [thread root: {root.kind}]")
                current = None
            else:
                caller, lineno = parent
                chain.append(f"{current}{where} called from {caller}:{lineno}")
                current = caller
        return (*reversed(chain), leaf)

    # -- module indexing ---------------------------------------------------

    def _index_modules(self) -> None:
        for name in sorted(self.graph.modules):
            info = self.graph.modules[name]
            try:
                tree = ast.parse(info.path.read_text(), filename=str(info.path))
            except (OSError, SyntaxError):
                continue  # the callgraph already records the hole
            self._index_tree(info, tree)
            self.module_locks[name] = {
                a.name for a in info.assigns.values()
                if any(self._canonical_ctor(info, c) in _LOCK_TYPES
                       for c in a.value_calls)
            }
            self.module_safe[name] = {
                a.name for a in info.assigns.values()
                if any(self._canonical_ctor(info, c) in _SAFE_TYPES
                       for c in a.value_calls)
            }

    def _index_tree(self, info: ModuleInfo, tree: ast.Module) -> None:
        analysis = self

        class _Indexer(ast.NodeVisitor):
            def __init__(self) -> None:
                self.class_stack: list[str] = []
                self.fn_stack: list[str] = []

            def _qual(self, name: str) -> str:
                return ".".join([*self.class_stack, *self.fn_stack, name])

            def visit_ClassDef(self, node: ast.ClassDef) -> None:
                qual = self._qual(node.name)
                if not self.fn_stack:  # skip classes defined inside functions
                    canonical = f"{info.name}.{qual}"
                    analysis.class_nodes[canonical] = (info.name, node)
                    analysis.class_bases[canonical] = [
                        d for d in (_dotted(b) for b in node.bases)
                        if d is not None
                    ]
                self.class_stack.append(node.name)
                self.generic_visit(node)
                self.class_stack.pop()

            def _visit_fn(self, node) -> None:
                qual = self._qual(node.name)
                owner = None
                if self.class_stack and not self.fn_stack:
                    owner = f"{info.name}.{'.'.join(self.class_stack)}"
                is_prop = any(
                    isinstance(d, ast.Name) and d.id == "property"
                    for d in node.decorator_list)
                full = f"{info.name}.{qual}"
                analysis.fn_nodes[full] = _FnEntry(
                    info.name, node, owner, is_prop)
                returned = analysis._annotation_class(info, node.returns)
                if returned is not None:
                    analysis.fn_returns[full] = returned
                if is_prop and owner is not None:
                    analysis.properties[(owner, node.name)] = returned
                self.fn_stack.append(node.name)
                self.generic_visit(node)
                self.fn_stack.pop()

            visit_FunctionDef = _visit_fn
            visit_AsyncFunctionDef = _visit_fn

        _Indexer().visit(tree)

    # -- name/type resolution ----------------------------------------------

    def _resolve_name(self, info: ModuleInfo, dotted: str) -> str | None:
        """Canonical target of a name as read inside ``info``."""
        head, _, rest = dotted.partition(".")
        if head in info.reexports:
            base = info.reexports[head]
        elif head in info.assigns or head in info.functions \
                or head in info.classes:
            base = f"{info.name}.{head}"
        else:
            return None
        target = f"{base}.{rest}" if rest else base
        return canonicalize(self.graph, target)

    def _canonical_ctor(self, info: ModuleInfo, call_target: str) -> str:
        """Canonical form of a constructor target recorded on an assign."""
        return self._resolve_name(info, call_target) or call_target

    def _annotation_class(self, info: ModuleInfo,
                          node: ast.expr | None) -> str | None:
        """The single in-package class (or lock/safe stdlib type) an
        annotation names, seeing through ``X | None`` / ``Optional[X]``."""
        if node is None:
            return None
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            left = self._annotation_class(info, node.left)
            right = self._annotation_class(info, node.right)
            if left is not None and right is not None and left != right:
                return None  # genuinely ambiguous union
            return left or right
        if isinstance(node, ast.Subscript):
            base = _dotted(node.value)
            if base is not None and base.split(".")[-1] == "Optional":
                return self._annotation_class(info, node.slice)
            return None  # dict[...], list[...]: containers stay untyped
        if isinstance(node, ast.Constant) and node.value is None:
            return None
        dotted = _dotted(node)
        if dotted is None or dotted == "None":
            return None
        resolved = self._resolve_name(info, dotted) or dotted
        if resolved in _SAFE_TYPES or resolved in self.class_nodes:
            return resolved
        return None

    # -- field facts --------------------------------------------------------

    def _collect_field_facts(self) -> None:
        for canonical in sorted(self.class_nodes):
            module_name, node = self.class_nodes[canonical]
            info = self.graph.modules[module_name]
            facts = self.fields.setdefault(canonical, {})
            for stmt in node.body:  # class-level (incl. dataclass fields)
                if isinstance(stmt, ast.AnnAssign) \
                        and isinstance(stmt.target, ast.Name):
                    self._classify(facts, info, stmt.target.id,
                                   stmt.value, stmt.annotation, None)
                elif isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            self._classify(facts, info, target.id,
                                           stmt.value, None, None)
        # self.X = ... in every method of the class.
        for fn_name in sorted(self.fn_nodes):
            entry = self.fn_nodes[fn_name]
            if entry.owner is None:
                continue
            info = self.graph.modules[entry.module]
            facts = self.fields.setdefault(entry.owner, {})
            params = self._param_types(info, entry.node)
            for stmt in ast.walk(entry.node):
                targets: list[tuple[ast.expr, ast.expr | None,
                                    ast.expr | None]] = []
                if isinstance(stmt, ast.Assign):
                    targets = [(t, stmt.value, None) for t in stmt.targets]
                elif isinstance(stmt, ast.AnnAssign):
                    targets = [(stmt.target, stmt.value, stmt.annotation)]
                for target, value, annotation in targets:
                    if isinstance(target, ast.Attribute) \
                            and isinstance(target.value, ast.Name) \
                            and target.value.id == "self":
                        self._classify(facts, info, target.attr,
                                       value, annotation, dict(params))

    def _param_types(self, info: ModuleInfo,
                     node: ast.FunctionDef | ast.AsyncFunctionDef
                     ) -> list[tuple[str, str | None]]:
        args = node.args
        out: list[tuple[str, str | None]] = []
        for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            out.append((a.arg, self._annotation_class(info, a.annotation)))
        for a in (args.vararg, args.kwarg):
            if a is not None:
                out.append((a.arg, None))
        return out

    def _classify(self, facts: dict[str, _FieldFact], info: ModuleInfo,
                  attr: str, value: ast.expr | None,
                  annotation: ast.expr | None,
                  params: dict[str, str | None] | None) -> None:
        fact = facts.setdefault(attr, _FieldFact())
        candidates: list[str] = []
        if annotation is not None:
            typ = self._annotation_class(info, annotation)
            if typ is not None:
                candidates.append(typ)
        for call, args in self._value_ctors(value):
            resolved = self._resolve_name(info, call) or call
            candidates.append(resolved)
            if resolved.endswith(".Condition") and resolved in _LOCK_TYPES \
                    and args:
                wrapped = args[0]
                if isinstance(wrapped, ast.Attribute) \
                        and isinstance(wrapped.value, ast.Name) \
                        and wrapped.value.id == "self":
                    fact.alias = wrapped.attr
        if isinstance(value, ast.Name) and params is not None:
            typ = params.get(value.id)
            if typ is not None:
                candidates.append(typ)
        for typ in candidates:
            if typ in _LOCK_TYPES:
                fact.is_lock = True
                fact.is_safe = True
            elif typ in _SAFE_TYPES:
                fact.is_safe = True
            elif fact.typ is None and typ in self.class_nodes:
                fact.typ = typ

    @staticmethod
    def _value_ctors(value: ast.expr | None
                     ) -> list[tuple[str, list[ast.expr]]]:
        """Constructor-shaped calls inside an assigned value: the call
        target as written plus its positional args.  Sees through
        ``a or B()`` and dataclass ``field(default_factory=X)``."""
        if value is None:
            return []
        out: list[tuple[str, list[ast.expr]]] = []
        stack = [value]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.BoolOp):
                stack.extend(node.values)
            elif isinstance(node, ast.Call):
                dotted = _dotted(node.func)
                if dotted == "field":
                    for kw in node.keywords:
                        if kw.arg == "default_factory":
                            factory = _dotted(kw.value)
                            if factory is not None:
                                out.append((factory, []))
                elif dotted is not None:
                    out.append((dotted, list(node.args)))
        return out

    # -- thread-root discovery ----------------------------------------------

    def _handler_classes(self) -> set[str]:
        """Classes whose base chain reaches an ``*HTTPRequestHandler``."""
        handlers: set[str] = set()
        changed = True
        while changed:
            changed = False
            for canonical, bases in self.class_bases.items():
                if canonical in handlers:
                    continue
                for base in bases:
                    info = self.graph.modules[self.class_nodes[canonical][0]]
                    resolved = self._resolve_name(info, base) or base
                    if resolved.endswith("HTTPRequestHandler") \
                            or resolved in handlers:
                        handlers.add(canonical)
                        changed = True
                        break
        return handlers

    def _resolve_callable(self, module_name: str, fn_qualname: str,
                          raw: str) -> tuple[str | None, str]:
        """Resolve a Thread-target/signal-handler expression to a known
        function: ``(canonical fn, status)`` where status is one of
        ``ok``/``external``/``local``/``dynamic``/``unresolved``."""
        info = self.graph.modules[module_name]
        if raw == "<dynamic>":
            return None, "dynamic"
        head, _, rest = raw.partition(".")
        if head == "self":
            if rest and "." not in rest and "." in fn_qualname:
                owner = fn_qualname.rsplit(".", 1)[0]
                candidate = f"{module_name}.{owner}.{rest}"
                if candidate in self.fn_nodes:
                    return candidate, "ok"
            return None, "external" if "." in rest else "unresolved"
        if not rest:
            if fn_qualname != MODULE_BODY:
                nested = f"{module_name}.{fn_qualname}.{raw}"
                if nested in self.fn_nodes:
                    return nested, "ok"
            sibling = f"{module_name}.{raw}"
            if sibling in self.fn_nodes:
                return sibling, "ok"
            resolved = self._resolve_name(info, raw)
            if resolved is not None and resolved in self.fn_nodes:
                return resolved, "ok"
            fn = info.functions.get(fn_qualname)
            if fn is not None and (raw in fn.locals or raw in fn.params):
                return None, "local"
            return None, "unresolved"
        resolved = self._resolve_name(info, raw)
        if resolved is not None and resolved in self.fn_nodes:
            return resolved, "ok"
        return None, "external"

    def _discover_roots(self) -> None:
        # The registry roots run sequentially in one main thread: they
        # collapse onto a single root so two experiments sharing module
        # state never spuriously "race".
        mains: list[str] = []
        for _, target in sorted(self.entry_points.items()):
            fn = self.graph.function_for(canonicalize(self.graph, target))
            if fn is not None and fn.name in self.fn_nodes \
                    and fn.name not in mains:
                mains.append(fn.name)
        if mains:
            self.roots["main"] = _Root("main", "main", tuple(mains), False)

        handler_classes = self._handler_classes()
        for canonical in sorted(handler_classes):
            for fn_name in sorted(self.fn_nodes):
                entry = self.fn_nodes[fn_name]
                if entry.owner == canonical \
                        and entry.node.name.startswith("do_"):
                    root_id = f"handler:{fn_name}"
                    self.roots[root_id] = _Root(
                        root_id, "http-handler", (fn_name,), True)

        for module_name in sorted(self.graph.modules):
            info = self.graph.modules[module_name]
            for fn in info.functions.values():
                for raw, lineno in [*fn.thread_targets]:
                    resolved, status = self._resolve_callable(
                        module_name, fn.qualname, raw)
                    if resolved is not None:
                        root_id = f"thread:{resolved}"
                        self.roots.setdefault(root_id, _Root(
                            root_id, "thread", (resolved,), True))
                    else:
                        self._note_unresolved_target(
                            "thread target", raw, status, module_name, lineno)
                for raw, lineno in [*fn.signal_handlers]:
                    resolved, status = self._resolve_callable(
                        module_name, fn.qualname, raw)
                    if resolved is not None:
                        root_id = f"signal:{resolved}"
                        self.roots.setdefault(root_id, _Root(
                            root_id, "signal", (resolved,), True))
                    else:
                        self._note_unresolved_target(
                            "signal handler", raw, status, module_name, lineno)

    def _note_unresolved_target(self, what: str, raw: str, status: str,
                                module_name: str, lineno: int) -> None:
        if status == "external":
            self._external_targets += 1  # server.serve_forever etc.
            return
        if status in ("local", "dynamic"):
            self._dynamic_targets += 1  # restoring a saved handler, lambdas
            return
        if self._allowed(module_name, lineno, "race-thread-root"):
            return
        self._find(
            "race-thread-root", "warning",
            self._location(module_name, lineno),
            f"{what} {raw!r} names no known function; if this is a typo "
            f"the thread/handler dies silently at runtime, and the race "
            f"analysis cannot follow it either way")

    # -- the interprocedural walk -------------------------------------------

    def _canon_lock(self, lock_id: str) -> str:
        """Normalize through Condition-wrapping aliases (bounded)."""
        for _ in range(4):
            cls, _, attr = lock_id.rpartition(".")
            fact = self.fields.get(cls, {}).get(attr)
            if fact is not None and fact.alias is not None:
                lock_id = f"{cls}.{fact.alias}"
            else:
                break
        return lock_id

    def _walk_all(self) -> None:
        for root_id in sorted(self.roots):
            root = self.roots[root_id]
            self.parents[root_id] = {}
            for fn_name in root.fns:
                self.parents[root_id].setdefault(fn_name, None)
                self._visit_fn(root, fn_name, frozenset(), False, 0)

    def _visit_fn(self, root: _Root, fn_name: str, held: frozenset[str],
                  self_owned: bool, depth: int,
                  owned_params: frozenset[str] = frozenset()) -> None:
        key = (root.id, fn_name, held, self_owned, owned_params)
        if key in self._memo or depth > _MAX_DEPTH:
            return
        self._memo.add(key)
        entry = self.fn_nodes.get(fn_name)
        if entry is None:
            return
        if held:
            self.lock_users.add(fn_name)
        info = self.graph.modules[entry.module]
        last = entry.node.name
        init = last in ("__init__", "__post_init__")
        ctx = _Ctx(fn_name, info, entry.owner, self_owned or init,
                   self._param_types(info, entry.node), init, owned_params)
        self._exec_block(entry.node.body, ctx, held, root, depth)

    def _call_into(self, root: _Root, ctx: _Ctx, callee: str, lineno: int,
                   held: frozenset[str], self_owned: bool, depth: int,
                   owned_params: frozenset[str] = frozenset()) -> None:
        parents = self.parents[root.id]
        if callee not in parents:
            parents[callee] = (ctx.fn, lineno)
        self._visit_fn(root, callee, held, self_owned, depth + 1,
                       owned_params)

    def _owned_params(self, node: ast.Call, ctx: _Ctx,
                      callee: str) -> frozenset[str]:
        """Callee parameters bound to locals this walk *owns* (fresh,
        unpublished objects): ownership flows into the call, so a graph
        built and consumed inside one thread never looks shared."""
        entry = self.fn_nodes.get(callee)
        if entry is None:
            return frozenset()
        args = entry.node.args
        names = [a.arg for a in [*args.posonlyargs, *args.args]]
        offset = 1 if entry.owner is not None else 0  # skip self
        owned: set[str] = set()
        for index, arg in enumerate(node.args):
            if isinstance(arg, ast.Name) \
                    and ctx.env.get(arg.id, (None, False))[1] \
                    and index + offset < len(names):
                owned.add(names[index + offset])
        for kw in node.keywords:
            if kw.arg is not None and isinstance(kw.value, ast.Name) \
                    and ctx.env.get(kw.value.id, (None, False))[1]:
                owned.add(kw.arg)
        return frozenset(owned)

    # -- statement execution -------------------------------------------------

    def _exec_block(self, stmts: list[ast.stmt], ctx: _Ctx,
                    held: frozenset[str], root: _Root,
                    depth: int) -> frozenset[str]:
        for stmt in stmts:
            held = self._exec_stmt(stmt, ctx, held, root, depth)
        return held

    def _exec_stmt(self, stmt: ast.stmt, ctx: _Ctx, held: frozenset[str],
                   root: _Root, depth: int) -> frozenset[str]:
        if isinstance(stmt, ast.Expr):
            return self._exec_expr_stmt(stmt, ctx, held, root, depth)
        if isinstance(stmt, ast.Assign):
            typ, owned = self._eval(stmt.value, ctx, held, root, depth)
            for target in stmt.targets:
                self._assign_target(target, typ, owned, ctx, held, root,
                                    depth, stmt.lineno)
            return held
        if isinstance(stmt, ast.AnnAssign):
            typ, owned = (None, False)
            if stmt.value is not None:
                typ, owned = self._eval(stmt.value, ctx, held, root, depth)
            if typ is None:
                info = self.graph.modules[ctx.mod.name]
                typ = self._annotation_class(info, stmt.annotation)
            self._assign_target(stmt.target, typ, owned, ctx, held, root,
                                depth, stmt.lineno)
            return held
        if isinstance(stmt, ast.AugAssign):
            self._eval(stmt.value, ctx, held, root, depth)
            self._record_target(stmt.target, "write", ctx, held, root,
                                depth, stmt.lineno, also_read=True)
            return held
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._record_target(target, "write", ctx, held, root,
                                    depth, stmt.lineno)
            return held
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._exec_with(stmt, ctx, held, root, depth)
        if isinstance(stmt, ast.If):
            self._eval(stmt.test, ctx, held, root, depth)
            if not held:
                self._scan_check_then_act(stmt, ctx, root)
            self._exec_block(stmt.body, ctx, held, root, depth)
            self._exec_block(stmt.orelse, ctx, held, root, depth)
            return held
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._eval(stmt.iter, ctx, held, root, depth)
            if isinstance(stmt.target, ast.Name):
                ctx.env.setdefault(stmt.target.id, (None, False))
            self._exec_block(stmt.body, ctx, held, root, depth)
            self._exec_block(stmt.orelse, ctx, held, root, depth)
            return held
        if isinstance(stmt, ast.While):
            self._eval(stmt.test, ctx, held, root, depth)
            self._exec_block(stmt.body, ctx, held, root, depth)
            self._exec_block(stmt.orelse, ctx, held, root, depth)
            return held
        if isinstance(stmt, ast.Try):
            self._exec_block(stmt.body, ctx, held, root, depth)
            for handler in stmt.handlers:
                if handler.name:
                    ctx.env.setdefault(handler.name, (None, False))
                self._exec_block(handler.body, ctx, held, root, depth)
            self._exec_block(stmt.orelse, ctx, held, root, depth)
            self._exec_block(stmt.finalbody, ctx, held, root, depth)
            return held
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._eval(stmt.value, ctx, held, root, depth)
            return held
        if isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._eval(stmt.exc, ctx, held, root, depth)
            return held
        if isinstance(stmt, ast.Global):
            ctx.globals_declared.update(stmt.names)
            return held
        if isinstance(stmt, ast.Assert):
            self._eval(stmt.test, ctx, held, root, depth)
            return held
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Import, ast.ImportFrom,
                             ast.Pass, ast.Break, ast.Continue,
                             ast.Nonlocal)):
            return held  # nested defs walked only if they become roots/callees
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._eval(child, ctx, held, root, depth)
        return held

    def _exec_expr_stmt(self, stmt: ast.Expr, ctx: _Ctx,
                        held: frozenset[str], root: _Root,
                        depth: int) -> frozenset[str]:
        """Expression statements; explicit .acquire()/.release() on a
        lock field adjusts the held set linearly."""
        node = stmt.value
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in ("acquire", "release"):
            lock = self._lock_of(node.func.value, ctx)
            if lock is not None:
                for arg in node.args:
                    self._eval(arg, ctx, held, root, depth)
                if node.func.attr == "acquire":
                    self._note_acquire(lock, held, ctx, root, node.lineno)
                    self.lock_users.add(ctx.fn)
                    return held | {lock}
                return held - {lock}
        self._eval(node, ctx, held, root, depth)
        return held

    def _exec_with(self, stmt: ast.With | ast.AsyncWith, ctx: _Ctx,
                   held: frozenset[str], root: _Root,
                   depth: int) -> frozenset[str]:
        acquired: list[str] = []
        for item in stmt.items:
            lock = self._lock_of(item.context_expr, ctx)
            if lock is not None:
                self._note_acquire(lock, held | frozenset(acquired),
                                   ctx, root, stmt.lineno)
                acquired.append(lock)
            else:
                self._eval(item.context_expr, ctx, held, root, depth)
            if item.optional_vars is not None \
                    and isinstance(item.optional_vars, ast.Name):
                ctx.env.setdefault(item.optional_vars.id, (None, False))
        if acquired:
            self.lock_users.add(ctx.fn)
        self._exec_block(stmt.body, ctx, held | frozenset(acquired),
                         root, depth)
        return held

    def _lock_of(self, expr: ast.expr, ctx: _Ctx) -> str | None:
        if isinstance(expr, ast.Attribute):
            typ, owned = self._type_of(expr.value, ctx)
            if typ is None:
                return None
            fact = self.fields.get(typ, {}).get(expr.attr)
            if fact is not None and fact.is_lock:
                lock = self._canon_lock(f"{typ}.{expr.attr}")
                self.locks_seen.add(lock)
                return lock
            return None
        if isinstance(expr, ast.Name):
            if expr.id in ctx.env:
                return None
            if expr.id in self.module_locks.get(ctx.mod.name, ()):
                lock = f"{ctx.mod.name}.{expr.id}"
                self.locks_seen.add(lock)
                return lock
        return None

    def _note_acquire(self, lock: str, held: frozenset[str], ctx: _Ctx,
                      root: _Root, lineno: int) -> None:
        for h in sorted(held):
            if h != lock:  # reentrant self-acquisition is not an order edge
                self.lock_edges.setdefault(
                    (h, lock), (ctx.mod.name, lineno, ctx.fn, root.id))
        if root.kind == "signal":
            self.signal_sites.append((
                ctx.mod.name, lineno, ctx.fn,
                f"acquires lock {lock} (a thread interrupted while holding "
                f"it deadlocks the handler)", root.id))

    # -- expression evaluation ----------------------------------------------

    def _type_of(self, expr: ast.expr, ctx: _Ctx) -> tuple[str | None, bool]:
        """(canonical class, owned) of a receiver expression — typing
        only, no access recording."""
        if isinstance(expr, ast.Name):
            return ctx.env.get(expr.id, (None, False))
        if isinstance(expr, ast.Attribute):
            typ, owned = self._type_of(expr.value, ctx)
            if typ is None:
                return None, False
            prop = self.properties.get((typ, expr.attr))
            if prop is not None or (typ, expr.attr) in self.properties:
                return prop, owned
            fact = self.fields.get(typ, {}).get(expr.attr)
            if fact is not None:
                return fact.typ, owned
            return None, False
        if isinstance(expr, ast.Call):
            return self._call_type(expr, ctx)
        return None, False

    def _call_type(self, node: ast.Call, ctx: _Ctx) -> tuple[str | None, bool]:
        callee = self._resolve_call(node, ctx)
        if callee is None:
            return None, False
        if callee in self.class_nodes:
            return callee, True  # constructor: a fresh, owned instance
        returned = self.fn_returns.get(callee)
        return returned, False

    def _resolve_call(self, node: ast.Call, ctx: _Ctx) -> str | None:
        """Canonical function/class a call binds to, or None."""
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
            if name in ctx.env:
                return None  # local callable: dynamic dispatch
            nested = f"{ctx.fn}.{name}"
            if nested in self.fn_nodes:
                return nested
            sibling = f"{ctx.mod.name}.{name}"
            if sibling in self.fn_nodes or sibling in self.class_nodes:
                return sibling
            resolved = self._resolve_name(ctx.mod, name)
            if resolved is not None and (resolved in self.fn_nodes
                                         or resolved in self.class_nodes):
                return resolved
            return f"builtins.{name}" if name in ("print", "open") else None
        if isinstance(func, ast.Attribute):
            typ, _ = self._type_of(func.value, ctx)
            if typ is not None:
                candidate = f"{typ}.{func.attr}"
                if candidate in self.fn_nodes:
                    return candidate
                return None
            dotted = _dotted(func)
            if dotted is not None:
                resolved = self._resolve_name(ctx.mod, dotted)
                if resolved is not None and (resolved in self.fn_nodes
                                             or resolved in self.class_nodes):
                    return resolved
        return None

    def _record(self, field_id: str, kind: str, ctx: _Ctx, lineno: int,
                held: frozenset[str], root: _Root) -> None:
        key = (field_id, kind, ctx.mod.name, lineno, root.id, held)
        if key in self._acc_seen:
            return
        self._acc_seen.add(key)
        self.accesses.setdefault(field_id, []).append(_Access(
            kind, ctx.mod.name, lineno, ctx.fn, root.id, held))

    def _field_of(self, expr: ast.expr, ctx: _Ctx) -> str | None:
        """Shared-candidate field id for an attribute chain / global name
        (None for owned receivers, locks, safe types, unknown types)."""
        if isinstance(expr, ast.Attribute):
            typ, owned = self._type_of(expr.value, ctx)
            if typ is None or owned:
                return None
            if ctx.init and isinstance(expr.value, ast.Name) \
                    and expr.value.id in ("self", "cls"):
                return None  # pre-publication initialization
            fact = self.fields.get(typ, {}).get(expr.attr)
            if fact is not None and fact.is_safe:
                return None
            if (typ, expr.attr) in self.properties:
                return None
            return f"{typ}.{expr.attr}"
        if isinstance(expr, ast.Name):
            name = expr.id
            if name in ctx.env or name in ctx.mod.functions \
                    or name in ctx.mod.classes:
                return None
            if name in self.module_safe.get(ctx.mod.name, ()) \
                    or name in self.module_locks.get(ctx.mod.name, ()):
                return None
            assign = ctx.mod.assigns.get(name)
            if assign is not None and assign.mutable_literal:
                return f"{ctx.mod.name}.{name}"
            if name in ctx.globals_declared:
                return f"{ctx.mod.name}.{name}"
        return None

    def _assign_target(self, target: ast.expr, typ: str | None, owned: bool,
                       ctx: _Ctx, held: frozenset[str], root: _Root,
                       depth: int, lineno: int) -> None:
        if isinstance(target, ast.Name):
            if target.id in ctx.globals_declared:
                field_id = f"{ctx.mod.name}.{target.id}"
                self._record(field_id, "write", ctx, lineno, held, root)
                return
            prev = ctx.env.get(target.id)
            if prev is None:
                ctx.env[target.id] = (typ, owned)
            else:
                ptyp, powned = prev
                same = typ is None or ptyp is None or typ == ptyp
                ctx.env[target.id] = (typ or ptyp, powned and owned and same)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign_target(elt, None, False, ctx, held, root,
                                    depth, lineno)
            return
        if isinstance(target, ast.Starred):
            self._assign_target(target.value, None, False, ctx, held, root,
                                depth, lineno)
            return
        self._record_target(target, "write", ctx, held, root, depth, lineno)

    def _record_target(self, target: ast.expr, kind: str, ctx: _Ctx,
                       held: frozenset[str], root: _Root, depth: int,
                       lineno: int, also_read: bool = False) -> None:
        """Record a store through an attribute / subscript target."""
        node = target
        if isinstance(node, ast.Subscript):
            self._eval(node.slice, ctx, held, root, depth)
            node = node.value
        field_id = self._field_of(node, ctx)
        if field_id is not None:
            if also_read:
                self._record(field_id, "read", ctx, lineno, held, root)
            self._record(field_id, kind, ctx, lineno, held, root)
        elif isinstance(node, ast.Attribute):
            self._eval(node.value, ctx, held, root, depth)

    def _eval(self, expr: ast.expr, ctx: _Ctx, held: frozenset[str],
              root: _Root, depth: int) -> tuple[str | None, bool]:
        if isinstance(expr, ast.Name):
            field_id = self._field_of(expr, ctx)
            if field_id is not None:
                self._record(field_id, "read", ctx, expr.lineno, held, root)
            return ctx.env.get(expr.id, (None, False))
        if isinstance(expr, ast.Attribute):
            typ, owned = self._type_of(expr.value, ctx)
            self._eval_children(expr.value, ctx, held, root, depth)
            if typ is None:
                return None, False
            if (typ, expr.attr) in self.properties:
                getter = f"{typ}.{expr.attr}"
                if getter in self.fn_nodes:
                    self._call_into(root, ctx, getter, expr.lineno, held,
                                    owned, depth)
                return self.properties[(typ, expr.attr)], False
            field_id = self._field_of(expr, ctx)
            if field_id is not None:
                self._record(field_id, "read", ctx, expr.lineno, held, root)
            fact = self.fields.get(typ, {}).get(expr.attr)
            return (fact.typ if fact is not None else None), owned
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, ctx, held, root, depth)
        if isinstance(expr, ast.Subscript):
            value_field = self._field_of(expr.value, ctx)
            if value_field is not None:
                self._record(value_field, "read", ctx, expr.lineno, held, root)
            else:
                self._eval(expr.value, ctx, held, root, depth)
            self._eval(expr.slice, ctx, held, root, depth)
            return None, False
        if isinstance(expr, ast.Lambda):
            return None, False  # conservatively opaque
        self._eval_children(expr, ctx, held, root, depth)
        return None, False

    def _eval_children(self, expr: ast.expr, ctx: _Ctx,
                       held: frozenset[str], root: _Root,
                       depth: int) -> None:
        if isinstance(expr, (ast.Name, ast.Attribute, ast.Call,
                             ast.Subscript)):
            self._eval(expr, ctx, held, root, depth)
            return
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self._eval(child, ctx, held, root, depth)
            elif isinstance(child, ast.comprehension):
                self._eval(child.iter, ctx, held, root, depth)
                if isinstance(child.target, ast.Name):
                    ctx.env.setdefault(child.target.id, (None, False))
                for cond in child.ifs:
                    self._eval(cond, ctx, held, root, depth)
            elif isinstance(child, (ast.keyword, ast.FormattedValue)):
                self._eval(child.value, ctx, held, root, depth)

    # Receiver methods that mutate the receiver in place.
    _MUTATORS = frozenset({
        "append", "extend", "insert", "add", "update", "setdefault",
        "pop", "popitem", "clear", "remove", "discard", "appendleft",
        "extendleft", "sort", "reverse",
    })

    def _eval_call(self, node: ast.Call, ctx: _Ctx, held: frozenset[str],
                   root: _Root, depth: int) -> tuple[str | None, bool]:
        func = node.func
        receiver_owned = False
        if isinstance(func, ast.Attribute):
            method = func.attr
            recv_field = self._field_of(func.value, ctx)
            typ, receiver_owned = self._type_of(func.value, ctx)
            if method in self._MUTATORS and recv_field is not None:
                self._record(recv_field, "write", ctx, node.lineno,
                             held, root)
            elif recv_field is not None and method not in (
                    "acquire", "release", "wait", "notify", "notify_all",
                    "set", "is_set"):
                self._record(recv_field, "read", ctx, node.lineno, held, root)
            else:
                self._eval_children(func.value, ctx, held, root, depth)
            if root.kind == "signal" and method in ("write", "flush"):
                self.signal_sites.append((
                    ctx.mod.name, node.lineno, ctx.fn,
                    f".{method}() on an I/O buffer (not async-signal-safe: "
                    f"reentering a buffered stream corrupts it)", root.id))
        for arg in node.args:
            self._eval(arg, ctx, held, root, depth)
        for kw in node.keywords:
            self._eval(kw.value, ctx, held, root, depth)
        callee = self._resolve_call(node, ctx)
        if callee is None:
            return None, False
        if callee in ("builtins.print", "builtins.open"):
            if root.kind == "signal":
                name = callee.rsplit(".", 1)[-1]
                self.signal_sites.append((
                    ctx.mod.name, node.lineno, ctx.fn,
                    f"calls {name}() (buffered I/O is not "
                    f"async-signal-safe)", root.id))
            return None, False
        if callee in self.class_nodes:
            init = f"{callee}.__init__"
            if init in self.fn_nodes:
                self._call_into(root, ctx, init, node.lineno, held,
                                True, depth,
                                self._owned_params(node, ctx, init))
            return callee, True
        if callee in self.fn_nodes:
            self._call_into(root, ctx, callee, node.lineno, held,
                            receiver_owned, depth,
                            self._owned_params(node, ctx, callee))
            return self.fn_returns.get(callee), False
        return None, False

    # -- check-then-act ------------------------------------------------------

    def _scan_check_then_act(self, stmt: ast.If, ctx: _Ctx,
                             root: _Root) -> None:
        checked: str | None = None
        for sub in ast.walk(stmt.test):
            if isinstance(sub, ast.Compare) and any(
                    isinstance(op, (ast.In, ast.NotIn)) for op in sub.ops):
                candidate = self._field_of(sub.comparators[-1], ctx)
                if candidate is not None:
                    checked = candidate
                    break
        if checked is None:
            return
        for sub in ast.walk(stmt):
            if sub is stmt.test or isinstance(sub, ast.expr) \
                    and any(sub is n for n in ast.walk(stmt.test)):
                continue
            hit = False
            if isinstance(sub, ast.Subscript):
                hit = self._field_of(sub.value, ctx) == checked
            elif isinstance(sub, ast.Call) \
                    and isinstance(sub.func, ast.Attribute) \
                    and sub.func.attr in self._MUTATORS:
                hit = self._field_of(sub.func.value, ctx) == checked
            if hit:
                self.cta_sites.append(
                    (checked, ctx.mod.name, stmt.lineno, ctx.fn, root.id))
                return

    # -- verdicts ------------------------------------------------------------

    def _field_roots(self, recs: list[_Access]) -> set[str]:
        return {r.root for r in recs}

    def _is_shared(self, recs: list[_Access]) -> bool:
        writes = [r for r in recs if r.kind == "write"]
        if not writes:
            return False
        roots = self._field_roots(recs)
        if len(roots) >= 2:
            return True
        return any(self.roots[r].multi for r in roots)

    def _has_lock_evidence(self, recs: list[_Access]) -> bool:
        return any(r.locks for r in recs) \
            or any(r.fn in self.lock_users for r in recs)

    def _roots_note(self, recs: list[_Access]) -> str:
        return ", ".join(sorted(self._field_roots(recs)))

    def _judge_fields(self) -> None:
        shared_count = 0
        guarded_count = 0
        for field_id in sorted(self.accesses):
            recs = sorted(self.accesses[field_id],
                          key=lambda r: (r.module, r.lineno, r.kind))
            if not self._is_shared(recs):
                continue
            shared_count += 1
            if not self._has_lock_evidence(recs):
                continue  # lock-free by design: check-then-act only
            writes = [r for r in recs if r.kind == "write"]
            guard = frozenset.intersection(*[r.locks for r in writes])
            if guard:
                guarded_count += 1
                self._judge_reads(field_id, recs, guard)
                continue
            unguarded = [r for r in writes if not r.locks]
            if unguarded:
                locks_elsewhere = sorted(
                    {lock for r in recs for lock in r.locks})
                if locks_elsewhere:
                    hint = (f"other accesses guard it with "
                            f"{', '.join(locks_elsewhere)}")
                else:
                    hint = ("nearby code manages locks yet no site "
                            f"guards {field_id}")
                for rec in unguarded:
                    if self._allowed(rec.module, rec.lineno,
                                     "race-unguarded"):
                        continue
                    self._find(
                        "race-unguarded", "error",
                        self._location(rec.module, rec.lineno),
                        f"write to shared {field_id} holds no lock, but "
                        f"{hint}; reached from "
                        f"roots {{{self._roots_note(recs)}}} — move this "
                        f"write under the guarding lock",
                        self._witness(
                            self.roots[rec.root], rec.fn,
                            f"{rec.fn} writes {field_id} at "
                            f"{self._location(rec.module, rec.lineno)} "
                            f"with lockset {{}}"))
                    break
            else:
                locksets = sorted({tuple(sorted(r.locks)) for r in writes})
                rec = writes[0]
                if not self._allowed(rec.module, rec.lineno,
                                     "race-guard-mix"):
                    rendered = "; ".join(
                        "{" + ", ".join(ls) + "}" for ls in locksets)
                    self._find(
                        "race-guard-mix", "error",
                        self._location(rec.module, rec.lineno),
                        f"shared {field_id} is written under disjoint "
                        f"locksets ({rendered}) — two sites holding "
                        f"different locks do not exclude each other; "
                        f"pick one guarding lock (roots "
                        f"{{{self._roots_note(recs)}}})",
                        self._witness(
                            self.roots[rec.root], rec.fn,
                            f"{rec.fn} writes {field_id} at "
                            f"{self._location(rec.module, rec.lineno)} "
                            f"with lockset {{{', '.join(sorted(rec.locks))}}}"))
        self.result.info["shared_fields"] = shared_count
        self.result.info["guarded_fields"] = guarded_count

    def _judge_reads(self, field_id: str, recs: list[_Access],
                     guard: frozenset[str]) -> None:
        for rec in recs:
            if rec.kind != "read" or guard <= rec.locks:
                continue
            if self._allowed(rec.module, rec.lineno, "race-unguarded"):
                continue
            self._find(
                "race-unguarded", "error",
                self._location(rec.module, rec.lineno),
                f"read of shared {field_id} outside its guarding lock "
                f"{', '.join(sorted(guard))} (every write site holds it); "
                f"reached from roots {{{self._roots_note(recs)}}} — a "
                f"concurrent settle can tear this read",
                self._witness(
                    self.roots[rec.root], rec.fn,
                    f"{rec.fn} reads {field_id} at "
                    f"{self._location(rec.module, rec.lineno)} with "
                    f"lockset {{{', '.join(sorted(rec.locks))}}}"))
            return

    def _judge_lock_order(self) -> None:
        reported: set[frozenset[str]] = set()
        for (a, b), (module, lineno, fn, root_id) in sorted(
                self.lock_edges.items()):
            if (b, a) not in self.lock_edges:
                continue
            pair = frozenset((a, b))
            if pair in reported:
                continue
            reported.add(pair)
            rmodule, rlineno, rfn, rroot = self.lock_edges[(b, a)]
            if self._allowed(module, lineno, "race-lock-order") \
                    or self._allowed(rmodule, rlineno, "race-lock-order"):
                continue
            self._find(
                "race-lock-order", "error",
                self._location(module, lineno),
                f"locks {a} and {b} are acquired in both orders: "
                f"{fn} takes {a} then {b} at "
                f"{self._location(module, lineno)}, while {rfn} takes "
                f"{b} then {a} at {self._location(rmodule, rlineno)} — "
                f"two threads interleaving these paths deadlock",
                (*self._witness(self.roots[root_id], fn,
                                f"{fn} acquires {b} while holding {a} at "
                                f"{self._location(module, lineno)}"),
                 *self._witness(self.roots[rroot], rfn,
                                f"{rfn} acquires {a} while holding {b} at "
                                f"{self._location(rmodule, rlineno)}")))

    def _judge_signal_sites(self) -> None:
        seen: set[tuple[str, int, str]] = set()
        for module, lineno, fn, desc, root_id in sorted(self.signal_sites):
            if (module, lineno, desc) in seen:
                continue
            seen.add((module, lineno, desc))
            if self._allowed(module, lineno, "race-signal-unsafe"):
                continue
            self._find(
                "race-signal-unsafe", "error",
                self._location(module, lineno),
                f"code reachable from a signal handler {desc}; a handler "
                f"must stay at the reentrant-safe minimum (set an Event, "
                f"raise, or write a pre-opened pipe)",
                self._witness(self.roots[root_id], fn,
                              f"{fn} {desc} at "
                              f"{self._location(module, lineno)}"))

    def _judge_check_then_act(self) -> None:
        seen: set[tuple[str, int]] = set()
        for field_id, module, lineno, fn, root_id in sorted(self.cta_sites):
            recs = self.accesses.get(field_id, [])
            if not self._is_shared(recs):
                continue
            if (module, lineno) in seen:
                continue
            seen.add((module, lineno))
            if self._allowed(module, lineno, "race-check-then-act"):
                continue
            self._find(
                "race-check-then-act", "warning",
                self._location(module, lineno),
                f"membership test on shared {field_id} followed by an "
                f"indexed access with no lock held across the window — "
                f"the entry can appear/vanish between check and act "
                f"(roots {{{self._roots_note(recs)}}})",
                self._witness(self.roots[root_id], fn,
                              f"{fn} checks then acts on {field_id} at "
                              f"{self._location(module, lineno)}"))

    def _judge_unused_suppressions(self) -> None:
        from repro.check.lints import _suppressions

        for name in sorted(self.graph.modules):
            info = self.graph.modules[name]
            try:
                source = info.path.read_text()
            except OSError:
                continue
            for lineno, rules in sorted(_suppressions(source).items()):
                for rule in sorted(rules):
                    if rule in RACES_RULES \
                            and (name, lineno, rule) not in self._hits:
                        self._find(
                            "unused-suppression", "warning",
                            self._location(name, lineno),
                            f"allow({rule}) suppresses nothing on this "
                            f"line; the code it excused is gone — remove "
                            f"the comment")

    # -- driver --------------------------------------------------------------

    def run(self) -> PassResult:
        self._walk_all()
        self._judge_fields()
        self._judge_lock_order()
        self._judge_signal_sites()
        self._judge_check_then_act()
        self._judge_unused_suppressions()
        kinds = {"main": 0, "thread": 0, "http-handler": 0, "signal": 0}
        for root in self.roots.values():
            kinds[root.kind] += 1
        walked = {fn for parents in self.parents.values() for fn in parents}
        self.result.info.update({
            "roots": len(self.roots),
            "thread_roots": kinds["thread"],
            "handler_roots": kinds["http-handler"],
            "signal_roots": kinds["signal"],
            "locks": len(self.locks_seen),
            "lock_order_edges": len(self.lock_edges),
            "functions_walked": len(walked),
            "external_targets": self._external_targets,
        })
        self.result.findings.sort(key=lambda f: (f.rule, f.location))
        return self.result


def check_races(root: Path | None = None, package: str | None = None,
                entry_points: dict[str, str] | None = None) -> PassResult:
    """Run the lockset/thread-root race pass.

    ``root``/``package`` default to the installed ``repro`` package;
    ``entry_points`` defaults to the same roots as the ``deps`` pass
    (experiment registry + sweep bases) — they become the sequential
    ``main`` root, while Thread targets, HTTP handler methods, and
    signal handlers are discovered from the tree itself.
    """
    graph = build_callgraph(root, package)
    if entry_points is None:
        from repro.check.deps import registry_entry_points

        entry_points = registry_entry_points() if root is None else {}
    return _RacesAnalysis(graph, entry_points).run()
