"""The built-in REP rules: this repo's contracts, machine-checked.

Each rule guards one written-down contract (see ``CONTRACTS.md`` at the
repo root for the prose versions and their history):

========  ==========================================================
REP001    determinism: no unseeded randomness outside
          ``repro.util.rng``
REP002    durability: artifact files (.json/.npz/.npy) are written
          atomically via ``repro.resilience.atomic``
REP003    run scope: a REGISTRY engine counts only inside its
          ``with engine:`` block (non-test code)
REP004    failure semantics: mapper/shard dispatch exceptions always
          propagate — no silent broad ``except``
REP005    picklability: only module-level callables are submitted to
          process pools
REP006    replayability: no wallclock reads in mining/streaming
          counting paths (would break bit-identical resume)
========  ==========================================================

Rules favor precision over recall: they match the concrete idioms this
codebase uses (``get_engine``/``REGISTRY.get``, ``atomic_open``
with-targets, ``pool.submit(fn, ...)``) rather than attempting
whole-program analysis.  A violation the rule cannot see is still a
violation — the rules raise the floor, the tests remain the ceiling.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import (
    FileContext,
    Finding,
    Rule,
    ScopedVisitor,
    dotted_name,
    register_rule,
    string_constants,
)

__all__ = [
    "UnseededRngRule",
    "NonAtomicArtifactWriteRule",
    "RunScopeViolationRule",
    "SwallowedMapperExceptionRule",
    "UnpicklablePoolSubmissionRule",
    "WallclockInCountingPathRule",
]

#: file extensions that mark a path expression as an artifact path
ARTIFACT_EXTENSIONS = (".json", ".npz", ".npy")


def _collect(rule: Rule, ctx: FileContext, visitor: "_RuleVisitor") -> "Iterator[Finding]":
    visitor.visit(ctx.tree)
    yield from visitor.findings


class _RuleVisitor(ScopedVisitor):
    """ScopedVisitor that accumulates findings for one rule run."""

    def __init__(self, rule: Rule, ctx: FileContext) -> None:
        super().__init__()
        self.rule = rule
        self.ctx = ctx
        self.findings: "list[Finding]" = []

    def report(self, node: ast.AST, message: str) -> None:
        self.findings.append(self.rule.finding(self.ctx, node, message))


# ---------------------------------------------------------------------------
# REP001 — unseeded RNG
# ---------------------------------------------------------------------------

#: np.random members that *construct* seeded generators (fine to call
#: with an explicit seed; ``default_rng()`` with no seed still fires)
_NP_RANDOM_CTORS = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
})


class _Rep001Visitor(_RuleVisitor):
    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        if name is not None:
            parts = name.split(".")
            # numpy: np.random.rand(...), numpy.random.shuffle(...), ...
            if len(parts) >= 3 and parts[0] in ("np", "numpy") and parts[1] == "random":
                member = parts[2]
                if member not in _NP_RANDOM_CTORS:
                    self.report(
                        node,
                        f"call to global-state RNG {name}(); results are "
                        "not reproducible across runs",
                    )
                elif member == "default_rng" and not node.args and not node.keywords:
                    self.report(
                        node,
                        "default_rng() without a seed draws OS entropy; "
                        "pass an explicit seed (or use repro.util.rng.make_rng)",
                    )
            # stdlib: random.random(), random.Random(), random.seed(), ...
            elif len(parts) >= 2 and parts[0] == "random":
                member = parts[1]
                if member == "Random":
                    if not node.args and not node.keywords:
                        self.report(
                            node,
                            "random.Random() without a seed is "
                            "nondeterministic; pass an explicit seed",
                        )
                else:
                    self.report(
                        node,
                        f"call to stdlib global-state RNG {name}(); use a "
                        "seeded random.Random or repro.util.rng.make_rng",
                    )
        self.generic_visit(node)


@register_rule
class UnseededRngRule(Rule):
    """Determinism contract: every random draw flows from an explicit
    seed.  ``repro.util.rng`` is the designated seeding helper and is
    exempt."""

    id = "REP001"
    title = "unseeded RNG use outside repro.util.rng"
    severity = "error"
    fix_hint = (
        "seed explicitly: repro.util.rng.make_rng(seed) / "
        "np.random.default_rng(seed) / random.Random(seed)"
    )

    EXEMPT_MODULES = frozenset({"repro.util.rng"})

    def visit(self, ctx: FileContext) -> "Iterator[Finding]":
        if ctx.module in self.EXEMPT_MODULES:
            return
        yield from _collect(self, ctx, _Rep001Visitor(self, ctx))


# ---------------------------------------------------------------------------
# REP002 — non-atomic artifact write
# ---------------------------------------------------------------------------

#: with-context callables whose handles count as atomic sinks
_ATOMIC_CTX_SUFFIXES = ("atomic_open",)
#: numpy writers whose first positional argument is the sink
_NP_WRITERS = frozenset({"save", "savez", "savez_compressed", "savetxt"})


def _has_artifact_path(node: ast.AST) -> bool:
    return any(
        s.endswith(ARTIFACT_EXTENSIONS) for s in string_constants(node)
    )


class _Rep002Visitor(_RuleVisitor):
    def _is_atomic_handle(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            ctx_fn = self.with_targets.get(node.id, "")
            return ctx_fn.endswith(_ATOMIC_CTX_SUFFIXES)
        return False

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        parts = name.split(".") if name else []

        # open(path, "w") on an artifact path
        if parts == ["open"] and node.args:
            mode = ""
            if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant):
                mode = str(node.args[1].value)
            for kw in node.keywords:
                if kw.arg == "mode" and isinstance(kw.value, ast.Constant):
                    mode = str(kw.value.value)
            if mode[:1] in ("w", "a", "x") and _has_artifact_path(node.args[0]):
                self.report(
                    node,
                    "artifact opened for writing with open(); a crash "
                    "mid-write leaves a torn file",
                )

        # np.save/np.savez/... to anything but an atomic_open handle
        elif (
            len(parts) >= 2
            and parts[0] in ("np", "numpy")
            and parts[-1] in _NP_WRITERS
            and node.args
            and not self._is_atomic_handle(node.args[0])
        ):
            self.report(
                node,
                f"{name}() writes its target in place; route through "
                "an atomic_open(...) handle",
            )

        # json.dump(obj, sink) to anything but an atomic_open handle
        elif (
            parts[-2:] == ["json", "dump"]
            and len(node.args) >= 2
            and not self._is_atomic_handle(node.args[1])
        ):
            self.report(
                node,
                "json.dump() to a non-atomic handle; a crash mid-write "
                "leaves a torn artifact",
            )

        # path.write_text(...) / path.write_bytes(...) on an artifact
        # path — matched on the attribute so receivers that defeat
        # dotted_name (``Path("x.json").write_text``) still count
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in ("write_text", "write_bytes")
            and _has_artifact_path(node.func.value)
        ):
            self.report(
                node,
                f"{node.func.attr}() replaces an artifact non-atomically",
            )

        self.generic_visit(node)


@register_rule
class NonAtomicArtifactWriteRule(Rule):
    """Durability contract: artifacts (.json/.npz/.npy) appear on disk
    whole or not at all — writes go through
    :mod:`repro.resilience.atomic`."""

    id = "REP002"
    title = "non-atomic write to an artifact path"
    severity = "error"
    fix_hint = (
        "write via repro.resilience.atomic (atomic_write_text / "
        "atomic_open) or repro.resilience.artifacts.write_json_artifact; "
        "read JSON artifacts via read_json_artifact"
    )

    def visit(self, ctx: FileContext) -> "Iterator[Finding]":
        yield from _collect(self, ctx, _Rep002Visitor(self, ctx))


# ---------------------------------------------------------------------------
# REP003 — run-scope violation
# ---------------------------------------------------------------------------

#: callables that yield a REGISTRY-managed engine
_ENGINE_SOURCES = ("get_engine", "REGISTRY.get")
#: engine methods that require an open run scope.  ``count`` and the
#: trie-batched ``count_batch`` (PR 8) are both run-scoped — the
#: ``startswith("count")`` fallback below catches future ``count_*``
#: variants, but these two are contract-named so the set is greppable
#: from CONTRACTS.md.
_RUN_SCOPED_METHODS = frozenset({"count", "count_batch"})


class _Rep003Visitor(_RuleVisitor):
    """Tracks names bound to REGISTRY engines per lexical scope and
    flags ``.count*`` calls on them outside their ``with`` block."""

    def __init__(self, rule: Rule, ctx: FileContext) -> None:
        super().__init__(rule, ctx)
        # one engine-name set per scope; scopes[0] is module scope
        self.scopes: "list[set[str]]" = [set()]

    def _visit_function(self, node: ast.AST) -> None:
        self.scopes.append(set())
        try:
            super()._visit_function(node)
        finally:
            self.scopes.pop()

    def _is_engine_name(self, name: str) -> bool:
        return any(name in scope for scope in self.scopes)

    def _is_engine_expr(self, node: ast.expr) -> bool:
        """Does this expression evaluate to a REGISTRY engine?"""
        if isinstance(node, ast.Call):
            fn = dotted_name(node.func)
            if fn is not None and (
                fn in _ENGINE_SOURCES
                or any(fn.endswith("." + src) for src in ("get_engine",))
                or fn.endswith(".REGISTRY.get")
            ):
                return True
        if isinstance(node, ast.Name):
            return self._is_engine_name(node.id)
        return False

    def visit_Assign(self, node: ast.Assign) -> None:
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            target = node.targets[0].id
            if self._is_engine_expr(node.value):
                self.scopes[-1].add(target)
            else:
                self.scopes[-1].discard(target)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and (
            func.attr in _RUN_SCOPED_METHODS or func.attr.startswith("count")
        ):
            receiver = func.value
            if isinstance(receiver, ast.Name) and self._is_engine_name(receiver.id):
                if receiver.id not in self.with_names:
                    self.report(
                        node,
                        f"{receiver.id}.{func.attr}() on a REGISTRY engine "
                        f"outside its 'with {receiver.id}:' run scope",
                    )
            elif self._is_engine_expr(receiver):
                # chained: get_engine("x").count(...) — never entered
                self.report(
                    node,
                    f"{func.attr}() chained directly onto an engine "
                    "lookup; the engine's run scope is never entered",
                )
        self.generic_visit(node)


@register_rule
class RunScopeViolationRule(Rule):
    """Run-scope contract (PR 3): one mining run is bracketed by
    ``with engine:``, which owns pool/session lifetime.  Counting
    outside the scope leaks or double-initializes those resources."""

    id = "REP003"
    title = "engine count outside its 'with engine:' run scope"
    severity = "error"
    fix_hint = (
        "bracket the run: `with engine:` (or `with engine as e:`) "
        "around the count* calls; tests are exempt"
    )
    skip_tests = True

    def visit(self, ctx: FileContext) -> "Iterator[Finding]":
        yield from _collect(self, ctx, _Rep003Visitor(self, ctx))


# ---------------------------------------------------------------------------
# REP004 — swallowed mapper exception
# ---------------------------------------------------------------------------

_BROAD_EXC = frozenset({"Exception", "BaseException"})


def _is_broad_handler(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    name = dotted_name(handler.type)
    return name is not None and name.split(".")[-1] in _BROAD_EXC


def _mentions_dispatch(nodes: "list[ast.stmt]") -> bool:
    """Does this statement list dispatch mapper/shard work?"""
    for stmt in nodes:
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.Name) and "mapper" in sub.id.lower():
                return True
            if isinstance(sub, ast.Attribute):
                if "mapper" in sub.attr.lower() or sub.attr == "submit":
                    return True
    return False


def _reraises(handler: ast.ExceptHandler) -> bool:
    return any(isinstance(sub, ast.Raise) for sub in ast.walk(handler))


class _Rep004Visitor(_RuleVisitor):
    def visit_Try(self, node: ast.Try) -> None:
        if _mentions_dispatch(node.body):
            for handler in node.handlers:
                if _is_broad_handler(handler) and not _reraises(handler):
                    exc = (
                        dotted_name(handler.type)
                        if handler.type is not None
                        else "bare except"
                    )
                    self.report(
                        handler,
                        f"broad '{exc}' around mapper/shard dispatch "
                        "never re-raises; mapper exceptions must propagate",
                    )
        self.generic_visit(node)


@register_rule
class SwallowedMapperExceptionRule(Rule):
    """Failure-semantics contract (PR 3/6): mapper exceptions always
    propagate to the driver.  A broad except that drops them converts
    a crash into silently wrong counts."""

    id = "REP004"
    title = "broad except swallows mapper/shard dispatch exceptions"
    severity = "error"
    fix_hint = (
        "re-raise (or re-raise a wrapped MiningError) inside the "
        "handler, or narrow the exception type"
    )

    def visit(self, ctx: FileContext) -> "Iterator[Finding]":
        yield from _collect(self, ctx, _Rep004Visitor(self, ctx))


# ---------------------------------------------------------------------------
# REP005 — unpicklable pool submission
# ---------------------------------------------------------------------------

_POOLISH = ("pool", "executor")


class _Rep005Visitor(_RuleVisitor):
    """Flags lambdas and local (nested) functions handed to process
    pools."""

    def __init__(self, rule: Rule, ctx: FileContext) -> None:
        super().__init__(rule, ctx)
        # names of functions defined inside an enclosing function, per
        # function scope (these close over frame state → unpicklable)
        self.local_funcs: "list[set[str]]" = []

    def _visit_function(self, node: ast.AST) -> None:
        # node.body is an expression for lambdas, a statement list for defs
        body = node.body if isinstance(node.body, list) else []
        nested = {
            stmt.name
            for stmt in body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        self.local_funcs.append(nested)
        try:
            super()._visit_function(node)
        finally:
            self.local_funcs.pop()

    def _offender(self, node: ast.expr) -> "str | None":
        if isinstance(node, ast.Lambda):
            return "lambda"
        if isinstance(node, ast.Name) and any(
            node.id in scope for scope in self.local_funcs
        ):
            return f"local function {node.id!r}"
        return None

    def _check_callable(self, node: ast.Call, where: str) -> None:
        """The callable is the first positional argument of every
        pool entry point this rule patrols."""
        if node.args:
            kind = self._offender(node.args[0])
            if kind is not None:
                self.report(
                    node.args[0],
                    f"{kind} passed to {where}; it cannot be pickled "
                    "into a worker process",
                )

    def _is_thread_pool(self, receiver: str) -> bool:
        """Receiver is a with-target of a Thread* pool constructor —
        thread pools share the process, nothing is pickled."""
        base = receiver.split(".")[0] if receiver else ""
        ctx_fn = self.with_targets.get(base, "")
        return "thread" in ctx_fn.lower()

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            receiver = dotted_name(func.value) or ""
            poolish = any(p in receiver.lower() for p in _POOLISH)
            if self._is_thread_pool(receiver):
                self.generic_visit(node)
                return
            if func.attr == "submit":
                self._check_callable(node, f"{receiver or '<pool>'}.submit")
            elif func.attr in ("map", "starmap", "imap", "imap_unordered",
                              "apply", "apply_async", "map_async") and poolish:
                self._check_callable(node, f"{receiver}.{func.attr}")
        self.generic_visit(node)


@register_rule
class UnpicklablePoolSubmissionRule(Rule):
    """Picklability contract: work shipped to a process pool must be a
    module-level callable.  Lambdas and closures fail to pickle — at
    best a late PicklingError, at worst (fork start method) state that
    silently diverges from the parent."""

    id = "REP005"
    title = "lambda/local function submitted to a process pool"
    severity = "error"
    fix_hint = (
        "hoist the callable to module level and pass parameters as "
        "picklable arguments (see engines._run_shard for the idiom)"
    )

    def visit(self, ctx: FileContext) -> "Iterator[Finding]":
        yield from _collect(self, ctx, _Rep005Visitor(self, ctx))


# ---------------------------------------------------------------------------
# REP006 — wallclock in counting path
# ---------------------------------------------------------------------------

#: dotted suffixes that read the wallclock / monotonic clock
_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "date.today",
})


class _Rep006Visitor(_RuleVisitor):
    def __init__(self, rule: Rule, ctx: FileContext) -> None:
        super().__init__(rule, ctx)
        #: bare local name -> the clock callable it was imported from
        #: (``from time import perf_counter as tick`` binds
        #: ``tick -> time.perf_counter``)
        self.clock_aliases: "dict[str, str]" = {}

    def visit_Attribute(self, node: ast.Attribute) -> None:
        name = dotted_name(node)
        if name is not None:
            tail2 = ".".join(name.split(".")[-2:])
            if tail2 in _CLOCK_CALLS:
                self.report(
                    node,
                    f"{name} read in a counting path; time through "
                    "repro.obs.clock instead (results must not depend "
                    "on wallclock, or resume stops replaying "
                    "bit-identically)",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        # a bare-name import (`from time import perf_counter`) erases
        # the dotted form visit_Attribute matches on — track the bound
        # names and flag the import itself
        if node.module and node.level == 0:
            for alias in node.names:
                dotted = f"{node.module}.{alias.name}"
                if ".".join(dotted.split(".")[-2:]) in _CLOCK_CALLS:
                    self.clock_aliases[alias.asname or alias.name] = dotted
                    self.report(
                        node,
                        f"{dotted} imported into a counting path; time "
                        "through repro.obs.clock instead",
                    )
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            dotted = self.clock_aliases.get(node.id)
            if dotted is not None:
                self.report(
                    node,
                    f"{node.id} ({dotted}) read in a counting path; "
                    "time through repro.obs.clock instead",
                )
        self.generic_visit(node)


@register_rule
class WallclockInCountingPathRule(Rule):
    """Replayability contract (PR 5/6, tightened in PR 10): counting in
    ``repro.mining`` / ``repro.streaming`` is a pure function of the
    input stream, so checkpoint/resume replays bit-identically.  Clock
    reads break that.

    :mod:`repro.obs.clock` is the sole sanctioned timing seam: code
    that legitimately measures elapsed time (the serial baseline's
    timing reports, telemetry spans) calls
    ``clock.now()`` / ``clock.utc_stamp()``, which this rule does not
    flag — so every wallclock acquisition in the counting packages
    funnels through one auditable module.  There are no module-level
    exemptions; a rare non-seam read carries an inline noqa with its
    justification.  Both dotted reads (``time.perf_counter()``) and
    bare-name imports (``from time import perf_counter``) are caught.
    """

    id = "REP006"
    title = "wallclock read inside mining/streaming counting code"
    severity = "error"
    fix_hint = (
        "derive ordering from stream positions/sequence numbers; if "
        "this is measurement code, time through the repro.obs.clock "
        "seam (clock.now() / clock.utc_stamp())"
    )

    #: counting-path packages this rule patrols
    SCOPED_PREFIXES = ("repro.mining", "repro.streaming")

    def visit(self, ctx: FileContext) -> "Iterator[Finding]":
        module = ctx.module
        if not any(
            module == p or module.startswith(p + ".")
            for p in self.SCOPED_PREFIXES
        ):
            return
        yield from _collect(self, ctx, _Rep006Visitor(self, ctx))
