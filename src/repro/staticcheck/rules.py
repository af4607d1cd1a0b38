"""Project-specific AST lint passes.

Every rule guards an invariant the dynamic test suites can only check by
running: replayable fault plans and serial==``--jobs`` fuzz digests require
that no unseeded randomness, wall-clock read, or unordered ``set`` iteration
reaches a digest, renderer, or serialized report.  The rules are deliberately
narrow — each one states exactly what it matches, and anything cleverer than
the documented heuristic belongs in a new rule, not a broader regex.

Rule catalogue (see DESIGN.md §10 for rationale and examples):

* **DET001** — unseeded nondeterminism source (``random.*`` module
  functions, ``time.time``/``monotonic``/``perf_counter``,
  ``datetime.now``-family, ``os.urandom``, ``uuid.uuid1/uuid4``,
  ``secrets.*``) inside the deterministic packages (``core``, ``sim``,
  ``conformance``).  Seeded ``random.Random(seed)`` instances are the
  sanctioned alternative and never flagged.
* **DET002** — iteration over a ``set``/``frozenset`` expression inside an
  ordered-output sink (functions named like ``digest``/``describe``/
  ``to_dict``/``render``/``payload``… — the last covering the flatcore
  bench-artifact builders — or anything in ``viz/``) without an explicit
  ``sorted(...)``.  Set iteration order depends on ``PYTHONHASHSEED``, so it
  silently breaks cross-process digest equality.
* **MUT001** — ``object.__setattr__`` on anything other than ``self``:
  mutating a frozen/``__slots__`` dataclass from outside its own methods.
* **MONEY001** — float arithmetic on ledger amounts (names containing
  ``cents``): true division, mixing with float literals, or ``float(...)``
  coercion.  Display conversions inside f-strings or ``*dollar*`` helpers
  are exempt — money stays in integer cents everywhere else.
* **EXC001** — exception constructs used for control flow in library code:
  bare ``except:``, catching ``AssertionError``, or a broad
  ``except Exception: pass`` that silently swallows failures.
* **OBS001** — span lifecycle discipline: outside ``repro/obs`` the only
  legal way to open a tracing span is the context-manager form
  ``with tracer.span(...):`` (closed on every path, exceptions included).
  Imperative ``.start_span()``/``.end_span()`` calls, and ``.span(...)``
  used anywhere but as a ``with`` context item, are flagged — except
  ``re.Match.span``: a receiver that the same function binds from a regex
  match (``for m in ….finditer(…)`` or ``m = ….match/search/fullmatch(…)``).
  The imperative pair exists for event-driven lifetimes (a message span
  opens at send, closes at delivery) and is confined to
  ``repro.obs.messages``.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.staticcheck.context import FileContext
from repro.staticcheck.model import Finding, Severity


class Rule:
    """Base class: one registered lint pass.

    Subclasses set the class attributes and implement :meth:`visit`.
    ``restrict_to`` names path segments (package directories) the rule is
    scoped to; ``None`` applies everywhere.
    """

    code: str = ""
    title: str = ""
    suggestion: str = ""
    restrict_to: tuple[str, ...] | None = None

    def applies_to(self, path: str) -> bool:
        """Whether this rule runs on *path* (segment-based package gate)."""
        if self.restrict_to is None:
            return True
        segments = re.split(r"[\\/]", path)
        return any(segment in self.restrict_to for segment in segments)

    def visit(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for one file."""
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        """A Finding anchored at *node* with this rule's code/suggestion."""
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            rule=self.code,
            message=message,
            suggestion=self.suggestion,
            severity=Severity.ERROR,
        )


REGISTRY: dict[str, type[Rule]] = {}


def register(rule_class: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if rule_class.code in REGISTRY:
        raise ValueError(f"duplicate rule code {rule_class.code!r}")
    REGISTRY[rule_class.code] = rule_class
    return rule_class


def default_rules(select: tuple[str, ...] | None = None) -> tuple[Rule, ...]:
    """Instantiate the registered rules (optionally only *select* codes)."""
    if select is None:
        codes = sorted(REGISTRY)
    else:
        unknown = sorted(set(select) - set(REGISTRY))
        if unknown:
            raise KeyError(", ".join(unknown))
        codes = sorted(select)
    return tuple(REGISTRY[code]() for code in codes)


# --------------------------------------------------------------------- DET001

_WALL_CLOCK_TAILS: frozenset[tuple[str, str]] = frozenset(
    {
        ("time", "time"),
        ("time", "time_ns"),
        ("time", "monotonic"),
        ("time", "monotonic_ns"),
        ("time", "perf_counter"),
        ("time", "perf_counter_ns"),
        ("datetime", "now"),
        ("datetime", "utcnow"),
        ("datetime", "today"),
        ("date", "today"),
    }
)

_UNSEEDED_RANDOM = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "gauss",
        "normalvariate",
        "getrandbits",
        "seed",
        "betavariate",
        "expovariate",
        "triangular",
    }
)


@register
class UnseededNondeterminism(Rule):
    """DET001: wall-clock reads and module-level randomness in core packages."""

    code = "DET001"
    title = "unseeded nondeterminism source in a deterministic package"
    suggestion = (
        "thread a seeded random.Random through the call chain, or take the "
        "current time from the event loop / provenance layer"
    )
    restrict_to = ("core", "sim", "conformance")

    def visit(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.resolve_call(node)
            if dotted is None:
                continue
            tail = tuple(dotted[-2:])
            if tail in _WALL_CLOCK_TAILS:
                yield self.finding(
                    ctx, node, f"wall-clock read {'.'.join(dotted)}() — "
                    "replay would observe a different value"
                )
            elif (
                len(dotted) == 2
                and dotted[0] == "random"
                and dotted[1] in _UNSEEDED_RANDOM
            ):
                yield self.finding(
                    ctx, node, f"unseeded module-level random.{dotted[1]}() — "
                    "use an explicitly seeded random.Random instance"
                )
            elif dotted[0] == "secrets" and len(dotted) > 1:
                yield self.finding(
                    ctx, node, f"{'.'.join(dotted)}() draws from the OS entropy "
                    "pool and can never replay"
                )
            elif tuple(dotted) in {("os", "urandom"), ("uuid", "uuid1"), ("uuid", "uuid4")}:
                yield self.finding(
                    ctx, node, f"{'.'.join(dotted)}() is nondeterministic — "
                    "derive identifiers from the run seed instead"
                )


# --------------------------------------------------------------------- DET002

_SINK_NAME_RE = re.compile(
    r"digest|canonical|fingerprint|describe|to_dict|to_json|render|serialize"
    r"|summary|__str__|_text$|_dot$|format|payload"
)

_ORDER_INSENSITIVE = frozenset(
    {"sorted", "min", "max", "sum", "len", "any", "all", "set", "frozenset", "bool"}
)

_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)


def _is_set_expr(node: ast.expr, known_names: set[str] | frozenset[str]) -> bool:
    """Whether *node* is syntactically a set: literal, constructor, algebra
    over sets, set-returning method, or a name known to hold one."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in known_names
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr in _SET_METHODS:
            return _is_set_expr(node.func.value, known_names)
        return False
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(node.left, known_names) or _is_set_expr(
            node.right, known_names
        )
    return False


@register
class UnorderedIterationInSink(Rule):
    """DET002: set iteration feeding digests/renderers/serialized output."""

    code = "DET002"
    title = "unordered set iteration in an ordered-output sink"
    suggestion = "wrap the iterable in sorted(...) with a total, stable key"

    def visit(self, ctx: FileContext) -> Iterator[Finding]:
        in_viz = any(segment == "viz" for segment in re.split(r"[\\/]", ctx.path))
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not (in_viz or _SINK_NAME_RE.search(node.name)):
                continue
            yield from self._check_function(ctx, node)

    def _check_function(
        self, ctx: FileContext, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        set_names = self._known_set_names(func)

        def is_set(node: ast.expr) -> bool:
            return _is_set_expr(node, set_names)

        for node in ast.walk(func):
            if isinstance(node, ast.For) and is_set(node.iter):
                yield self.finding(
                    ctx, node.iter, "for-loop over a set expression inside "
                    f"ordered-output sink {func.name!r}"
                )
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                if self._consumed_order_insensitively(ctx, node):
                    continue
                for generator in node.generators:
                    if is_set(generator.iter):
                        yield self.finding(
                            ctx, generator.iter, "comprehension over a set "
                            f"expression inside ordered-output sink {func.name!r}"
                        )
            elif isinstance(node, ast.Call):
                direct_sink = (
                    isinstance(node.func, ast.Attribute) and node.func.attr == "join"
                ) or (
                    isinstance(node.func, ast.Name)
                    and node.func.id in ("list", "tuple")
                )
                if direct_sink:
                    for arg in node.args:
                        if is_set(arg):
                            yield self.finding(
                                ctx, arg, "set expression passed directly to an "
                                f"order-sensitive consumer inside {func.name!r}"
                            )

    def _consumed_order_insensitively(
        self, ctx: FileContext, node: ast.AST
    ) -> bool:
        """Whether a comprehension's order is discarded (e.g. sorted(...))."""
        parent = ctx.parent(node)
        return (
            isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Name)
            and parent.func.id in _ORDER_INSENSITIVE
        )

    def _known_set_names(
        self, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> frozenset[str]:
        """Names assigned a syntactically-set value anywhere in *func*.

        Runs to a fixpoint so chained assignments (``a = set(x); b = a | c``)
        are tracked through set-algebra expressions.
        """
        assignments: list[tuple[str, ast.expr]] = []
        for node in ast.walk(func):
            value: ast.expr | None = None
            target: ast.expr | None = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                target, value = node.target, node.value
            if isinstance(target, ast.Name) and value is not None:
                assignments.append((target.id, value))
        names: set[str] = set()
        changed = True
        while changed:
            changed = False
            for name, value in assignments:
                if name not in names and _is_set_expr(value, names):
                    names.add(name)
                    changed = True
        return frozenset(names)


# --------------------------------------------------------------------- MUT001

@register
class FrozenMutationOutsideOwner(Rule):
    """MUT001: object.__setattr__ aimed at anything other than self."""

    code = "MUT001"
    title = "frozen/__slots__ instance mutated outside its own methods"
    suggestion = (
        "add an evolver classmethod (or dataclasses.replace) on the owning "
        "module instead of reaching into the frozen instance"
    )

    def visit(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr == "__setattr__"
                and isinstance(func.value, ast.Name)
                and func.value.id == "object"
            ):
                continue
            if node.args and isinstance(node.args[0], ast.Name) and (
                node.args[0].id == "self"
            ):
                continue
            yield self.finding(
                ctx, node, "object.__setattr__ on a non-self target mutates a "
                "frozen instance from outside its own methods"
            )


# ------------------------------------------------------------------- MONEY001

_MONEY_HINT_RE = re.compile(r"cents", re.IGNORECASE)
_DOLLAR_CONTEXT_RE = re.compile(r"dollar", re.IGNORECASE)


def _name_hint(node: ast.expr) -> str:
    """A best-effort identifier for money-name matching."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id
    return ""


@register
class FloatMoneyArithmetic(Rule):
    """MONEY001: float arithmetic on integer-cents ledger amounts."""

    code = "MONEY001"
    title = "float arithmetic on a ledger amount"
    suggestion = (
        "keep ledger amounts in integer cents (use //, or scale explicitly); "
        "convert to dollars only at the display boundary"
    )

    def _display_exempt(self, ctx: FileContext, node: ast.AST) -> bool:
        """Inside an f-string or a *dollar* helper: display conversion, ok."""
        if ctx.inside_fstring(node):
            return True
        func = ctx.enclosing_function(node)
        return func is not None and bool(_DOLLAR_CONTEXT_RE.search(func.name))

    def visit(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.BinOp):
                left_money = bool(_MONEY_HINT_RE.search(_name_hint(node.left)))
                right_money = bool(_MONEY_HINT_RE.search(_name_hint(node.right)))
                if not (left_money or right_money):
                    continue
                if isinstance(node.op, ast.Div):
                    if not self._display_exempt(ctx, node):
                        yield self.finding(
                            ctx, node, "true division on a cents amount yields "
                            "a float — ledger math must stay in integer cents"
                        )
                elif isinstance(node.op, (ast.Add, ast.Sub, ast.Mult)):
                    other = node.right if left_money else node.left
                    if (
                        isinstance(other, ast.Constant)
                        and isinstance(other.value, float)
                        and not self._display_exempt(ctx, node)
                    ):
                        yield self.finding(
                            ctx, node, "arithmetic mixes a cents amount with a "
                            "float literal"
                        )
            elif isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id == "float"
                    and node.args
                    and _MONEY_HINT_RE.search(_name_hint(node.args[0]))
                    and not self._display_exempt(ctx, node)
                ):
                    yield self.finding(
                        ctx, node, "float(...) coercion of a cents amount"
                    )
            elif isinstance(node, ast.AugAssign):
                if isinstance(node.op, ast.Div) and _MONEY_HINT_RE.search(
                    _name_hint(node.target)
                ):
                    yield self.finding(
                        ctx, node, "in-place true division on a cents amount"
                    )


# --------------------------------------------------------------------- OBS001

def _calls_method(node: ast.expr, *methods: str) -> bool:
    """Whether *node* is a call of an attribute named in *methods*."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in methods
    )


def _regex_match_names(scope: ast.AST) -> set[str]:
    """Names *scope* binds from a regex match.

    Two forms: the target of ``for NAME in ….finditer(…)``, and
    ``NAME = ….match(…)`` (or ``search``/``fullmatch``).
    """
    names: set[str] = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.For) and _calls_method(node.iter, "finditer"):
            targets = [node.target]
        elif isinstance(node, ast.Assign) and _calls_method(
            node.value, "match", "search", "fullmatch"
        ):
            targets = node.targets
        else:
            continue
        names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


@register
class SpanLifecycleDiscipline(Rule):
    """OBS001: spans opened outside the context-manager discipline.

    Narrow by design: matches attribute calls named ``start_span``/
    ``end_span`` anywhere, and attribute calls named ``span`` that are not
    the context expression of a ``with`` item, unless the receiver is a
    name the enclosing function binds from a regex match (``re.Match.span``
    returns offsets and opens nothing).  ``repro/obs`` itself is exempt
    (the imperative pair is implemented and legitimately used there).
    """

    code = "OBS001"
    title = "tracing span not closed on all paths"
    suggestion = (
        "open spans with 'with tracer.span(...) as span_id:' so every exit "
        "path closes them; the imperative start_span/end_span pair is "
        "reserved for repro.obs internals"
    )

    def applies_to(self, path: str) -> bool:
        segments = re.split(r"[\\/]", path)
        return "obs" not in segments

    def visit(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr in ("start_span", "end_span"):
                yield self.finding(
                    ctx, node, f"imperative {func.attr}() outside repro.obs — "
                    "an exception between open and close leaks the span"
                )
            elif func.attr == "span":
                parent = ctx.parent(node)
                if (
                    isinstance(parent, ast.withitem)
                    and parent.context_expr is node
                ):
                    continue
                scope = ctx.enclosing_function(node) or ctx.tree
                if isinstance(func.value, ast.Name) and (
                    func.value.id in _regex_match_names(scope)
                ):
                    continue
                yield self.finding(
                    ctx, node, ".span(...) outside a with-statement — the "
                    "span is not guaranteed to close on every path"
                )


# --------------------------------------------------------------------- EXC001

def _catches_assertion_error(handler: ast.ExceptHandler) -> bool:
    kind = handler.type
    names: list[ast.expr] = []
    if isinstance(kind, ast.Tuple):
        names = list(kind.elts)
    elif kind is not None:
        names = [kind]
    return any(
        isinstance(name, ast.Name) and name.id == "AssertionError"
        for name in names
    )


@register
class ExceptionControlFlow(Rule):
    """EXC001: bare except / assert-driven control flow in library code."""

    code = "EXC001"
    title = "exception machinery used for control flow"
    suggestion = (
        "catch the narrowest concrete exception and handle it explicitly; "
        "raise a ReproError subclass instead of asserting"
    )

    def visit(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    ctx, node, "bare except: catches SystemExit and "
                    "KeyboardInterrupt along with everything else"
                )
                continue
            if _catches_assertion_error(node):
                yield self.finding(
                    ctx, node, "catching AssertionError turns asserts into "
                    "control flow — asserts vanish under python -O"
                )
                continue
            broad = (
                isinstance(node.type, ast.Name)
                and node.type.id in ("Exception", "BaseException")
            )
            only_pass = len(node.body) == 1 and isinstance(node.body[0], ast.Pass)
            if broad and only_pass:
                yield self.finding(
                    ctx, node, "broad except with a bare pass silently "
                    "swallows every failure"
                )
