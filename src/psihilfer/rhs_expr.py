"""Arithmetic expressions for user-supplied right-hand sides f(t, y).

A precedence-climbing parser over the variables t and y reads binding
powers from the operator table: ^ (right-associative) binds tighter than
unary minus, which binds tighter than * and /, which bind tighter than +
and -.  Trees and parentheses nest at most ``MAX_DEPTH`` levels deep.
Parsed expressions are immutable; evaluation is pure and reentrant.

One walker evaluates the parsed tree.  :meth:`RhsExpr.bind` runs it once
at the nodes t and keeps, in a memo beside the tree, the value of each
largest subtree that does not read y; evaluating the bound expression at
y walks only the nodes that do, so a caller that evaluates at the same
nodes many times (a Picard iteration) binds once.  ``eval`` and
``eval_many`` on an unbound expression walk the whole tree.  The values,
and the node an error names, are those of a single walk of the tree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gamma as _sp_gamma

from .errors import (DomainViolation, ExprDomainError, ExprSyntaxError,
                     GridMismatch, UnknownIdentifier)

# key -> (arity, elementwise numpy function, form, binding powers); "neg"
# is unary minus.  An infix entry with powers (left, right) continues an
# expression whose floor is at most left and reads its right operand with
# floor right, so left == right makes it right-associative; unary minus
# reads its operand with floor right.
_OPS = {
    "+": (2, np.add, "infix", (1, 2)), "-": (2, np.subtract, "infix", (1, 2)),
    "*": (2, np.multiply, "infix", (2, 3)), "/": (2, np.divide, "infix", (2, 3)),
    "^": (2, np.power, "infix", (4, 4)),
    "neg": (1, np.negative, "prefix", (None, 3)),
    "sin": (1, np.sin, "call", None), "cos": (1, np.cos, "call", None),
    "exp": (1, np.exp, "call", None), "ln": (1, np.log, "call", None),
    "abs": (1, np.abs, "call", None), "sqrt": (1, np.sqrt, "call", None),
    "gamma": (1, _sp_gamma, "call", None), "pow": (2, np.power, "call", None),
}
# form -> (line in RhsExpr.tree_lines, name in evaluation errors, text),
# each formatted with the node's key and the text of its operands
_FORMS = {
    "infix": ("op {key}", "operator {key!r}", "({args[0]} {key} {args[1]})"),
    "prefix": ("neg", "unary minus", "(-{args[0]})"),
    "call": ("call {key}", "function {key!r}", "{key}({listed})"),
}
# the entries above that can map a non-finite operand to a finite value
# (x/inf = 0, 1^nan = 1, exp(-inf) = 0); every other entry returns a
# non-finite value whenever an operand is not finite
_MASKING = frozenset({"/", "^", "pow", "exp"})
_VARIABLES = ("t", "y")

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])|(?P<bad>\S))"
)
# the most nodes on a path from the root to a leaf, and the most nested
# subexpressions (parenthesised, operands and call arguments) in a text
MAX_DEPTH = 200
_TOO_DEEP = f"expression nests deeper than {MAX_DEPTH} levels"


@dataclass(frozen=True)
class Num:
    value: float
    offset: int = field(compare=False, default=0)


@dataclass(frozen=True)
class Var:
    name: str
    offset: int = field(compare=False, default=0)


@dataclass(frozen=True)
class Op:
    """An operation: the ``_OPS`` entry ``key`` applied to ``args``."""

    key: str
    args: tuple
    offset: int = field(compare=False, default=0)


class _Parser:
    """expr := ('-' expr | atom) {infix expr}, by precedence climbing
    atom := number | t | y | fn '(' expr {',' expr} ')' | '(' expr ')'
    """

    def __init__(self, text: str):
        self.tokens = []
        for m in _TOKEN_RE.finditer(text):
            kind = m.lastgroup
            if kind == "bad":
                raise ExprSyntaxError(f"unexpected character {m[kind]!r}",
                                      m.start(kind))
            self.tokens.append((kind, m[kind], m.start(kind)))
        self.tokens.append(("eof", "", len(text)))
        self.i = 0

    def _next(self):
        self.i += 1
        return self.tokens[self.i - 1]

    def parse(self):
        root = self._expr(1, 1)
        kind, val, off = self.tokens[self.i]
        if kind != "eof":
            raise ExprSyntaxError(f"unexpected trailing token {val!r}", off)
        # a left-associative chain deepens the tree but not the parser, so
        # the tree is measured too: without recursion, in prefix order
        stack = [(root, 1)]
        while stack:
            node, depth = stack.pop()
            if depth > MAX_DEPTH:
                raise ExprSyntaxError(_TOO_DEEP, node.offset)
            stack.extend((child, depth + 1) for child in reversed(_children(node)))
        return root

    def _expr(self, floor, depth):
        """The longest expression at the cursor whose infix operators all
        have a left binding power of at least ``floor``; ``depth`` counts
        the subexpressions it is nested in, itself included."""
        kind, val, off = self.tokens[self.i]
        if depth > MAX_DEPTH:
            raise ExprSyntaxError(_TOO_DEEP, off)
        if kind == "op" and val == "-":
            self.i += 1
            node = Op("neg", (self._expr(_OPS["neg"][3][1], depth + 1),), off)
        else:
            node = self._atom(depth)
        while True:
            kind, val, off = self.tokens[self.i]
            left, right = (_OPS[val][3] if kind == "op" and val in _OPS
                           else (0, None))
            if left < floor:
                return node
            self.i += 1
            node = Op(val, (node, self._expr(right, depth + 1)), off)

    def _atom(self, depth):
        kind, val, off = self._next()
        if kind == "num":
            if float(val) == np.inf:
                raise ExprSyntaxError(f"number {val} overflows", off)
            return Num(float(val), off)
        if kind == "ident":
            nk, nv, _ = self.tokens[self.i]
            if nk == "op" and nv == "(":
                if val not in _OPS or _OPS[val][2] != "call":
                    raise UnknownIdentifier(f"unknown function {val!r}", off)
                self.i += 1
                args = [self._expr(1, depth + 1)]
                while (tok := self._next())[1] == ",":
                    args.append(self._expr(1, depth + 1))
                if tok[1] != ")":
                    raise ExprSyntaxError("expected ',' or ')'", tok[2])
                arity = _OPS[val][0]
                if len(args) != arity:
                    raise ExprSyntaxError(f"{val} takes {arity} argument(s)", off)
                return Op(val, tuple(args), off)
            if val not in _VARIABLES:
                raise UnknownIdentifier(f"unknown identifier {val!r}", off)
            return Var(val, off)
        if kind == "op" and val == "(":
            node = self._expr(1, depth + 1)
            _, val, off = self._next()
            if val != ")":
                raise ExprSyntaxError("expected ')'", off)
            return node
        raise ExprSyntaxError(f"unexpected token {val!r}", off)


def _label(node, column: int, texts=()) -> str:
    """Column 0 (tree line), 1 (error name) or 2 (text, given the text of
    each operand) of an operator node's form."""
    return _FORMS[_OPS[node.key][2]][column].format(
        key=node.key, args=texts, listed=", ".join(texts))


def _to_string(node) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    return _label(node, 2, list(map(_to_string, node.args)))


def _children(node) -> tuple:
    """The operand nodes of ``node``, left to right (none for a leaf)."""
    return node.args if isinstance(node, Op) else ()


def _uses_y(node) -> bool:
    if isinstance(node, Var):
        return node.name == "y"
    return any(_uses_y(child) for child in _children(node))


def _eval_array(node, t, y, memo):
    """Evaluate over numpy arrays, pinning domain failures to the node.

    One post-order walk under one ``errstate``, which takes the value of
    a node in ``memo`` instead of walking it.  Outside ``_MASKING`` every
    table entry returns a non-finite value for a non-finite operand, and
    a masking entry whose operand is a non-finite operator node returns
    that operand, so a non-finite operator node shows at the root.  When
    the root is not finite, the walk runs again with no memo and a check
    after every operator node, and raises at the first non-finite one in
    post-order: the node that checking every operation would have named.
    Leaves are never checked: ``y`` returns a non-finite y as given, and
    ``1/y`` maps y = inf to 0.
    """
    with np.errstate(all="ignore"):
        out = _walk(node, t, y, memo, False)
        return out if np.isfinite(out).all() else _walk(node, t, y, {}, True)


def _walk(node, t, y, memo, checked):
    """``node`` at t and y; ``checked`` raises at a non-finite operator
    node (see :func:`_eval_array`)."""
    if id(node) in memo:
        return memo[id(node)]
    kind = type(node)
    if kind is Num:
        return np.full(np.shape(t), node.value)
    if kind is Var:
        return t if node.name == "t" else y
    args = [_walk(child, t, y, memo, checked) for child in node.args]
    if not checked and node.key in _MASKING:
        for child, arg in zip(node.args, args):
            if type(child) is Op and not np.isfinite(arg).all():
                return arg
    out = _OPS[node.key][1](*args)
    if checked and not np.isfinite(out).all():
        raise ExprDomainError(f"undefined value in {_label(node, 1)}",
                              node.offset)
    return out


def _hold(node, t, memo) -> bool:
    """Whether ``node`` reads y; if so, its operands that do not are held
    (:func:`_keep`).  One post-order pass, which walks each largest
    subtree that does not read y once, under the caller's ``errstate``."""
    if type(node) is not Op:
        return type(node) is Var and node.name == "y"
    reads = [_hold(child, t, memo) for child in node.args]
    if not any(reads):
        return False
    for child, read in zip(node.args, reads):
        if not read:
            _keep(memo, child, t)
    return True


def _keep(memo, node, t):
    """Hold the value at t of a subtree that does not read y, read-only,
    unless it is not finite: that subtree stays unheld, so that each
    evaluation walks it and names its failing node."""
    value = _walk(node, t, None, {}, False)
    if np.isfinite(value).all():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        memo[id(node)] = value


def _tree_lines(node, depth: int):
    label = (f"num {node.value!r}" if isinstance(node, Num) else
             f"var {node.name}" if isinstance(node, Var) else _label(node, 0))
    yield "  " * depth + label
    for child in _children(node):
        yield from _tree_lines(child, depth + 1)


@dataclass(frozen=True)
class RhsExpr:
    """A parsed right-hand-side expression over the variables t and y, or
    one bound by :meth:`bind` at the nodes ``at``."""

    root: object
    at: np.ndarray | None = field(default=None, compare=False, repr=False)
    # id of a node of root -> its read-only value at ``at`` (see _keep)
    _memo: dict = field(default_factory=dict, compare=False, repr=False)

    def bind(self, t) -> RhsExpr:
        """This expression with every subtree that does not read y
        evaluated once, at the nodes t.

        The first phase of evaluation: the returned expression has the
        same tree, evaluates only at t (``eval_many(t, y)`` with an equal
        t, bit for bit, else :class:`GridMismatch`), walks only the nodes
        that read y, and returns the values and raises the errors of this
        expression's own ``eval_many``.
        """
        at = np.array(t, dtype=float)
        at.flags.writeable = False
        memo = {}
        with np.errstate(all="ignore"):
            if not _hold(self.root, at, memo):
                _keep(memo, self.root, at)
        return RhsExpr(self.root, at, memo)

    def eval(self, t: float, y: float) -> float:
        return float(self.eval_many(float(t), float(y)))

    def eval_many(self, t: np.ndarray, y: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        y = np.asarray(y, dtype=float)
        # bitwise, so that -0.0 and 0.0 differ and a NaN node matches itself
        if self.at is not None and (t.shape != self.at.shape
                                    or t.tobytes() != self.at.tobytes()):
            raise GridMismatch(f"expression bound at {self.at.size} node(s) "
                               f"evaluated at other nodes")
        # a copy at the shape of t and y: the value may be y or held
        out = np.empty(np.broadcast(t, y).shape)
        out[...] = _eval_array(self.root, t, y, self._memo)
        return out

    def to_string(self) -> str:
        return _to_string(self.root)

    def uses_y(self) -> bool:
        return _uses_y(self.root)

    def tree_lines(self) -> list[str]:
        """One line per node in prefix order, two spaces deeper per level."""
        return list(_tree_lines(self.root, 0))


def parse(text: str) -> RhsExpr:
    """Parse expression text into an immutable AST.

    Raises :class:`ExprSyntaxError` (with byte offset) on malformed
    input or a number that overflows, and :class:`UnknownIdentifier`
    for names other than t, y and the built-in functions.
    """
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    return RhsExpr(_Parser(text).parse())


def _halton(count: int, base: int) -> np.ndarray:
    """Radical-inverse sequence: deterministic, no RNG state involved."""
    out = np.empty(count)
    for i in range(count):
        f, r, n = 1.0, 0.0, i + 1
        while n > 0:
            f /= base
            r += f * (n % base)
            n //= base
        out[i] = r
    return out


# the 256-point Halton set in the unit square (bases 2 and 3), built once
_HALTON_T = _halton(256, 2)
_HALTON_Y = _halton(256, 3)


def lipschitz_estimate(expr: RhsExpr, t_range, y_range) -> float:
    """Heuristic bound on |df/dy| over a box, with a 1.1 safety factor.

    Scans a fixed 256-point Halton set scaled to the box, plus the box
    corners and edge midpoints (derivative maxima often sit on the
    boundary), approximating the partial derivative by central
    differences.  The result is reproducible bit for bit; treat it as an
    estimate and override it when a certified constant is known.
    Raises :class:`DomainViolation` unless both ranges are nonempty with
    finite ends and a finite width.
    """
    t_lo, t_hi = float(t_range[0]), float(t_range[1])
    y_lo, y_hi = float(y_range[0]), float(y_range[1])
    if not (0 <= t_hi - t_lo < np.inf and 0 <= y_hi - y_lo < np.inf):
        raise DomainViolation(f"ranges must be nonempty and finite, got "
                              f"t in {t_range!r} and y in {y_range!r}")

    ts = t_lo + _HALTON_T * (t_hi - t_lo)
    ys = y_lo + _HALTON_Y * (y_hi - y_lo)
    edge = np.array([0.0, 0.5, 1.0])
    tg, yg = np.meshgrid(t_lo + edge * (t_hi - t_lo),
                         y_lo + edge * (y_hi - y_lo))
    ts = np.concatenate([ts, tg.ravel()])
    ys = np.concatenate([ys, yg.ravel()])

    width = y_hi - y_lo
    step = 1e-6 * (width if width > 0 else max(1.0, abs(y_lo)))
    bound = expr.bind(ts)
    upper = bound.eval_many(ts, ys + step)
    lower = bound.eval_many(ts, ys - step)
    slope = np.max(np.abs(upper - lower)) / (2.0 * step)
    return 1.1 * float(slope)
