"""Arithmetic expressions for user-supplied right-hand sides f(t, y).

A small recursive-descent parser over the variables t and y with the
usual precedence: ^ (right-associative) binds tighter than unary minus,
which binds tighter than * and /, which bind tighter than + and -.
Parsed expressions are immutable; evaluation is pure and reentrant.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gamma as _sp_gamma

from .errors import ExprDomainError, ExprSyntaxError, UnknownIdentifier

# name -> (arity, elementwise numpy function)
_FUNCTIONS = {
    "sin": (1, np.sin), "cos": (1, np.cos), "exp": (1, np.exp),
    "ln": (1, np.log), "abs": (1, np.abs), "sqrt": (1, np.sqrt),
    "gamma": (1, _sp_gamma), "pow": (2, np.power),
}
# binary operator (or "neg", unary minus) -> elementwise numpy function
_OPERATORS = {
    "+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
    "^": np.power, "neg": np.negative,
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
    r"|(?P<op>[-+*/^(),]))"
)


@dataclass(frozen=True)
class Num:
    value: float
    offset: int = field(compare=False, default=0)


@dataclass(frozen=True)
class Var:
    name: str
    offset: int = field(compare=False, default=0)


@dataclass(frozen=True)
class Neg:
    child: object
    offset: int = field(compare=False, default=0)


@dataclass(frozen=True)
class Bin:
    op: str
    left: object
    right: object
    offset: int = field(compare=False, default=0)


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple
    offset: int = field(compare=False, default=0)


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None or m.end() == pos:
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                bad_at = len(text) - len(stripped)
                raise ExprSyntaxError(
                    f"unexpected character {text[bad_at]!r}", bad_at
                )
            pos = m.end()
            for kind in ("num", "ident", "op"):
                val = m.group(kind)
                if val is not None:
                    self.items.append((kind, val, m.start(kind)))
                    break
        self.i = 0

    def peek(self):
        if self.i < len(self.items):
            return self.items[self.i]
        return ("eof", "", len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok


class _Parser:
    """expr := term ((+|-) term)*
    term := factor ((*|/) factor)*
    factor := '-' factor | power
    power := atom ['^' factor]
    atom := number | t | y | fn '(' expr {',' expr} ')' | '(' expr ')'
    """

    def __init__(self, text: str):
        self.toks = _Tokens(text)

    def parse(self):
        node = self._expr()
        kind, val, off = self.toks.peek()
        if kind != "eof":
            raise ExprSyntaxError(f"unexpected trailing token {val!r}", off)
        return node

    def _expr(self):
        node = self._term()
        while True:
            kind, val, off = self.toks.peek()
            if kind == "op" and val in "+-":
                self.toks.next()
                node = Bin(val, node, self._term(), off)
            else:
                return node

    def _term(self):
        node = self._factor()
        while True:
            kind, val, off = self.toks.peek()
            if kind == "op" and val in "*/":
                self.toks.next()
                node = Bin(val, node, self._factor(), off)
            else:
                return node

    def _factor(self):
        kind, val, off = self.toks.peek()
        if kind == "op" and val == "-":
            self.toks.next()
            return Neg(self._factor(), off)
        return self._power()

    def _power(self):
        node = self._atom()
        kind, val, off = self.toks.peek()
        if kind == "op" and val == "^":
            self.toks.next()
            # right associative; the exponent may carry a unary minus
            return Bin("^", node, self._factor(), off)
        return node

    def _atom(self):
        kind, val, off = self.toks.next()
        if kind == "num":
            if float(val) == np.inf:
                raise ExprSyntaxError(f"number {val} overflows", off)
            return Num(float(val), off)
        if kind == "ident":
            nk, nv, _ = self.toks.peek()
            if nk == "op" and nv == "(":
                if val not in _FUNCTIONS:
                    raise UnknownIdentifier(f"unknown function {val!r}", off)
                self.toks.next()
                args = [self._expr()]
                while True:
                    k2, v2, o2 = self.toks.next()
                    if k2 == "op" and v2 == ",":
                        args.append(self._expr())
                    elif k2 == "op" and v2 == ")":
                        break
                    else:
                        raise ExprSyntaxError("expected ',' or ')'", o2)
                arity = _FUNCTIONS[val][0]
                if len(args) != arity:
                    raise ExprSyntaxError(f"{val} takes {arity} argument(s)", off)
                return Call(val, tuple(args), off)
            if val not in _VARIABLES:
                raise UnknownIdentifier(f"unknown identifier {val!r}", off)
            return Var(val, off)
        if kind == "op" and val == "(":
            node = self._expr()
            k2, v2, o2 = self.toks.next()
            if not (k2 == "op" and v2 == ")"):
                raise ExprSyntaxError("expected ')'", o2)
            return node
        raise ExprSyntaxError(f"unexpected token {val!r}", off)


def _to_string(node) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"(-{_to_string(node.child)})"
    if isinstance(node, Bin):
        return f"({_to_string(node.left)} {node.op} {_to_string(node.right)})"
    if isinstance(node, Call):
        return f"{node.name}({', '.join(_to_string(a) for a in node.args)})"
    raise TypeError(f"not an AST node: {node!r}")


# node type -> its line in RhsExpr.tree_lines and its name in evaluation
# errors, each formatted with the node
_TREE_LABELS = {Num: "num {0.value!r}", Var: "var {0.name}", Neg: "neg",
                Bin: "op {0.op}", Call: "call {0.name}"}
_ERROR_LABELS = {Neg: "unary minus", Bin: "operator {0.op!r}",
                 Call: "function {0.name!r}"}


def _children(node) -> tuple:
    """The operand nodes of ``node``, left to right (none for a leaf)."""
    if isinstance(node, Bin):
        return (node.left, node.right)
    if isinstance(node, Neg):
        return (node.child,)
    if isinstance(node, Call):
        return node.args
    return ()


def _uses_y(node) -> bool:
    if isinstance(node, Var):
        return node.name == "y"
    return any(_uses_y(child) for child in _children(node))


def _eval_array(node, t, y):
    """Evaluate over numpy arrays, pinning domain failures to the node.

    One post-order walk under one ``errstate`` records the value of each
    operator node.  Outside ``_MASKING`` every table entry returns a
    non-finite value for a non-finite operand, so a non-finite operator
    node shows either at the root or as an operand of a masking entry,
    and only those two places are checked.  A failed check raises at the
    first non-finite operator node in post-order: the node that checking
    every operation would have named.  Leaves are never checked: ``y``
    returns a non-finite y as given, and ``1/y`` maps y = inf to 0.
    """
    record = []
    with np.errstate(all="ignore"):
        out = _walk(node, t, y, record)
    if not np.isfinite(out).all():
        _raise_at_first_non_finite(record)
    return out


def _walk(node, t, y, record):
    kind = type(node)
    if kind is Num:
        return np.full(np.shape(t), node.value)
    if kind is Var:
        return t if node.name == "t" else y
    key = node.name if kind is Call else node.op if kind is Bin else "neg"
    children = _children(node)
    args = [_walk(child, t, y, record) for child in children]
    if key in _MASKING:
        for child, arg in zip(children, args):
            if type(child) not in (Num, Var) and not np.isfinite(arg).all():
                _raise_at_first_non_finite(record)
    out = (_FUNCTIONS[key][1] if kind is Call else _OPERATORS[key])(*args)
    record.append((node, out))
    return out


def _raise_at_first_non_finite(record):
    """Raise ExprDomainError at the first node of ``record``, a list of
    (operator node, value) in post-order, whose value is not finite;
    return if there is none."""
    for node, value in record:
        if not np.isfinite(value).all():
            raise ExprDomainError(
                f"undefined value in {_ERROR_LABELS[type(node)].format(node)}",
                node.offset
            )


def _tree_lines(node, depth: int):
    yield "  " * depth + _TREE_LABELS[type(node)].format(node)
    for child in _children(node):
        yield from _tree_lines(child, depth + 1)


@dataclass(frozen=True)
class RhsExpr:
    """A parsed right-hand-side expression over the variables t and y."""

    root: object
    text: str = field(compare=False, default="")

    def eval(self, t: float, y: float) -> float:
        out = _eval_array(self.root, np.asarray(float(t)), np.asarray(float(y)))
        return float(out)

    def eval_many(self, t: np.ndarray, y: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        y = np.asarray(y, dtype=float)
        out = _eval_array(self.root, t, y)
        return np.broadcast_to(out, np.broadcast_shapes(t.shape, y.shape)).copy()

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
    return RhsExpr(_Parser(text).parse(), text)


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
    """
    t_lo, t_hi = float(t_range[0]), float(t_range[1])
    y_lo, y_hi = float(y_range[0]), float(y_range[1])
    if t_hi < t_lo or y_hi < y_lo:
        raise ValueError("ranges must be nonempty")

    ts = t_lo + _HALTON_T * (t_hi - t_lo)
    ys = y_lo + _HALTON_Y * (y_hi - y_lo)
    edge = np.array([0.0, 0.5, 1.0])
    tg, yg = np.meshgrid(t_lo + edge * (t_hi - t_lo),
                         y_lo + edge * (y_hi - y_lo))
    ts = np.concatenate([ts, tg.ravel()])
    ys = np.concatenate([ys, yg.ravel()])

    width = y_hi - y_lo
    step = 1e-6 * (width if width > 0 else max(1.0, abs(y_lo)))
    upper = expr.eval_many(ts, ys + step)
    lower = expr.eval_many(ts, ys - step)
    slope = np.max(np.abs(upper - lower)) / (2.0 * step)
    return 1.1 * float(slope)
