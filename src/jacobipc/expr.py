"""Small arithmetic expression language for user-supplied right-hand sides.

Lets the CLI accept ``f(t, x)`` as a string without recompilation.  Grammar
(whitespace insignificant)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-'? power
    power  := atom ('^' factor)?
    atom   := number | ident | ident '(' expr (',' expr)* ')' | '(' expr ')'

``^`` is right-associative and unary minus binds looser than ``^``, so
``-2^2`` is ``-(2^2) = -4``; conventions vary, hence spelled out.  Variables
are ``t``, ``x`` and ``alpha`` (``parse`` takes a narrower set for an exact
solution, which has no ``x``); ``alpha`` is bound once by ``compile_rhs`` so
one source string can serve a whole sweep over orders.  Unknown identifiers
and wrong arities are rejected at parse time with byte offsets; division by
zero and domain faults surface as evaluation errors naming the offending
subexpression rather than silent NaNs.
"""

import math
import operator
import re
from dataclasses import dataclass


class ExprError(ValueError):
    """Base for parse- and evaluation-time failures."""


class ExprSyntaxError(ExprError):
    def __init__(self, message, offset, expected=()):
        self.offset = offset
        self.expected = frozenset(expected)
        tail = f" (expected {', '.join(sorted(self.expected))})" if expected else ""
        super().__init__(f"{message} at offset {offset}{tail}")


class ExprNameError(ExprError):
    def __init__(self, message, offset):
        self.offset = offset
        super().__init__(f"{message} at offset {offset}")


class ExprArityError(ExprError):
    def __init__(self, message, offset):
        self.offset = offset
        super().__init__(f"{message} at offset {offset}")


class ExprEvalError(ExprError):
    def __init__(self, message, node):
        self.node = node
        super().__init__(f"{message} in '{pretty(node)}'")


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple


VARIABLES = ("t", "x", "alpha")

FUNCTIONS = {
    "sin": (1, math.sin),
    "cos": (1, math.cos),
    "exp": (1, math.exp),
    "ln": (1, math.log),
    "sqrt": (1, math.sqrt),
    "abs": (1, abs),
    "gamma": (1, math.gamma),
    "pow": (2, math.pow),
}

_BINARY_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
               "/": operator.truediv, "^": math.pow}

_NUMBER = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_OPERATORS = "+-*/^(),"


def _tokenize(source):
    tokens = []
    pos = 0
    n = len(source)
    while pos < n:
        ch = source[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in _OPERATORS:
            tokens.append((ch, ch, pos))
            pos += 1
            continue
        m = _NUMBER.match(source, pos)
        if m:
            tokens.append(("number", m.group(), pos))
            pos = m.end()
            continue
        m = _IDENT.match(source, pos)
        if m:
            tokens.append(("ident", m.group(), pos))
            pos = m.end()
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", pos)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.variables = variables
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind, expected):
        tok = self.peek()
        if tok[0] != kind:
            raise ExprSyntaxError(
                f"unexpected {tok[1]!r}" if tok[0] != "end" else "unexpected end of input",
                tok[2],
                expected,
            )
        return self.advance()

    def expr(self):
        left = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            left = BinOp(op, left, self.term())
        return left

    def term(self):
        left = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            left = BinOp(op, left, self.factor())
        return left

    def factor(self):
        if self.peek()[0] == "-":
            self.advance()
            return Neg(self.power())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            # exponent re-enters at factor level: right-associative, minus ok
            return BinOp("^", base, self.factor())
        return base

    def atom(self):
        kind, text, pos = self.peek()
        if kind == "number":
            self.advance()
            value = float(text)
            if not math.isfinite(value):
                raise ExprSyntaxError("numeric literal overflows a double", pos)
            return Num(value)
        if kind == "ident":
            self.advance()
            if self.peek()[0] == "(":
                return self.call(text, pos)
            if text not in self.variables:
                raise ExprNameError(
                    f"unknown identifier {text!r} "
                    f"(variables are {', '.join(self.variables)})", pos
                )
            return Var(text)
        if kind == "(":
            self.advance()
            inner = self.expr()
            self.expect(")", ("')'",))
            return inner
        raise ExprSyntaxError(
            f"unexpected {text!r}" if kind != "end" else "unexpected end of input",
            pos,
            ("number", "identifier", "'('"),
        )

    def call(self, name, pos):
        if name not in FUNCTIONS:
            raise ExprNameError(
                f"unknown function {name!r} (known: {', '.join(sorted(FUNCTIONS))})", pos
            )
        self.advance()
        args = [self.expr()]
        while self.peek()[0] == ",":
            self.advance()
            args.append(self.expr())
        self.expect(")", ("')'", "','"))
        arity = FUNCTIONS[name][0]
        if len(args) != arity:
            raise ExprArityError(
                f"{name} takes {arity} argument{'s' if arity > 1 else ''}, got {len(args)}", pos
            )
        return Call(name, tuple(args))


def parse(source, variables=VARIABLES):
    """Parse a source string into an expression tree over ``variables``."""
    parser = _Parser(_tokenize(source), variables)
    tree = parser.expr()
    parser.expect("end", ("end of input",))
    return tree


# printer precedence levels; a child is parenthesized when its level falls
# below the minimum its slot requires under the grammar
_LEVEL_ADD, _LEVEL_MUL, _LEVEL_NEG, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _level(node):
    if isinstance(node, BinOp):
        if node.op in ("+", "-"):
            return _LEVEL_ADD
        if node.op in ("*", "/"):
            return _LEVEL_MUL
        return _LEVEL_POW
    if isinstance(node, Neg):
        return _LEVEL_NEG
    return _LEVEL_ATOM


def _fmt(node, minimum):
    if isinstance(node, Num):
        text = repr(node.value)
    elif isinstance(node, Var):
        text = node.name
    elif isinstance(node, Neg):
        text = "-" + _fmt(node.operand, _LEVEL_POW)
    elif isinstance(node, Call):
        text = node.name + "(" + ", ".join(_fmt(a, _LEVEL_ADD) for a in node.args) + ")"
    elif node.op in ("+", "-"):
        text = _fmt(node.left, _LEVEL_ADD) + node.op + _fmt(node.right, _LEVEL_MUL)
    elif node.op in ("*", "/"):
        text = _fmt(node.left, _LEVEL_MUL) + node.op + _fmt(node.right, _LEVEL_NEG)
    else:
        text = _fmt(node.left, _LEVEL_ATOM) + "^" + _fmt(node.right, _LEVEL_NEG)
    if _level(node) < minimum:
        return "(" + text + ")"
    return text


def pretty(node):
    """Render a tree with grammar-minimal parentheses.

    Fixed point under reparsing: parse(pretty(e)) prints back identically.
    Assumes trees that the parser can produce (finite non-negative literals).
    """
    return _fmt(node, _LEVEL_ADD)


def _apply(fn, node, *args):
    try:
        result = fn(*args)
    except ZeroDivisionError:
        raise ExprEvalError("division by zero", node) from None
    except ValueError:
        raise ExprEvalError("domain error", node) from None
    except OverflowError:
        # saturate; callers treat huge magnitudes as divergence, not a fault
        return math.inf
    if result != result:
        raise ExprEvalError("result is not a number", node)
    return result


def evaluate(node, t, x, alpha):
    """Evaluate a tree at the given variable values."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return {"t": t, "x": x, "alpha": alpha}[node.name]
    if isinstance(node, Neg):
        return -evaluate(node.operand, t, x, alpha)
    if isinstance(node, Call):
        fn = FUNCTIONS[node.name][1]
        args = [evaluate(a, t, x, alpha) for a in node.args]
        return _apply(fn, node, *args)
    left = evaluate(node.left, t, x, alpha)
    right = evaluate(node.right, t, x, alpha)
    return _apply(_BINARY_OPS[node.op], node, left, right)


def compile_rhs(source, alpha):
    """Parse once and bind ``alpha``, returning a plain ``f(t, x)`` callable."""
    tree = parse(source)

    def rhs(t, x):
        return evaluate(tree, t, x, alpha)

    rhs.source = source
    return rhs
