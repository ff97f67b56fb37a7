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


class _OffsetError(ExprError):
    """A parse-time failure at a character offset of the source."""

    def __init__(self, message, offset, tail=""):
        self.offset = offset
        super().__init__(f"{message} at offset {offset}{tail}")


class ExprSyntaxError(_OffsetError):
    def __init__(self, message, offset, expected=()):
        self.expected = frozenset(expected)
        super().__init__(message, offset,
                         f" (expected {', '.join(sorted(self.expected))})" if expected else "")


class ExprNameError(_OffsetError):
    pass


class ExprArityError(_OffsetError):
    pass


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

# precedence levels; a child is parenthesized when its level falls below the
# minimum its slot requires under the grammar
_LEVEL_ADD, _LEVEL_MUL, _LEVEL_NEG, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5

# each binary operator: its function, its level, and the least levels of its
# left and right operands
_BINARY = {
    "+": (operator.add, _LEVEL_ADD, _LEVEL_ADD, _LEVEL_MUL),
    "-": (operator.sub, _LEVEL_ADD, _LEVEL_ADD, _LEVEL_MUL),
    "*": (operator.mul, _LEVEL_MUL, _LEVEL_MUL, _LEVEL_NEG),
    "/": (operator.truediv, _LEVEL_MUL, _LEVEL_MUL, _LEVEL_NEG),
    "^": (math.pow, _LEVEL_POW, _LEVEL_ATOM, _LEVEL_NEG),
}
# evaluate's view of the table: a binary node costs one lookup
_BINARY_FN = {op: row[0] for op, row in _BINARY.items()}

# \d and \s are Unicode-aware (\s is exactly str.isspace); names are ASCII
_TOKEN = re.compile(r"""
    (?P<number> (?:\d+(?:\.\d*)? | \.\d+) (?:[eE][+-]?\d+)? )
  | (?P<ident> [A-Za-z_][A-Za-z_0-9]* )
  | (?P<op> [-+*/^(),] )
  | (?P<space> \s+ )
  | (?P<other> . )
""", re.VERBOSE | re.DOTALL)


def _tokenize(source):
    """(kind, text, offset) triples; an operator's kind is its own text."""
    tokens = []
    for m in _TOKEN.finditer(source):
        kind, text = m.lastgroup, m.group()
        if kind == "other":
            raise ExprSyntaxError(f"unexpected character {text!r}", m.start())
        if kind != "space":
            tokens.append((text if kind == "op" else kind, text, m.start()))
    tokens.append(("end", "", len(source)))
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

    def unexpected(self, expected):
        """The syntax error for the next token, which is none of ``expected``."""
        kind, text, pos = self.peek()
        return ExprSyntaxError(
            f"unexpected {text!r}" if kind != "end" else "unexpected end of input", pos, expected)

    def expect(self, kind, expected):
        if self.peek()[0] != kind:
            raise self.unexpected(expected)
        return self.advance()

    def chain(self, ops, operand):
        """operand ((op in ops) operand)*, grouped to the left."""
        left = operand()
        while self.peek()[0] in ops:
            op = self.advance()[0]
            left = BinOp(op, left, operand())
        return left

    def expr(self):
        return self.chain(("+", "-"), self.term)

    def term(self):
        return self.chain(("*", "/"), self.factor)

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
        raise self.unexpected(("number", "identifier", "'('"))

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


def _fmt(node, minimum):
    level = _LEVEL_ATOM
    if isinstance(node, Num):
        text = repr(node.value)
    elif isinstance(node, Var):
        text = node.name
    elif isinstance(node, Neg):
        text, level = "-" + _fmt(node.operand, _LEVEL_POW), _LEVEL_NEG
    elif isinstance(node, Call):
        text = node.name + "(" + ", ".join(_fmt(a, _LEVEL_ADD) for a in node.args) + ")"
    else:
        _, level, left, right = _BINARY[node.op]
        text = _fmt(node.left, left) + node.op + _fmt(node.right, right)
    if level < minimum:
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
    return _apply(_BINARY_FN[node.op], node, left, right)


def compile_rhs(source, alpha):
    """Parse once and bind ``alpha``, returning a plain ``f(t, x)`` callable."""
    tree = parse(source)

    def rhs(t, x):
        return evaluate(tree, t, x, alpha)

    rhs.source = source
    return rhs
