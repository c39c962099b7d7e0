"""Polynomials in the holomorphic variables z_1..z_m with rational
coefficients, plus a small parser for the textual syntax used in config files
("z1*z2", "z1 - z2", "3/2 z1^2 (z2 + 1)").
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .algebra import (TermMap, clean_terms, exponent, format_terms,
                      mul_terms, unit)
from .errors import DomainError, InputError, ShapeError


class Poly(TermMap):
    """Sparse polynomial: exponent tuple (length nvars) -> nonzero Fraction."""

    __slots__ = ("nvars",)

    def __init__(self, nvars: int, coeffs: dict | None = None):
        if nvars < 1:
            raise DomainError(f"polynomial needs at least one variable, got {nvars}")
        self.nvars = nvars
        self.coeffs = clean_terms(coeffs, nvars) if coeffs else {}

    @classmethod
    def _trusted(cls, nvars: int, coeffs: dict) -> "Poly":
        """A polynomial over a term map that is already clean (exponent
        keys of length nvars, nonzero Fraction values), as the term
        arithmetic builds it from clean operands; nothing is checked."""
        p = object.__new__(cls)
        p.nvars, p.coeffs = nvars, coeffs
        return p

    @property
    def shape(self) -> tuple:
        return (self.nvars,)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(nvars: int, c) -> "Poly":
        return Poly(nvars, {(0,) * nvars: c})

    @staticmethod
    def monomial(nvars: int, exps, c=1) -> "Poly":
        return Poly(nvars, {tuple(exps): c})

    @staticmethod
    def variable(nvars: int, i: int) -> "Poly":
        """z_{i+1} as a polynomial (i is 0-based)."""
        if not 0 <= i < nvars:
            raise ShapeError(f"variable index {i} outside 0..{nvars - 1} "
                             f"for {nvars} variables")
        return Poly(nvars, {unit(nvars, i): 1})

    # -- queries -------------------------------------------------------------

    @property
    def degree(self) -> int:
        """Total degree; zero polynomial reports -1."""
        return max((sum(k) for k in self.coeffs), default=-1)

    def is_monomial(self) -> bool:
        return len(self.coeffs) == 1

    def monomial_exponent(self) -> tuple:
        if not self.is_monomial():
            raise DomainError(f"{self} is not a monomial")
        return next(iter(self.coeffs))

    # -- arithmetic -----------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        return Poly._trusted(self.nvars, mul_terms(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError("negative polynomial power")
        out = self if n else Poly.constant(self.nvars, 1)
        for _ in range(n - 1):
            out = out * self
        return out

    def shift_by_monomial(self, exps) -> "Poly":
        """Multiply by z^exps."""
        e = exponent(exps)
        if len(e) != self.nvars:
            raise ShapeError("multi-index length mismatch in +")
        return Poly._trusted(self.nvars, {tuple(map(add, k, e)): v
                                          for k, v in self.coeffs.items()})

    def __str__(self):
        return format_terms(self.coeffs,
                            tuple(f"z{i+1}" for i in range(self.nvars)))

    def __repr__(self):
        return f"Poly({self.nvars}: {self})"


# ---------------------------------------------------------------------------
# Parser.  Grammar, with implicit multiplication between adjacent factors:
#
#   expr   := ['+'|'-'] term (('+'|'-') term)*
#   term   := factor (('*')? factor)*
#   factor := atom (('^'|'**') integer)?
#   atom   := rational | variable | '(' expr ')'
#
# rational := digits ('/' digits)? ; variable := 'z' digits (1-based).


class _Tokenizer:
    def __init__(self, text: str, nvars: int):
        self.text = text
        self.nvars = nvars
        self.pos = 0

    def error(self, msg):
        return InputError(f"polynomial syntax: {msg}", column=self.pos + 1)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_digits(self):
        """The int of the digits at pos, read past them; None for none.  An
        InputError at their column when int() refuses them (a superscript
        digit, or more than sys.get_int_max_str_digits())."""
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            return None
        try:
            return int(self.text[start:self.pos])
        except ValueError as e:
            raise InputError(f"polynomial syntax: bad number ({e})",
                             column=start + 1) from None

    def take_number(self) -> Fraction:
        num = self.take_digits()
        if self.text[self.pos:self.pos + 1] != "/":
            return Fraction(num)
        self.pos += 1
        den = self.take_digits()
        if den is None:
            # a '/' not followed by digits is not division we support
            self.pos -= 1
            return Fraction(num)
        if den == 0:
            raise self.error("zero denominator")
        return Fraction(num, den)

    def take_int(self) -> int:
        self.skip_ws()
        n = self.take_digits()
        if n is None:
            raise self.error("expected an integer exponent")
        return n


def parse_poly(text: str, nvars: int) -> Poly:
    """Parse polynomial source into a Poly over z1..z{nvars}."""
    tk = _Tokenizer(text, nvars)
    zero = (0,) * nvars

    def parse_expr() -> Poly:
        c = tk.peek()
        if c in "+-":
            tk.pos += 1
        out = -parse_term() if c == "-" else parse_term()
        while True:
            c = tk.peek()
            if c == "+":
                tk.pos += 1
                out = out + parse_term()
            elif c == "-":
                tk.pos += 1
                out = out - parse_term()
            else:
                return out

    def parse_term() -> Poly:
        out = parse_factor()
        while True:
            c = tk.peek()
            if c == "*":
                # disambiguate from '**' power on the preceding factor,
                # handled inside parse_factor; here '*' is multiplication
                tk.pos += 1
                out = out * parse_factor()
            elif c.isdigit() or c == "z" or c == "(":
                out = out * parse_factor()
            else:
                return out

    def parse_factor() -> Poly:
        base = parse_atom()
        c = tk.peek()
        if c == "^":
            tk.pos += 1
            return base ** tk.take_int()
        if c == "*" and tk.text[tk.pos:tk.pos + 2] == "**":
            tk.pos += 2
            return base ** tk.take_int()
        return base

    def parse_atom() -> Poly:
        c = tk.peek()
        if c == "(":
            tk.pos += 1
            inner = parse_expr()
            if tk.peek() != ")":
                raise tk.error("expected ')'")
            tk.pos += 1
            return inner
        if c.isdigit():
            value = tk.take_number()
            return Poly._trusted(nvars, {zero: value} if value else {})
        if c == "z":
            tk.pos += 1
            start = tk.pos
            idx = tk.take_digits()
            if idx is None:
                raise tk.error("expected a variable index after 'z'")
            if not 1 <= idx <= nvars:
                raise InputError(
                    f"variable z{idx} out of range for {nvars} variables",
                    column=start)
            return Poly._trusted(nvars, {unit(nvars, idx - 1): Fraction(1)})
        if c == "":
            raise tk.error("unexpected end of input")
        raise tk.error(f"unexpected character {c!r}")

    result = parse_expr()
    if tk.peek() != "":
        raise tk.error(f"trailing input {tk.text[tk.pos:]!r}")
    return result
