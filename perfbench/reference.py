"""Independent reference mathematics for checking qgenocchi's outputs.

Nothing here imports qgenocchi: every value the benchmark checks is
recomputed from first principles over exact rationals, so a defect in the
package's parser, canonical form or pipelines cannot hide itself.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


def genocchi_at(r: Fraction, n_max: int) -> list[Fraction]:
    """G~_{n,q} at q = r for n = 0..n_max.

    Exact series inversion of the generating function
    (1+r) t / (r e^t + 1) = sum_n G~_n(r) t^n / n!  over Q.  With
    c_n = n! [t^n] 1/(r e^t + 1) the inversion reads
    c_n = -(r / (1+r)) sum_{k=1..n} C(n,k) c_{n-k},  c_0 = 1/(1+r),
    and G~_n(r) = n (1+r) c_{n-1}.  At r = 1 this gives the classical
    Genocchi numbers 0, 1, -1, 0, 1, 0, -3, 0, 17, ...
    """
    r = Fraction(r)
    if r == -1:
        raise ZeroDivisionError("q = -1 is a pole of every G~_n, n >= 2")
    c = [1 / (1 + r)]
    factor = -r / (1 + r)
    for n in range(1, n_max):
        c.append(factor * sum(comb(n, k) * c[n - k] for k in range(1, n + 1)))
    return [Fraction(0)] + [n * (1 + r) * c[n - 1] for n in range(1, n_max + 1)]


class _Evaluator:
    """Evaluates a rational-function expression in q at a rational point.

    Grammar: expr := term (('+'|'-') term)*; term := factor (('*'|'/') factor)*;
    factor := '-' factor | atom ('^' integer)?; atom := integer | 'q' | '(' expr ')'.
    """

    def __init__(self, text: str, q: Fraction):
        self.text = text.replace(" ", "")
        self.pos = 0
        self.q = q
        self.q_powers = {}

    def run(self) -> Fraction:
        value = self.expr()
        if self.pos != len(self.text):
            raise ValueError(f"trailing input at column {self.pos} of {self.text[:60]!r}")
        return value

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expr(self) -> Fraction:
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.text[self.pos]
            self.pos += 1
            value = value + self.term() if op == "+" else value - self.term()
        return value

    def term(self) -> Fraction:
        value = self.factor()
        while self.peek() in ("*", "/"):
            op = self.text[self.pos]
            self.pos += 1
            value = value * self.factor() if op == "*" else value / self.factor()
        return value

    def factor(self) -> Fraction:
        if self.peek() == "-":
            self.pos += 1
            return -self.factor()
        ch = self.peek()
        if ch == "q":
            self.pos += 1
            exponent = self.exponent()
            if exponent not in self.q_powers:
                self.q_powers[exponent] = self.q ** exponent
            return self.q_powers[exponent]
        value = self.atom()
        return value ** self.exponent()

    def exponent(self) -> int:
        if self.peek() != "^":
            return 1
        self.pos += 1
        sign = 1
        if self.peek() == "-":
            sign = -1
            self.pos += 1
        return sign * self.integer()

    def atom(self) -> Fraction:
        if self.peek() == "(":
            self.pos += 1
            value = self.expr()
            if self.peek() != ")":
                raise ValueError(f"expected ')' at column {self.pos}")
            self.pos += 1
            return value
        return Fraction(self.integer())

    def integer(self) -> int:
        start = self.pos
        while self.peek().isdigit():
            self.pos += 1
        if start == self.pos:
            raise ValueError(f"expected an integer at column {start} of {self.text[:60]!r}")
        return int(self.text[start:self.pos])


def eval_q_text(text: str, q: Fraction) -> Fraction:
    """Value of a rendered rational function of q at the rational point q."""
    return _Evaluator(text, Fraction(q)).run()


def valuation(x: Fraction, p: int) -> float:
    """p-adic valuation of a rational; +inf for zero."""
    if x == 0:
        return float("inf")
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def riemann_sum(n: int, p: int, m: int, q: Fraction) -> Fraction:
    """Level-m fermionic Riemann sum of xi^n:
    ((1+q)/(1+q^N)) sum_{xi<N} (-1)^xi q^xi xi^n with N = p^m.

    With q = a/b this is (a+b) P / (a^N + b^N), where
    P = sum_xi (-1)^xi xi^n a^xi b^(N-1-xi) is evaluated by a homogeneous
    Horner scheme in integers.
    """
    q = Fraction(q)
    a, b = q.numerator, q.denominator
    count = p ** m
    acc = (-1) ** (count - 1) * (count - 1) ** n
    b_power = 1
    for xi in range(count - 2, -1, -1):
        b_power *= b
        acc = acc * a + (-1) ** xi * xi ** n * b_power
    return Fraction((a + b) * acc, a ** count + b ** count)


def moment_error_valuations(n: int, p: int, m_max: int, q: Fraction) -> list:
    """v_p(S_m - G~_{n+1}(q)/(n+1)) for m = 1..m_max ('exact' for zero)."""
    limit = genocchi_at(q, n + 1)[n + 1] / (n + 1)
    out = []
    for m in range(1, m_max + 1):
        v = valuation(riemann_sum(n, p, m, q) - limit, p)
        out.append("exact" if v == float("inf") else v)
    return out
