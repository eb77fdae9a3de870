"""Exact multivariate polynomials over Q.

Polynomials are kept in a sparse normal form: a tuple of variable names
plus a dict mapping exponent vectors to nonzero exact rationals.  Every
stored rational, here and in the modules built on this one, is in one
normal form: an int when integral, otherwise a Fraction with denominator
greater than 1 (_exact).  Products go through _times, which does no
arithmetic when a factor is the int 1 or -1.  Operations use a
polynomial as it stands when its normal form already answers: pruned()
returns it when every variable occurs and with_vars() when its variables
are already those asked for, two polynomials over one variable tuple
compare by their term dicts, and a rational scalar scales the terms over
the same variables.  All arithmetic is exact; there is no floating point
anywhere in this module.  Evaluation runs on integers: stage clears the
coefficient denominators of several polynomials once and returns a
kernel that maps integer ratios to their values as integer numerators
over one unreduced positive denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add
from typing import Callable, Mapping, Sequence, Union

Rat = Union[int, Fraction, str]
# a point as one (numerator, positive denominator) pair per coordinate, to
# exact values as numerators over one unreduced positive denominator
Kernel = Callable[[Sequence[tuple[int, int]]], tuple[list[int], int]]


def _exact(x):
    """x in normal form: an integral Fraction becomes its int; anything
    else (an int, a Fraction with denominator > 1, a Poly) is x itself."""
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


def _times(a, b):
    """a * b in normal form.  A factor that is the int 1 or -1 costs no
    multiplication; it is recognised as an int first, so no Fraction or
    Poly is ever compared with 1 (Poly.__eq__ would build a constant Poly)."""
    if type(a) is int and a in (1, -1):
        return b if a == 1 else -b
    if type(b) is int and b in (1, -1):
        return a if b == 1 else -a
    return _exact(a * b)


def as_rational(x: Rat) -> int | Fraction:
    """Coerce ints, Fractions and 'num/den' strings to the normal form."""
    if isinstance(x, int):
        return int(x)
    if isinstance(x, Fraction):
        return _exact(x)
    if isinstance(x, str):
        return _exact(Fraction(x))
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def format_fraction(x: int | Fraction) -> str:
    """Render a rational as 'num' or 'num/den' (canonical, reduced); an
    int is written as it is, with no Fraction built."""
    if type(x) is not int:
        x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _reindexed(terms: Mapping[tuple, int | Fraction], pos: Sequence[int],
               n: int) -> dict[tuple, int | Fraction]:
    """Terms with exponent slot j added into slot pos[j] of a length-n vector.

    When pos sends two slots to one, monomials can collide: their
    coefficients add and those that cancel are dropped.
    """
    if len(pos) == n and list(pos) == list(range(n)):
        return dict(terms)
    out: dict[tuple, int | Fraction] = {}
    for exps, c in terms.items():
        e = [0] * n
        for p, k in zip(pos, exps):
            e[p] += k
        m = tuple(e)
        if m in out:
            c = _exact(c + out[m])
        out[m] = c
    if len(out) < len(terms):
        out = {m: c for m, c in out.items() if c}
    return out


def _mul_terms(a: Mapping[tuple, int | Fraction],
               b: Mapping[tuple, int | Fraction]) -> dict[tuple, int | Fraction]:
    """Product of two term dicts over the same variables, zeros dropped."""
    out: dict[tuple, int | Fraction] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(add, ea, eb))
            c = _times(ca, cb)
            out[e] = out[e] + c if e in out else c
    return {e: _exact(c) for e, c in out.items() if c}


class Poly:
    """Sparse exact polynomial: named variables, exponent-vector -> rational."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: Sequence[str], terms: Mapping[tuple, Rat]):
        vs = Poly._distinct(vars)
        clean: dict[tuple, int | Fraction] = {}
        for exps, coeff in terms.items():
            e = tuple(int(k) for k in exps)
            if len(e) != len(vs):
                raise ValueError(f"exponent vector {e} does not match variables {vs}")
            if any(k < 0 for k in e):
                raise ValueError(f"negative exponent in {e}")
            c = coeff if type(coeff) is int else as_rational(coeff)
            if c:
                s = _exact(clean[e] + c) if e in clean else c
                if s:
                    clean[e] = s
                else:
                    del clean[e]
        object.__setattr__(self, "vars", vs)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, vars: tuple[str, ...], terms: dict[tuple, int | Fraction]) -> "Poly":
        """Wrap terms already in normal form, skipping the checks of __init__.

        Only for results this module builds itself: `vars` is a tuple of
        distinct names, every exponent is a tuple of len(vars) non-negative
        ints and every coefficient is nonzero and in normal form: an int,
        or a Fraction with denominator > 1.
        """
        p = object.__new__(cls)
        object.__setattr__(p, "vars", vars)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _distinct(vars: Sequence[str]) -> tuple[str, ...]:
        """vars as a tuple, refused when a name repeats."""
        vs = tuple(vars)
        if len(set(vs)) != len(vs):
            raise ValueError(f"duplicate variable names in {vs}")
        return vs

    @classmethod
    def zero(cls, vars: Sequence[str] = ()) -> "Poly":
        return cls._trusted(cls._distinct(vars), {})

    @classmethod
    def constant(cls, c: Rat) -> "Poly":
        c = c if type(c) is int else as_rational(c)
        return cls._trusted((), {(): c} if c else {})

    @classmethod
    def variable(cls, name: str, vars: Sequence[str] | None = None) -> "Poly":
        vs = (name,) if vars is None else tuple(vars)
        if name not in vs:
            raise ValueError(f"{name!r} not among variables {vs}")
        return cls._trusted(cls._distinct(vs), {tuple(1 if v == name else 0 for v in vs): 1})

    @classmethod
    def monomial(cls, vars: Sequence[str], exps: Sequence[int], c: Rat = 1) -> "Poly":
        return cls(vars, {tuple(exps): c})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> int | Fraction:
        if not self.terms:
            return 0
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    # -- variable alignment ------------------------------------------------

    def with_vars(self, vars: Sequence[str]) -> "Poly":
        """Reinterpret over a superset (or reordering) of the variables; the
        polynomial itself when vars is its own variable tuple."""
        vs = tuple(vars)
        if vs == self.vars:
            return self
        missing = [v for v in self.vars if v not in vs]
        if missing:
            raise ValueError(f"cannot drop variables {missing}")
        return Poly._trusted(Poly._distinct(vs),
                             _reindexed(self.terms, [vs.index(v) for v in self.vars], len(vs)))

    def pruned(self) -> "Poly":
        """Drop variables that do not occur in any term; the polynomial
        itself, uncopied, when every variable occurs in some term."""
        used = [i for i, column in enumerate(zip(*self.terms)) if any(column)]
        if len(used) == len(self.vars):
            return self
        vs = tuple(self.vars[i] for i in used)
        return Poly._trusted(vs, {tuple(e[i] for i in used): c for e, c in self.terms.items()})

    @staticmethod
    def _aligned(a: "Poly", b: "Poly") -> tuple["Poly", "Poly"]:
        if a.vars == b.vars:
            return a, b
        vs = tuple(dict.fromkeys(a.vars + b.vars))
        return a.with_vars(vs), b.with_vars(vs)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "Poly | None":
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            c = other if type(other) is int else as_rational(other)
            return Poly._trusted(self.vars, {(0,) * len(self.vars): c} if c else {})
        return None

    def __add__(self, other):
        # the int 0 adds nothing: p + 0 is p itself, its variables kept
        if type(other) is int and other == 0:
            return self
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = Poly._aligned(self, o)
        terms = dict(a.terms)
        for e, c in b.terms.items():
            s = _exact(terms[e] + c) if e in terms else c
            if s:
                terms[e] = s
            else:
                del terms[e]
        return Poly._trusted(a.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly._trusted(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        """The product, over the union of the variables.  An int or Fraction
        scales the terms over self.vars, with no constant Poly built: a
        factor equal to 1 gives p itself, -1 gives -p and 0 the zero
        polynomial over p.vars.  Any other factor (a Poly, or True) takes
        the general product."""
        if type(other) is int or type(other) is Fraction:
            c = _exact(other)
            if type(c) is int and c in (1, -1):
                return self if c == 1 else -self
            return Poly._trusted(self.vars,
                                 {e: _times(v, c) for e, v in self.terms.items()} if c else {})
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = Poly._aligned(self, o)
        return Poly._trusted(a.vars, _mul_terms(a.terms, b.terms))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly._trusted(self.vars, {(0,) * len(self.vars): 1})
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __eq__(self, other):
        """Equality of values.  Over one variable tuple the normal form makes
        it equality of the term dicts; otherwise both sides are pruned and
        aligned first, so p equals p.with_vars(...) and a constant equals
        its int or Fraction."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.vars == o.vars:
            return self.terms == o.terms
        a, b = Poly._aligned(self.pruned(), o.pruned())
        return a.terms == b.terms

    def __hash__(self):
        # equal values hash equal: a constant hashes as its value (so as
        # the int or Fraction it equals), anything else through its terms
        # with the variables in sorted order
        p = self.pruned()
        if not p.vars:
            return hash(p.terms.get((), 0))
        order = sorted(range(len(p.vars)), key=p.vars.__getitem__)
        return hash((tuple(p.vars[i] for i in order),
                     frozenset((tuple(e[i] for i in order), c) for e, c in p.terms.items())))

    # -- calculus ----------------------------------------------------------

    def diff(self, name: str) -> "Poly":
        if name not in self.vars:
            return Poly._trusted(self.vars, {})
        i = self.vars.index(name)
        # lowering the i-th exponent is injective on the terms that have one
        return Poly._trusted(self.vars, {e[:i] + (e[i] - 1,) + e[i + 1:]: _times(c, e[i])
                                         for e, c in self.terms.items() if e[i]})

    def variable_name(self) -> str | None:
        """The name v when this polynomial is the single variable v with
        coefficient 1, otherwise None."""
        if len(self.terms) != 1:
            return None
        (e, c), = self.terms.items()
        if c != 1 or sum(e) != 1:
            return None
        return self.vars[e.index(1)]

    def substitute(self, values: Mapping[str, "Poly | Rat"]) -> "Poly":
        """Substitute polynomials (or rationals) for some of the variables.

        The result's variables are the kept ones, in order, followed by
        those of the substituted polynomials in order of first appearance.
        When each variable of this polynomial that gets a value gets a
        single variable with coefficient 1 (an identity, a rename or a
        swap, also onto a kept variable), the substitution is a
        relabelling: each exponent moves to its new slot and coefficients
        add where monomials collide, with no products taken.
        """
        out_vars: list[str] = [v for v in self.vars if v not in values]
        slot = {v: i for i, v in enumerate(out_vars)}
        subs: dict[str, Poly | int | Fraction] = {}
        for name, val in values.items():
            if isinstance(val, Poly):
                for v in val.vars:
                    if v not in slot:
                        slot[v] = len(out_vars)
                        out_vars.append(v)
            else:
                val = as_rational(val)
            subs[name] = val
        vs = tuple(out_vars)
        n = len(vs)
        pos = []
        for v in self.vars:
            val = subs.get(v)
            if val is None:
                pos.append(slot[v])
            elif isinstance(val, Poly) and (name := val.variable_name()) is not None:
                pos.append(slot[name])
            else:
                break
        else:
            return Poly._trusted(vs, _reindexed(self.terms, pos, n))
        # each substituted variable's value over vs, and its powers computed so far
        powers: dict[int, list[dict[tuple, int | Fraction]]] = {}
        kept: list[tuple[int, int]] = []
        for i, v in enumerate(self.vars):
            if v not in subs:
                kept.append((i, slot[v]))
                continue
            val = subs[v]
            if isinstance(val, Poly):
                base = _reindexed(val.terms, [slot[w] for w in val.vars], n)
            else:
                base = {(0,) * n: val} if val else {}
            powers[i] = [{(0,) * n: 1}, base]
        out: dict[tuple, int | Fraction] = {}
        for e, c in self.terms.items():
            mono = [0] * n
            for i, p in kept:
                mono[p] = e[i]
            term = {tuple(mono): c}
            for i, pw in powers.items():
                k = e[i]
                while len(pw) <= k:
                    pw.append(_mul_terms(pw[-1], pw[1]))
                if k:
                    term = _mul_terms(term, pw[k])
            for m, cm in term.items():
                out[m] = out[m] + cm if m in out else cm
        return Poly._trusted(vs, {m: _exact(c) for m, c in out.items() if c})

    def eval(self, values: Mapping[str, Rat]) -> int | Fraction:
        coords = [v for v in self.vars if v in values]
        nums, den = stage([self], coords)([as_rational(values[v]).as_integer_ratio()
                                           for v in coords])
        return _exact(Fraction(nums[0], den))

    # -- rendering ---------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True):
            factors = []
            for v, k in zip(self.vars, e):
                if k == 1:
                    factors.append(v)
                elif k > 1:
                    factors.append(f"{v}^{k}")
            mono = "*".join(factors)
            cs = format_fraction(c)
            if mono:
                if cs == "1":
                    bits.append(mono)
                elif cs == "-1":
                    bits.append(f"-{mono}")
                else:
                    bits.append(f"{cs}*{mono}")
            else:
                bits.append(cs)
        out = " + ".join(bits)
        return out.replace("+ -", "- ")

    def __repr__(self):
        return f"Poly({self})"


def stage(polys: Sequence[Poly], coords: Sequence[str]) -> Kernel:
    """Exact evaluation of polynomials at points given over `coords`, staged once.

    The kernel takes one (numerator, positive denominator) pair per
    coordinate, as `as_integer_ratio()` of an int, a Fraction or a binary
    floating-point number gives it, and returns (nums, den) with den > 0:
    polys[i] is nums[i] / den there, unreduced.  Staging scales every
    coefficient to an integer by one lcm of all their denominators and
    records, for each coordinate some term uses, its slot in `coords` and
    its top exponent k over all the polynomials, so a term c * x^e becomes
    c * p^e * q^(k - e) over the common denominator lcm * q^k.  A point
    then costs one power table per used coordinate, and a polynomial that
    does not use a coordinate takes its q^k once, not per term.
    """
    # per polynomial, (index in its vars, slot in coords) of each variable a term uses
    used = []
    tops: dict[int, int] = {}
    for p in polys:
        mine = []
        for j, top in enumerate(map(max, zip(*p.terms))):
            if top:
                if p.vars[j] not in coords:
                    raise ValueError(f"no value supplied for variable {p.vars[j]!r}")
                slot = coords.index(p.vars[j])
                tops[slot] = max(tops.get(slot, 0), top)
                mine.append((j, slot))
        used.append(mine)
    # the power tables of the used slots, one after another in one flat list
    slots = sorted(tops.items())
    start, n = {}, 0
    for slot, top in slots:
        start[slot] = n
        n += top + 1
    scale = lcm(*[c.denominator for p in polys for c in p.terms.values()])
    plan = []
    for p, mine in zip(polys, used):
        terms = [(c.numerator * (scale // c.denominator), [start[slot] + e[j] for j, slot in mine])
                 for e, c in p.terms.items()]
        # a slot this polynomial does not use contributes its q^top, table[0], once
        taken = {slot for _, slot in mine}
        plan.append((terms, [start[slot] for slot, _ in slots if slot not in taken]))

    def kernel(point):
        flat = []
        den = scale
        for slot, top in slots:
            p, q = point[slot]
            ps, qs = [1, p], [1, q]
            for _ in range(top - 1):
                ps.append(ps[-1] * p)
                qs.append(qs[-1] * q)
            # table[e] = p^e * q^(top - e)
            flat += [pe * qe for pe, qe in zip(ps, reversed(qs))]
            den *= qs[top]
        nums = []
        for terms, absent in plan:
            num = 0
            for a, idx in terms:
                for i in idx:
                    a *= flat[i]
                num += a
            for i in absent:
                num *= flat[i]
            nums.append(num)
        return nums, den

    return kernel
