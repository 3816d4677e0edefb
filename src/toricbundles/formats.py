"""Text file grammars for fans, piecewise-linear maps, pairs, presentations.

All formats are line based: '#' starts a comment, blank lines are ignored,
fields are whitespace separated.  A section keyword ('rays', 'values',
'basis', ...) stands alone on its line; only 'name' takes the rest of
its line.  Parse problems raise ParseError with the 1-based line number.
The grammars are stable; serializers below emit byte-stable output for
identical input.

Fan file:            dim N / rays / <ints per line> / max_cones / <indices>
Pair file:           fan file + charmap / <ints per line, one per ray>
Phi file:            fiber_rank N / values / <ray_index ints...> per base ray
Base presentation:   name / top_degree / generators (name degree) /
                     relations (one polynomial per line) / basis
                     (degree : monomial list) / integration +-1 / chern poly
Twisting classes:    classes / one degree-2 polynomial per fiber coordinate

Reports are written here too.  ``monomial_texts`` renders a batch of
monomials from one table of factor texts ('x3', 'x3^2', ...), and every
monomial text of a report comes from it.  ``report_json`` writes a
machine report: exactly the text ``json.dumps`` gives with an indent of 2
and sorted keys, with a list of plain ints or of strs joined in one pass
instead of encoded item by item.
"""

from __future__ import annotations

import json
import re
from functools import cache
from json.encoder import encode_basestring_ascii

from .bundlering import BasePresentation, TwistingClasses
from .cohomology import Poly
from .fan import Fan, maximal_cone
from .twist import CharacteristicPair, PiecewiseLinearMap, validate_pair


class ParseError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _lines(text: str):
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((i, line))
    return out


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _integer(token: str, lineno: int, message: str) -> int:
    """An ASCII integer token, [+-]?[0-9]+, else ParseError(message): int()
    alone would also read '1_0' as 10 and non-ASCII digits."""
    if _INTEGER.fullmatch(token) is None:
        raise ParseError(lineno, message)
    return int(token)


def _ints(line: str, lineno: int) -> list[int]:
    return [_integer(tok, lineno, f"expected integers, got {line!r}")
            for tok in line.split()]


class _Cursor:
    def __init__(self, text: str):
        self.lines = _lines(text)
        self.pos = 0

    def done(self) -> bool:
        return self.pos >= len(self.lines)

    def peek(self):
        return self.lines[self.pos]

    def take(self):
        if self.done():
            raise ParseError(
                self.lines[-1][0] if self.lines else 1, "unexpected end of file"
            )
        item = self.lines[self.pos]
        self.pos += 1
        return item

    def expect_line(self, keyword: str):
        """A line starting with keyword: its line number and its other
        tokens."""
        lineno, line = self.take()
        parts = line.split()
        if parts[0] != keyword:
            raise ParseError(lineno, f"expected {keyword!r}, got {parts[0]!r}")
        return lineno, parts[1:]

    def expect_keyword(self, keyword: str) -> int:
        """A line holding keyword alone, a section header: its line number."""
        lineno, rest = self.expect_line(keyword)
        if rest:
            raise ParseError(
                lineno, f"unexpected {' '.join(rest)!r} after {keyword!r}")
        return lineno

    def expect_integer(self, keyword: str):
        """A ``keyword <integer>`` line: its line number and the integer."""
        lineno, rest = self.expect_line(keyword)
        if len(rest) != 1:
            raise ParseError(lineno, f"{keyword} takes exactly one integer")
        return lineno, _ints(rest[0], lineno)[0]

    def block_until(self, keywords):
        """All lines up to the next line starting with one of the keywords."""
        rows = []
        while not self.done():
            lineno, line = self.peek()
            if line.split()[0] in keywords:
                break
            rows.append(self.take())
        return rows


def _parse_fan_sections(cur: _Cursor, stop_keywords=()):
    lineno, dim = cur.expect_integer("dim")
    if dim < 0:
        raise ParseError(lineno, "fan dimension must be >= 0")
    cur.expect_keyword("rays")
    ray_rows = cur.block_until({"max_cones"})
    rays = []
    for lineno, line in ray_rows:
        entries = _ints(line, lineno)
        if len(entries) != dim:
            raise ParseError(lineno, f"ray needs {dim} coordinates")
        rays.append(tuple(entries))
    cur.expect_keyword("max_cones")
    cone_rows = cur.block_until(set(stop_keywords))
    cones = []
    seen: set = set()
    for lineno, line in cone_rows:
        indices = _ints(line, lineno)
        try:
            cones.append(maximal_cone(indices, dim, len(rays), seen))
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
    if dim == 0 and not cones:
        cones = [frozenset()]  # the zero cone (an empty line) is maximal
    return Fan(dim, tuple(rays), tuple(cones))


def parse_fan(text: str) -> Fan:
    cur = _Cursor(text)
    fan = _parse_fan_sections(cur)
    if not cur.done():
        raise ParseError(cur.peek()[0], f"unexpected content {cur.peek()[1]!r}")
    return fan


def fan_to_text(f: Fan, header: str = "") -> str:
    out = []
    if header:
        out.append(f"# {header}")
    out.append(f"dim {f.dim}")
    out.append("rays")
    for ray in f.rays:
        out.append(" ".join(str(e) for e in ray))
    out.append("max_cones")
    for cone in f.max_cones:
        out.append(" ".join(str(i) for i in sorted(cone)))
    return "\n".join(out) + "\n"


def parse_pair(text: str) -> CharacteristicPair:
    cur = _Cursor(text)
    fan = _parse_fan_sections(cur, stop_keywords=("charmap",))
    lineno = cur.expect_keyword("charmap")
    charmap = []
    for lineno, line in cur.block_until(set()):
        entries = _ints(line, lineno)
        if len(entries) != fan.dim:
            raise ParseError(lineno, f"charmap value needs {fan.dim} coordinates")
        charmap.append(tuple(entries))
    if len(charmap) != fan.ray_count:
        raise ParseError(  # the last value line, or 'charmap' if none
            lineno,
            f"charmap has {len(charmap)} values for {fan.ray_count} rays",
        )
    pair = CharacteristicPair(complex=fan, charmap=tuple(charmap))
    validate_pair(pair)
    return pair


def parse_plmap(text: str, base: Fan) -> PiecewiseLinearMap:
    cur = _Cursor(text)
    _, rank = cur.expect_integer("fiber_rank")
    lineno = cur.expect_keyword("values")
    values: dict[int, tuple] = {}
    while not cur.done():
        lineno, line = cur.take()
        entries = _ints(line, lineno)
        if len(entries) != rank + 1:
            raise ParseError(
                lineno, f"expected a ray index and {rank} coordinates"
            )
        idx = entries[0]
        if idx < 0 or idx >= base.ray_count:
            raise ParseError(lineno, f"ray index {idx} out of range")
        if idx in values:
            raise ParseError(lineno, f"duplicate value for ray {idx}")
        values[idx] = tuple(entries[1:])
    if len(values) != base.ray_count:
        raise ParseError(  # the last value line, or 'values' if none
            lineno, f"phi must assign a value to all {base.ray_count} rays")
    return PiecewiseLinearMap(
        fiber_rank=rank,
        values=tuple(values[i] for i in range(base.ray_count)),
    )


def parse_polynomial(s: str, generators: dict[str, int], nvars: int,
                     lineno: int = 1) -> Poly:
    """Parse '3*h^2 - 2*h*k + 1' style integer polynomials.

    Coefficients and exponents are ASCII digits.  An exponent is an
    unsigned integer: '^' followed by a sign or by nothing raises
    ParseError (the terms are split at signs, so 'h^-1' would otherwise
    read as 'h - 1').
    """
    if re.search(r"\^(?!\s*[0-9])", s):
        raise ParseError(lineno, "exponent after '^' must be an unsigned "
                                 f"integer in {s!r}")
    poly: Poly = {}
    normalized = s.replace("-", "+-")
    for chunk in normalized.split("+"):
        chunk = chunk.strip()
        if not chunk:
            continue
        sign = 1
        if chunk.startswith("-"):
            sign = -1
            chunk = chunk[1:].strip()
        coeff = sign
        exps = [0] * nvars
        for factor in chunk.split("*"):
            factor = factor.strip()
            if not factor:
                raise ParseError(lineno, f"empty factor in {s!r}")
            if factor[0].isdigit():
                coeff *= _integer(factor, lineno, f"bad coefficient {factor!r}")
            else:
                name, _, power = factor.partition("^")
                if name not in generators:
                    raise ParseError(lineno, f"unknown generator {name!r}")
                exps[generators[name]] += _integer(
                    power.strip(), lineno, f"bad exponent {power!r}"
                ) if power else 1
        key = tuple(exps)
        poly[key] = poly.get(key, 0) + coeff
    return {k: v for k, v in poly.items() if v}


def monomial_texts(monomials, names) -> list[str]:
    """Each monomial of a sequence as 'x0^2*x3', or '1' when every exponent
    is 0.

    One table of factor texts serves the batch: row i holds '', names[i],
    names[i]^2, ... up to the batch's largest exponent, and a monomial
    joins its nonempty factors.
    """
    top = max(map(max, filter(None, monomials)), default=0)
    table = [["", name] + [f"{name}^{e}" for e in range(2, top + 1)]
             for name in names]
    return ["*".join(filter(None, map(list.__getitem__, table, exps))) or "1"
            for exps in monomials]


def join_terms(terms) -> str:
    """'1 + 2*h - h*k' from (coefficient, monomial text) pairs in order."""
    parts = []
    for coeff, mono in terms:
        parts.append(" - " if coeff < 0 else " + ")
        c = abs(coeff)
        parts.append(str(c) if mono == "1" else mono if c == 1 else f"{c}*{mono}")
    if not parts:
        return "0"
    parts[0] = "-" if parts[0] == " - " else ""
    return "".join(parts)


def report_json(obj) -> str:
    """The text of ``json.dumps`` with an indent of 2 and sorted keys,
    byte for byte.

    Dicts (str keys), lists and tuples nest; a list whose items are all
    ints, or all strs, is joined in one pass; any other scalar is
    ``json.dumps(scalar)``.
    """
    return _json(obj, "\n")


def _json(obj, newline: str) -> str:
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = newline + "  "
        return "{" + inner + ("," + inner).join([
            encode_basestring_ascii(key) + ": " + _json(value, inner)
            for key, value in sorted(obj.items())
        ]) + newline + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = newline + "  "
        kinds = set(map(type, obj))
        if kinds == {int}:
            items = map(int.__repr__, obj)
        elif kinds == {str}:
            items = map(encode_basestring_ascii, obj)
        else:
            items = [_json(item, inner) for item in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    return json.dumps(obj)


@cache
def parse_base_presentation(text: str) -> BasePresentation:
    """Parse and certify a presentation once per text; failures re-raise."""
    cur = _Cursor(text)
    lineno, rest = cur.expect_line("name")
    name = " ".join(rest) if rest else ""
    _, top = cur.expect_integer("top_degree")
    cur.expect_keyword("generators")
    generators = []
    gen_index: dict[str, int] = {}
    for lineno, line in cur.block_until({"relations"}):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(lineno, "generator lines are: name degree")
        gname, degree = parts[0], _ints(parts[1], lineno)[0]
        if gname in gen_index:
            raise ParseError(lineno, f"duplicate generator {gname!r}")
        gen_index[gname] = len(generators)
        generators.append((gname, degree))
    nvars = len(generators)
    cur.expect_keyword("relations")
    relations = []
    for lineno, line in cur.block_until({"basis"}):
        relations.append(parse_polynomial(line, gen_index, nvars, lineno))
    cur.expect_keyword("basis")
    basis: dict[int, list] = {}
    for lineno, line in cur.block_until({"integration"}):
        if ":" not in line:
            raise ParseError(lineno, "basis lines are: degree : monomials")
        left, right = line.split(":", 1)
        degree = _ints(left, lineno)[0]
        if degree % 2:
            raise ParseError(lineno, "basis degrees must be even")
        if not 0 <= degree <= top:
            raise ParseError(
                lineno, f"basis degree {degree} is outside 0..{top}"
            )
        if degree // 2 in basis:
            raise ParseError(lineno, f"basis degree {degree} is listed twice")
        monos = []
        for token in right.split():
            term = parse_polynomial(token, gen_index, nvars, lineno)
            if len(term) != 1 or set(term.values()) != {1}:
                raise ParseError(lineno, f"{token!r} is not a monomial")
            mono = next(iter(term))
            if sum(e * d for e, (_, d) in zip(mono, generators)) != degree:
                raise ParseError(lineno, f"{token!r} is not of degree {degree}")
            monos.append(mono)
        basis[degree // 2] = monos
    _, integration = cur.expect_integer("integration")
    cur.expect_keyword("chern")
    chern: Poly = {}
    for lineno, line in cur.block_until(set()):
        for k, v in parse_polynomial(line, gen_index, nvars, lineno).items():
            chern[k] = chern.get(k, 0) + v
    return BasePresentation(
        name=name,
        generators=generators,
        relations=relations,
        basis=basis,
        top_degree=top,
        integration=integration,
        chern=chern,
    )


def parse_twisting(text: str, base: BasePresentation) -> TwistingClasses:
    cur = _Cursor(text)
    cur.expect_keyword("classes")
    gen_index = {g: i for i, (g, _) in enumerate(base.generators)}
    classes = []
    for lineno, line in cur.block_until(set()):
        poly = parse_polynomial(line, gen_index, len(base.generators), lineno)
        cls = base.reduce_poly(poly)
        if cls != cls.component(1):
            raise ParseError(lineno, "twisting classes must be pure degree 2")
        classes.append(cls)
    return TwistingClasses(classes=tuple(classes))
