"""Line-oriented text format for complexes and sphere literals.

Grammar (one directive per line, ``#`` starts a comment):

    shape simplicial|cubical|globular|cyclic
    skeletal <n>
    truncate <N>
    gen <id> dim <d> [faces <cell> <cell> ...]

A cell literal is ``<genid>`` or ``<genid>[<epi word>]``, e.g.
``x[s0 s2]``; the epi word uses the morphism token syntax of the shape
and is applied right to left.  Cubical faces are listed in the order
(1,0),(1,1),...,(d,0),(d,1); globular faces are source then target.
A sphere literal is a comma-separated list of cell literals in the same
face order.
"""

from __future__ import annotations

import re

from . import shapes
from .complexes import Cell, GeneratorDecl, SkeletalComplex, face_arity, make_cell
from .fillers import Sphere, cell_literal, make_sphere

_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class ParseError(ValueError):
    """A syntax or consistency error, located by line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_cell(X: SkeletalComplex, text: str, line: int = 0) -> Cell:
    return _parse_cell(X.shape, X.generators, text, line)


def _parse_cell(shape: str, generators: dict[str, GeneratorDecl], text: str,
                line: int) -> Cell:
    text = text.strip()
    m = re.fullmatch(r"([A-Za-z_][A-Za-z0-9_]*)(?:\[([^\]]*)\])?", text)
    if not m:
        raise ParseError(line, f"malformed cell literal {text!r}")
    name, word = m.group(1), m.group(2) or ""
    if name not in generators:
        raise ParseError(line, f"unknown generator {name!r}")
    try:
        return make_cell(shape, generators[name], word)
    except (shapes.ShapeError, ValueError) as exc:
        raise ParseError(line, f"bad cell literal {text!r}: {exc}") from exc


def parse_sphere(X: SkeletalComplex, text: str, k: int | None = None) -> Sphere:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    cells = [parse_cell(X, p) for p in parts]
    return make_sphere(X, cells, k)


def parse_complex(text: str) -> SkeletalComplex:
    shape = None
    skeletal = None
    truncate = truncate_line = None
    names: set[str] = set()
    raw_gens: list[tuple[int, str, int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        head = parts[0]
        if head == "shape":
            if len(parts) != 2 or parts[1] not in shapes.SHAPES:
                raise ParseError(lineno, f"bad shape directive {line!r}")
            shape = parts[1]
        elif head == "skeletal":
            skeletal = _int_arg(parts, lineno, "skeletal")
        elif head == "truncate":
            truncate, truncate_line = _int_arg(parts, lineno, "truncate"), lineno
        elif head == "gen":
            if len(parts) < 4 or parts[2] != "dim":
                raise ParseError(lineno, f"bad generator directive {line!r}")
            name = parts[1]
            if not _NAME.match(name):
                raise ParseError(lineno, f"bad generator name {name!r}")
            if name in names:
                raise ParseError(lineno, f"duplicate generator {name!r}")
            names.add(name)
            dim = _natural(parts[3], lineno, "dimension")
            rest = parts[4:]
            if rest and rest[0] != "faces":
                raise ParseError(lineno, f"expected 'faces', got {rest[0]!r}")
            face_text = " ".join(rest[1:]) if rest else ""
            face_literals = _split_cells(face_text, lineno)
            raw_gens.append((lineno, name, dim, face_literals))
        else:
            raise ParseError(lineno, f"unknown directive {head!r}")
    if shape is None:
        raise ParseError(0, "missing shape directive")
    if skeletal is None:
        raise ParseError(0, "missing skeletal directive")
    if truncate is not None and truncate < skeletal:
        raise ParseError(truncate_line, f"truncation {truncate} is below the"
                                        f" skeletal level {skeletal}")
    # a face may name only the generators declared above it
    gens: dict[str, GeneratorDecl] = {}
    for lineno, name, dim, face_literals in raw_gens:
        arity = face_arity(shape, dim)
        if len(face_literals) != arity:
            raise ParseError(lineno,
                             f"generator {name!r} of dimension {dim} needs"
                             f" {arity} faces, got {len(face_literals)}")
        faces = tuple(_parse_cell(shape, gens, lit, lineno) for lit in face_literals)
        gens[name] = GeneratorDecl(name, dim, faces)
    return SkeletalComplex(shape, skeletal, gens.values(), truncation=truncate)


def _split_cells(text: str, lineno: int) -> list[str]:
    """Split whitespace-separated cell literals, keeping bracket groups."""
    out = []
    depth = 0
    cur = []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise ParseError(lineno, "unbalanced ']'")
        if ch.isspace() and depth == 0:
            if cur:
                out.append("".join(cur))
                cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ParseError(lineno, "unbalanced '['")
    if cur:
        out.append("".join(cur))
    return out


def _int_arg(parts: list[str], lineno: int, what: str) -> int:
    if len(parts) != 2:
        raise ParseError(lineno, f"{what} takes one integer")
    return _natural(parts[1], lineno, f"{what} value")


def _natural(text: str, lineno: int, what: str) -> int:
    """A non-negative integer argument."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise ParseError(lineno, f"bad {what} {text!r}")
    return value


def serialize_complex(X: SkeletalComplex) -> str:
    lines = [f"shape {X.shape}", f"skeletal {X.skeletal_level}",
             f"truncate {X.truncation}"]
    for g in X.generators.values():
        if g.faces:
            faces = " ".join(cell_literal(c) for c in g.faces)
            lines.append(f"gen {g.name} dim {g.dim} faces {faces}")
        else:
            lines.append(f"gen {g.name} dim {g.dim}")
    return "\n".join(lines) + "\n"


def load_complex(path: str) -> SkeletalComplex:
    with open(path, encoding="utf-8") as fh:
        return parse_complex(fh.read())


def save_complex(X: SkeletalComplex, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_complex(X))
