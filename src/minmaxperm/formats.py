"""Text formats for permutations and profiles.

Permutation documents hold the whitespace-separated elements including the
pinned endpoints, e.g. "0 6 4 7 2 9 1 8 5 3 10".

Profile documents are line oriented; `#` starts a comment anywhere:

    minmax-profile 1
    n 9
    k 1
    directed 1
    0 1 > 0 9
    1 1 < 1 9
    ...

Header fields come in that fixed order.  Constraint lines read
`t i dir m M` with dir one of `>` (t left of t+i), `<`, `?` (undirected).
Emission is canonical (constraints sorted by gap, then start), and
parse/emit round-trip bit-exactly on canonical documents.  A directed
document has no `?` entry, so a directed profile with an Unknown entry,
such as a set profile whose members disagree on a pair, is not emitted.
"""

from __future__ import annotations

import itertools

from .errors import PreconditionViolation, ProfileSyntaxError, ProfileValidationError
from .profiles import (
    Direction,
    KConstraint,
    Permutation,
    Profile,
    pair_count,
    validate_permutation,
    validate_profile,
)

FORMAT_TAG = "minmax-profile"
FORMAT_VERSION = "1"

_DIR_BY_SYMBOL = {d.value: d for d in Direction}


def _content_lines(text: str) -> list[tuple[int, list[str]]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        fields = body.split()
        if fields:
            out.append((lineno, fields))
    return out


def _header_int(lines, pos, name) -> tuple[int, int]:
    if pos >= len(lines):
        raise ProfileSyntaxError(f"missing `{name}` header line")
    lineno, fields = lines[pos]
    if len(fields) != 2 or fields[0] != name:
        raise ProfileSyntaxError(f"expected `{name} <int>`, got {' '.join(fields)!r}", lineno)
    try:
        value = int(fields[1])
    except ValueError:
        raise ProfileSyntaxError(f"`{name}` is not an integer: {fields[1]!r}", lineno) from None
    return value, lineno


def parse_profile(text: str) -> Profile:
    """Parse a profile document.

    Grammar problems raise ProfileSyntaxError with the offending line;
    a well-formed document whose entries break the profile bounds raises
    ProfileValidationError with the violation list.
    """
    lines = _content_lines(text)
    if not lines:
        raise ProfileSyntaxError("empty document")
    lineno, fields = lines[0]
    if fields != [FORMAT_TAG, FORMAT_VERSION]:
        raise ProfileSyntaxError(
            f"expected header `{FORMAT_TAG} {FORMAT_VERSION}`, got {' '.join(fields)!r}", lineno)
    n, nline = _header_int(lines, 1, "n")
    k, kline = _header_int(lines, 2, "k")
    directed_flag, dline = _header_int(lines, 3, "directed")
    if directed_flag not in (0, 1):
        raise ProfileSyntaxError(f"`directed` must be 0 or 1, got {directed_flag}", dline)
    directed = bool(directed_flag)
    if n < 1:
        raise ProfileSyntaxError(f"n must be positive, got {n}", nline)
    if not 1 <= k <= n + 1:
        raise ProfileSyntaxError(f"need 1 <= k <= n+1, got k={k}", kline)

    constraints: dict[tuple[int, int], KConstraint] = {}
    for lineno, fields in lines[4:]:
        if len(fields) != 5:
            raise ProfileSyntaxError(
                f"constraint line needs 5 fields `t i dir m M`, got {len(fields)}", lineno)
        t_s, i_s, dir_s, m_s, M_s = fields
        try:
            t, i, m, M = int(t_s), int(i_s), int(m_s), int(M_s)
        except ValueError:
            raise ProfileSyntaxError(f"non-integer field in {' '.join(fields)!r}", lineno) from None
        if dir_s not in _DIR_BY_SYMBOL:
            raise ProfileSyntaxError(f"direction must be one of > < ?, got {dir_s!r}", lineno)
        d = _DIR_BY_SYMBOL[dir_s]
        if directed and d is Direction.UNKNOWN:
            raise ProfileSyntaxError("`?` direction in a directed profile", lineno)
        if not directed and d is not Direction.UNKNOWN:
            raise ProfileSyntaxError(f"directed marker {dir_s!r} in an undirected profile", lineno)
        if not 1 <= i <= k:
            raise ProfileSyntaxError(f"gap i={i} outside 1..k={k}", lineno)
        if not 0 <= t <= n + 1 - i:
            raise ProfileSyntaxError(f"t={t} outside 0..{n + 1 - i} for gap {i}", lineno)
        if m > M:
            raise ProfileSyntaxError(f"m={m} > M={M}", lineno)
        if (t, i) in constraints:
            raise ProfileSyntaxError(f"duplicate entry for (t={t}, i={i})", lineno)
        constraints[(t, i)] = KConstraint(t=t, i=i, dir=d, m=m, M=M)

    # every entry read is in range and distinct, so a short count means gaps;
    # the grid is scanned lazily, never built, since n comes from the header
    if len(constraints) != pair_count(n, k):
        missing = itertools.islice(
            ((t, i) for i in range(1, k + 1) for t in range(n + 2 - i)
             if (t, i) not in constraints), 6)
        raise ProfileSyntaxError(f"missing entries for (t, i) pairs {list(missing)}")
    profile = Profile(n=n, k=k, directed=directed, constraints=constraints)
    violations = validate_profile(profile)
    if violations:
        raise ProfileValidationError(violations)
    return profile


def emit_profile(F: Profile) -> str:
    """Canonical document for F; parse(emit(F)) == F.

    A directed F with an Unknown entry raises PreconditionViolation, since
    parse_profile rejects `?` in a directed document."""
    lines = [
        f"{FORMAT_TAG} {FORMAT_VERSION}",
        f"n {F.n}",
        f"k {F.k}",
        f"directed {1 if F.directed else 0}",
    ]
    for c in F.entries():
        if F.directed and c.dir is Direction.UNKNOWN:
            raise PreconditionViolation(
                f"directed profile with an Unknown entry at ({c.t},{c.i}) has no document")
        lines.append(f"{c.t} {c.i} {c.dir.value} {c.m} {c.M}")
    return "\n".join(lines) + "\n"


def parse_permutation(text: str) -> Permutation:
    """Parse a permutation document (whitespace-separated values)."""
    tokens: list[str] = []
    for lineno, fields in _content_lines(text):
        tokens.extend(fields)
    if not tokens:
        raise ProfileSyntaxError("empty permutation document")
    try:
        values = [int(tok) for tok in tokens]
    except ValueError:
        raise ProfileSyntaxError("permutation document has non-integer tokens") from None
    return validate_permutation(values)


def emit_permutation(P: Permutation) -> str:
    return " ".join(str(v) for v in P.elems) + "\n"
