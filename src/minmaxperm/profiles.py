"""Permutation and profile data model.

Permutations live on {0, ..., n+1} with 0 pinned to the first position and
n+1 to the last; the two sentinels make a permutation distinguishable from
its reverse.  A profile records, for every value pair (t, t+i) with gap
i <= k, the minimum and maximum element of the contiguous segment of the
permutation delimited by t and t+i (both included).  A directed profile
additionally records which of t, t+i sits further left.

Every betweenness fact a profile encodes decomposes into B-constraints
("m and M lie between t and t+i") and NB-constraints ("each value outside
[m, M] does not lie between t and t+i").  `nb_masks` lists a gap-1
profile's NB-constraints as one bitmask of bases per top, for the full
fixpoint behind `graph.to_dot`; the search root folds the same buckets
(`fold_nb_buckets`) in its own sweep over the entries.
"""

from __future__ import annotations

import enum
import operator
from itertools import accumulate
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    BadEndpoints,
    COutOfRange,
    KMismatch,
    MismatchedN,
    NotBijection,
    PreconditionViolation,
)


class Direction(enum.Enum):
    """Relative position of t and t+i: which one is further left."""

    LEFT_TO_RIGHT = ">"  # t left of t+i
    RIGHT_TO_LEFT = "<"  # t+i left of t
    UNKNOWN = "?"


class Permutation(NamedTuple):
    """A permutation of {0, ..., n+1} with fixed endpoints 0 and n+1."""

    n: int
    elems: tuple[int, ...]

    def positions(self) -> tuple[int, ...]:
        """Inverse map: positions()[v] is the index of value v."""
        pos = [0] * (self.n + 2)
        for idx, v in enumerate(self.elems):
            pos[v] = idx
        return tuple(pos)

    def __str__(self) -> str:
        return " ".join(str(v) for v in self.elems)


def validate_permutation(seq: Sequence[int]) -> Permutation:
    """Check that seq is a permutation of {0..n+1} with pinned endpoints.

    n is inferred from the length.  Each value must be an integer, as
    `operator.index` reads one (a float such as 1.9 is not truncated).
    Raises NotBijection or BadEndpoints.
    """
    try:
        elems = tuple(map(operator.index, seq))
    except TypeError as exc:
        raise NotBijection(f"not a permutation of integers: {exc}") from None
    n = len(elems) - 2
    if n < 1:
        raise NotBijection(f"need at least 3 elements, got {len(elems)}")
    if set(elems) != set(range(n + 2)):
        raise NotBijection(f"not a bijection onto 0..{n + 1}: {elems}")
    if elems[0] != 0 or elems[-1] != n + 1:
        raise BadEndpoints(f"must start with 0 and end with {n + 1}: {elems}")
    return Permutation(n=n, elems=elems)


class KConstraint(NamedTuple):
    """One profile entry: the pair (t, t+i) with its segment min m and max M."""

    t: int
    i: int
    dir: Direction
    m: int
    M: int

    @property
    def interval(self) -> tuple[int, int]:
        return (self.m, self.M)


class ProfileViolation(NamedTuple):
    """One failed validity check, attached to the offending entry."""

    t: int
    i: int
    reason: str

    def __str__(self) -> str:
        return f"entry (t={self.t}, i={self.i}): {self.reason}"


def profile_pairs(n: int, k: int) -> list[tuple[int, int]]:
    """Admissible (t, i) pairs of an n, k profile, in canonical (i, t) order."""
    return [(t, i) for i in range(1, k + 1) for t in range(0, n + 2 - i)]


def pair_count(n: int, k: int) -> int:
    """Number of (t, i) slots in an n, k profile: len(profile_pairs(n, k))."""
    return k * (n + 2) - k * (k + 1) // 2


class Profile:
    """A full (t, t+i) constraint map for all gaps 1 <= i <= k.

    Structural requirements are enforced at construction: exactly one
    constraint per admissible (t, i) pair, every direction a `Direction`,
    and an undirected profile has every direction Unknown.  n, k and each
    entry's t, i, m and M must be integers, as `operator.index` reads one,
    and are stored as plain ints (an entry with a field of another integer
    type is rebuilt).  Value bounds are *not* enforced here; they are what
    validate_profile reports on.  A directed profile may carry Unknown
    entries only when produced from a set of permutations whose members
    disagree on that pair.
    """

    __slots__ = ("n", "k", "directed", "constraints")

    def __init__(self, n: int, k: int, directed: bool,
                 constraints: dict[tuple[int, int], KConstraint]):
        try:
            n, k = operator.index(n), operator.index(k)
        except TypeError:
            raise PreconditionViolation(f"n and k must be integers, got n={n!r}, k={k!r}") from None
        if not 1 <= k <= n + 1:
            raise PreconditionViolation(f"need 1 <= k <= n+1, got k={k}, n={n}")
        expected = profile_pairs(n, k)
        if set(constraints) != set(expected):
            missing = sorted(set(expected) - set(constraints))
            extra = sorted(set(constraints) - set(expected))
            raise PreconditionViolation(
                f"constraint keys do not cover the (t, i) grid "
                f"(missing {missing[:4]}, extra {extra[:4]})")
        checked = dict(constraints)
        for (t, i), c in constraints.items():
            if (c.t, c.i) != (t, i):
                raise PreconditionViolation(f"constraint at key ({t},{i}) labeled ({c.t},{c.i})")
            if not isinstance(c.dir, Direction):
                raise PreconditionViolation(f"direction {c.dir!r} at ({t},{i}) is not a Direction")
            if not directed and c.dir is not Direction.UNKNOWN:
                raise PreconditionViolation(f"undirected profile with direction at ({t},{i})")
            if not type(c.t) is type(c.i) is type(c.m) is type(c.M) is int:
                fields = c.t, c.i, c.m, c.M
                try:
                    t, i, m, M = map(operator.index, fields)
                except TypeError:
                    raise PreconditionViolation(
                        f"non-integer field in entry ({t},{i}): {fields}") from None
                checked[t, i] = KConstraint(t=t, i=i, dir=c.dir, m=m, M=M)
        self.n = n
        self.k = k
        self.directed = directed
        self.constraints = checked

    def entry(self, t: int, i: int = 1) -> KConstraint:
        return self.constraints[(t, i)]

    def entries(self) -> list[KConstraint]:
        """All constraints in canonical (i, t) order."""
        return [self.constraints[p] for p in profile_pairs(self.n, self.k)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Profile):
            return NotImplemented
        return (self.n == other.n and self.k == other.k
                and self.directed == other.directed
                and self.constraints == other.constraints)

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"Profile(n={self.n}, k={self.k}, {kind}, {len(self.constraints)} entries)"


def segment(P: Permutation, pos: Sequence[int], t: int, i: int) -> tuple[int, int, Direction]:
    """Entry (t, i) of P's profiles: (m, M, direction), pos = P.positions()."""
    a, b = pos[t], pos[t + i]
    lo, hi = (a, b) if a < b else (b, a)
    seg = P.elems[lo:hi + 1]
    d = Direction.LEFT_TO_RIGHT if a < b else Direction.RIGHT_TO_LEFT
    return min(seg), max(seg), d


def compute_profile(P: Permutation, k: int, directed: bool) -> Profile:
    """The k-profile of a single permutation.

    For every value pair (t, t+i) with 1 <= i <= k, records the min and max
    of the segment of P between the positions of t and t+i inclusive.
    k must be an integer, as `operator.index` reads one.
    """
    try:
        k = operator.index(k)
    except TypeError:
        raise PreconditionViolation(f"k must be an integer, got k={k!r}") from None
    if not 1 <= k <= P.n + 1:
        raise PreconditionViolation(f"need 1 <= k <= n+1, got k={k}, n={P.n}")
    pos = P.positions()
    constraints = {}
    for t, i in profile_pairs(P.n, k):
        m, M, d = segment(P, pos, t, i)
        if not directed:
            d = Direction.UNKNOWN
        constraints[(t, i)] = KConstraint(t=t, i=i, dir=d, m=m, M=M)
    return Profile(n=P.n, k=k, directed=directed, constraints=constraints)


def compute_set_profile(perms: Iterable[Permutation], k: int, directed: bool) -> Profile:
    """The joint k-profile of a set of permutations.

    Per entry, m and M are taken over the union of the per-permutation
    segments.  When directed, an entry keeps its direction only if all
    permutations agree on it; otherwise it is marked Unknown.
    """
    ps = list(perms)
    if not ps:
        raise PreconditionViolation("need at least one permutation")
    n = ps[0].n
    if any(p.n != n for p in ps):
        raise MismatchedN(f"permutations of mixed sizes: {sorted({p.n for p in ps})}")
    if not 1 <= k <= n + 1:
        raise PreconditionViolation(f"need 1 <= k <= n+1, got k={k}, n={n}")
    positions = [p.positions() for p in ps]
    constraints = {}
    for t, i in profile_pairs(n, k):
        per = [segment(p, pos, t, i) for p, pos in zip(ps, positions)]
        m = min(x[0] for x in per)
        M = max(x[1] for x in per)
        dirs = {x[2] for x in per}
        d = dirs.pop() if directed and len(dirs) == 1 else Direction.UNKNOWN
        constraints[(t, i)] = KConstraint(t=t, i=i, dir=d, m=m, M=M)
    return Profile(n=n, k=k, directed=directed, constraints=constraints)


def validate_profile(F: Profile) -> list[ProfileViolation]:
    """Structural validity checks; empty list means ok.

    Checks the bound invariant 0 <= m <= t < t+i <= M <= n+1 per entry, and
    that the extreme values occur only where the fixed endpoints force them:
    m = 0 only at t = 0, M = n+1 only at t+i = n+1.  A profile violating
    the latter admits no permutation, because 0 (n+1) could not be the
    leftmost (rightmost) element.
    """
    out: list[ProfileViolation] = []
    n = F.n
    for c in F.entries():
        if not (0 <= c.m <= c.t):
            out.append(ProfileViolation(c.t, c.i, f"m={c.m} outside [0, t={c.t}]"))
        if not (c.t + c.i <= c.M <= n + 1):
            out.append(ProfileViolation(c.t, c.i, f"M={c.M} outside [t+i={c.t + c.i}, {n + 1}]"))
        if c.m == 0 and c.t != 0:
            out.append(ProfileViolation(c.t, c.i, "m=0 outside the t=0 entries"))
        if c.M == n + 1 and c.t + c.i != n + 1:
            out.append(ProfileViolation(c.t, c.i, f"M={n + 1} outside the t+i={n + 1} entries"))
    return out


def is_linear(F: Profile) -> bool:
    """Whether the intervals [m_t, M_t], 1 <= t <= n-1, form an inclusion chain.

    Equal intervals count as comparable.  Defined for k = 1 only.
    """
    if F.k != 1:
        raise KMismatch(f"linearity is defined for k=1, got k={F.k}")
    ivals = sorted(
        (F.entry(t).interval for t in range(1, F.n)),
        key=lambda mm: (mm[0], -mm[1]))
    return all(ivals[j][1] >= ivals[j + 1][1] for j in range(len(ivals) - 1))


def nb_set(F: Profile, c: int) -> set[int]:
    """NB(c): all t in 1..n-1 whose entry excludes c, i.e. c < m_t or M_t < c."""
    if F.k != 1:
        raise KMismatch(f"NB sets are defined for k=1, got k={F.k}")
    if not 1 <= c <= F.n:
        raise COutOfRange(f"need 1 <= c <= {F.n}, got {c}")
    return {t for t in range(1, F.n)
            if c < F.entry(t).m or F.entry(t).M < c}


class NBRecord(NamedTuple):
    """A non-betweenness fact: value `top` does not lie between basis values.

    The basis is the consecutive pair (t, t+1); sort order is (basis, top).
    """

    basis: tuple[int, int]
    top: int

    def __str__(self) -> str:
        return f"not({self.basis[0]} <-{self.top}-> {self.basis[1]})"


def nb_masks(F: Profile) -> list[int]:
    """The NB-constraints of a gap-1 profile as one bitmask per top:
    mask[a], for a in 0..n+1, has bit t for every entry t with a < m_t or
    a > M_t.  Built from the entries bucketed by m_t and M_t + 1 (clamped
    to 0..n+2), so the cost does not grow with the number of records."""
    if F.k != 1:
        raise KMismatch(f"B/NB decomposition is defined for k=1, got k={F.k}")
    V = F.n + 2
    by_m = [0] * (V + 1)
    by_after_M = [0] * (V + 1)
    for c in F.entries():
        by_m[min(max(c.m, 0), V)] |= 1 << c.t
        by_after_M[min(max(c.M + 1, 0), V)] |= 1 << c.t
    return fold_nb_buckets(by_m, by_after_M)


def fold_nb_buckets(by_m: Sequence[int], by_after_M: Sequence[int]) -> list[int]:
    """The NB masks on {0..V-1} of entries bucketed in V + 1 masks each, bit
    t in by_m[m_t] and in by_after_M[M_t + 1], by two OR-scans."""
    above = accumulate(by_after_M, operator.or_)  # entries with M_t < a
    below = accumulate(reversed(by_m[1:]), operator.or_)  # with m_t > a
    return [x | y for x, y in zip(above, reversed(list(below)))]
