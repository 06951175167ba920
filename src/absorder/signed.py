"""Signed permutations: the arithmetic core behind S_n, B_n and D_n.

An element of the hyperoctahedral group B_n is a permutation w of
{-n, ..., -1, 1, ..., n} satisfying w(-i) = -w(i).  It is the tuple
(w(1), ..., w(n)) itself, a `SignedPermutation` (a tuple subclass), and
equals and hashes as it; the negative half is implied.  The symmetric
group S_n sits inside B_n as the sign-free elements, and D_n as the
elements with an even number of balanced cycles, so one representation
serves all three groups.

Cycle conventions used throughout:

* a paired cycle ((a1,...,ak)) is the product (a1 ... ak)(-a1 ... -ak)
  of two mirrored k-cycles; its reflection length is k - 1;
* a balanced cycle [a1,...,ak] is the single 2k-cycle
  (a1 ... ak -a1 ... -ak); its reflection length is k.

The one cycle format is the word pair (kind, entries), kind 'balanced'
or 'paired': `cycle_decomposition` returns such words, `from_cycles`
reads them, `format_cycles` writes them as text and `parse_cycles` reads
them back.  Canonical form of a word: rotate so the entry of smallest
absolute value comes first, and take that entry positive.  Composition is
right to left: (u * v)(i) = u(v(i)).

One walk over the image tuple, `_orbits`, reads every element's orbits:
reflection length and the D-membership test count how many are paired
and how many balanced, and `cycle_decomposition`, `cycle_type` and the
lower covers list them.  The tests compare the length with the fewest
reflections whose product is w.  A reflection lies below w exactly when
its root lies in the moved space of w (Carter 1972; Brady and Watt
2002): the sign flip [i] when i is in a balanced orbit, ((i, +-j)) when
i and +-j share an orbit or i and j both lie in balanced orbits.
"""

from __future__ import annotations

import functools
import itertools
from math import factorial, prod


class CycleNotationError(ValueError):
    """Raised on malformed cycle notation; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SignedPermutation(tuple):
    """A signed permutation w, which is its image tuple (w(1), ..., w(n)),
    checked to hold each of 1..n once up to sign, as an `int` (ValueError);
    what the package builds from elements is made unchecked, by `_element`."""

    __slots__ = ()

    def __new__(cls, images=()):
        w = tuple.__new__(cls, images)
        n = len(w)
        if (not set(map(type, w)) <= {int}
                or sorted(map(abs, w)) != list(range(1, n + 1))):
            x = next(a for k, a in enumerate(w)
                     if type(a) is not int or not 0 < abs(a) <= n
                     or abs(a) in map(abs, w[:k]))
            why = (f"the letter {x!r} is no integer" if type(x) is not int
                   else "two images share a letter up to sign"
                   if 0 < abs(x) <= n
                   else f"the letter {x} lies outside +-1..+-{n}")
            raise ValueError(f"{tuple(w)} is no signed permutation: {why}")
        return w

    @property
    def n(self) -> int:
        return len(self)

    def __call__(self, i: int) -> int:
        """Apply to a signed point i, an `int` with 1 <= |i| <= n; ValueError
        for any other i."""
        if type(i) is int and 0 < abs(i) <= len(self):
            return self[i - 1] if i > 0 else -self[-i - 1]
        raise ValueError(f"the letter {i!r} lies outside +-1..+-{len(self)}")

    def __mul__(self, other) -> "SignedPermutation":
        """Composition: (u * v)(i) = u(v(i)), of two elements of one rank;
        v may be given as its image tuple, checked as an element is."""
        if not hasattr(other, "__len__"):
            return NotImplemented
        if len(self) != len(other):
            raise ValueError(f"cannot compose signed permutations of ranks "
                             f"{len(self)} and {len(other)}")
        if type(other) is not SignedPermutation:
            other = SignedPermutation(other)
        return _element([self[x - 1] if x > 0 else -self[-x - 1]
                         for x in other])

    def inverse(self) -> "SignedPermutation":
        inv = [0] * len(self)
        for i, j in enumerate(self, start=1):
            if j > 0:
                inv[j - 1] = i
            else:
                inv[-j - 1] = -i
        return _element(inv)

    def __repr__(self) -> str:
        return format_cycles(self)


_element = functools.partial(tuple.__new__, SignedPermutation)


def identity(n: int) -> SignedPermutation:
    return _element(range(1, n + 1))


def _orbits(images: tuple):
    """Yield (orbit, balanced) for each orbit up to negation of `images`:
    the letters from the least unseen start until the walk returns to
    +start (paired, fixed points included) or reaches -start (balanced).
    Every smaller letter was seen, so start is the orbit's least |letter|,
    positive: each orbit is a canonical word, yielded by ascending start.
    A plain tuple is made an element first, and so checked as
    `SignedPermutation(images)` checks it: a walk over an element ends."""
    if type(images) is not SignedPermutation:
        images = SignedPermutation(images)
    seen = [False] * (len(images) + 1)
    for start in range(1, len(images) + 1):
        if seen[start]:
            continue
        orbit, x = [start], images[start - 1]
        while x != start and x != -start:
            orbit.append(x)
            a = x if x > 0 else -x
            seen[a] = True
            x = images[a - 1] if x > 0 else -images[a - 1]
        yield orbit, x != start


def cycle_decomposition(w: SignedPermutation) -> tuple:
    """The cycle words of w as (kind, entries) pairs, fixed points left out,
    so that `from_cycles(cycle_decomposition(w), w.n) == w`.

    A balanced cycle is an orbit of w on {±1,...,±n} that is closed under
    negation; a paired cycle is one of a mirrored orbit pair.  Balanced
    1-cycles [i] (sign flips) count as nontrivial cycles.  The words are
    canonical, in ascending order of their least letter.
    """
    return tuple(("balanced" if balanced else "paired", tuple(orbit))
                 for orbit, balanced in _orbits(w)
                 if balanced or len(orbit) > 1)


def from_cycles(words, n: int) -> SignedPermutation:
    """Build a signed permutation from disjoint cycle words: (kind, entries)
    pairs, kind 'balanced' or 'paired', each of one or more `int` entries in
    +-1..+-n, no absolute value twice (ValueError)."""
    images = list(range(1, n + 1))
    used = set()
    for kind, entries in words:
        if kind not in ("balanced", "paired"):
            raise ValueError(f"unknown cycle kind {kind!r}")
        entries = tuple(entries)
        if not entries:
            raise ValueError(f"empty {kind} cycle")
        for k, a in enumerate(entries):
            if type(a) is not int or a == 0 or abs(a) > n:
                raise ValueError(
                    f"entry {a} out of range for n={n}" if type(a) is int
                    else f"entry {a!r} is no integer")
            if abs(a) in used:
                where = ("more than once" if abs(a) in map(abs, entries[:k])
                         else "in two cycles")
                raise ValueError(f"entry {abs(a)} appears {where}")
            used.add(abs(a))
        for i, a in enumerate(entries):
            if i + 1 < len(entries):
                nxt = entries[i + 1]
            elif kind == "balanced":
                nxt = -entries[0]
            else:
                nxt = entries[0]
            if a > 0:
                images[a - 1] = nxt
            else:
                images[-a - 1] = -nxt
    return _element(images)


def balanced_cycle(entries, n: int) -> SignedPermutation:
    return from_cycles([("balanced", tuple(entries))], n)


def paired_cycle(entries, n: int) -> SignedPermutation:
    return from_cycles([("paired", tuple(entries))], n)


def format_cycles(w: SignedPermutation) -> str:
    """Serialize in cycle notation; the identity prints as 'e'."""
    text = ""
    for kind, entries in cycle_decomposition(w):
        inner = ",".join(map(str, entries))
        text += f"[{inner}]" if kind == "balanced" else f"(({inner}))"
    return text or "e"


def _parse_int(text, pos):
    start = pos
    if pos < len(text) and text[pos] in "+-":
        pos += 1
    while pos < len(text) and text[pos].isdigit():
        pos += 1
    if pos == start or not text[start:pos].lstrip("+-"):
        raise CycleNotationError("expected an integer", start)
    return int(text[start:pos]), pos


def parse_cycles(text: str, n: int) -> SignedPermutation:
    """Parse cycle notation: balanced `[a1,a2]`, paired `((a1,a2))`, identity `e`.

    Whitespace is allowed between tokens.  Entries must be nonzero, have
    absolute value at most n, and no absolute value may repeat.
    """
    words = []
    pos = 0
    stripped = text.strip()
    if stripped == "e" or stripped == "":
        return identity(n)
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        if text.startswith("((", pos):
            kind, closer = "paired", "))"
            pos += 2
        elif text[pos] == "[":
            kind, closer = "balanced", "]"
            pos += 1
        elif text[pos] == "(":
            raise CycleNotationError("paired cycles need doubled parentheses", pos)
        else:
            raise CycleNotationError(f"unexpected character {text[pos]!r}", pos)
        entries = []
        while True:
            while pos < len(text) and text[pos].isspace():
                pos += 1
            value, pos = _parse_int(text, pos)
            if value == 0:
                raise CycleNotationError("cycle entries must be nonzero", pos - 1)
            if abs(value) > n:
                raise CycleNotationError(f"entry {value} exceeds n={n}", pos - 1)
            entries.append(value)
            while pos < len(text) and text[pos].isspace():
                pos += 1
            if pos < len(text) and text[pos] == ",":
                pos += 1
                continue
            if text.startswith(closer, pos):
                pos += len(closer)
                break
            raise CycleNotationError(f"expected ',' or {closer!r}", pos)
        words.append((kind, tuple(entries)))
    try:
        return from_cycles(words, n)
    except ValueError as exc:
        raise CycleNotationError(str(exc), 0) from exc


KINDS = ("S", "B", "D")


def _check_kind(kind, n=0):
    if kind not in KINDS:
        raise ValueError(f"unknown group kind {kind!r}")
    if n < 0:
        raise ValueError(f"negative rank {n}")


def cycle_type(w: SignedPermutation) -> tuple:
    """The B_n conjugacy class of w: sorted paired and balanced orbit
    lengths, fixed points as paired 1-cycles."""
    paired, balanced = [], []
    for orbit, is_balanced in _orbits(w):
        (balanced if is_balanced else paired).append(len(orbit))
    return tuple(sorted(paired)), tuple(sorted(balanced))


def is_member(w: SignedPermutation, kind: str) -> bool:
    """Membership test: S = sign-free, D = evenly many balanced cycles."""
    _check_kind(kind)
    if kind == "B":
        return True
    if kind == "S":
        return all(j > 0 for j in w)
    return sum(balanced for _, balanced in _orbits(w)) % 2 == 0


def absolute_length(w: SignedPermutation, kind: str = "B") -> int:
    """Reflection length: n minus the number of paired cycles.

    The same count is correct for all three groups; for S_n every cycle is
    paired and for D_n the length is the restriction of the B_n length.
    The paired and balanced orbits are counted off `_orbits`, which also
    settles D-membership; an element outside the kind raises ValueError.
    """
    _check_kind(kind)
    orbits = balanced = 0
    for _, is_balanced in _orbits(w):
        orbits += 1
        balanced += is_balanced
    if kind == "D" and balanced % 2 or kind == "S" and not is_member(w, "S"):
        raise ValueError(f"{w!r} is not in kind {kind}")
    return len(w) - orbits + balanced


def reflection_set(kind: str, n: int) -> tuple:
    """All reflections of the group, as permutations.

    B_n: the n sign flips [i] plus ((i,j)) and ((i,-j)) for i<j (n^2 total);
    D_n drops the sign flips; S_n keeps only the plain transpositions.
    """
    _check_kind(kind, n)
    refs = []
    if kind == "B":
        refs.extend(balanced_cycle((i,), n) for i in range(1, n + 1))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            refs.append(paired_cycle((i, j), n))
            if kind != "S":
                refs.append(paired_cycle((i, -j), n))
    return tuple(refs)


def coxeter_elements(kind: str, n: int):
    """Yield the Coxeter elements, deduplicated as permutations.

    S_n: the n-cycles; B_n: the balanced n-cycles; D_n: the products
    [a1,...,a_{n-1}][a_n] of a balanced (n-1)-cycle and a sign flip.  The
    trivial groups S_0, S_1, B_0, D_0 and D_1 have one Coxeter element, the
    identity, the product of their empty set of simple reflections.
    """
    _check_kind(kind, n)
    if n < (1 if kind == "B" else 2):
        yield identity(n)
        return
    if kind == "S":
        for rest in itertools.permutations(range(2, n + 1)):
            yield paired_cycle((1,) + rest, n)
        return
    if kind == "B":
        for rest in itertools.permutations(range(2, n + 1)):
            for signs in itertools.product((1, -1), repeat=n - 1):
                yield balanced_cycle((1,) + tuple(s * a for s, a in zip(signs, rest)), n)
        return
    seen = set()
    for single in range(1, n + 1):
        others = [a for a in range(1, n + 1) if a != single]
        lead, rest_pool = others[0], others[1:]
        for rest in itertools.permutations(rest_pool):
            for signs in itertools.product((1, -1), repeat=len(rest)):
                word = (lead,) + tuple(s * a for s, a in zip(signs, rest))
                w = from_cycles([("balanced", word), ("balanced", (single,))], n)
                if w not in seen:
                    seen.add(w)
                    yield w


def group_elements(kind: str, n: int):
    """Iterate over every element of the group (desk scale only), signs
    fastest.  D_n keeps the sign vectors with evenly many -1: a balanced
    orbit changes sign an odd number of times, a paired one evenly."""
    _check_kind(kind, n)
    signs = [(1,) * n] if kind == "S" else list(itertools.product((1, -1), repeat=n))
    if kind == "D":
        signs = [s for s in signs if s.count(-1) % 2 == 0]
    for perm in itertools.permutations(range(1, n + 1)):
        for sign in signs:
            yield _element(s * a for s, a in zip(sign, perm))


def group_order(kind: str, n: int) -> int:
    """|W|, the product of the degrees e_i + 1."""
    return prod(e + 1 for e in exponents(kind, n))


def exponents(kind: str, n: int) -> tuple:
    """Exponents e_1..e_n; the rank sizes of Abs are the coefficients of
    prod_i (1 + e_i t)."""
    _check_kind(kind, n)
    if kind == "S":
        return tuple(range(1, n))
    if kind == "B":
        return tuple(range(1, 2 * n, 2))
    if n < 2:  # D_0 and D_1 are trivial
        return ()
    return tuple(range(1, 2 * n - 2, 2)) + (n - 1,)


def _partitions(n: int, most: int | None = None):
    """The partitions of n into parts of at most `most`, largest first."""
    if n == 0:
        yield ()
    for first in range(min(n, most or n), 0, -1):
        yield from ((first,) + rest for rest in _partitions(n - first, first))


def signed_cycle_types(kind: str, n: int):
    """Yield (type, representative, class_size) for each conjugacy class of
    S_n (kind S) or B_n (kind B), or each B_n class in D_n (kind D: evenly
    many balanced cycles; B_n conjugation preserves D's order too).

    `type` is `cycle_type`'s; the representative lays the paired, then the
    balanced cycles on consecutive letters.  The size is |W| over the
    centraliser: prod m^a a! over the a m-cycles of S_n, prod (2m)^a a!
    over the paired and over the balanced m-cycles of B_n.  Most balanced
    letters come first, largest part first, so B_n's Coxeter class leads.
    """
    _check_kind(kind, n)
    scale = 1 if kind == "S" else 2  # |S_n| = n!, |B_n| = 2^n n!
    for k in range(0 if kind == "S" else n, -1, -1):
        for balanced, paired in itertools.product(_partitions(k), _partitions(n - k)):
            if kind == "D" and len(balanced) % 2:
                continue
            words, centraliser, letters = [], 1, itertools.count(1)
            for word_kind, parts in (("paired", paired), ("balanced", balanced)):
                for i, m in enumerate(parts):  # the a-th m-cycle: scale m a
                    words.append((word_kind, tuple(itertools.islice(letters, m))))
                    centraliser *= scale * m * parts[:i + 1].count(m)
            yield ((paired[::-1], balanced[::-1]), from_cycles(words, n),
                   scale ** n * factorial(n) // centraliser)
