"""Characteristic closures: central generators harvested from
characteristic polynomials of generator words, module-finiteness
evidence for the closure, and the diagonal-embedding demonstration
algebra.

The closure of a presentation adjoins, as scalar matrices, the
nonconstant coefficients of the characteristic polynomials of all
generator words up to a cutoff length.  The coefficients generate a
central subalgebra over which the closure is module-finite; the cutoff
is a heuristic (reports always state it), since no finite bound is
canonical.

One walk, ``generator_words``, forms the generator words of the closure,
its module check and the pipeline's block scalars, each distinct product
once; its word cap counts distinct products.

No span here has a QQ(x) branch: the harvested scalars take
``spans.cleared_vecs`` as 1x1 matrices, and the module check takes the
coordinates ``spans.word_coordinates`` fixes once per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations_with_replacement
from typing import Optional, Sequence

from .algebras import AlgebraPresentation
from .charpoly import nonconstant_coefficients
from .errors import CapExceededError
from .matrices import Matrix
from .poly import Poly, PolyRing
from .spans import DEPENDENT, EchelonBasis, cleared_vecs, extend_span, word_coordinates

DEFAULT_WORD_CAP = 5000


@dataclass(frozen=True)
class TraceClosure:
    """A presentation together with its harvested central generators."""

    base: AlgebraPresentation
    word_length: int
    central_generators: tuple  # ring elements, in harvest order, span-reduced
    closure: AlgebraPresentation


def generator_words(generators: Sequence[Matrix], max_length: int,
                    word_cap: int = DEFAULT_WORD_CAP):
    """The distinct products of 1..max_length generators, one list per length.

    Length L lists the products of L generators that equal no earlier
    product, in the order the length-lex walk first meets them.  A repeated
    product forms only products that appeared earlier, so each length is
    built from the previous length's list alone.  The cap counts distinct
    products and fires at the first one past it.
    """
    seen = set()
    products = iter(generators)
    for length in range(1, max_length + 1):
        words = []
        for word in products:
            if word in seen:
                continue
            seen.add(word)
            if len(seen) > word_cap:
                raise CapExceededError(
                    f"generator word count exceeds cap {word_cap} at length {length}"
                )
            words.append(word)
        yield words
        products = (w * g for w in words for g in generators)


def trace_algebra_generators(
    pres: AlgebraPresentation,
    word_length: int,
    *,
    word_cap: int = DEFAULT_WORD_CAP,
) -> TraceClosure:
    """Harvest central generators from char polys of generator words.

    Collects the nonconstant coefficients of the characteristic
    polynomial of every distinct word of length <= word_length (at most
    ``word_cap`` of them), deduplicated by their QQ-span (discarding a
    coefficient that is a rational combination of earlier ones never
    shrinks the generated algebra).  The returned closure presentation
    adjoins the survivors as scalar matrices.
    """
    if word_length < 1:
        raise ValueError("word length must be at least 1")
    ring = pres.ring
    words = generator_words(pres.generators, word_length, word_cap)
    harvested = nonconstant_coefficients(chain.from_iterable(words))
    cells = [Matrix(ring, [[v]]) for v in harvested]
    kept = extend_span(EchelonBasis(), cleared_vecs(cells), harvested)
    ident = Matrix.identity(ring, pres.size)
    closure = pres.adjoin([ident.scale(c) for c in kept], pres.label + "+trace")
    return TraceClosure(pres, word_length, tuple(kept), closure)


@dataclass(frozen=True)
class ModuleFinitenessReport:
    """Truncated evidence that the closure is module-finite over its center.

    ``rank`` counts the generator words that were genuinely new as
    module generators over the (degree-capped) central span; evidence is
    truncated both in word length and in central degree, and the report
    says so.
    """

    stabilized: bool
    rank: Optional[int]
    stabilized_at_length: Optional[int]
    word_length_reached: int
    central_degree_cap: int
    note: str


def module_finiteness_check(
    closure: TraceClosure,
    *,
    length_cap: int = 6,
    central_degree_cap: int = 4,
    word_cap: int = DEFAULT_WORD_CAP,
) -> ModuleFinitenessReport:
    """Check that new generator words stop enlarging the central-span module.

    One ``EchelonBasis``, on coordinates fixed for the call, takes the
    QQ-span of {central monomial * module generator}.  The identity's
    multiples go in first; the monomials that extend the span are the
    central representatives.  Each length's distinct nonzero words (at
    most ``word_cap``) are then tested in ``Matrix.sort_key`` order; a word
    outside the span is a new module generator, and only then are its
    multiples inserted.  One full length with no new generators means
    every longer word is also captured (modulo the central degree cap),
    so the filtration has stabilized at the reported rank.
    """
    pres = closure.base
    ring = pres.ring
    central = [ring.one]
    for degree in range(1, central_degree_cap + 1):
        for combo in combinations_with_replacement(closure.central_generators, degree):
            value = combo[0]
            for extra in combo[1:]:
                value = value * extra
            central.append(value)
    coords = word_coordinates(pres.generators, length_cap, central)
    span = EchelonBasis()
    ident = Matrix.identity(ring, pres.size)
    # The first representative is 1, so a word's first multiple is the word.
    central_reps = extend_span(span, (coords(ident.scale(c)) for c in central), central)
    module_rank = 1
    walk = generator_words(pres.generators, length_cap, word_cap)
    for length, words in enumerate(walk, 1):
        new_at_this_length = 0
        for word in sorted((w for w in words if not w.is_zero), key=Matrix.sort_key):
            if span.insert(coords(word)) == DEPENDENT:
                continue
            for c in central_reps[1:]:
                span.insert(coords(word.scale(c)))
            new_at_this_length += 1
        module_rank += new_at_this_length
        if new_at_this_length == 0:
            return ModuleFinitenessReport(
                True,
                module_rank,
                length,
                length,
                central_degree_cap,
                f"no new module generators at word length {length}; "
                f"central span truncated at degree {central_degree_cap}",
            )
    return ModuleFinitenessReport(
        False,
        None,
        None,
        length_cap,
        central_degree_cap,
        f"still acquiring module generators at word length {length_cap}",
    )


def elementary_symmetric(ring: PolyRing, k: int) -> Poly:
    """k-th elementary symmetric polynomial in all ring variables."""
    from itertools import combinations

    if not 0 <= k <= ring.nvars:
        raise ValueError(f"elementary symmetric degree {k} out of range")
    if k == 0:
        return ring.one
    total = ring.zero
    for combo in combinations(range(ring.nvars), k):
        term = ring.one
        for i in combo:
            term = term * ring.gen(i)
        total = total + term
    return total


@dataclass(frozen=True)
class DiagonalEmbedding:
    """Substitution embedding of QQ[x] into diagonal m-by-m matrices.

    A univariate polynomial r maps to diag(r(x_1), ..., r(x_m)) over
    QQ[x_1, ..., x_m].
    """

    ring: PolyRing
    size: int

    def embed(self, univariate: Poly) -> Matrix:
        if univariate.ring.nvars != 1:
            raise ValueError("embed expects a univariate polynomial")
        entries = []
        for i in range(self.size):
            value = self.ring.zero
            xi = self.ring.gen(i)
            for mono, c in univariate.items_unordered():
                value = value + (xi ** mono[0]) * c
            entries.append(value)
        return Matrix.diagonal(self.ring, entries)


def build_diagonal_embedding_example(m: int) -> tuple:
    """The m-variable diagonal example: R generated by diag(x_1, ..., x_m).

    Its growth is linear, while the closure harvested from the length-1
    word already spans the elementary symmetric polynomials and grows
    with degree m.
    """
    if m < 1:
        raise ValueError("m must be positive")
    ring = PolyRing(tuple(f"x{i + 1}" for i in range(m)))
    embedding = DiagonalEmbedding(ring, m)
    generator = Matrix.diagonal(ring, ring.gens())
    pres = AlgebraPresentation(ring, m, [generator], f"diagonal-example-m{m}")
    return pres, embedding
