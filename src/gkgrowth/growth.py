"""Growth analysis: the exact growth degree of a dimension sequence,
dominance and equivalence window checks, and exact verifiers for the
growth-comparison certificates (bimodule, central regular multiplier,
nilpotent adjoin, finite commuting adjoin).

The degree is proved in integer arithmetic by finite differences; a
tail that is not exactly polynomial gets no degree ("undecided").

Dominance here is an empirical window check: the reported K_min is the
least positive integer with dims_lhs[n] <= K_min * dims_rhs[n] on the
whole window, which is evidence rather than proof.  The certificate
verifiers complement it: their arithmetic identities are checked
exactly, and each report says which hypotheses were proved, which were
checked only up to a filtration level, and which cannot be decided from
finite data at all.

Each certificate reads its growth tables from a ``FiltrationStore``: the
caller's when one is passed (``run_pipeline`` shares one per run), else
one local to the call, so a filtration the certificate asks for twice,
or shares with a nested certificate, is built once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ._ratio import QQ
from .algebras import (
    DEFAULT_BASIS_CAP,
    AlgebraPresentation,
    FiltrationStore,
    GrowthTable,
    growth_sequence,
)
from .charpoly import determinant
from .errors import InsufficientDataError, RingMismatchError
from .matrices import Matrix
from .spans import EchelonBasis, cleared_vecs, extend_span

DEFAULT_WINDOW = (1, 8)


def difference_degree(dims: Sequence[int], tail: int) -> Optional[tuple]:
    """Smallest k whose k-th finite difference is a positive constant.

    The constancy is required on the last ``tail`` entries of the k-th
    difference sequence.  Returns (k, constant), or None when no k up to
    len(dims)//2 works (the sequence does not look polynomial).
    """
    if tail < 3:
        raise ValueError("difference tail must be at least 3")
    if len(dims) < tail + 6:
        raise InsufficientDataError(
            f"need at least {tail + 6} dimensions for a tail of {tail}, got {len(dims)}"
        )
    seq = list(dims)
    for k in range(len(dims) // 2 + 1):
        window = seq[-tail:]
        if len(window) == tail and window[0] > 0 and all(v == window[0] for v in window):
            return k, window[0]
        seq = [b - a for a, b in zip(seq, seq[1:])]
    return None


@dataclass(frozen=True)
class GkEstimate:
    """Exact growth degree of a dimension sequence, or no verdict."""

    method: str               # "difference-degree" or "undecided"
    value: Optional[QQ]       # the degree; None when undecided
    window: tuple
    note: str

    def as_record(self) -> dict:
        return {
            "method": self.method,
            "value": None if self.value is None else str(self.value),
            "window": list(self.window),
            "note": self.note,
        }


def _tail_degree(dims: Sequence[int]) -> tuple:
    """(degree or None, note): ``difference_degree`` on the last
    min(len // 2, len - 6) entries of ``dims``, which must be at least 3."""
    tail = min(len(dims) // 2, len(dims) - 6)
    if tail < 3:
        raise InsufficientDataError(f"growth table of length {len(dims)} is too short to estimate")
    result = difference_degree(dims, tail)
    if result is None:
        return None, (f"no difference of order 0 to {len(dims) // 2} is a positive constant "
                      f"on the last {tail} levels")
    degree, constant = result
    return degree, f"order-{degree} difference is constant {constant} on the last {tail} levels"


def gk_estimate(table, window: Optional[tuple] = None) -> GkEstimate:
    """Exact growth degree of a table (or a raw dims sequence).

    The degree is the least order whose finite difference is a positive
    constant on the tail of the whole table, else "undecided".  ``window``
    is checked and reported, but the test reads that tail whatever it is.
    """
    dims = table.dims if isinstance(table, GrowthTable) else tuple(table)
    top = len(dims) - 1
    if window is None:
        window = (max(1, top // 2), top)
    lo, hi = window
    if hi > top or lo < 0 or lo > hi:
        raise InsufficientDataError(f"window {window} not covered by table of max level {top}")
    degree, note = _tail_degree(dims)
    if degree is None:
        return GkEstimate("undecided", None, window, note)
    return GkEstimate("difference-degree", QQ(degree), window, note)


@dataclass(frozen=True)
class DominanceReport:
    """Least constant with dims_lhs[n] <= K * dims_rhs[n] on the window."""

    lhs_label: str
    rhs_label: str
    window: tuple
    k_min: Optional[int]
    fail_level: Optional[int]
    dims_lhs: tuple
    dims_rhs: tuple

    @property
    def direction(self) -> str:
        return f"{self.lhs_label} <= {self.rhs_label}"

    @property
    def failed(self) -> bool:
        return self.k_min is None

    def as_record(self) -> dict:
        return {
            "direction": self.direction,
            "window": list(self.window),
            "k_min": self.k_min,
            "fail_level": self.fail_level,
            "dims_lhs": list(self.dims_lhs),
            "dims_rhs": list(self.dims_rhs),
        }


def dominance_check(table_lhs: GrowthTable, table_rhs: GrowthTable, window: tuple) -> DominanceReport:
    """Window evidence for growth dominance of the left table by the right."""
    lo, hi = window
    if lo < 0 or lo > hi:
        raise ValueError(f"bad window {window}")
    if table_lhs.max_level < hi or table_rhs.max_level < hi:
        raise InsufficientDataError(f"window {window} not covered by both growth tables")
    k_min = 1
    for n in range(lo, hi + 1):
        s, t = table_lhs.dims[n], table_rhs.dims[n]
        if t == 0:
            if s > 0:
                return DominanceReport(
                    table_lhs.label,
                    table_rhs.label,
                    window,
                    None,
                    n,
                    table_lhs.dims[lo : hi + 1],
                    table_rhs.dims[lo : hi + 1],
                )
            continue
        k_min = max(k_min, -(-s // t))
    return DominanceReport(
        table_lhs.label,
        table_rhs.label,
        window,
        int(k_min),
        None,
        table_lhs.dims[lo : hi + 1],
        table_rhs.dims[lo : hi + 1],
    )


@dataclass(frozen=True)
class EquivalenceReport:
    """Two-sided dominance evidence plus a tail-degree sanity verdict."""

    forward: DominanceReport
    backward: DominanceReport
    verdict: str
    note: str = ""

    def as_record(self) -> dict:
        return {
            "forward": self.forward.as_record(),
            "backward": self.backward.as_record(),
            "verdict": self.verdict,
            "note": self.note,
        }


def equivalence_check(table_s: GrowthTable, table_t: GrowthTable, window: tuple) -> EquivalenceReport:
    forward = dominance_check(table_s, table_t, window)
    backward = dominance_check(table_t, table_s, window)

    degrees = []
    for table in (table_s, table_t):
        try:
            degrees.append(_tail_degree(table.dims)[0])
        except InsufficientDataError:
            degrees.append(None)
    deg_s, deg_t = degrees
    if deg_s is not None and deg_t is not None and deg_s != deg_t:
        loser = table_t.label if deg_t > deg_s else table_s.label
        winner = table_s.label if deg_t > deg_s else table_t.label
        return EquivalenceReport(
            forward,
            backward,
            f"not-dominated-on-window:{loser} <= {winner}",
            f"difference degrees {deg_s} vs {deg_t} diverge beyond any window",
        )
    return EquivalenceReport(forward, backward, "equivalent-on-window")


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of one certificate verification.

    ``checked`` lists hypotheses established by exact arithmetic,
    ``unchecked`` the ones that are level-bounded evidence or not
    decidable from finite data; a failed certificate names the first
    hypothesis that broke.
    """

    kind: str
    verified: bool
    failed_hypothesis: Optional[str] = None
    checked: tuple = ()
    unchecked: tuple = ()
    equivalence: Optional[EquivalenceReport] = None
    details: dict = field(default_factory=dict)

    def as_record(self) -> dict:
        return {
            "kind": self.kind,
            "verified": self.verified,
            "failed_hypothesis": self.failed_hypothesis,
            "checked": list(self.checked),
            "unchecked": list(self.unchecked),
            "equivalence": self.equivalence.as_record() if self.equivalence else None,
            "details": {k: str(v) for k, v in self.details.items()},
        }


def _certificate_tables(pres_small, pres_big, window, basis_cap, store):
    hi = window[1]
    table_small = growth_sequence(pres_small, hi, basis_cap=basis_cap, store=store)
    table_big = growth_sequence(pres_big, hi, basis_cap=basis_cap, store=store)
    return equivalence_check(table_small, table_big, window)


def span_representatives(mats: Sequence[Matrix]) -> list:
    """Canonical representative sublist spanning the QQ-span of ``mats``."""
    nonzero = sorted({m for m in mats if not m.is_zero}, key=Matrix.sort_key)
    return extend_span(EchelonBasis(), cleared_vecs(nonzero), nonzero)


def verify_bimodule_certificate(
    source: AlgebraPresentation,
    target: AlgebraPresentation,
    module_gens: Sequence[Matrix],
    structure: Sequence,
    *,
    level: int = 6,
    window: tuple = DEFAULT_WINDOW,
    basis_cap: int = DEFAULT_BASIS_CAP,
    store: Optional[FiltrationStore] = None,
) -> CertificateReport:
    """Verify bimodule-style dominance evidence for source <= target.

    ``structure[g][i][j]`` must satisfy s_g * m_j = sum_i m_i * structure[g][i][j]
    exactly, with every structure element inside target's level-``level``
    span.  The relations and memberships are exact; module faithfulness
    cannot be decided from finite data and is reported unchecked.  The
    attached window report carries the predicted constant r^2 (r the
    number of module generators).
    """
    kind = "bimodule"
    store = FiltrationStore() if store is None else store
    if source.ring != target.ring or source.size != target.size:
        raise RingMismatchError("source and target must share one ambient matrix algebra")
    module_gens = list(module_gens)
    r = len(module_gens)
    if r == 0:
        raise ValueError("need at least one module generator")
    target_table = growth_sequence(target, max(level, window[1]), basis_cap=basis_cap,
                                   store=store)
    for g, s in enumerate(source.generators):
        for j in range(r):
            lhs = s * module_gens[j]
            rhs = Matrix.zeros(source.ring, source.size, source.size)
            for i in range(r):
                rhs = rhs + module_gens[i] * structure[g][i][j]
            if lhs != rhs:
                return CertificateReport(
                    kind,
                    False,
                    failed_hypothesis=f"module relation fails at (generator {g}, module index {j})",
                )
    for g in range(len(source.generators)):
        for i in range(r):
            for j in range(r):
                t_ij = structure[g][i][j]
                found = target_table.membership_level(t_ij, up_to=level)
                if found is None:
                    return CertificateReport(
                        kind,
                        False,
                        failed_hypothesis=(
                            f"structure element ({g},{i},{j}) not in the target's "
                            f"level-{level} span"
                        ),
                    )
    source_table = growth_sequence(source, window[1], basis_cap=basis_cap, store=store)
    equivalence = EquivalenceReport(
        dominance_check(source_table, target_table, window),
        dominance_check(target_table, source_table, window),
        "dominance-evidence",
        note="certificate proves the forward direction only",
    )
    return CertificateReport(
        kind,
        True,
        checked=("module relations (exact)", f"structure elements in target level <= {level}"),
        unchecked=("module faithfulness (not decidable from finite data)",),
        equivalence=equivalence,
        details={"module_generators": r, "predicted_constant": r * r},
    )


def verify_central_multiplier_certificate(
    base: AlgebraPresentation,
    adjoined: Sequence[Matrix],
    multiplier: Matrix,
    absorbed: Matrix,
    *,
    level: int = 6,
    window: tuple = DEFAULT_WINDOW,
    basis_cap: int = DEFAULT_BASIS_CAP,
    store: Optional[FiltrationStore] = None,
) -> CertificateReport:
    """Certificate for adjoining elements cleared by a regular central multiplier.

    Checks, in order: multiplier * x lies in the base's level span for
    each adjoined x; (multiplier - absorbed) * x = 0 exactly; absorbed
    lies in the base's level span; the multiplier is regular (nonzero
    determinant over the domain); the multiplier commutes with every
    base generator.  Then attaches window equivalence evidence for
    base-with-adjoined against base.
    """
    kind = "central-multiplier"
    store = FiltrationStore() if store is None else store
    adjoined = list(adjoined)
    base_table = growth_sequence(base, max(level, window[1]), basis_cap=basis_cap,
                                 store=store)
    for idx, x in enumerate(adjoined):
        if base_table.membership_level(multiplier * x, up_to=level) is None:
            return CertificateReport(
                kind, False,
                failed_hypothesis=f"membership: multiplier*adjoined[{idx}] not in level-{level} span",
            )
    for idx, x in enumerate(adjoined):
        if not ((multiplier - absorbed) * x).is_zero:
            return CertificateReport(
                kind, False,
                failed_hypothesis=f"annihilation: (multiplier - absorbed)*adjoined[{idx}] is nonzero",
            )
    if base_table.membership_level(absorbed, up_to=level) is None:
        return CertificateReport(
            kind, False,
            failed_hypothesis=f"absorbed element not in the base's level-{level} span",
        )
    if not determinant(multiplier):
        return CertificateReport(kind, False, failed_hypothesis="regularity: multiplier determinant is zero")
    for idx, g in enumerate(base.generators):
        if multiplier * g != g * multiplier:
            return CertificateReport(
                kind, False,
                failed_hypothesis=f"centrality: multiplier does not commute with generator {idx}",
            )
    extended = base.adjoin(adjoined, base.label + "+cleared")
    equivalence = _certificate_tables(extended, base, window, basis_cap, store)
    return CertificateReport(
        kind,
        True,
        checked=(
            f"cleared products in base level <= {level}",
            "annihilation identities (exact)",
            "multiplier regular (nonzero determinant)",
            "multiplier central for the generators (exact)",
        ),
        unchecked=(f"membership checks are level-bounded at {level}",),
        equivalence=equivalence,
        details={"adjoined": len(adjoined)},
    )


def verify_nilpotent_adjoin_certificate(
    base: AlgebraPresentation,
    adjoined: Sequence[Matrix],
    nilpotency_bound: int,
    *,
    level: int = 6,
    window: tuple = DEFAULT_WINDOW,
    basis_cap: int = DEFAULT_BASIS_CAP,
    store: Optional[FiltrationStore] = None,
) -> CertificateReport:
    """Certificate for adjoining a set whose products with the base vanish.

    Verifies (adjoined * base-level-span)^m = 0 at m = nilpotency_bound
    by span representatives; the filtration level makes this
    level-bounded evidence for the full hypothesis.
    """
    kind = "nilpotent-adjoin"
    store = FiltrationStore() if store is None else store
    adjoined = list(adjoined)
    if nilpotency_bound < 1:
        raise ValueError("nilpotency bound must be positive")
    if not adjoined:
        equivalence = _certificate_tables(base, base, window, basis_cap, store)
        return CertificateReport(
            kind, True,
            checked=("nothing adjoined: extension equals the base",),
            equivalence=equivalence,
        )
    base_table = growth_sequence(base, max(level, window[1]), basis_cap=basis_cap,
                                 store=store)
    level_reps = base_table.level(min(level, base_table.max_level)).representatives
    first = span_representatives([x * b for x in adjoined for b in level_reps])
    power = first
    reached = 1
    while power and reached < nilpotency_bound:
        power = span_representatives([w * p for w in power for p in first])
        reached += 1
    if power:
        return CertificateReport(
            kind,
            False,
            failed_hypothesis=f"nilpotency: a degree-{reached} product is nonzero",
            details={"counterexample": power[0]},
        )
    extended = base.adjoin(adjoined, base.label + "+nilpotent")
    equivalence = _certificate_tables(extended, base, window, basis_cap, store)
    return CertificateReport(
        kind,
        True,
        checked=(f"(adjoined * level-{level} span)^{nilpotency_bound} = 0 (exact products)",),
        unchecked=(f"products built from the level-{level} span only (level-bounded)",),
        equivalence=equivalence,
        details={"vanished_at": reached},
    )


def verify_finite_commuting_adjoin_certificate(
    nilpotent_part: Sequence[Matrix],
    commuting_part: Sequence[Matrix],
    adjoined: Sequence[Matrix],
    *,
    nilpotency_bound: int,
    level: int = 6,
    stabilization_cap: int = 30,
    window: tuple = DEFAULT_WINDOW,
    basis_cap: int = DEFAULT_BASIS_CAP,
    labels: tuple = ("base", "extension"),
    store: Optional[FiltrationStore] = None,
) -> CertificateReport:
    """Certificate for adjoining a finite-dimensional commuting set.

    The base is generated by ``nilpotent_part`` and ``commuting_part``.
    Checks: the algebra generated by ``adjoined`` alone stabilizes (a
    genuine finiteness proof); every commuting_part generator commutes
    with every adjoined element (exact); the nilpotent part annihilates
    the extension's level span at the stated bound (level-bounded).
    """
    kind = "finite-commuting-adjoin"
    store = FiltrationStore() if store is None else store
    nilpotent_part = [m for m in nilpotent_part if not m.is_zero]
    commuting_part = list(commuting_part)
    adjoined = list(adjoined)
    anchor = (commuting_part or nilpotent_part or adjoined)
    if not anchor:
        raise ValueError("empty certificate data")
    ring, size = anchor[0].ring, anchor[0].nrows
    base_gens = list(nilpotent_part) + list(commuting_part)
    if not base_gens:
        base_gens = [Matrix.identity(ring, size)]
    base = AlgebraPresentation(ring, size, base_gens, labels[0])

    if adjoined:
        finite_pres = AlgebraPresentation(ring, size, adjoined, "adjoined-part")
        finite_table = growth_sequence(finite_pres, stabilization_cap, basis_cap=basis_cap,
                                       store=store)
        if finite_table.stabilized_at is None:
            return CertificateReport(
                kind, False,
                failed_hypothesis=f"adjoined set does not stabilize within {stabilization_cap} levels",
            )
        finite_dim = finite_table.stable_dimension
    else:
        finite_dim = 1

    for i, s in enumerate(commuting_part):
        for j, x in enumerate(adjoined):
            if s * x != x * s:
                return CertificateReport(
                    kind, False,
                    failed_hypothesis=f"commutation fails for (commuting {i}, adjoined {j})",
                )

    extension = base.adjoin(adjoined, labels[1]) if adjoined else base
    nilpotency = verify_nilpotent_adjoin_certificate(
        extension,
        nilpotent_part,
        nilpotency_bound,
        level=level,
        window=window,
        basis_cap=basis_cap,
        store=store,
    ) if nilpotent_part else None
    if nilpotency is not None and not nilpotency.verified:
        return CertificateReport(
            kind, False,
            failed_hypothesis="nilpotency of the nilpotent part: " + (nilpotency.failed_hypothesis or ""),
        )

    equivalence = _certificate_tables(extension, base, window, basis_cap, store)
    checked = [
        f"adjoined algebra is finite dimensional: dim = {finite_dim} (stabilization proof)",
        "commutation identities (exact)",
    ]
    unchecked = []
    if nilpotent_part:
        checked.append(f"nilpotent part vanishes at power {nilpotency_bound} against the level span")
        unchecked.append(f"nilpotency checked against the level-{level} span only")
    return CertificateReport(
        kind,
        True,
        checked=tuple(checked),
        unchecked=tuple(unchecked),
        equivalence=equivalence,
        details={"adjoined_dimension": finite_dim},
    )
