"""Desk-scale reduction of a matrix algebra to a commutative witness of
the same growth.

Stages, each growth-equivalent to the previous one with recorded
evidence:

  source            the input presentation over QQ or QQ(x)
  radical-split     adjoin the generators' radical parts and the block
                    idempotents of the scalar-field span's split complement
  central-scalars   adjoin the nonconstant characteristic-polynomial
                    coefficients of semisimple-part words, per block
  center-module     the center of the semisimple part plus radical-times-
                    module-witness products
  commutative-witness
                    a commutative algebra of block scalars attached to the
                    reduced words in radical letters and idempotent letters

The report records, per hypothesis, whether it was proved by exact
arithmetic, checked up to a filtration level, or supported by window
dominance only.

``run_pipeline`` makes one ``FiltrationStore`` per run and passes it to
the stage builders, the closure, the certificates and the final table
loop, so each generator set's filtration is built once and extended as
deeper levels are asked for.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import chain
from itertools import product as iter_product
from typing import Optional, Sequence

from ._ratio import QQ
from .algebras import (
    DEFAULT_BASIS_CAP,
    AlgebraPresentation,
    FiltrationStore,
    GrowthTable,
    growth_sequence,
)
from .charpoly import is_constant_element, nonconstant_coefficients
from .closure import generator_words
from .errors import CapExceededError, InputError
from .fdalg import (
    WedderburnData,
    close_to_fdalg,
    decompose_element,
    wedderburn_complement,
)
from .growth import (
    CertificateReport,
    EquivalenceReport,
    GkEstimate,
    equivalence_check,
    gk_estimate,
    verify_finite_commuting_adjoin_certificate,
    verify_nilpotent_adjoin_certificate,
)
from .matrices import Matrix
from .poly import RatFuncField, RationalField
from .spans import EchelonBasis, cleared_vecs, field_coordinates

WORD_ENUMERATION_CAP = 200_000
# Filtration levels of the center stage: the semisimple part's center is
# read off level CENTER_LEVEL, the module witness is level MODULE_LEVEL.
CENTER_LEVEL = 4
MODULE_LEVEL = 4
# Filtration level of the certificates' memberships and of the module
# generation check.
MEMBERSHIP_LEVEL = 6


@dataclass(frozen=True)
class PipelineConfig:
    max_level: int = 12
    window: tuple = (4, 12)
    word_length: Optional[int] = None      # per-block default: block size squared
    certificate_window: tuple = (1, 6)
    basis_cap: int = DEFAULT_BASIS_CAP


@dataclass(frozen=True)
class PipelineStage:
    stage_id: str
    presentation: AlgebraPresentation
    provenance: dict = field(default_factory=dict)
    certificates: tuple = ()
    notes: tuple = ()

    def as_record(self, table: Optional[GrowthTable] = None) -> dict:
        record = {
            "stage": self.stage_id,
            "label": self.presentation.label,
            "generators": len(self.presentation.generators),
            "provenance": {k: len(v) for k, v in sorted(self.provenance.items())},
            "notes": list(self.notes),
            "certificates": [c.as_record() for c in self.certificates],
        }
        if table is not None:
            record["dims"] = list(table.dims)
        return record


@dataclass(frozen=True)
class ReducedWord:
    """A nonzero product of radical letters and idempotent letters,
    with no adjacent idempotent letters (idempotent squares collapse,
    distinct block idempotents annihilate)."""

    letters: tuple                 # ("n", i) or ("e", j)
    image: Matrix
    idempotent_support: tuple      # sorted distinct idempotent indices

    @property
    def name(self) -> str:
        return "*".join(f"{kind}{idx}" for kind, idx in self.letters)

    def as_record(self) -> dict:
        return {"word": self.name, "support": list(self.idempotent_support)}


@dataclass(frozen=True)
class PipelineReport:
    source: AlgebraPresentation
    stages: tuple
    stage_tables: dict = field(repr=False)
    step_equivalences: tuple = ()      # (step name, EquivalenceReport)
    words: tuple = ()
    chosen_word: Optional[ReducedWord] = None
    witness: Optional[AlgebraPresentation] = None
    witness_estimate: Optional[GkEstimate] = None
    source_estimate: Optional[GkEstimate] = None
    final_equivalence: Optional[EquivalenceReport] = None
    integer_verdict: bool = False
    hypothesis_ledger: tuple = ()
    config: PipelineConfig = PipelineConfig()

    def as_record(self) -> dict:
        return {
            "stages": [
                stage.as_record(self.stage_tables.get(stage.stage_id))
                for stage in self.stages
            ],
            "steps": [
                {"step": name, **report.as_record()}
                for name, report in self.step_equivalences
            ],
            "words": [w.as_record() for w in self.words],
            "chosen_word": self.chosen_word.as_record() if self.chosen_word else None,
            "witness": {
                "label": self.witness.label,
                "generators": [str(g.entry(0, 0)) for g in self.witness.generators],
                "estimate": self.witness_estimate.as_record(),
            }
            if self.witness is not None
            else None,
            "source_estimate": self.source_estimate.as_record()
            if self.source_estimate
            else None,
            "final": self.final_equivalence.as_record() if self.final_equivalence else None,
            "integer_verdict": self.integer_verdict,
            "hypotheses": [list(h) for h in self.hypothesis_ledger],
        }


def _canonical_matrices(mats: Sequence[Matrix]) -> tuple:
    return tuple(sorted({m for m in mats if not m.is_zero}, key=Matrix.sort_key))


def _scalar_ring(ring):
    if isinstance(ring, RatFuncField):
        return ring
    return RationalField()


def _span_membership_batch(span_mats: Sequence[Matrix], tests: Sequence[Matrix]) -> list:
    """Membership of each test matrix in the QQ-span of ``span_mats``."""
    span_mats = list(span_mats)
    tests = list(tests)
    vecs = cleared_vecs(span_mats + tests)
    basis = EchelonBasis()
    for v in vecs[: len(span_mats)]:
        basis.insert(v)
    return [basis.contains(v) for v in vecs[len(span_mats):]]


def _q_kernel_matrices(candidates: Sequence[Matrix], constraints) -> list:
    """QQ-combinations of ``candidates`` annihilated by all constraint maps.

    ``constraints(mat)`` yields one matrix per constraint; the kernel of
    the stacked coordinate system is returned as canonical combinations.
    """
    stacked = []
    for c in candidates:
        stacked.extend(constraints(c))
    per_candidate = len(stacked) // len(candidates) if candidates else 0
    vecs = cleared_vecs(stacked)
    rows = {}  # one row per (constraint slot, coordinate key), over the candidates
    for idx in range(len(candidates)):
        for slot in range(per_candidate):
            for k, v in vecs[idx * per_candidate + slot].items():
                rows.setdefault((slot,) + k, {})[(idx,)] = v
    system = EchelonBasis()
    for row in rows.values():
        system.insert(row)
    kernel = system.kernel([(idx,) for idx in range(len(candidates))])
    combos = []
    for coeffs in kernel:
        total = Matrix.zeros(candidates[0].ring, candidates[0].nrows, candidates[0].ncols)
        for (idx,), c in coeffs.items():
            total = total + candidates[idx].scale(c)
        combos.append(total)
    return combos


# ---------------------------------------------------------------------------
# stage 1: split off the radical


@dataclass
class _PipelineContext:
    decomposition: WedderburnData
    semisimple_parts: tuple
    radical_parts: tuple
    idempotents: tuple
    block_unit_matrices: tuple  # per block: dict (a, b) -> Matrix
    central_scalar_matrices: tuple = ()
    center_matrices: tuple = ()


def build_radical_split(source: AlgebraPresentation, config: PipelineConfig,
                        store: FiltrationStore):
    algebra = close_to_fdalg(source, basis_cap=config.basis_cap, store=store)
    decomposition = wedderburn_complement(algebra)
    bars, rads = [], []
    for g in source.generators:
        bar, rad = decompose_element(algebra, decomposition, g)
        bars.append(bar)
        rads.append(rad)
    semisimple_parts = _canonical_matrices(bars)
    radical_parts = _canonical_matrices(rads)
    idempotents = decomposition.idempotents  # canonical coordinate order
    block_units = tuple(
        {pos: algebra.from_coords(coords) for pos, coords in units.items()}
        for units in decomposition.block_units_coords
    )

    nilpotent_cert = verify_nilpotent_adjoin_certificate(
        source,
        list(radical_parts),
        decomposition.nilpotence_degree,
        level=MEMBERSHIP_LEVEL,
        window=config.certificate_window,
        basis_cap=config.basis_cap,
        store=store,
    )
    idempotent_cert = verify_finite_commuting_adjoin_certificate(
        list(radical_parts),
        list(semisimple_parts),
        list(idempotents),
        nilpotency_bound=decomposition.nilpotence_degree,
        level=MEMBERSHIP_LEVEL,
        window=config.certificate_window,
        basis_cap=config.basis_cap,
        labels=(source.label + "::pre-split", source.label + "::split"),
        store=store,
    )

    presentation = source.adjoin(
        list(radical_parts) + list(idempotents), source.label + "::split"
    )
    stage = PipelineStage(
        "radical-split",
        presentation,
        provenance={
            "semisimple_parts": semisimple_parts,
            "radical_parts": radical_parts,
            "idempotents": idempotents,
        },
        certificates=(nilpotent_cert, idempotent_cert),
        notes=(
            f"scalar-field span dimension {algebra.dim}, "
            f"radical dimension {len(decomposition.radical_basis)}, "
            f"nilpotence degree {decomposition.nilpotence_degree}, "
            f"{len(idempotents)} simple block(s)",
        ),
    )
    context = _PipelineContext(
        decomposition=decomposition,
        semisimple_parts=semisimple_parts,
        radical_parts=radical_parts,
        idempotents=idempotents,
        block_unit_matrices=block_units,
    )
    return stage, context


# ---------------------------------------------------------------------------
# stage 2: adjoin the blocks' characteristic scalars


def _block_matrix(context: _PipelineContext, block_index: int, mat: Matrix) -> Matrix:
    """The component of ``mat`` in one simple block, as a small matrix
    over the scalar field (coordinates in the lifted matrix units)."""
    units = context.block_unit_matrices[block_index]
    size = max(a for a, _ in units) + 1
    idem = context.idempotents[block_index]
    component = idem * mat * idem
    ordered = [units[(a, b)] for a in range(size) for b in range(size)]
    coords = field_coordinates(ordered, component)
    if coords is None:
        raise InputError("element does not lie in the block span")
    ring = _scalar_ring(mat.ring)
    rows = [[ring.coerce(coords[a * size + b]) for b in range(size)] for a in range(size)]
    return Matrix(ring, rows)


def build_central_scalars(
    source_stage: PipelineStage, context: _PipelineContext, config: PipelineConfig
):
    ring = source_stage.presentation.ring
    scalar_ring = _scalar_ring(ring)
    base_field_only = isinstance(scalar_ring, RationalField)
    adjoined = []
    notes = []
    for block_index in range(len(context.idempotents)):
        units = context.block_unit_matrices[block_index]
        size = max(a for a, _ in units) + 1
        cutoff = config.word_length if config.word_length is not None else size * size
        block_gens = [
            _block_matrix(context, block_index, g) for g in context.semisimple_parts
        ]
        block_gens = [g for g in block_gens if not g.is_zero]
        words = generator_words(block_gens, cutoff, WORD_ENUMERATION_CAP)
        harvested = nonconstant_coefficients(chain.from_iterable(words))
        idem = context.idempotents[block_index]
        for value in harvested:
            adjoined.append(idem.scale(ring.coerce(value)))
    adjoined = _canonical_matrices(adjoined)
    existing = set(source_stage.presentation.generators)
    fresh = tuple(m for m in adjoined if m not in existing)
    if base_field_only:
        notes.append("base-field scalars only: stage unchanged")
    if not fresh:
        presentation = replace(
            source_stage.presentation, label=source_stage.presentation.label + "::scalars"
        )
    else:
        presentation = source_stage.presentation.adjoin(
            list(fresh), source_stage.presentation.label + "::scalars"
        )
    notes.append(
        "adjunction backed by window dominance; no multiplier certificate is constructed"
    )
    stage = PipelineStage(
        "central-scalars",
        presentation,
        provenance={"central_scalars": adjoined},
        notes=tuple(notes),
    )
    context = replace(context, central_scalar_matrices=adjoined)
    return stage, context


# ---------------------------------------------------------------------------
# stage 3: center of the semisimple part plus radical products


def build_center_stage(
    scalars_stage: PipelineStage, context: _PipelineContext, config: PipelineConfig,
    store: FiltrationStore,
):
    pres = scalars_stage.presentation
    ring = pres.ring
    bar_gens = _canonical_matrices(
        list(context.semisimple_parts)
        + list(context.idempotents)
        + list(context.central_scalar_matrices)
    )
    bar_pres = AlgebraPresentation(ring, pres.size, list(bar_gens), pres.label + "::bar")
    depth = max(CENTER_LEVEL, MODULE_LEVEL)
    bar_table = growth_sequence(bar_pres, depth, basis_cap=config.basis_cap, store=store)
    center_candidates = list(bar_table.level(CENTER_LEVEL).representatives)

    def commutators(mat):
        return [mat * g - g * mat for g in bar_gens]

    center = _q_kernel_matrices(center_candidates, commutators)
    center = _canonical_matrices(center)
    module_witness = tuple(bar_table.level(MODULE_LEVEL).representatives)

    # Does the center-span of the witness absorb generator products?
    absorb_span = [z * g for z in center for g in module_witness]
    absorb_tests = [g * w for g in bar_gens for w in module_witness]
    absorbed = all(_span_membership_batch(absorb_span, absorb_tests))

    # Module-generation evidence for the full stage-2 algebra over the new stage.
    rad_products = [n * w for n in context.radical_parts for w in module_witness]
    rad_products += [w * n for n in context.radical_parts for w in module_witness]
    new_gens = list(center) + list(_canonical_matrices(rad_products))
    new_gens = _canonical_matrices(new_gens)
    presentation = AlgebraPresentation(
        ring, pres.size, list(new_gens), pres.label + "::center"
    )

    stage3_table = growth_sequence(
        presentation, MEMBERSHIP_LEVEL, basis_cap=config.basis_cap, store=store
    )
    level_reps = stage3_table.level(MEMBERSHIP_LEVEL).representatives
    module_span = [w * b for w in module_witness for b in level_reps]
    module_span += [b * w for w in module_witness for b in level_reps]
    tests = [s * w for s in pres.generators for w in module_witness]
    tests += [w * s for s in pres.generators for w in module_witness]
    generated = all(_span_membership_batch(module_span, tests))

    checked = []
    unchecked = []
    if absorbed:
        checked.append("center-span of the module witness absorbs semisimple products")
    else:
        unchecked.append("absorption of semisimple products not established at this level")
    if generated:
        checked.append(
            f"stage-2 generators times the witness lie in witness * level-"
            f"{MEMBERSHIP_LEVEL} span (both sides)"
        )
    else:
        unchecked.append("module generation not established at this level")
    module_cert = CertificateReport(
        "module-generation",
        verified=absorbed and generated,
        failed_hypothesis=None if (absorbed and generated) else "module generation evidence incomplete",
        checked=tuple(checked),
        unchecked=tuple(unchecked) + ("membership checks are level-bounded",),
        details={"module_witness": len(module_witness), "center_dimension": len(center)},
    )
    notes = ()
    if not (absorbed and generated):
        notes = ("module evidence incomplete; continuing with window dominance only",)
    stage = PipelineStage(
        "center-module",
        presentation,
        provenance={
            "center_basis": center,
            "module_witness": module_witness,
            "radical_times_witness": _canonical_matrices(rad_products),
        },
        certificates=(module_cert,),
        notes=notes,
    )
    context = replace(context, center_matrices=center)
    return stage, context


# ---------------------------------------------------------------------------
# reduced words and the commutative witness


def enumerate_reduced_words(
    radical_letters: Sequence[Matrix],
    idempotent_letters: Sequence[Matrix],
    nilpotence_degree: int,
) -> list:
    """All reduced nonzero words: fewer than ``nilpotence_degree`` radical
    letters, optional single idempotent letters in the gaps (no adjacent
    idempotents), the empty word excluded by convention."""
    n_count, e_count = len(radical_letters), len(idempotent_letters)
    words = []
    total = 0
    for f in range(max(0, nilpotence_degree - 1) + 1):
        gap_options = [None] + list(range(e_count))
        for rad_choice in iter_product(range(n_count), repeat=f):
            for gaps in iter_product(gap_options, repeat=f + 1):
                total += 1
                if total > WORD_ENUMERATION_CAP:
                    raise CapExceededError("reduced-word enumeration exceeded its cap")
                letters = []
                for position in range(f):
                    if gaps[position] is not None:
                        letters.append(("e", gaps[position]))
                    letters.append(("n", rad_choice[position]))
                if gaps[f] is not None:
                    letters.append(("e", gaps[f]))
                if not letters:
                    continue
                image = None
                for kind, idx in letters:
                    mat = radical_letters[idx] if kind == "n" else idempotent_letters[idx]
                    image = mat if image is None else image * mat
                if image.is_zero:
                    continue
                support = tuple(sorted({idx for kind, idx in letters if kind == "e"}))
                words.append(ReducedWord(tuple(letters), image, support))
    words.sort(key=lambda w: (len(w.letters), w.letters))
    return words


def _block_scalar_of(context: _PipelineContext, block_index: int, mat: Matrix):
    """The scalar lambda with (block idempotent) * mat * (same) = lambda * idempotent."""
    idem = context.idempotents[block_index]
    component = idem * mat * idem
    coords = field_coordinates([idem], component)
    if coords is None:
        raise InputError("central element is not scalar on a block")
    return coords[0]


def build_commutative_witness(
    center_stage: PipelineStage, context: _PipelineContext, config: PipelineConfig,
    words: Sequence[ReducedWord], store: FiltrationStore,
):
    ring = center_stage.presentation.ring
    scalar_ring = _scalar_ring(ring)
    block_count = len(context.idempotents)
    block_scalars = []
    for block_index in range(block_count):
        scalars = []
        seen = set()
        for z in context.center_matrices:
            value = scalar_ring.coerce(_block_scalar_of(context, block_index, z))
            if not value or is_constant_element(scalar_ring, value):
                continue
            if value in seen:
                continue
            seen.add(value)
            scalars.append(value)
        block_scalars.append(tuple(scalars))

    def witness_for(support: tuple) -> AlgebraPresentation:
        values = []
        seen = set()
        for block_index in support:
            for v in block_scalars[block_index]:
                if v not in seen:
                    seen.add(v)
                    values.append(v)
        if isinstance(scalar_ring, RationalField):
            gens = [Matrix(scalar_ring, [[QQ(1)]])]
        elif values:
            gens = [Matrix(scalar_ring, [[v]]) for v in sorted(values, key=lambda s: s.sort_key())]
        else:
            gens = [Matrix(scalar_ring, [[scalar_ring.one]])]
        name = ",".join(str(i) for i in support) if support else "-"
        return AlgebraPresentation(scalar_ring, 1, gens, f"witness[{name}]")

    def estimated(pres: AlgebraPresentation) -> GkEstimate:
        table = growth_sequence(pres, config.max_level, basis_cap=config.basis_cap, store=store)
        return gk_estimate(table, config.window)

    witnesses = {}  # support -> (presentation, estimate)
    for word in words:
        support = word.idempotent_support
        if support not in witnesses:
            pres = witness_for(support)
            witnesses[support] = (pres, estimated(pres))

    def rank(word):  # an undecided estimate ranks below every degree
        value = witnesses[word.idempotent_support][1].value
        return (0,) if value is None else (1, value)

    best_word = max(words, key=rank, default=None)  # the first word wins a tie
    if best_word is None:
        pres = witness_for(())
        return None, pres, estimated(pres)
    return (best_word, *witnesses[best_word.idempotent_support])


# ---------------------------------------------------------------------------
# the full pipeline


def run_pipeline(source: AlgebraPresentation, config: PipelineConfig = PipelineConfig()):
    """Run all stages and assemble the report.

    Input must be over QQ or QQ(x); the scalar-field span must be finite
    dimensional with a split semisimple quotient (typed errors otherwise).
    """
    if not isinstance(source.ring, (RationalField, RatFuncField)):
        raise InputError(
            "the reduction pipeline expects a presentation over QQ or QQ(x); "
            f"got {source.ring}"
        )
    lo, hi = config.window
    if hi > config.max_level:
        raise InputError("window upper bound exceeds max_level")

    store = FiltrationStore()
    split_stage, context = build_radical_split(source, config, store)
    scalars_stage, context = build_central_scalars(split_stage, context, config)
    center_stage, context = build_center_stage(scalars_stage, context, config, store)

    words = enumerate_reduced_words(
        context.radical_parts, context.idempotents, context.decomposition.nilpotence_degree
    )
    chosen, witness_pres, witness_estimate = build_commutative_witness(
        center_stage, context, config, words, store
    )

    source_stage = PipelineStage("source", source)
    witness_stage = PipelineStage(
        "commutative-witness",
        witness_pres,
        provenance={"words": tuple(w.image for w in words)} if words else {},
        notes=("empty word excluded by convention",),
    )
    stages = (source_stage, split_stage, scalars_stage, center_stage, witness_stage)

    tables = {}
    for stage in stages:
        tables[stage.stage_id] = growth_sequence(
            stage.presentation, config.max_level, basis_cap=config.basis_cap, store=store
        )
    step_names = [
        ("source", "radical-split"),
        ("radical-split", "central-scalars"),
        ("central-scalars", "center-module"),
        ("center-module", "commutative-witness"),
    ]
    steps = tuple(
        (f"{a} ~ {b}", equivalence_check(tables[a], tables[b], config.window))
        for a, b in step_names
    )
    source_estimate = gk_estimate(tables["source"], config.window)
    final = equivalence_check(tables["source"], tables["commutative-witness"], config.window)
    integer_verdict = (
        source_estimate.method == "difference-degree"
        and witness_estimate.method == "difference-degree"
        and source_estimate.value == witness_estimate.value
    )

    ledger = [
        ("radical parts vanish at the nilpotence degree", "exact"),
        ("idempotent algebra finite dimensional", "exact (stabilization)"),
        ("idempotents commute with semisimple parts", "exact"),
        ("central scalars growth-equivalent adjunction", "window-only"),
    ]
    module_cert = center_stage.certificates[0]
    ledger.append(
        (
            "module witness generates the scalar stage",
            "level-bounded" if module_cert.verified else "window-only (evidence incomplete)",
        )
    )
    ledger.append(
        ("reduced-word list complete for the letter alphabet", "exact (finite enumeration)")
    )
    ledger.append(("per-step growth dominance", "window-only"))

    return PipelineReport(
        source=source,
        stages=stages,
        stage_tables=tables,
        step_equivalences=steps,
        words=tuple(words),
        chosen_word=chosen,
        witness=witness_pres,
        witness_estimate=witness_estimate,
        source_estimate=source_estimate,
        final_equivalence=final,
        integer_verdict=integer_verdict,
        hypothesis_ledger=tuple(ledger),
        config=config,
    )
