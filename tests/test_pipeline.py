from dataclasses import replace

import pytest

from gkgrowth import algebras
from gkgrowth._ratio import QQ
from gkgrowth.algebras import AlgebraPresentation, FiltrationStore, growth_sequence
from gkgrowth.errors import InputError
from gkgrowth.matrices import Matrix
from gkgrowth.pipeline import (
    PipelineConfig,
    enumerate_reduced_words,
    run_pipeline,
)
from gkgrowth.poly import PolyRing, RatFuncField, RationalField

Q = RationalField()
F = RatFuncField("x")

FAST = PipelineConfig(max_level=10, window=(4, 10), certificate_window=(1, 5))


def ut_x_pres():
    gens = [Matrix.diagonal(F, [F.gen(), F.zero]), Matrix.elementary(F, 2, 0, 1)]
    return AlgebraPresentation(F, 2, gens, "ut2-x")


def scalar_x_pres():
    gens = [Matrix.diagonal(F, [F.gen(), F.gen()]), Matrix.elementary(F, 2, 0, 1)]
    return AlgebraPresentation(F, 2, gens, "scalar-x")


def test_word_enumeration_idempotents_only():
    e0 = Matrix.elementary(Q, 2, 0, 0)
    e1 = Matrix.elementary(Q, 2, 1, 1)
    words = enumerate_reduced_words([], [e0, e1], 2)
    assert [w.name for w in words] == ["e0", "e1"]
    assert all(w.idempotent_support in ((0,), (1,)) for w in words)


def test_word_enumeration_degree_one_forbids_radical_letters():
    n = Matrix.elementary(Q, 2, 0, 1)
    e0 = Matrix.identity(Q, 2)
    words = enumerate_reduced_words([n], [e0], 1)
    assert [w.name for w in words] == ["e0"]


def test_word_enumeration_filters_zero_images():
    n = Matrix.elementary(Q, 2, 0, 1)
    e0 = Matrix.elementary(Q, 2, 0, 0)
    words = enumerate_reduced_words([n], [e0], 2)
    # Candidates are e, n, en, ne, ene; only e, n, e*n have nonzero image.
    assert [w.name for w in words] == ["e0", "n0", "e0*n0"]
    for word in words:
        assert not word.image.is_zero

    # With the identity as the only idempotent every candidate survives.
    words = enumerate_reduced_words([n], [Matrix.identity(Q, 2)], 2)
    assert [w.name for w in words] == ["e0", "n0", "e0*n0", "n0*e0", "e0*n0*e0"]


def test_word_enumeration_is_exhaustive_for_the_alphabet():
    # Every reduced candidate pattern appears either as a word (nonzero
    # image) or has zero image; nothing else is representable.
    n = Matrix.elementary(Q, 2, 0, 1)
    e0 = Matrix.elementary(Q, 2, 0, 0)
    e1 = Matrix.elementary(Q, 2, 1, 1)
    words = enumerate_reduced_words([n], [e0, e1], 2)
    names = {w.name for w in words}
    candidates = {
        "e0": e0, "e1": e1, "n0": n,
        "e0*n0": e0 * n, "e1*n0": e1 * n, "n0*e0": n * e0, "n0*e1": n * e1,
        "e0*n0*e0": e0 * n * e0, "e0*n0*e1": e0 * n * e1,
        "e1*n0*e0": e1 * n * e0, "e1*n0*e1": e1 * n * e1,
    }
    for name, image in candidates.items():
        assert (name in names) == (not image.is_zero)


def test_pipeline_rejects_polynomial_rings():
    ring = PolyRing(("x",))
    pres = AlgebraPresentation(ring, 1, [Matrix(ring, [[ring.gen(0)]])], "free")
    with pytest.raises(InputError):
        run_pipeline(pres, FAST)


def test_pipeline_rational_input_gives_degree_zero_witness():
    gens = [Matrix(Q, [[1, 0], [0, 2]]), Matrix.elementary(Q, 2, 0, 1)]
    report = run_pipeline(AlgebraPresentation(Q, 2, gens, "ut2-q"), FAST)
    assert report.source_estimate.value == QQ(0)
    assert report.witness_estimate.value == QQ(0)
    assert report.integer_verdict
    split = next(s for s in report.stages if s.stage_id == "radical-split")
    assert set(split.provenance["idempotents"]) == {
        Matrix.elementary(Q, 2, 0, 0), Matrix.elementary(Q, 2, 1, 1),
    }
    assert split.provenance["radical_parts"] == (Matrix.elementary(Q, 2, 0, 1),)
    # Over the base field the scalar stage adjoins nothing.
    scalars = next(s for s in report.stages if s.stage_id == "central-scalars")
    assert scalars.presentation.generators == split.presentation.generators
    assert any("unchanged" in note for note in scalars.notes)


def test_pipeline_full_matrix_block_over_rationals():
    gens = [Matrix.elementary(Q, 2, i, j) for i in range(2) for j in range(2)]
    report = run_pipeline(AlgebraPresentation(Q, 2, gens, "mat2"), FAST)
    assert report.witness_estimate.value == QQ(0)
    assert report.integer_verdict
    split = next(s for s in report.stages if s.stage_id == "radical-split")
    assert split.provenance["idempotents"] == (Matrix.identity(Q, 2),)
    assert [w.name for w in report.words] == ["e0"]


def test_pipeline_full_matrix_block_of_size_three_over_rationals(deadline):
    # The central-scalars stage walks block words up to length 9 over nine
    # generators; only the distinct words of each length may be extended,
    # or the walk makes 9^9 products.
    deadline(30)
    gens = [Matrix.elementary(Q, 3, i, j) for i in range(3) for j in range(3)]
    report = run_pipeline(AlgebraPresentation(Q, 3, gens, "mat3"), FAST)
    assert report.witness_estimate.value == QQ(0)
    assert report.integer_verdict
    split = next(s for s in report.stages if s.stage_id == "radical-split")
    assert split.provenance["idempotents"] == (Matrix.identity(Q, 3),)

def test_pipeline_full_matrix_block_over_ratfunc():
    # One simple block of size 2 over QQ(x): the block characteristic
    # polynomials contribute genuine scalar generators.
    gens = [
        Matrix.diagonal(F, [F.gen(), F.gen()]),
        Matrix.elementary(F, 2, 0, 1),
        Matrix.elementary(F, 2, 1, 0),
    ]
    report = run_pipeline(AlgebraPresentation(F, 2, gens, "mat2-x"), FAST)
    assert report.source_estimate.value == QQ(1)
    assert report.witness_estimate.value == QQ(1)
    assert report.integer_verdict
    scalars = next(s for s in report.stages if s.stage_id == "central-scalars")
    assert len(scalars.provenance["central_scalars"]) >= 1


def test_pipeline_ut_x():
    report = run_pipeline(ut_x_pres(), FAST)
    assert report.source_estimate.method == "difference-degree"
    assert report.source_estimate.value == QQ(1)
    assert report.witness_estimate.value == QQ(1)
    assert report.integer_verdict
    for name, equivalence in report.step_equivalences:
        assert equivalence.forward.k_min is not None
        assert equivalence.backward.k_min is not None
    assert report.final_equivalence.forward.k_min is not None
    split = next(s for s in report.stages if s.stage_id == "radical-split")
    assert len(split.provenance["idempotents"]) == 2
    assert all(cert.verified for cert in split.certificates)


@pytest.mark.parametrize("undecided, chosen", [
    (("witness[0]", "witness[1]", "witness[0,1]"), "n0"),  # witness[-] has degree 0
    (("witness[0]", "witness[1]", "witness[0,1]", "witness[-]"), "e0"),
])
def test_an_undecided_witness_ranks_below_every_degree(monkeypatch, undecided, chosen):
    import gkgrowth.pipeline as pipeline

    real = pipeline.gk_estimate

    def estimate(table, window=None):
        result = real(table, window)
        if table.label in undecided:
            return replace(result, method="undecided", value=None)
        return result

    monkeypatch.setattr(pipeline, "gk_estimate", estimate)
    report = run_pipeline(ut_x_pres(), FAST)
    assert [w.name for w in report.words][:3] == ["e0", "e1", "n0"]
    assert report.chosen_word.name == chosen
    assert not report.integer_verdict  # the source has degree 1, the witness 0 or none


def test_pipeline_scalar_x():
    report = run_pipeline(scalar_x_pres(), FAST)
    assert report.source_estimate.value == QQ(1)
    assert report.witness_estimate.value == QQ(1)
    assert report.integer_verdict
    split = next(s for s in report.stages if s.stage_id == "radical-split")
    assert len(split.provenance["idempotents"]) == 1


def test_pipeline_commutative_input():
    pres = AlgebraPresentation(F, 1, [Matrix(F, [[F.gen()]])], "x-line")
    report = run_pipeline(pres, FAST)
    assert report.source_estimate.value == QQ(1)
    assert report.witness_estimate.value == QQ(1)
    assert report.integer_verdict


def test_pipeline_three_by_three():
    gens = [
        Matrix.diagonal(F, [F.gen(), F.zero, F.zero]),
        Matrix.elementary(F, 3, 0, 1),
        Matrix.elementary(F, 3, 1, 2),
    ]
    pres = AlgebraPresentation(F, 3, gens, "ut3-x")
    report = run_pipeline(pres, FAST)
    assert report.source_estimate.value == QQ(1)
    assert report.witness_estimate.value == QQ(1)
    assert report.integer_verdict
    split = next(s for s in report.stages if s.stage_id == "radical-split")
    assert "nilpotence degree 3" in split.notes[0]
    # Words may use up to two radical letters here.
    assert any(sum(1 for kind, _ in w.letters if kind == "n") == 2 for w in report.words)


def test_stage_generator_monotonicity_and_membership():
    report = run_pipeline(ut_x_pres(), FAST)
    by_id = {s.stage_id: s.presentation for s in report.stages}
    source = set(by_id["source"].generators)
    split = set(by_id["radical-split"].generators)
    scalars = set(by_id["central-scalars"].generators)
    assert source <= split <= scalars
    # Every center-stage generator lies in a bounded level of the
    # scalar stage's filtration.
    scalar_table = growth_sequence(by_id["central-scalars"], 8)
    for g in by_id["center-module"].generators:
        assert scalar_table.membership_level(g, up_to=8) is not None


def test_generator_decompositions_sum_back():
    pres = ut_x_pres()
    from gkgrowth.fdalg import close_to_fdalg, decompose_element, wedderburn_complement

    algebra = close_to_fdalg(pres)
    data = wedderburn_complement(algebra)
    for g in pres.generators:
        bar, nil = decompose_element(algebra, data, g)
        assert bar + nil == g


def test_pipeline_determinism():
    base = run_pipeline(ut_x_pres(), FAST).as_record()
    permuted_pres = AlgebraPresentation(
        F, 2, tuple(reversed(ut_x_pres().generators)), "ut2-x"
    )
    permuted = run_pipeline(permuted_pres, FAST).as_record()
    assert base == permuted


def test_report_record_shape():
    report = run_pipeline(ut_x_pres(), FAST)
    record = report.as_record()
    assert {s["stage"] for s in record["stages"]} == {
        "source", "radical-split", "central-scalars", "center-module", "commutative-witness",
    }
    for step in record["steps"]:
        assert {"step", "forward", "backward", "verdict", "note"} <= set(step)
        assert {"direction", "window", "k_min", "dims_lhs", "dims_rhs", "fail_level"} <= set(step["forward"])
    assert record["source_estimate"]["method"] == "difference-degree"
    statuses = dict(record["hypotheses"])
    assert statuses["radical parts vanish at the nilpotence degree"] == "exact"


def laurent_pair_pres():
    return AlgebraPresentation(
        F, 1, [Matrix(F, [[F.gen()]]), Matrix(F, [[F.one / F.gen()]])], "laurent-pair"
    )


def mat2_pres():
    gens = [Matrix.elementary(Q, 2, i, j) for i in range(2) for j in range(2)]
    return AlgebraPresentation(Q, 2, gens, "mat2")


@pytest.mark.parametrize("make", [ut_x_pres, scalar_x_pres, laurent_pair_pres, mat2_pres],
                         ids=["ut2-x", "scalar-x", "laurent-pair", "mat2"])
def test_pipeline_record_with_the_store_equals_rebuilding_every_table(make, monkeypatch):
    stored = run_pipeline(make(), FAST).as_record()
    table = FiltrationStore.table

    def rebuild(self, pres, max_level, **options):
        return table(FiltrationStore(), pres, max_level, **options)

    monkeypatch.setattr(FiltrationStore, "table", rebuild)
    assert run_pipeline(make(), FAST).as_record() == stored


def test_pipeline_builds_each_filtration_level_once(monkeypatch):
    requested = {}  # filtration key -> (highest level asked for, its table)
    made, steps = [], []  # builders made, levels built per extension
    table = FiltrationStore.table
    new_builder = algebras._new_builder

    def recording_table(self, pres, max_level, **options):
        result = table(self, pres, max_level, **options)
        key = (pres.ring, pres.size, options["basis_cap"], frozenset(pres.generators))
        if key not in requested or requested[key][0] < max_level:
            requested[key] = (max_level, result)
        return result

    def recording_new_builder(*args):
        made.append(args)
        return new_builder(*args)

    for cls in (algebras._CoordinateBuilder, algebras._RatFuncBuilder):
        def counting_extend(self, *args, _extend=cls._extend):
            before = len(self.dims)
            _extend(self, *args)
            steps.append(len(self.dims) - before)

        monkeypatch.setattr(cls, "_extend", counting_extend)
    monkeypatch.setattr(FiltrationStore, "table", recording_table)
    monkeypatch.setattr(algebras, "_new_builder", recording_new_builder)
    run_pipeline(ut_x_pres(), FAST)

    assert len(made) == len(requested) > 1
    # A builder stops at the level after its last new one.
    built = sum(
        n if t.stabilized_at is None else min(n, t.stabilized_at + 1)
        for n, t in requested.values()
    )
    assert sum(steps) == built <= sum(n for n, _ in requested.values())
