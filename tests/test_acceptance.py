"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured quantities (run with ``pytest -s`` to see
them on success).  Every tolerance is exact unless stated otherwise.
"""

import json
import math
import random
import time

import pytest

from gkgrowth._ratio import QQ
from gkgrowth.algebras import AlgebraPresentation, growth_sequence
from gkgrowth.charpoly import cayley_hamilton_check, regular_rep_charpoly
from gkgrowth.cli import main
from gkgrowth.closure import (
    build_diagonal_embedding_example,
    elementary_symmetric,
    trace_algebra_generators,
)
from gkgrowth.fdalg import close_to_fdalg, radical, wedderburn_complement
from gkgrowth.growth import (
    dominance_check,
    gk_estimate,
    verify_central_multiplier_certificate,
)
from gkgrowth.matrices import Matrix
from gkgrowth.pipeline import PipelineConfig, run_pipeline
from gkgrowth.poly import Poly, PolyRing, RatFuncField, RationalField
from gkgrowth.spans import EchelonBasis, matrix_to_vec, poly_to_vec

Q = RationalField()
F = RatFuncField("x")


def test_acceptance_1_diagonal_example_reproduction():
    """Growth degree 1 for the diagonal algebra and m for its closure,
    m = 1, 2, 3, tables to level 10, in under 60 seconds."""
    start = time.time()
    for m in (1, 2, 3):
        pres, _ = build_diagonal_embedding_example(m)
        closure = trace_algebra_generators(pres, 1)
        base = gk_estimate(growth_sequence(pres, 10))
        closed = gk_estimate(growth_sequence(closure.closure, 10))
        assert base.method == "difference-degree" and base.value == QQ(1)
        assert closed.method == "difference-degree" and closed.value == QQ(m)
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(f"ACCEPTANCE 1: PASS - diagonal example m=1,2,3 reproduced in {elapsed:.1f}s")


def test_acceptance_2_trace_generator_identity():
    """The harvested central generators span exactly the elementary
    symmetric polynomials, m = 2, 3, by mutual membership.  Exact."""
    for m in (2, 3):
        pres, _ = build_diagonal_embedding_example(m)
        closure = trace_algebra_generators(pres, 1)
        ring = pres.ring
        expected = [elementary_symmetric(ring, k) for k in range(1, m + 1)]
        got = EchelonBasis()
        for value in closure.central_generators:
            got.insert(poly_to_vec(value))
        want = EchelonBasis()
        for value in expected:
            want.insert(poly_to_vec(value))
        assert got.dimension == want.dimension == m
        assert all(got.contains(poly_to_vec(v)) for v in expected)
        assert all(want.contains(poly_to_vec(v)) for v in closure.central_generators)
    print("ACCEPTANCE 2: PASS - trace generators span the elementary symmetric polynomials (m=2,3)")


def test_acceptance_3_polynomial_ring_growth():
    """dims of the k-variable polynomial ring equal C(n+k, k) exactly,
    k <= 4, n <= 12."""
    for k in (1, 2, 3, 4):
        ring = PolyRing(tuple(f"x{i + 1}" for i in range(k)))
        pres = AlgebraPresentation(
            ring, 1, [Matrix(ring, [[g]]) for g in ring.gens()], f"poly{k}"
        )
        dims = growth_sequence(pres, 12).dims
        expected = tuple(math.comb(n + k, k) for n in range(13))
        assert dims == expected
    print("ACCEPTANCE 3: PASS - polynomial-ring growth equals C(n+k,k) for k<=4, n<=12")


def test_acceptance_4_cayley_hamilton_suite():
    """50 seeded random matrices, size <= 3, entries of total degree <= 2
    with integer coefficients in [-3, 3]: the characteristic polynomial
    annihilates its matrix and the regular-representation identity
    p = c^d holds.  Exact."""
    ring = PolyRing(("x1", "x2"))
    monos = [(i, j) for i in range(3) for j in range(3) if i + j <= 2]
    rng = random.Random(0)

    def rand_poly():
        terms = {}
        for mono in monos:
            if rng.random() < 0.5:
                c = rng.randint(-3, 3)
                if c:
                    terms[mono] = QQ(c)
        return Poly(ring, terms)

    checked = 0
    for _ in range(50):
        d = rng.randint(1, 3)
        mat = Matrix(ring, [[rand_poly() for _ in range(d)] for _ in range(d)])
        assert cayley_hamilton_check(mat).is_zero
        pair = regular_rep_charpoly(mat)  # asserts p = c^d internally
        assert pair.regular == pair.ordinary ** d
        checked += 1
    assert checked == 50
    print("ACCEPTANCE 4: PASS - Cayley-Hamilton and p = c^d on 50 random matrices")


def test_acceptance_5_structure_suite():
    """Upper-triangular d = 2, 3, 4: radical dimension d(d-1)/2,
    nilpotence degree d, complement invariants; radical agrees with the
    brute-force oracle on the small corpus.  Exact."""
    for d in (2, 3, 4):
        gens = [Matrix.elementary(Q, d, i, j) for i in range(d) for j in range(i, d)]
        algebra = close_to_fdalg(AlgebraPresentation(Q, d, gens, f"upper{d}"))
        data = wedderburn_complement(algebra)
        assert len(data.radical_basis) == d * (d - 1) // 2
        assert data.nilpotence_degree == d
        assert len(data.complement_basis) == d
        total = Matrix.zeros(Q, d, d)
        for idem in data.idempotents:
            assert idem * idem == idem
            total = total + idem
        assert total == Matrix.identity(Q, d)

    from tests.test_fdalg import brute_force_radical

    corpus = [
        AlgebraPresentation(Q, 2, [Matrix.elementary(Q, 2, i, j) for i in range(2) for j in range(2)], "mat2"),
        AlgebraPresentation(Q, 2, [Matrix.elementary(Q, 2, 0, 0), Matrix.elementary(Q, 2, 1, 1), Matrix.elementary(Q, 2, 0, 1)], "upper2"),
        AlgebraPresentation(Q, 2, [Matrix.elementary(Q, 2, 0, 0), Matrix.elementary(Q, 2, 1, 1)], "diag"),
        AlgebraPresentation(Q, 2, [Matrix.identity(Q, 2), Matrix.elementary(Q, 2, 0, 1)], "dual"),
        AlgebraPresentation(Q, 1, [Matrix(Q, [[1]])], "base"),
    ]
    for pres in corpus:
        algebra = close_to_fdalg(pres)
        assert algebra.dim <= 4
        got = radical(algebra)
        oracle = brute_force_radical(algebra)
        assert len(got) == len(oracle)
        if got:
            span = EchelonBasis()
            for mat in got:
                span.insert(matrix_to_vec(mat))
            assert all(span.contains(matrix_to_vec(mat)) for mat in oracle)
    print("ACCEPTANCE 5: PASS - structure suite (upper-triangular d=2,3,4 and radical oracle)")


def test_acceptance_6_localization_equivalence():
    """The single-variable algebra against its inverted extension on
    window [1, 12]: constants 1 and 2; the central-multiplier
    certificate verifies the localization."""
    base = AlgebraPresentation(F, 1, [Matrix(F, [[F.gen()]])], "x-algebra")
    extended = base.adjoin([Matrix(F, [[F.one / F.gen()]])], "x-inverted")
    table_base = growth_sequence(base, 12)
    table_ext = growth_sequence(extended, 12)
    assert dominance_check(table_base, table_ext, (1, 12)).k_min == 1
    assert dominance_check(table_ext, table_base, (1, 12)).k_min == 2
    multiplier = Matrix(F, [[F.gen()]])
    certificate = verify_central_multiplier_certificate(
        base, [Matrix(F, [[F.one / F.gen()]])], multiplier, multiplier, window=(1, 12)
    )
    assert certificate.verified
    print("ACCEPTANCE 6: PASS - localization window constants (1, 2) and certificate verified")


def test_acceptance_7_pipeline_integrality():
    """On two split upper-triangular-family inputs over QQ(x) the
    pipeline completes, the witness's difference degree equals the
    source's (an integer), and every per-step dominance window [4, 12]
    returns a finite constant."""
    config = PipelineConfig(max_level=12, window=(4, 12))
    examples = [
        AlgebraPresentation(
            F, 2,
            [Matrix.diagonal(F, [F.gen(), F.zero]), Matrix.elementary(F, 2, 0, 1)],
            "ut2-x",
        ),
        AlgebraPresentation(
            F, 2,
            [Matrix.diagonal(F, [F.gen(), F.gen()]), Matrix.elementary(F, 2, 0, 1)],
            "scalar-x",
        ),
    ]
    for pres in examples:
        report = run_pipeline(pres, config)
        assert report.source_estimate.method == "difference-degree"
        assert report.witness_estimate.method == "difference-degree"
        assert report.witness_estimate.value == report.source_estimate.value
        assert report.witness_estimate.value.denominator == 1
        assert report.integer_verdict
        for _name, equivalence in report.step_equivalences:
            assert equivalence.forward.k_min is not None
            assert equivalence.backward.k_min is not None
        split = next(s for s in report.stages if s.stage_id == "radical-split")
        assert all(cert.verified for cert in split.certificates)
        assert report.words and all(not w.image.is_zero for w in report.words)
    print("ACCEPTANCE 7: PASS - pipeline integer verdicts with finite per-step constants on [4,12]")


def test_acceptance_8_determinism(tmp_path, capsys):
    """Growth tables and pipeline reports are byte-identical across two
    runs with the generators in permuted order."""
    doc = """\
label: ut2-x
ring: ratfunc x
size: 2
generator:
x, 0
0, 0
generator:
0, 1
0, 0
"""
    doc_permuted = """\
label: ut2-x
ring: ratfunc x
size: 2
generator:
0, 1
0, 0
generator:
x, 0
0, 0
"""
    a = tmp_path / "a.alg"
    b = tmp_path / "b.alg"
    a.write_text(doc, encoding="utf-8")
    b.write_text(doc_permuted, encoding="utf-8")

    outputs = []
    for path in (a, b):
        assert main(["growth", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]

    reports = []
    for path in (a, b):
        code = main(["pipeline", str(path), "--max-n", "12", "--window", "4:12"])
        assert code == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["integer_verdict"] is True
    print("ACCEPTANCE 8: PASS - byte-identical outputs across generator order")
