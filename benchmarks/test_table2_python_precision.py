"""Table 2: precision of Namer and its ablations on Python.

Paper's row shape (their GitHub-scale corpus):

    Namer      134 reports  precision 70%
    w/o C      300 reports  precision 46%
    w/o A       88 reports  precision 59%
    w/o C & A  300 reports  precision 40%

Reproduced shape on the synthetic corpus: the classifier lifts
precision far above the unfiltered variants, removing the analysis
loses reports/issues, and the fully-ablated variant has the most false
positives.  The benchmark times the inference kernel (pattern matching
+ classification over the corpus).
"""

from conftest import print_table


def test_table2_python_precision(python_ablation, benchmark):
    result = python_ablation
    namer = result.namer

    # Timed kernel: classify every violation of the mined corpus.
    violations = namer.all_violations()
    benchmark.pedantic(
        lambda: namer.classify(violations[:100]), rounds=3, iterations=1
    )

    print_table("Table 2 — Python precision and ablations", result.format_table())

    full = result.row("Namer")
    no_c = result.row("w/o C")
    no_a = result.row("w/o A")
    no_ca = result.row("w/o C & A")

    # The classifier is crucial: removing it floods false positives.
    assert full.precision > no_c.precision
    assert no_c.false_positives > full.false_positives
    # The analyses matter: without them the pre-classifier precision
    # drops further still, and fewer true issues are found.
    assert no_c.precision > no_ca.precision
    true_full = full.semantic_defects + full.code_quality_issues
    true_no_a = no_a.semantic_defects + no_a.code_quality_issues
    assert true_full >= true_no_a
    # Namer achieves high precision (the paper reports ~70%).
    assert full.precision >= 0.6
    # Pinned exactly (EXPERIMENTS.md's rows): corpus, oracle and seeds
    # are fixed, so any drift in mining, training or detection shows.
    assert [
        (row.reports, row.semantic_defects, row.code_quality_issues,
         row.false_positives)
        for row in (full, no_c, no_a, no_ca)
    ] == [(41, 14, 26, 1), (125, 26, 59, 40), (41, 10, 27, 4), (162, 26, 49, 87)]
