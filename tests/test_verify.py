import hashlib
import math

import numpy as np
import pytest

from reelab import states
from reelab.errors import InputError
from reelab.states import BipartiteDims
from reelab.verify import (
    DEFAULT_TOLERANCES,
    SUITE_NAMES,
    _random_nondistillable,
    record_to_json,
    run_suite,
    summary_to_json,
)


def campaign_text(result) -> str:
    lines = [record_to_json(r) for r in result.records]
    lines.append(summary_to_json(result.summary))
    return "\n".join(lines) + "\n"


def test_every_suite_passes_on_small_campaigns():
    budgets = {
        "theorem1": 60,
        "lemma2": 8,
        "corollary1": 4,
        "corollary2": 2,
        "lemma3": 8,
        "lemma4": 4,
        "monotone": 30,
        "reduction": 60,
    }
    for suite in SUITE_NAMES:
        result = run_suite(suite, budgets[suite], 7)
        assert result.all_pass, suite
        assert len(result.records) == budgets[suite]
        assert [r.trial for r in result.records] == list(range(budgets[suite]))
        summary = result.summary
        assert summary["passed"] + summary["failed"] + summary["discarded"] == budgets[suite]
        assert summary["failed"] == 0


def test_reports_are_deterministic():
    a = campaign_text(run_suite("theorem1", 40, 99))
    b = campaign_text(run_suite("theorem1", 40, 99))
    assert a == b


# sha256 of campaign_text for (suite, trials, seed, dims), frozen from the
# reports made while the theorem1 sampler still validated every candidate;
# the digests pin the floating-point results of one numpy/BLAS build, so
# another build may need them recomputed
FROZEN_REPORT_DIGESTS = {
    ("theorem1", 60, 7, (2, 2)): "c76526584d141657aacb0fb3023faace9921ec29cd43df40824844d8293d5635",
    ("theorem1", 60, 7, (2, 3)): "fc2cc38336ada0aaa616d6b42746dffd8d79cf6df29090ea4fa1427961ec9007",
    ("reduction", 60, 7, (2, 2)): "5f67b1fd96b4814824394c642426c253ee5347a49af616fd3f0664e26cbcf2cc",
    ("reduction", 60, 7, (2, 3)): "73774b2314c3870a1e15bfad63d839fbfbdfc162b32910069d4e7e0395bb1362",
    ("monotone", 30, 7, (2, 2)): "85078f2e38855a8fbd49d2967cf4d52c941944c64c5ae733627a1b436eef805c",
    ("monotone", 30, 7, (2, 3)): "4337e06d87c859c4d9fb0415d1972681fbdc19a322a3d739504fe542fb2b809d",
}


def test_verify_reports_match_parent():
    for (suite, trials, seed, dims), digest in FROZEN_REPORT_DIGESTS.items():
        text = campaign_text(run_suite(suite, trials, seed, dims=BipartiteDims(*dims)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (suite, dims)


def test_nondistillable_draw_validates_once(monkeypatch):
    calls = []
    init = states.DensityMatrix.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(states.DensityMatrix, "__init__", counting_init)
    dims = BipartiteDims(2, 3)
    rng = np.random.default_rng(11)
    for _ in range(20):
        before = len(calls)
        rho = _random_nondistillable(rng, dims)
        assert len(calls) - before == 1
        assert rho.dims == dims


def test_trial_streams_are_prefix_stable():
    # trial i depends only on (seed, suite, i), not on the trial count
    short = run_suite("reduction", 5, 31).records
    long = run_suite("reduction", 12, 31).records
    for a, b in zip(short, long):
        assert record_to_json(a) == record_to_json(b)


def test_records_serialize_with_sorted_keys():
    import json

    record = run_suite("reduction", 2, 7).records[1]
    doc = json.loads(record_to_json(record))
    assert list(doc) == sorted(doc)
    assert list(doc["quantities"]) == sorted(doc["quantities"])
    assert set(doc) == {
        "dims", "indeterminate", "margin", "pass", "quantities", "seed", "suite", "trial",
    }


def test_monotone_trial_zero_is_the_squaring_counterexample():
    record = run_suite("monotone", 1, 123).records[0]
    assert record.quantities["square_violation"] == pytest.approx(
        3.0 - math.sqrt(10.0), abs=1e-12
    )
    assert record.margin == pytest.approx(math.sqrt(10.0) - 3.0, abs=1e-12)
    assert record.passed


def test_theorem1_indeterminate_trials_are_discarded():
    result = run_suite("theorem1", 100, 7, dims=BipartiteDims(2, 3))
    summary = result.summary
    assert summary["discarded"] > 0
    assert result.all_pass
    for record in result.records:
        if record.indeterminate:
            assert record.margin is None
            assert record.passed
        else:
            assert record.margin is not None


def test_tolerance_override_changes_verdicts():
    relaxed = run_suite("corollary1", 3, 7)
    assert relaxed.all_pass
    strict = run_suite("corollary1", 3, 7, tol=1e-13)
    assert not strict.all_pass
    assert strict.summary["failed"] > 0
    # margins themselves do not depend on the tolerance
    for a, b in zip(relaxed.records, strict.records):
        assert a.margin == b.margin


def test_run_suite_validation():
    with pytest.raises(InputError):
        run_suite("nonsense", 5, 7)
    with pytest.raises(InputError):
        run_suite("theorem1", 0, 7)
    with pytest.raises(InputError):
        run_suite("theorem1", 5, -1)
    with pytest.raises(InputError):
        run_suite("theorem1", 5, 7, tol=0.0)
    with pytest.raises(InputError):
        run_suite("lemma3", 5, 7, dims=BipartiteDims(3, 3))


def test_default_tolerances_cover_every_suite():
    assert set(DEFAULT_TOLERANCES) == set(SUITE_NAMES)
    assert all(tol > 0 for tol in DEFAULT_TOLERANCES.values())


def test_infinite_margins_serialize_as_strings():
    result = run_suite("theorem1", 100, 7, dims=BipartiteDims(2, 3))
    texts = [record_to_json(r) for r in result.records]
    joined = "\n".join(texts)
    assert '"inf"' in joined
    for record, text in zip(result.records, texts):
        if record.indeterminate:
            assert '"margin": null' in text
            assert '"nan"' in text


def test_worst_margin_matches_records():
    result = run_suite("reduction", 50, 13)
    margins = [r.margin for r in result.records if not r.indeterminate]
    assert result.summary["worst_margin"] == min(margins)


def test_solver_suites_record_solve_diagnostics():
    for suite in ("lemma2", "lemma3"):
        for record in run_suite(suite, 2, 7).records:
            quantities = record.quantities
            assert quantities["ree_converged"] in (0.0, 1.0)
            assert quantities["ree_iterations"] >= 1.0


def test_corollary2_passes_at_2x3():
    # the product of two 2x3 pure states is a 4x9 (d = 36) solve; projected
    # gradient descent stopped there after one step, about 2 bits high
    result = run_suite("corollary2", 1, 7, BipartiteDims(2, 3))
    assert result.all_pass
    record = result.records[0]
    assert record.quantities["ree_product_converged"] == 1.0
