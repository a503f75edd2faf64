from sqfpairs import counting
from sqfpairs.verify import _Recorder, suite_truncation_report


def test_failure_count_beyond_stored_samples():
    rec = _Recorder("many-failures")
    for i in range(5000):
        rec.check(False, f"failure {i}")
    result = rec.result()
    assert not result.ok
    assert result.checked == 5000
    assert result.failed == 5000
    assert len(result.failures) == 1000
    lines = result.line().splitlines()
    assert lines[1:11] == [f"    failure {i}" for i in range(10)]
    assert lines[-1] == "    ... 4990 more"


def test_truncation_report_checks_the_dropped_terms(monkeypatch):
    assert suite_truncation_report(H_values=(10, 20)).ok
    truncated = counting.count_pairs_mobius_truncated
    monkeypatch.setattr(counting, "count_pairs_mobius_truncated",
                        lambda H, z: truncated(H, z) + 1)
    result = suite_truncation_report(H_values=(10, 20))
    assert (result.checked, result.failed) == (2, 2)
