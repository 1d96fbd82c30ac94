import pytest

from krtorus.cartan import build_frame
from krtorus.errors import InvalidInputError
from krtorus.suites import SUITES, run_suite


def test_unknown_suite_name(a2):
    with pytest.raises(InvalidInputError, match="unknown suite"):
        run_suite("nonsense", a2)


def test_every_suite_is_registered():
    assert sorted(SUITES) == [
        "ctilde",
        "figure2",
        "flagminors",
        "minpairs",
        "mutations",
        "periodicity",
        "properties",
        "schurweyl",
        "tsystem",
    ]


def test_figure2_requires_the_sink_source_frame(a2):
    with pytest.raises(InvalidInputError, match="sink-source"):
        run_suite("figure2", a2)


def test_properties_suite_honours_tmax(a3_sink_source):
    result = run_suite("properties", a3_sink_source, tmax=12)
    assert result.ok
    assert any("checked 12" in line for line in result.lines)


def test_schurweyl_rejects_non_type_a(d4):
    with pytest.raises(InvalidInputError, match="type-A"):
        run_suite("schurweyl", d4)


def test_minpairs_reports_coverage_off_the_monotonic_orientation(a3_sink_source):
    result = run_suite("minpairs", a3_sink_source)
    assert result.ok
    assert any("coverage" in line for line in result.lines)


def test_tsystem_suite_passes_on_a5():
    result = run_suite("tsystem", build_frame("A", 5))
    assert result.ok


def test_flagminors_suite_seeded_reproducibly(d4):
    first = run_suite("flagminors", d4, count=3, seed=7)
    second = run_suite("flagminors", d4, count=3, seed=7)
    assert first.ok and second.ok
    assert first.lines == second.lines


def test_failing_check_collects_witness(a3_sink_source):
    result = run_suite("figure2", a3_sink_source)
    assert result.ok and not result.witnesses
    # force a failure through the result API to pin the witness format
    ok = result.check(False, "forced", witness="detail")
    assert not ok and not result.ok
    assert result.witnesses == [{"label": "forced", "witness": "detail"}]
