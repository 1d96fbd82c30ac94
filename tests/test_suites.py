import pytest

from krtorus import suites
from krtorus.cartan import build_frame
from krtorus.cuspidal import FlagMinorTable
from krtorus.errors import InvalidInputError
from krtorus.suites import SUITES, run_suite
from krtorus.torusmap import TorusMorphism


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


def _break_ctilde(monkeypatch, frame):
    # An asymmetric shift breaks the distance, symmetry, period and
    # pairing checks.
    table = frame.datum.qcartan
    coeff = table.coeff
    monkeypatch.setattr(table, "coeff", lambda i, j, m: coeff(i, j, m) + (i < j))


def _break_tsystem(monkeypatch, frame):
    closed = suites.closed_form_type_a

    def doubled(f, i, s, k):  # wrong from k = 2 on
        return (1 + (k > 1)) * closed(f, i, s, k)

    monkeypatch.setattr(suites, "closed_form_type_a", doubled)


def _break_flagminors(monkeypatch, frame):
    # Cubed minor products break the adapted word and every drop of 1.
    minors = suites.standard_seed_minors
    monkeypatch.setattr(
        suites,
        "standard_seed_minors",
        lambda f, word=None: FlagMinorTable(word, [p**3 for p in minors(f, word).products]),
    )


def _break_periodicity(monkeypatch, frame):
    class Doubled(TorusMorphism):
        def kr_value(self, i, p, k):
            return 2 * super().kr_value(i, p, k)

        def monomial_value(self, mono):
            return 2 * super().monomial_value(mono)

        def initial_value(self, t):
            return 2 * super().initial_value(t)

    table = frame.datum.qcartan
    coeff = table.coeff
    monkeypatch.setattr(table, "coeff", lambda i, j, m: coeff(i, j, m) + (m == 2 * frame.h))
    monkeypatch.setattr(suites, "TorusMorphism", Doubled)


def _break_minpairs(monkeypatch, frame):
    # A root that the recursion does not reach gives None.
    monkeypatch.setattr(suites.CuspidalRecursion, "value", lambda self, beta: None)


@pytest.mark.parametrize(
    "name, breaks, failing",
    [
        ("ctilde", _break_ctilde, ["distance 1", "distance+1", "symmetric", "period 2h", "Euler"]),
        ("tsystem", _break_tsystem, ["labels at (1,-2)"]),
        ("flagminors", _break_flagminors, ["adapted word", "word 1: multiplicity drop"]),
        ("minpairs", _break_minpairs, ["recursion value at (1, 0, 0)"]),
        (
            "periodicity",
            _break_periodicity,
            ["repeat after 2N", "class at vertex 1", "monomial at vertex 1", "frozen vertex"],
        ),
    ],
)
def test_every_failing_check_carries_a_witness(monkeypatch, name, breaks, failing):
    frame = build_frame("A", 3)
    breaks(monkeypatch, frame)
    result = run_suite(name, frame, count=2)
    fails = [line[len("FAIL ") :] for line in result.lines if line.startswith("FAIL ")]
    assert not result.ok
    assert all(any(part in label for label in fails) for part in failing)
    witnessed = {w["label"]: w["witness"] for w in result.witnesses}
    assert sorted(witnessed) == sorted(fails)
    assert all(": got " in w or ": drop " in w for w in witnessed.values())
