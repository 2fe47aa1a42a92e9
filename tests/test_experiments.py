"""The experiment harness: Figure 2 and the tables."""

import pytest

from repro.experiments.figure2 import (
    BUFFER_SIZES,
    FIGURE2_POINTS,
    figure2_claims,
    figure2_series,
    render_figure2,
)
from repro.experiments.runner import full_report
from repro.experiments.tables import (
    bounds_table,
    coverage_table,
    crossover_table,
    msgcount_table,
    render_table,
)


@pytest.fixture(scope="module")
def series():
    return figure2_series()


class TestFigure2:
    def test_every_paper_claim_holds(self, series):
        claims = figure2_claims(series)
        failing = [name for name, ok in claims.items() if not ok]
        assert not failing, f"claims violated: {failing}"

    def test_eight_series(self, series):
        assert len(series) == 8
        labels = {s.label for s in series}
        assert "Baseline I/O time, 3 passes" in labels
        assert "M-columnsort, buffer size = 2^25" in labels

    def test_point_universe(self):
        assert sorted({gb for gb, _ in FIGURE2_POINTS}) == [4, 8, 16, 32]
        assert BUFFER_SIZES == (2**24, 2**25)

    def test_baselines_cover_all_sizes(self, series):
        for s in series:
            if s.algorithm.startswith("baseline"):
                assert [gb for gb, _ in s.points] == [4, 8, 16, 32]

    def test_render_contains_all_series(self, series):
        text = render_figure2(series)
        for s in series:
            assert s.label in text
        assert "secs per (GB/processor)" in text

    def test_values_in_plot_range(self, series):
        """The paper's y-axis runs 0-600 — our regenerated values must
        live on the same plot."""
        for s in series:
            for _, y in s.points:
                assert 250 < y < 600


    def test_values_pinned(self, series):
        """Every plotted point to 6 decimals, as the tree priced them
        before the traces were derived from the pass lists (PR 23) — a
        change to a pass list, a work builder or the hardware model that
        moves a number has to move it here too."""
        assert {
            s.label: [(gb, round(y, 6)) for gb, y in s.points] for s in series
        } == {
            "Threaded columnsort, buffer size = 2^24": [(4, 320.14655)],
            "Threaded columnsort, buffer size = 2^25": [
                (4, 306.509192), (8, 306.860617), (16, 306.961365),
            ],
            "Subblock columnsort, buffer size = 2^24": [
                (4, 426.463443), (16, 425.650344),
            ],
            "Subblock columnsort, buffer size = 2^25": [
                (8, 408.82551), (32, 409.015392),
            ],
            "M-columnsort, buffer size = 2^24": [
                (4, 325.753821), (8, 332.204802), (16, 347.504244),
                (32, 352.946271),
            ],
            "M-columnsort, buffer size = 2^25": [
                (4, 334.051601), (8, 344.65639), (16, 366.040542),
                (32, 368.947868),
            ],
            "Baseline I/O time, 4 passes": [
                (4, 407.859572), (8, 407.859572), (16, 407.859572),
                (32, 407.859572),
            ],
            "Baseline I/O time, 3 passes": [
                (4, 305.894679), (8, 305.894679), (16, 305.894679),
                (32, 305.894679),
            ],
        }


class TestTables:
    def test_bounds_rows(self):
        rows = bounds_table()
        assert all(
            row["threaded (1)"] < row["subblock (2)"] < row["M-columnsort (3)"]
            for row in rows
        )

    def test_crossover_rows_self_check(self):
        for row in crossover_table():
            assert row["M below ⇒ m wins"] is True
            assert row["M above ⇒ subblock wins"] is True

    def test_msgcount_rows(self):
        rows = msgcount_table()
        by_key = {(r["s"], r["P"]): r for r in rows}
        assert by_key[(16, 4)]["messages/round (⌈P/√s⌉)"] == 1
        assert by_key[(16, 4)]["network-free"] is True
        assert (16, 32) not in by_key  # P > s is not a legal cluster shape
        assert by_key[(64, 32)]["messages/round (⌈P/√s⌉)"] == 4
        assert all(
            r["messages/round (⌈P/√s⌉)"] <= r["deal pass sends"] for r in rows
        )

    def test_coverage_rows(self):
        rows = coverage_table()
        by_key = {(r["buffer"], r["algorithm"]): r["eligible sizes (GB)"] for r in rows}
        assert by_key[("2^24", "subblock")] == "1, 4, 16"
        assert by_key[("2^25", "subblock")] == "2, 8, 32"
        assert by_key[("2^24", "m")] == "1, 2, 4, 8, 16, 32, 64"

    def test_render_table(self):
        text = render_table([{"a": 1, "b": 2.5}, {"a": 10, "b": True}])
        assert "a" in text and "10" in text and "yes" in text
        assert render_table([]) == "(no rows)"

    def test_render_formats_large_powers(self):
        text = render_table([{"x": 2**34}, {"x": 2**34 + 1}])
        assert "2^34" in text


class TestFullReport:
    def test_report_sections(self):
        text = full_report()
        assert "Figure 2" in text
        assert "T-bounds" in text
        assert "T-crossover" in text
        assert "T-msgcount" in text
        assert "[FAIL]" not in text
