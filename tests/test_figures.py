"""Figure files keep their exact bytes."""

import hashlib
import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqdenom import analysis, generate_figures, heatmap_data, heatmap_svg, svg
from sqdenom.figures import heatmap_text, write_csv
from sqdenom.sigmacore import tau

# sha256 of each file generate_figures writes; any change to the numbers,
# the CSV layout or the SVG drawing code shows up here.
FIGURE_SHA256 = {
    "fig1.svg": "baa520b08ed1bd721643702f2907dd0c6b9219496b52c5a7724a5db4cc4718c4",
    "fig1.csv": "64d869c86633bac97682c2d222eb9a6f8b9a72514f191283ddd6c9691e1d4125",
    "fig2.svg": "8fe6622cc40f6736e1ecb7a3b93dbeb4b6f04d7a8b45785836857d4f150b513b",
    "fig2.csv": "da5b2dfa0bf9bb7a31e75ff7345fecd77bf515c4a632934905c5898daf130f0c",
    "fig3.svg": "ac58b59cbeba30f63f93c55e726cac3c289a9d99c1a0d1ea1d76b842e5f90537",
    "fig3.csv": "c59156bbac89ea4f1068f080e54ad751f5ad8e6dcffd13efcfe66e37185af30f",
    "fig4.svg": "19b6f613400946bb323ace914471ae481473723980428cbcaca068269ccf311d",
    "fig4.csv": "f4ff1a5901759e48ac089ba022283c5d33b1be9b29647848ad358160e067bdd7",
    "fig5.svg": "f8544ebc8c94bde32009f2ca11f042edfd88b1e98581a7c74376a016436fa1ae",
    "fig5.csv": "b54c0586f4fb15ec3ecc8d1f7ac93ca6bc9bded6f19e8e9b353c50a09c41e3a0",
    "fig5_curves.csv": "56b084f4c0977e0dc85b2aa7c61d2399faee7e3486a721aa08b8d64d262b6a14",
    "fig6.svg": "618c2d399d0763f4a36a1b3b34c25f62c06c10a2a36dde8d9b7ed959a1389cbd",
    "fig6.csv": "d26ce55852802900da746966306c034ff57b0a489c0f23615168f93c66a4a7d1",
}


def test_figure_bytes_are_pinned(tmp_path):
    paths = generate_figures(tmp_path)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
    assert digests == FIGURE_SHA256


def test_figures_certify_each_a_once(tmp_path, monkeypatch):
    # fig1, fig2 and fig6 read one sweep of 1..2000, and fig5 sweeps its own
    # 202 a: 2,202 certified rows, where sweeping 1..500 twice made 2,702;
    # every row enters the kernel in a's frame
    calls = []
    in_frame = analysis._certified_pair_in_frame

    def counted_in_frame(a, n, b1):
        calls.append(a)
        return in_frame(a, n, b1)

    monkeypatch.setattr(analysis, "_certified_pair_in_frame", counted_in_frame)
    generate_figures(tmp_path)
    assert len(calls) == len(set(calls)) == 2202


# --- the heatmaps: one column pass, checked cell by cell ----------------------

_grid_a = st.one_of(
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=1, max_value=10**300),
    st.builds(lambda n, d: n * n + d,
              st.one_of(st.integers(min_value=2, max_value=1000),
                        st.integers(min_value=2, max_value=10**150)),
              st.integers(min_value=-3, max_value=1)),
)


def _point_rows(mode, a_lo, a_hi, s_lo, s_hi):
    def value(a, s):
        return tau(a, s) - tau(a, s - 1) if mode == "delta" else tau(a, s)

    return [(a, s, value(a, s)) for a in range(a_lo, a_hi + 1) for s in range(s_lo, s_hi + 1)]


def _csv_of(header, rows):
    buf = io.StringIO()
    write_csv(buf, header, rows)
    return buf.getvalue()


def _rects_one_by_one(mode, rows):
    """The cells of heatmap_svg, drawn one row tuple at a time."""
    (a_lo, s_lo, _), (a_hi, s_hi, _) = rows[0], rows[-1]
    frame = svg.Frame(820, 460, a_lo - 0.5, a_hi + 0.5, s_lo - 0.5, s_hi + 0.5)
    hw = frame.plot_w / (frame.x_hi - frame.x_lo) / 2
    hh = frame.plot_h / (frame.y_hi - frame.y_lo) / 2

    def fill(v):
        if mode == "delta":
            return {1: "black", -1: "red"}.get(v, "white")
        g = round(255 * (1 - min(v, 10) / 10))
        return f"rgb({g},{g},{g})"

    return [f'<rect x="{frame.x(a) - hw:.2f}" y="{frame.y(s) - hh:.2f}" width="{2 * hw:.2f}" '
            f'height="{2 * hh:.2f}" fill="{fill(v)}"/>' for a, s, v in rows]


def _drawn_cells(text, count):
    lines = text.splitlines()
    return lines[3:3 + count]  # after the <svg>, background and title lines


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["tau", "delta"]), _grid_a, st.integers(min_value=0, max_value=3),
       st.one_of(st.just(2), st.integers(min_value=1, max_value=10**6)),
       st.integers(min_value=0, max_value=20))
@example("tau", 1, 0, 1, 0)  # one cell, from s = 1
@example("delta", 8, 0, 2, 98)  # one column of fig4
@example("tau", 2, 3, 1, 200)  # tau well above 10
@example("delta", 10**200 - 2, 3, 2, 10)  # across the square 10^200
def test_heatmap_rows_and_texts_match_point_tau(mode, a_lo, width, s_lo, depth):
    if mode == "delta":
        s_lo = max(s_lo, 2)
    grid = (a_lo, a_lo + width, s_lo, s_lo + depth)
    header, rows = heatmap_data(mode, *grid)
    assert header == ["a", "s", mode]
    assert rows == _point_rows(mode, *grid)
    assert heatmap_text(mode, "csv", *grid) == _csv_of(header, rows)
    if a_lo > 10**12:
        return  # the SVG frame's float axis cannot tell such a apart
    drawn = heatmap_text(mode, "svg", *grid)
    assert drawn == heatmap_svg(mode, rows)
    assert _drawn_cells(drawn, len(rows)) == _rects_one_by_one(mode, rows)


def test_heatmap_svg_draws_values_outside_the_usual_range():
    # no tau step is ever outside -1..1, nor a count negative, but the
    # writer formats any value it has no piece for
    for mode, values in (("delta", [2, -3, 1, -1, 0, 7]), ("tau", [0, 10, 11, 25, 3, 10**30])):
        rows = [(a, s, v) for (a, s), v in zip([(5, 2), (5, 3), (5, 4), (6, 2), (6, 3), (6, 4)],
                                               values)]
        text = heatmap_svg(mode, rows)
        assert _drawn_cells(text, 6) == _rects_one_by_one(mode, rows)
    with pytest.raises(ValueError):
        heatmap_svg("tau", rows[:4])


def test_heatmap_csv_formats_counts_above_ten():
    header, rows = heatmap_data("tau", 1, 2, 90, 100)
    assert min(v for _, _, v in rows) > 10
    assert heatmap_text("tau", "csv", 1, 2, 90, 100) == _csv_of(header, rows)
