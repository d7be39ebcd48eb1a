"""The summary of `scripts/bench_pairs.py` on fixed numbers; no benchmark
run is started."""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import bench_pairs
    return bench_pairs


PARENT = [0.240, 0.236, 0.238, 0.242, 0.239, 0.237, 0.241, 0.235, 0.243, 0.238]


def test_claim_holds_on_nine_wins_and_a_gap_beyond_the_iqr(pairs):
    change = [0.200, 0.199, 0.201, 0.203, 0.198, 0.202, 0.200, 0.240, 0.204, 0.197]
    s = pairs.summarize(PARENT, change, "lower")
    assert s["wins"] == 9 and s["pairs"] == 10 and s["holds"]
    assert s["parent"][0] == pytest.approx(0.2385)
    assert s["change"][0] == pytest.approx(0.2005)
    assert s["rel"] == pytest.approx(0.2005 / 0.2385 - 1)
    # the same numbers under "higher is better" are all losses but one
    up = pairs.summarize(PARENT, change, "higher")
    assert up["wins"] == 1 and not up["holds"]


def test_claim_fails_on_eight_wins_or_a_gap_inside_the_iqr(pairs):
    eight = [0.200] * 8 + [0.250, 0.250]
    assert pairs.summarize(PARENT, eight, "lower")["wins"] == 8
    assert not pairs.summarize(PARENT, eight, "lower")["holds"]
    # every pair won, but by less than the parent's spread
    close = [p - 0.001 for p in PARENT]
    s = pairs.summarize(PARENT, close, "lower")
    assert s["wins"] == 10 and not s["holds"]
    # ties are not wins
    assert pairs.summarize(PARENT, PARENT, "lower")["wins"] == 0


def test_quartiles_of_one_run_are_the_run(pairs):
    assert pairs.quartiles([0.5]) == (0.5, 0.5, 0.5)
    s = pairs.summarize([1.0], [2.0], "higher")
    assert s["wins"] == 1 and s["holds"]
    assert "claim holds" in pairs.format_row("solved_frac", s)
