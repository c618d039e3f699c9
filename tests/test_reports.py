import pytest

from mtvqa.harness import ExperimentReport
from mtvqa.reports import (
    experiment_to_csv,
    experiment_to_markdown,
    per_seed_to_csv,
    round_half_up,
    svg_line_plot,
    write_experiment_reports,
)


@pytest.mark.parametrize("value,expected", [
    (2.25, 2.3), (2.24, 2.2), (2.35, 2.4), (17.05, 17.1), (0.04, 0.0),
    (99.95, 100.0), (8.449999, 8.4),
])
def test_round_half_up(value, expected):
    assert round_half_up(value) == expected


@pytest.fixture
def report():
    return ExperimentReport(
        kind="mtl_vs_stl",
        tasks=("colour", "count"),
        rows=[("MTL", {"colour": 25.456, "count": 35.75}, 27.049999),
              ("STL", {"colour": 21.2, "count": None}, 22.9),
              ("Difference", {"colour": 4.256, "count": None}, 4.149999)],
        per_seed={"MTL": [{"colour": 25.456, "count": 35.75, "total": 27.049999}],
                  "STL": [{"colour": 21.2, "count": None, "total": 22.9}]},
        convergence={"MTL": [12], "STL": [40]},
        seeds=(0,),
    )


def test_csv_layout_and_raw_values(report):
    csv = experiment_to_csv(report)
    lines = csv.strip().split("\n")
    assert lines[0] == "label,colour,count,total"
    assert lines[1].startswith("MTL,25.456,35.75,")
    assert ",," in lines[2]  # absent type renders empty


def test_markdown_rounds_half_up(report):
    md = experiment_to_markdown(report)
    assert "| MTL | 25.5 | 35.8 | 27.0 |" in md
    assert "| STL | 21.2 | - | 22.9 |" in md
    assert "Convergence epochs" in md
    assert "- MTL: 12" in md


def test_per_seed_csv(report):
    csv = per_seed_to_csv(report)
    lines = csv.strip().split("\n")
    assert lines[0] == "label,seed,colour,count,total,convergence_epoch"
    assert lines[1].endswith(",12")


def test_write_experiment_reports(tmp_path, report):
    out = write_experiment_reports(tmp_path / "exp", report, {"note": 1})
    assert out.exists()
    files = {p.name for p in (tmp_path / "exp").iterdir()}
    assert files == {"report.csv", "per_seed.csv", "report.md", "manifest.json"}
    manifest = (tmp_path / "exp" / "manifest.json").read_text()
    assert '"note": 1' in manifest and '"timestamp"' in manifest


def test_svg_line_plot(tmp_path):
    path = tmp_path / "plot.svg"
    svg_line_plot({"train": [3.0, 2.0, 1.5], "val": [3.2, 2.5, 2.1]}, path,
                  title="loss")
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.count("<polyline") == 2
    assert "loss" in text


def test_svg_requires_data(tmp_path):
    with pytest.raises(ValueError):
        svg_line_plot({"empty": []}, tmp_path / "x.svg")
