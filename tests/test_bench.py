import io
import time

import pytest

from wheelerlang.bench import (
    CSV_COLUMNS,
    DEFAULT_GRID,
    averaged_grid,
    loglog_slope,
    run_bench,
    write_csv,
)


def test_default_grid_is_the_doubling_series():
    assert DEFAULT_GRID == (500, 1000, 2000, 4000, 8000, 16000)


def test_single_small_row_completes_quickly():
    t0 = time.perf_counter()
    rows = run_bench([10], edges_per_state=2.0, sigma_size=2, seeds=[1])
    assert time.perf_counter() - t0 < 1.0
    (row,) = rows
    assert row.n == 10 and row.m == 20 and row.seed == 1
    assert row.ms_total >= 0 and row.width_estimate >= 1
    assert row.n_min <= 10


def test_row_grid_shape_and_reproducibility():
    rows1 = run_bench([8, 12], edges_per_state=2.0, sigma_size=2, seeds=[0, 1, 2])
    rows2 = run_bench([8, 12], edges_per_state=2.0, sigma_size=2, seeds=[0, 1, 2])
    assert len(rows1) == 6
    fixed = lambda r: (r.n, r.m, r.seed, r.n_min, r.m_min, r.width_estimate)
    assert [fixed(r) for r in rows1] == [fixed(r) for r in rows2]


def test_stage_columns_fit_inside_the_total():
    # dense random DFAs of this size are non-Wheeler, so the witness stage runs
    (row,) = run_bench([40], seeds=[3])
    assert row.ms_witness > 0
    stages = ("trim", "minimize", "rank_table", "square", "acyclicity", "witness")
    assert sum(getattr(row, f"ms_{s}") for s in stages) <= row.ms_total


def test_csv_layout():
    rows = run_bench([8], edges_per_state=2.0, sigma_size=2, seeds=[5])
    buf = io.StringIO()
    write_csv(rows, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[0] == "8" and cells[2] == "5"
    assert len(cells) == len(CSV_COLUMNS)


def test_bad_arguments():
    with pytest.raises(ValueError):
        run_bench([])
    with pytest.raises(ValueError):
        run_bench([4], sigma_size=0)


def test_loglog_slope_recovers_power_laws():
    quadratic = [(x, 3.0 * x * x) for x in (10, 20, 40, 80)]
    assert abs(loglog_slope(quadratic) - 2.0) < 1e-9
    linear = [(x, 0.5 * x) for x in (10, 20, 40, 80)]
    assert abs(loglog_slope(linear) - 1.0) < 1e-9
    with pytest.raises(ValueError):
        loglog_slope([(1.0, 1.0)])


def test_averaged_grid_groups_by_size():
    rows = run_bench([8, 12], edges_per_state=2.0, sigma_size=2, seeds=[0, 1])
    points = averaged_grid(rows)
    assert len(points) == 2
    assert points[0][0] <= points[1][0]
