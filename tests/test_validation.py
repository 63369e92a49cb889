import math

import pytest

from beadcorr import validation
from beadcorr.dists import ExpNormal, ExpParams, NormalParams


def test_a_draw_whose_correction_fails_is_an_error_row(monkeypatch):
    # the closed-form corrector refuses p <= 0, where the referee still has a
    # value; the run goes on to the next draw
    m = ExpNormal(ExpParams(0.01), NormalParams(100.0, 15.0))
    cases = iter([(m, -1.0), (m, 120.0)])
    monkeypatch.setattr(validation, "draw_case", lambda kind, rng: next(cases))
    rows, tol = validation.run_validation("exp_normal", 2, seed=0)
    assert rows[0].path == "error" and not rows[0].within_tol
    assert math.isnan(rows[0].corrected) and rows[0].reference > 0
    assert rows[1].path == "closed" and rows[1].within_tol
    assert rows[1].rel_error <= tol
    assert validation.validation_report_tsv(rows).splitlines()[1].endswith("\terror\t0")



@pytest.mark.parametrize("kind", ["gb_gb", "gb_normal"])
def test_gb_validation_checks_the_series(kind):
    # correct_array answers these families by quadrature; validation keeps
    # checking the paper's series against the referee
    rows, tol = validation.run_validation(kind, 5, seed=0)
    assert any(r.path == "series" for r in rows)
    assert all(r.within_tol for r in rows)
