import math

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

