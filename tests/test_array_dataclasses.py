import dataclasses

import numpy as np
import pytest

from trendlab import backtest, herding, market_model, sharpe_oracle, symmat

MODEL = market_model.ModelParams(n=2, drift=np.zeros(2), noise_cov=np.eye(2),
                                 trend_cov=0.1 * np.eye(2), trend_amp=0.5, trend_decay=0.1)

# One instance of each frozen dataclass with an array field; every array has more
# than one entry, so a field-by-field == would ask an array for its truth value.
RECORDS = {
    "ModelParams": lambda: MODEL,
    "ReturnsPanel": lambda: market_model.ReturnsPanel(np.zeros((3, 2)), ("a", "b")),
    "BacktestResult": lambda: backtest.BacktestResult(np.zeros(3), np.zeros((3, 2)), 0),
    "EigenRiskProfile": lambda: backtest.EigenRiskProfile(np.ones(2), np.ones(2)),
    "MixResult": lambda: backtest.MixResult(np.full(2, 0.5), 1.0),
    "SimResult": lambda: herding.SimResult(np.ones((1, 2, 2), dtype=int), 2),
    "TransitionCurve": lambda: herding.TransitionCurve(np.ones(2), np.ones(2), np.ones(2)),
    "EigenPairs": lambda: symmat.eigendecompose(np.eye(2)),
    "PnlMoments": lambda: sharpe_oracle.pnl_moment_tensors(MODEL, 0.01, 10),
}


@pytest.mark.parametrize("name", RECORDS)
def test_array_dataclasses_compare_by_identity(name):
    record = RECORDS[name]()
    twin = dataclasses.replace(record)
    assert (record == twin) is False
    assert (record != twin) is True
    assert (record == record) is True
