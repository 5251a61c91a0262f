import pytest

from extremal import errors
from extremal.errors import BudgetError, Meter


def test_meter_refuses_only_past_its_cap(monkeypatch):
    monkeypatch.setitem(errors.CAPS, "compositions", 10)
    meter = Meter("compositions")
    meter.tick(9)
    meter.tick()
    assert meter.count == meter.cap == 10
    with pytest.raises(BudgetError, match="^12 compositions past the cap of 10$"):
        meter.tick(2)

