import pytest
from scipy.optimize._highspy import _core as highspy


@pytest.fixture
def highs_solvers(monkeypatch):
    """The HiGHS ``solver`` option of each LP solved while the test runs."""
    solvers = []

    class Spy(highspy._Highs):
        def setOptionValue(self, option, value):
            if option == "solver":
                solvers.append(value)
            return super().setOptionValue(option, value)

    monkeypatch.setattr(highspy, "_Highs", Spy)
    return solvers
