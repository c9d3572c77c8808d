"""Fixtures that every test uses."""

import pytest

from gamma_forge import core, groups


@pytest.fixture(autouse=True)
def no_table_above_the_cap(monkeypatch):
    """Fail the test at once when groups.build_table is asked for an order
    above table_cap(): a refusal of such an order that regressed would
    otherwise build the table (59049^2 cells, about 7 GB, for ut:5:3) before
    any assertion is reached."""
    real = groups.build_table

    def build_table(n, *args, **kwargs):
        if n > (cap := core.table_cap()):
            pytest.fail(f"build_table asked for order {n}, above the table cap {cap}", pytrace=False)
        return real(n, *args, **kwargs)

    monkeypatch.setattr(groups, "build_table", build_table)
