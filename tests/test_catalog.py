"""The builtin catalog: pinned orders and which groups a survey slice builds."""

from gamma_forge import catalog
from gamma_forge.catalog import CATALOG_SPECS, run_survey
from gamma_forge.groups import construct


def test_pinned_orders_match_constructed_groups():
    assert {spec: construct(spec).order for spec in CATALOG_SPECS} == CATALOG_SPECS


def test_survey_builds_only_groups_in_its_slice(monkeypatch):
    built = []

    def recording_construct(spec):
        built.append(spec)
        return construct(spec)

    monkeypatch.setattr(catalog, "construct", recording_construct)
    rows, _ = run_survey(3, 81)
    assert built == [s for s, order in CATALOG_SPECS.items() if order <= 81]
    assert "ut:4:3" not in built
    assert sorted(r.spec for r in rows) == sorted(built)


def test_survey_decides_order_729():
    rows, summary = run_survey(700, 729)
    assert [(r.spec, r.metabelian, r.circ_automorphic, r.flag) for r in rows] == \
        [("ut:4:3", True, "true", None)]
    assert summary["automorphic-true"] == 1
