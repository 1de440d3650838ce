"""Every report renders through metric.Report's one rule: as_dict holds
each dataclass field, a Fraction as a float and a tuple as a list, plus
the keys an override declares.  A field of a type the rule does not
render fails here instead of printing through the CLI's default=str."""

import json
from dataclasses import fields

import pytest
from test_families import ShortNadic

from focalgroups.boundary import (
    ActionVerdict,
    IsometryType,
    SchottkyReport,
    action_type,
    busemann_quasicharacter,
    isometry_type,
    schottky_semigroup_check,
    translation_number,
)
from focalgroups.families import (
    ConfiningReport,
    LamplighterFamily,
    NadicFamily,
    ProductFamily,
    SpoofIdentityFamily,
    verify_confining,
)
from focalgroups.metric import DeltaReport, QIReport, Report, four_point_delta, qi_embedding_check
from focalgroups.words import DistortionReport, alpha_point, ball_points, distortion_check, h_point

L2 = LamplighterFamily(2)
N2 = NadicFamily(2)
TRUSTED_SPOOF = SpoofIdentityFamily(2).unchecked()
QI_KEYS = {f.name for f in fields(QIReport)}

# Keys an override adds to and removes from the field names.
OVERRIDES = {
    DeltaReport: ({"exhaustive"}, set()),
    ConfiningReport: ({"passed"}, set()),
    DistortionReport: ({"passed"}, set()),
    IsometryType: ({"type"}, {"kind"}),
    ActionVerdict: ({"type"}, {"kind"}),
    SchottkyReport: (QI_KEYS, {"report"}),
}


def _instances():
    """Small real reports, several of a class where their fields take
    other types (None, empty or non-empty failure lists, a collision)."""
    lamp = h_point(L2, L2.lamp(0))
    return [
        translation_number(alpha_point(L2, 1) * lamp, N=6),
        translation_number(alpha_point(TRUSTED_SPOOF, 1), N=4),
        isometry_type(alpha_point(L2, 1), N=6),
        isometry_type(lamp, N=6),
        busemann_quasicharacter(alpha_point(L2, 1), N=4),
        action_type([alpha_point(L2, 1), lamp], L=4),
        action_type([lamp], L=4),
        schottky_semigroup_check(alpha_point(L2, 1), alpha_point(L2, 1) * lamp, L=4),
        schottky_semigroup_check(lamp, h_point(L2, L2.lamp(1)), L=4),
        qi_embedding_check([(1, 1), (2, 3), (4, 5)]),
        four_point_delta(ball_points(L2, 3)[1]),
        four_point_delta(ball_points(L2, 4)[1]),
        verify_confining(L2),
        verify_confining(SpoofIdentityFamily(2)),
        distortion_check(N2, m_max=2),
        distortion_check(ShortNadic(2), m_max=2),
        L2.default_window(3),
        N2.default_window(3),
        ProductFamily(L2, N2).default_window(2),
    ]


def _report_classes(cls=Report):
    subs = set(cls.__subclasses__())
    return subs.union(*map(_report_classes, subs))


INSTANCES = _instances()


def test_every_report_class_has_an_instance():
    assert {type(r) for r in INSTANCES} == _report_classes()


@pytest.mark.parametrize("report", INSTANCES, ids=lambda r: type(r).__name__)
def test_renders_as_json_with_its_declared_keys(report):
    out = report.as_dict()
    # No default=: a Fraction or numpy scalar fails, and a tuple reads back
    # as a list, so only plain JSON values survive the round trip.
    assert json.loads(json.dumps(out)) == out
    added, removed = OVERRIDES.get(type(report), (set(), set()))
    assert set(out) == ({f.name for f in fields(report)} - removed) | added
