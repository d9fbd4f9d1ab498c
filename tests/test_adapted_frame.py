"""Corank check and prenormalization with witnessing changes."""

import math

import numpy as np
import pytest

from curvpar.adapt import CorankError, adapt, check_corank
from curvpar.forms import second_form
from curvpar.germs import extract_jet2
from curvpar.parabola import build_parabola, classify_two_jet
from curvpar.report import analyze_germ

from conftest import germ, random_rotation, transform_germ


def test_corank_examples():
    assert check_corank(germ("(x, x*y, y^2, y^5)")) == 1
    assert check_corank(germ("(x, y, 0, 0)", order=2)) == 2
    assert check_corank(germ("(x^2, x*y, y^2, 0)", order=4)) == 0


def test_adapt_rejects_wrong_corank():
    with pytest.raises(CorankError):
        adapt(germ("(x, y, 0, 0)", order=2))
    with pytest.raises(CorankError):
        adapt(germ("(x^2, x*y, y^2, 0)", order=4))


def test_adapt_identity_on_prenormal():
    g = germ("(x, x*y, y^2, y^5)")
    ad = adapt(g)
    assert ad.exact
    assert ad.germ == g
    assert np.allclose(ad.tangent_frame, [1, 0, 0, 0])
    assert np.allclose(ad.normal_frame, np.eye(4)[1:])
    assert np.allclose(ad.target_rotation, np.eye(4))


def test_adapt_identity_on_zero_germ():
    ad = adapt(germ("(x, 0, 0, 0)", order=2))
    assert ad.exact
    assert np.allclose(ad.target_rotation, np.eye(4))


def test_adapt_scaled_first_component():
    ad = adapt(germ("(2*x, x*y, y^2, 0)", order=4))
    assert not ad.exact
    assert ad.germ.is_prenormal()
    # same orbit as the unscaled germ
    assert classify_two_jet(extract_jet2(ad)) == "(x,xy,y^2,0)"


def test_adapt_rotated_germ_keeps_orbit(rng):
    base = germ("(x, x*y, y^2, 0)", order=4)
    theta = math.pi / 6
    src = [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    tgt = random_rotation(rng, 4)
    moved = transform_germ(base, src, tgt)
    ad = adapt(moved)
    assert ad.germ.is_prenormal()
    assert classify_two_jet(extract_jet2(ad)) == "(x,xy,y^2,0)"


def test_frames_orthonormal(rng):
    base = germ("(x, x*y + x^2, y^2 - x*y, x^2)", order=4)
    moved = transform_germ(base, random_rotation(rng, 2), random_rotation(rng, 4))
    ad = adapt(moved)
    frame = np.vstack([ad.tangent_frame, ad.normal_frame])
    assert np.max(np.abs(frame @ frame.T - np.eye(4))) < 1e-10


def test_reconstruction_witness(rng):
    for _ in range(5):
        base = germ("(x, x*y, y^2 + x^2, 2*x^2)", order=4)
        moved = transform_germ(base, random_rotation(rng, 2), random_rotation(rng, 4))
        ad = adapt(moved)
        sx, sy = ad.source_change
        rebuilt = moved.compose_source(sx, sy).rotate_target(ad.target_rotation)
        for built, target in zip(rebuilt.components, ad.germ.components):
            keys = set(built.coeffs) | set(target.coeffs)
            for k in keys:
                if k[0] + k[1] <= 2:
                    assert abs(built.coefficient(*k) - target.coefficient(*k)) < 1e-9


def test_adapt_idempotent(rng):
    base = germ("(x, y^2, x*y, 0)", order=4)
    moved = transform_germ(base, random_rotation(rng, 2), random_rotation(rng, 4))
    once = adapt(moved)
    twice = adapt(once.germ)
    j1, j2 = extract_jet2(once), extract_jet2(twice)
    for name in ("a20", "a11", "a02", "b20", "b11", "b02", "c20", "c11", "c02"):
        assert abs(float(getattr(j1, name)) - float(getattr(j2, name))) < 1e-12


def test_adapted_invariants_transported(rng):
    # orbit and point type survive an arbitrary linear source change + rotation
    base = germ("(x, x*y, y^2 + x^2, 3*x^2)", order=4)
    base_profile = build_parabola(second_form(adapt(base)))
    src = np.array([[1.3, 0.4], [-0.2, 0.9]])
    moved = transform_germ(base, src, random_rotation(rng, 4))
    moved_profile = build_parabola(second_form(adapt(moved)))
    assert base_profile.orbit == moved_profile.orbit
    assert base_profile.stratum == moved_profile.stratum
    assert base_profile.shape.kind == moved_profile.shape.kind


def test_adapt_returns_the_2_jet_of_non_prenormal_input(rng):
    base = germ("(x + y^2, x*y + y^4, y^2 - x^5, x^2 + x^3*y)")
    ad = adapt(transform_germ(base, random_rotation(rng, 2), random_rotation(rng, 4)))
    assert ad.germ.order == 2
    assert all(p.order == 2 for p in ad.source_change)


def test_moved_germ_report_independent_of_jet_order(rng):
    text = "(x, x*y + y^3, y^2 + x^2 - x^4, 2*x^2 + x*y^5)"
    src, tgt = random_rotation(rng, 2), random_rotation(rng, 4)
    reports = []
    for order in (3, 6, 10):
        report = analyze_germ(transform_germ(germ(text, order=order), src, tgt)).report
        del report["input"]
        reports.append(report)
    assert reports[0]["parabola"]["stratum"] == "M3"
    assert reports[0] == reports[1] == reports[2]
