import numpy as np
import pytest

from lsnav.errors import (
    EvenDimension,
    NotEndingAtDiagonal,
    OutOfDomain,
    PathDiscontinuity,
    PatternMismatch,
    SingularInput,
    TargetDomainMiss,
)
from lsnav.manifolds import (
    Euclidean,
    PointOnM,
    ProductSpheres,
    Sphere,
    random_points,
    tangent_project,
)
from lsnav.navigation import (
    NavTuple,
    SignPattern,
    classify_sphere_critical,
    critical_tuple,
    random_critical_tuple,
)
from lsnav.paths import (
    ConstantSegment,
    DeformationHandle,
    GreatCircleSegment,
    PathSpec,
    SampledSegment,
    compose_section_through_deformation,
    deformation_to_section,
    eval_path,
    geodesic_to_antipode,
    path_fibration,
    path_from_json,
    plan_product_odd_spheres,
)

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def _half_circle():
    spec = Sphere(1)
    p = PointOnM(E1, spec)
    seg = geodesic_to_antipode(p, tangent_project(p, E2), 0.0, 1.0)
    return PathSpec((seg,), spec)


def test_eval_constant_path():
    path = PathSpec((ConstantSegment(E1, 0.0, 1.0),), Sphere(1))
    for t in [0.0, 0.3, 1.0]:
        assert np.allclose(eval_path(path, t), E1)


def test_eval_great_circle_endpoints():
    path = _half_circle()
    assert np.allclose(eval_path(path, 1.0), -E1, atol=1e-15)
    with pytest.raises(OutOfDomain):
        eval_path(path, 1.5)


def test_two_segment_knot_agreement():
    spec = Sphere(1)
    p = PointOnM(E1, spec)
    seg1 = geodesic_to_antipode(p, tangent_project(p, E2), 0.0, 0.5)
    m = PointOnM(-E1, spec)
    seg2 = geodesic_to_antipode(m, tangent_project(m, -E2), 0.5, 1.0)
    path = PathSpec((seg1, seg2), spec)
    left = seg1.eval(np.array([0.5]))[0]
    right = seg2.eval(np.array([0.5]))[0]
    assert np.linalg.norm(left - right) <= 1e-9
    assert np.allclose(eval_path(path, 1.0), E1, atol=1e-14)


def test_discontinuous_path_rejected():
    s1 = ConstantSegment(E1, 0.0, 0.5)
    s2 = ConstantSegment(E2, 0.5, 1.0)
    with pytest.raises(PathDiscontinuity):
        PathSpec((s1, s2), Sphere(1))


def test_path_fibration_constant_and_circle():
    const = PathSpec((ConstantSegment(E1, 0.0, 1.0),), Sphere(1))
    t = path_fibration(const, 3)
    assert np.allclose(t.points, np.tile(E1, (3, 1)))

    circle = _half_circle()
    t2 = path_fibration(circle, 2)
    assert np.allclose(t2.points, [E1, -E1], atol=1e-15)
    t3 = path_fibration(circle, 3)
    assert np.allclose(t3.points, [E1, E2, -E1], atol=1e-15)


def test_plan_half_circle_r2():
    t = NavTuple(Sphere(1), np.array([E1, -E1]))
    pat = classify_sphere_critical(t)
    path = plan_product_odd_spheres(t, pat)
    assert np.max(np.abs(path_fibration(path, 2).points - t.points)) <= 1e-9
    assert len(path.segments) == 1
    assert isinstance(path.segments[0], GreatCircleSegment)


def test_plan_diagonal_constant():
    t = NavTuple(Sphere(1), np.array([E2, E2]))
    path = plan_product_odd_spheres(t, classify_sphere_critical(t))
    assert isinstance(path.segments[0], ConstantSegment)


def test_plan_two_factor_mixed_pattern():
    rng = np.random.default_rng(0)
    spec = ProductSpheres((1, 3))
    pat = SignPattern(((1, -1, 1), (1, 1, -1)))
    base = random_points(spec, 1, rng)[0]
    t = critical_tuple(spec, pat, base)
    path = plan_product_odd_spheres(t, pat)
    rt = path_fibration(path, 3)
    assert np.max(np.abs(rt.points - t.points)) <= 1e-9
    # knot-by-knot check against the explicit cosine construction: at the
    # midpoint of a flipping leg the factor passes through i * start
    from lsnav.manifolds import mult_i

    mid = eval_path(path, 0.25)  # middle of leg 1, factor 1 flips there
    want_f1 = np.cos(np.pi / 2) * base[:2] + np.sin(np.pi / 2) * mult_i(base[:2])
    assert np.allclose(mid[:2], want_f1, atol=1e-12)
    assert np.allclose(mid[2:], base[2:], atol=1e-12)  # factor 2 constant on leg 1


def test_plan_pieces_follow_the_flips():
    # a constant piece exactly where no block flips; every great circle turns
    # the flipping blocks by i and has a +0.0 direction on the others
    from lsnav.manifolds import mult_i

    rng = np.random.default_rng(3)
    spec = ProductSpheres((1, 3))
    pat = SignPattern(((1, -1, -1, -1, 1), (1, 1, 1, -1, 1)))
    t = critical_tuple(spec, pat, random_points(spec, 1, rng)[0])
    path = plan_product_odd_spheres(t, pat)
    assert [type(s) for s in path.segments] == [
        GreatCircleSegment, ConstantSegment, GreatCircleSegment, GreatCircleSegment]
    for ell, seg in enumerate(path.segments):
        moving = [f[ell] != f[ell + 1] for f in pat.signs]
        if not any(moving):
            assert np.array_equal(seg.point, t.points[ell])
            continue
        assert np.array_equal(seg.start, t.points[ell])
        for (b0, b1), m in zip(spec.blocks(), moving):
            block = seg.direction[b0:b1]
            if m:
                assert np.array_equal(block, mult_i(t.points[ell, b0:b1]))
            else:
                assert np.array_equal(block, np.zeros(b1 - b0))
                assert not np.signbit(block).any()


def test_plan_rejects_mismatch_and_even_dims():
    t = NavTuple(Sphere(1), np.array([E1, -E1]))
    with pytest.raises(PatternMismatch):
        plan_product_odd_spheres(t, SignPattern(((1, 1),)))
    t2 = NavTuple(Sphere(2), np.array([[1.0, 0, 0], [-1.0, 0, 0]]))
    with pytest.raises(EvenDimension):
        plan_product_odd_spheres(t2, SignPattern(((1, -1),)))


def test_plan_section_property_random():
    rng = np.random.default_rng(1)
    for spec, r in [(Sphere(1), 2), (Sphere(3), 4), (ProductSpheres((3, 1)), 3)]:
        for _ in range(50):
            t = random_critical_tuple(spec, r, rng)
            pat = classify_sphere_critical(t)
            path = plan_product_odd_spheres(t, pat)
            assert np.max(np.abs(path_fibration(path, r).points - t.points)) <= 1e-9
            assert path.constraint_residual(256) <= 1e-9


def test_plan_lipschitz_in_base_point():
    rng = np.random.default_rng(2)
    spec = Sphere(3)
    pat = SignPattern(((1, -1, 1),))
    base = random_points(spec, 1, rng)[0]
    delta = 1e-4
    bump = rng.standard_normal(4)
    base2 = base + delta * bump / np.linalg.norm(bump)
    base2 /= np.linalg.norm(base2)
    t1 = critical_tuple(spec, pat, base)
    t2 = critical_tuple(spec, pat, base2)
    dist = np.max(np.linalg.norm(t1.points - t2.points, axis=1))
    p1 = plan_product_odd_spheres(t1, pat)
    p2 = plan_product_odd_spheres(t2, pat)
    ts = np.linspace(0, 1, 100)
    sup = np.max(np.linalg.norm(p1.eval_many(ts) - p2.eval_many(ts), axis=1))
    assert sup <= 10 * dist


def _line_to_diagonal(spec):
    def h_map(a, s):
        target = np.tile(a.points[0], (a.r, 1))
        return NavTuple(spec, (1.0 - s) * a.points + s * target)

    return DeformationHandle(map=h_map, end_at_diagonal=True)


def test_deformation_to_section_r2():
    spec = Euclidean(2)
    h = _line_to_diagonal(spec)
    a = NavTuple(spec, np.array([[0.0, 0.0], [1.0, 2.0]]))
    sec = deformation_to_section(h, a, 2)
    assert np.allclose(eval_path(sec, 0.0), a.points[0], atol=1e-12)
    assert np.allclose(eval_path(sec, 1.0), a.points[1], atol=1e-12)
    # midpoint value is the common diagonal point h0(a, 1)
    assert np.allclose(eval_path(sec, 0.5), a.points[0], atol=1e-12)


def test_deformation_to_section_diagonal_constant():
    spec = Euclidean(2)
    h = _line_to_diagonal(spec)
    a = NavTuple(spec, np.tile([1.5, -0.5], (3, 1)))
    sec = deformation_to_section(h, a, 3)
    ts = np.linspace(0, 1, 64)
    assert np.max(np.abs(sec.eval_many(ts) - np.array([1.5, -0.5]))) <= 1e-12


def test_deformation_to_section_r3_exact_knots():
    spec = Euclidean(2)
    h = _line_to_diagonal(spec)
    a = NavTuple(spec, np.array([[0.0, 0.0], [1.0, 2.0], [3.0, -1.0]]))
    sec = deformation_to_section(h, a, 3)
    assert np.max(np.abs(path_fibration(sec, 3).points - a.points)) <= 1e-12


def test_deformation_requires_diagonal_flag():
    spec = Euclidean(2)
    h = DeformationHandle(map=lambda a, s: a, end_at_diagonal=False)
    a = NavTuple(spec, np.array([[0.0, 0.0], [1.0, 2.0]]))
    with pytest.raises(NotEndingAtDiagonal):
        deformation_to_section(h, a, 2)


def test_deformation_checks_diagonal_claim():
    spec = Euclidean(2)
    h = DeformationHandle(map=lambda a, s: a, end_at_diagonal=True)
    a = NavTuple(spec, np.array([[0.0, 0.0], [1.0, 2.0]]))
    with pytest.raises(NotEndingAtDiagonal):
        deformation_to_section(h, a, 2)


def test_compose_identity_deformation():
    spec = Euclidean(2)
    h = _line_to_diagonal(spec)
    phi = DeformationHandle(map=lambda a, s: a)
    target = lambda tup: deformation_to_section(h, tup, 3)
    x = NavTuple(spec, np.array([[0.0, 1.0], [2.0, 0.0], [1.0, 1.0]]))
    comp = compose_section_through_deformation(phi, target, x, 3)
    assert np.max(np.abs(path_fibration(comp, 3).points - x.points)) <= 1e-12


def test_compose_rotation_on_circle_pairs():
    spec = Sphere(1)
    theta = 0.9

    def rot(v, ang):
        c, s = np.cos(ang), np.sin(ang)
        return np.array([c * v[0] - s * v[1], s * v[0] + c * v[1]])

    phi = DeformationHandle(
        map=lambda a, s: NavTuple(spec, np.array([rot(p, theta * s) for p in a.points]))
    )

    def target(tup):
        pat = classify_sphere_critical(tup, tol=1e-6)
        return plan_product_odd_spheres(tup, pat, tol=1e-6)

    rng = np.random.default_rng(3)
    x0 = random_points(spec, 1, rng)[0]
    x = NavTuple(spec, np.array([x0, -x0]))
    comp = compose_section_through_deformation(phi, target, x, 2)
    assert np.max(np.abs(path_fibration(comp, 2).points - x.points)) <= 1e-9
    assert comp.constraint_residual(256) <= 1e-9


def test_compose_target_domain_miss():
    spec = Sphere(1)
    phi = DeformationHandle(map=lambda a, s: a)

    def target(tup):
        pat = classify_sphere_critical(tup, tol=1e-9)
        return plan_product_odd_spheres(tup, pat)

    x = NavTuple(spec, np.array([[1.0, 0.0], [0.0, 1.0]]))  # not critical
    with pytest.raises(TargetDomainMiss):
        compose_section_through_deformation(phi, target, x, 2)


def test_path_json_round_trip():
    t = NavTuple(Sphere(1), np.array([E1, -E1]))
    path = plan_product_odd_spheres(t, classify_sphere_critical(t))
    back = path_from_json(path.to_json())
    ts = np.linspace(0, 1, 33)
    assert np.max(np.abs(back.eval_many(ts) - path.eval_many(ts))) <= 1e-15


def test_path_csv_export():
    path = _half_circle()
    text = path.to_csv(8)
    lines = text.strip().splitlines()
    assert lines[0] == "t,x0,x1"
    assert len(lines) == 9


@pytest.mark.filterwarnings("error")
def test_sampled_segment_through_an_unprojectable_point_raises():
    # the chord from E1 to -E1 passes the origin, which no point of S^1 is nearest to
    seg = SampledSegment(np.array([0.0, 1.0]), np.stack([E1, -E1]))
    assert np.array_equal(seg.eval(np.array([0.0, 1.0]), Sphere(1)), np.stack([E1, -E1]))
    with pytest.raises(SingularInput):
        seg.eval(0.5, Sphere(1))
