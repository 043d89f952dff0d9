"""Map families: exact area preservation, inverses, Jacobians, configs."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from diskrot.errors import BadInterval, DiskrotError, NearRationalWarning, OriginMoved, SchemaError
from diskrot.foliation import displacements
from diskrot.geometry import (
    GOLDEN,
    TWOPI,
    angles_of,
    rot90,
    rotate,
    rotation_matrices,
    uniform_disk,
    wrap_to_pi,
)
from diskrot.maps import (
    _CELLS,
    HAMILTONIANS,
    ConjugacyMap,
    ConjugatedRotation,
    Isotopy,
    PlaneExtension,
    RigidRotation,
    TwistStep,
    _bump,
    _split,
    from_config,
)
from diskrot.quadrature import adaptive_segments
from diskrot.winding import ALL

STEP = TwistStep(center=(0.2, 0.1), amp=1.1, inner=0.3, outer=0.6)
# the step alone as a conjugacy: its map, Jacobian and S are the step's
ONE = ConjugacyMap((STEP,), repeats=1)


def _g(name="twist-a"):
    return ConjugacyMap.from_named(name)


def test_twist_step_identity_outside_annulus():
    pts = np.array([[0.2, 0.1], [0.25, 0.1], [0.2 + 0.7, 0.1], [0.95, 0.0]])
    assert np.max(np.abs(ONE.forward(pts) - pts)) == 0.0
    J = ONE.jac_forward(pts)
    assert np.max(np.abs(J - np.eye(2))) == 0.0


def test_twist_step_unit_jacobian_determinant():
    rng = np.random.default_rng(0)
    pts = uniform_disk(rng, 500, 0.95)
    det = np.linalg.det(ONE.jac_forward(pts, scale=0.7))
    assert np.max(np.abs(det - 1.0)) < 1e-12


def test_twist_step_jacobian_matches_finite_differences():
    rng = np.random.default_rng(1)
    pts = np.array([0.2, 0.1]) + 0.42 * _unit(rng, 30)
    J = ONE.jac_forward(pts)
    h = 1e-6
    for axis, e in enumerate(np.eye(2)):
        fd = (ONE.forward(pts + h * e) - ONE.forward(pts - h * e)) / (2 * h)
        assert np.max(np.abs(J[:, :, axis] - fd)) < 1e-7


def _unit(rng, n):
    t = TWOPI * rng.random(n)
    return np.column_stack([np.cos(t), np.sin(t)])


def test_twist_step_generating_differential():
    # dS = f*beta - beta, checked against central differences of S
    rng = np.random.default_rng(2)
    pts = np.array([0.2, 0.1]) + (0.35 + 0.2 * rng.random(40))[:, None] * _unit(
        rng, 40
    )
    dirs = _unit(rng, 40)
    h = 1e-5
    fd = (ONE.generating(pts + h * dirs) - ONE.generating(pts - h * dirs)) / (2 * h)
    f = ONE.forward(pts)
    Jv = (ONE.jac_forward(pts) @ dirs[..., None])[..., 0]

    def beta(z, v):
        return (z[:, 0] * v[:, 1] - z[:, 1] * v[:, 0]) / TWOPI

    defect = beta(f, Jv) - beta(pts, dirs)
    # central differences carry O(h^2) truncation against the steep bump
    assert np.max(np.abs(fd - defect)) < 5e-6


# The twist-step formulas evaluated at every point, without the window:
# the reference the kernels must match bit for bit (the ramp turns to
# roundoff, since a fixed point's c + (p - c) may differ from p by an ulp).


def _rho(w):
    """|w| as the kernels read it: the root of the squared offset that
    their window test computes."""
    return np.sqrt(w[..., 0] * w[..., 0] + w[..., 1] * w[..., 1])


def _ref_apply(st, pts, scale):
    c = np.asarray(st.center)
    w = pts - c
    psi = scale * st.angle(_rho(w))
    out = pts.copy()
    m = psi != 0.0
    out[m] = c + rotate(w[m], psi[m])
    return out


def _ref_jac(st, pts, scale):
    w = pts - np.asarray(st.center)
    rho = _rho(w)
    scale = np.broadcast_to(scale, rho.shape)
    psi = scale * st.angle(rho)
    J = np.broadcast_to(np.eye(2), rho.shape + (2, 2)).copy()
    m = psi != 0.0
    wm, pm = w[m], psi[m]
    Jm = rotation_matrices(pm)
    k = scale[m] * st.dangle(rho[m]) / rho[m]
    rw = rot90(rotate(wm, pm))
    Jm += rw[..., :, None] * (k[..., None, None] * wm[..., None, :])
    J[m] = Jm
    return J


def _ref_generating(st, pts, scale):
    c = np.asarray(st.center)
    w = pts - c
    rho = _rho(w)
    psi = scale * st.angle(rho)
    s1 = np.sinc(psi / np.pi)
    s2 = 0.5 * psi * np.sinc(0.5 * psi / np.pi) ** 2
    mw = s1[..., None] * w + s2[..., None] * rot90(w)
    circ = rho * rho + (mw[..., 0] * c[0] + mw[..., 1] * c[1])
    return psi * circ / TWOPI - st.potential(rho, scale) / np.pi


def uncropped(g, name, pts, scale=1.0):
    """ConjugacyMap.<name>(pts, scale) with every sub-step evaluated at
    every point."""
    inverse = name in ("inverse", "jac_inverse")
    s = (-scale if inverse else scale) / g.repeats
    J = np.broadcast_to(np.eye(2), pts.shape[:-1] + (2, 2)).copy()
    S = np.zeros(pts.shape[:-1])
    for st in g._sequence(inverse):
        J = _ref_jac(st, pts, s) @ J
        S = S + _ref_generating(st, pts, s)
        pts = _ref_apply(st, pts, s)
    return J if name.startswith("jac") else S if name == "generating" else pts


class Concatenation(Isotopy):
    """n copies of a base isotopy run one after another over [0, 1]: the
    reference isotopy of f^n that the action and winding cocycles are
    checked against.  eval takes a scalar time or one time per point, jac
    and velocity a scalar time."""

    def __init__(self, base, n):
        self.base, self.n = base, n
        self.domain_radius = base.domain_radius

    def _split(self, t, pts):
        """(f^k(pts), sigma, orbit): each point's iterate k < n at time t,
        the local time sigma within it, and the orbit up to the last k."""
        s = np.asarray(t, dtype=float) * self.n
        k = np.minimum(np.floor(s).astype(int), self.n - 1)
        orbit = self.base.orbit(pts, int(k.max()) + 1)
        start = orbit[k] if k.ndim == 0 else orbit[k, np.arange(k.size)]
        return start, s - k, orbit

    def eval(self, t, pts):
        start, sigma, _ = self._split(t, pts)
        return self.base.eval(sigma, start)

    def jac(self, t, pts):
        start, sigma, orbit = self._split(t, pts)
        J = self.base.jac(sigma, start)
        for z in orbit[-2::-1]:
            J = J @ self.base.jac(1.0, z)
        return J

    def velocity(self, t, pts):
        start, sigma, _ = self._split(t, pts)
        return self.n * self.base.velocity(sigma, start)


def _ref_pair_turn(st, p, q, scale):
    c = complex(*st.center)
    ra, rb = np.abs(p - c), np.abs(q - c)
    pa, pb = scale * st.angle(ra), scale * st.angle(rb)
    # the points move by g's own formula
    p1, q1 = (_ref_apply(st, np.column_stack([z.real, z.imag]), scale) @ (1, 1j) for z in (p, q))
    far = np.where(ra > rb, pa, pb)
    return p1, q1, far + wrap_to_pi(np.angle(q1 - p1) - np.angle(q - p) - far)


def _ref_tangent_turn(st, p, v, scale):
    pts = np.column_stack([p.real, p.imag])
    w = pts - np.asarray(st.center)
    rho = _rho(w)
    psi = scale * st.angle(rho)
    k = np.zeros_like(rho)
    np.divide(scale * st.dangle(rho), rho, out=k, where=rho > 0)
    x, y = w[:, 0], w[:, 1]
    sheared = v + k * (x * v.real + y * v.imag) * (-y + 1j * x)
    c, s = np.cos(psi), np.sin(psi)
    turned = (c * sheared.real - s * sheared.imag) + 1j * (s * sheared.real + c * sheared.imag)
    # the base point moves by g's own formula
    p1 = _ref_apply(st, pts, scale) @ (1, 1j)
    return p1, turned, psi + wrap_to_pi(np.angle(sheared) - np.angle(v))


def _ref_ramped(g, turn_of, P, V):
    p, v = P[:, 0] + 1j * P[:, 1], V[:, 0] + 1j * V[:, 1]
    turn = np.zeros(len(p))
    for st in g._sequence():
        p, v, dt = turn_of(st, p, v, 1.0 / g.repeats)
        turn += dt
    return turn / TWOPI


def _window_edges(g, rng, count=64):
    """Points on and just off each sub-step's annulus circles, in its 1e-9
    window margin (outside the annulus, or inside it where the bump
    underflows to 0), its center, the origin and points outside the
    support."""
    out = [np.zeros((1, 2)), np.array([[1.0, 0.0], [0.0, -0.999], [0.7, 0.7]])]
    for st in g.steps:
        c = np.asarray(st.center)
        out.append(c[None])
        for r in (st.inner, st.outer):
            for f in (1.0, 1 - 5e-10, 1 + 5e-10, 1 + 1e-6, 1 - 1e-6, 1 + 1e-3):
                t = TWOPI * rng.random(count)
                # rounded: a point computed as c + d has c + (p - c) = p
                u = np.column_stack([np.cos(t), np.sin(t)])
                out.append(np.round(c + r * f * u, 13))
    return np.concatenate(out)


def _moved_by_a_write_back(st, pts):
    """The points within the window margin of a step's circles, which the
    step fixes but a write-back c + (p - c) would move."""
    c = np.asarray(st.center)
    rho = np.hypot(*(pts - c).T)
    edge = np.minimum(abs(rho / st.inner - 1.0), abs(rho / st.outer - 1.0)) < 1e-9
    return edge & (st.angle(rho) == 0.0) & np.any(c + (pts - c) != pts, axis=-1)


def _kernel(g, name):
    """g's evaluator `name`, where jac_inverse is the Jacobian of the
    inverse walk, which `ConjugatedRotation._unwalk` runs."""
    if name == "jac_inverse":
        return lambda pts, s=1.0: g._walk(pts, s, inverse=True, jac=True)[1]
    return getattr(g, name)


GS = {
    "twist-a": ConjugacyMap.from_named("twist-a"),
    "twist-b-3": ConjugacyMap.from_named("twist-b", repeats=3, support_radius=0.6),
    "twist-c-1": ConjugacyMap.from_named("twist-c", repeats=1, support_radius=0.95),
}


@pytest.mark.parametrize("g", sorted(GS))
def test_culled_kernels_match_the_uncropped_formulas_bit_for_bit(g):
    g = GS[g]
    rng = np.random.default_rng(14)
    pts = np.concatenate([_window_edges(g, rng), uniform_disk(rng, 2000, 1.0)])
    assert all(_moved_by_a_write_back(st, pts).sum() > 10 for st in g.steps)
    per_entry = rng.random(len(pts))
    per_entry[:3] = 0.0  # the deformed variant at t = 0
    for name in ("forward", "inverse", "jac_forward", "jac_inverse", "generating"):
        for scale in (1.0, 0.37, per_entry):
            got, want = _kernel(g, name)(pts, scale), uncropped(g, name, pts, scale)
            assert np.array_equal(got, want), (name, np.ndim(scale))
            assert np.array_equal(np.signbit(got), np.signbit(want)), name
        grid = pts[:600].reshape(3, 200, 2)  # a column of times' batch
        assert np.array_equal(_kernel(g, name)(grid), uncropped(g, name, grid))
        for p in pts[::97]:  # single points (2,)
            assert np.array_equal(_kernel(g, name)(p, 0.6), uncropped(g, name, p, 0.6))


ORACLE_GS = {**{n: _g(n) for n in ("twist-a", "twist-b", "twist-c")}, "twist-b-3": GS["twist-b-3"]}
ORACLE_STEPS = {f"{n}-{i}": st for n, g in ORACLE_GS.items() for i, st in enumerate(g.steps)}


@pytest.mark.parametrize("step", sorted(ORACLE_STEPS))
def test_potential_is_the_integral_of_the_angular_speed(step):
    # H(rho) = integral of angle(r) r dr over [inner, rho] against adaptive
    # Gauss-Legendre integrals: at the table's nodes (the window edges among
    # them) within 1e-12, and halfway between them within h^2/8 max|(angle r)'|,
    # the bound of linear interpolation on cells of width h
    st = ORACLE_STEPS[step]
    mid, half = 0.5 * (st.inner + st.outer), 0.5 * (st.outer - st.inner)
    k = np.linspace(0, _CELLS, 100).round()
    nodes = mid + half * (k / (_CELLS / 2) - 1.0)
    nodes[[0, -1]] = st.inner, st.outer
    between = mid + half * ((k[:-1] + 0.5) / (_CELLS / 2) - 1.0)
    rho = np.sort(np.concatenate([nodes, between]))
    a, width = rho[:-1], np.diff(rho)

    def speed(s, idx):
        r = a[idx] + width[idx] * s
        return width[idx] * st.angle(r) * r

    pieces, _ = adaptive_segments(speed, len(a), 1e-15)
    err = np.abs(st.potential(rho) - np.concatenate([[0.0], np.cumsum(pieces)]))
    on_node = np.isin(rho, nodes)
    assert err[on_node].max() < 1e-12
    r = np.linspace(st.inner, st.outer, 100001)
    slope = np.abs(st.dangle(r) * r + st.angle(r)).max()
    assert err[~on_node].max() < (2 * half / _CELLS) ** 2 / 8 * slope + 1e-12
    # zero within the inner circle; from the outer one on, the constant S
    # that the kernel writes beyond its window
    assert np.all(st.potential(np.array([0.0, 0.5 * st.inner, st.inner])) == 0.0)
    beyond = st.outer * np.array([1.0, 1.0 + 1e-6, 1.5, 3.0])
    t = np.linspace(0.0, TWOPI, 4, endpoint=False)
    px, py = st.center[0] + 2 * st.outer * np.cos(t), st.center[1] + 2 * st.outer * np.sin(t)
    for scale in (1.0, 0.37, np.array([0.2, 0.5, 1.0, 0.8])):
        _, S = st._move(px.copy(), py.copy(), scale, gen=True)
        assert np.array_equal(S, -(st.potential(beyond, scale) / np.pi))


def test_bump_equals_the_masked_formula_bit_for_bit():
    # exp(1 - 1/(1 - xi^2)) evaluated inside (-1, 1) only and +0 elsewhere;
    # the kernel's clipped denominator gives the same bits, sign bits
    # included, and neither divides by zero nor overflows
    def masked(xi):
        out = np.zeros_like(xi)
        inside = np.abs(xi) < 1.0
        u = xi[inside]
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - u * u))
        return out

    ulp = [np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)]
    edges = np.array([1.0, -1.0, 0.0, -0.0] + ulp + [-u for u in ulp])
    rng = np.random.default_rng(32)
    x4 = np.polynomial.legendre.leggauss(4)[0]
    # the first and last (2048, 4) node blocks of the bump-moment table
    tables = [
        (np.arange(s, s + 2048)[:, None] + 0.5 * (x4 + 1.0)) * (2.0 / _CELLS) - 1.0
        for s in (0, _CELLS - 2048)
    ]
    wide = [rng.uniform(-1.5, 1.5, 100000), rng.uniform(-1e3, 1e3, 10000) * rng.random(10000)]
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        for xi in [edges, *wide, *tables]:
            got, want = _bump(xi), masked(xi)
            assert got.shape == xi.shape
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    assert np.array_equal(_bump(edges), [0.0, 0.0, 1.0, 1.0] + [0.0] * 4)


def test_step_potentials_share_one_table():
    # potentials of a new step geometry allocate no table of their own
    steps = [
        TwistStep((0.01 * i, -0.02 * i), amp=1.0, inner=0.3 + 0.01 * i, outer=0.6 + 0.005 * i)
        for i in range(10)
    ]
    rho = np.linspace(0.2, 0.7, 100)
    steps[0].potential(rho)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for st in steps[1:]:
            st.potential(rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < 64 * 1024


def test_conjugacy_kernels_of_a_batch_equal_one_point_at_a_time():
    # a BLAS product in a kernel would make a point's last bits depend on
    # its place in the batch (S of about 4% of the points did before the
    # dot with the center was written out)
    g = _g("twist-b")
    pts = uniform_disk(np.random.default_rng(18), 300, 1.0)
    for name in ("forward", "inverse", "jac_forward", "jac_inverse", "generating"):
        batch = _kernel(g, name)(pts, 0.6)
        single = np.array([_kernel(g, name)(p[None], 0.6)[0] for p in pts])
        assert np.array_equal(batch, single), name


def test_each_sub_step_finds_its_window_once(monkeypatch):
    # the image, the Jacobian and S of a sub-step share one window
    calls = []
    window = TwistStep._window

    def counted(self, *args):
        calls.append(args[0].shape)
        return window(self, *args)

    monkeypatch.setattr(TwistStep, "_window", counted)
    g = GS["twist-b-3"]
    pts = uniform_disk(np.random.default_rng(19), 500, 1.0)
    for name in ("forward", "inverse", "jac_forward", "jac_inverse", "generating"):
        calls.clear()
        _kernel(g, name)(pts, 0.6)
        assert calls == [(500,)] * len(g._sequence()), name


@pytest.mark.parametrize("deform", [False, True], ids=["plain", "deformed"])
def test_conjugated_jacobian_equals_the_separate_walks(deform):
    # jac takes the g^{-1} images from the walk of the inverse Jacobian
    g = GS["twist-b-3"]
    iso = ConjugatedRotation(GOLDEN, g, deform=deform)
    pts = uniform_disk(np.random.default_rng(20), 400, 1.0)
    for t in (0.0, 0.3, 1.0):
        s = t if deform else 1.0
        angle = TWOPI * t * GOLDEN
        Ji, w = g._walk(pts, s, inverse=True, jac=True)[1], g.inverse(pts, s)
        Jf = g.jac_forward(rotate(w, angle), s)
        want = Jf @ rotation_matrices(angle, shape=(400,)) @ Ji
        assert np.array_equal(iso.jac(t, pts), want), t


def test_ramp_turns_leave_fixed_pairs_and_base_points_alone():
    rng = np.random.default_rng(16)
    g = ONE
    pts = _window_edges(g, rng, count=100)
    fixed = pts[_moved_by_a_write_back(STEP, pts)]
    zf = fixed @ (1.0, 1j)
    n = len(zf)
    # a fixed point's chain keeps its bits, whatever it is paired with
    z, psi, _ = g._chain(fixed)
    assert np.array_equal(z[1], zf) and not psi[0].any()
    assert np.array_equal(g.ramp_winding(fixed, np.roll(fixed, 1, axis=0)), np.zeros(n))
    # a fixed point paired with a moving one: the separation turns as the
    # moving point's image alone says
    moving = np.array([0.2 + 0.45, 0.1])
    c, q = complex(*STEP.center), complex(*moving)
    psi_q = STEP.angle(abs(q - c))
    q1 = c + (q - c) * np.exp(1j * psi_q)
    far = np.where(abs(zf - c) ** 2 > abs(q - c) ** 2, 0.0, psi_q)
    turn = far + wrap_to_pi(np.angle(q1 - zf) - np.angle(q - zf) - far)
    got = g.ramp_winding(fixed, moving)
    assert np.all(got != 0.0)
    assert np.max(np.abs(got - turn / TWOPI)) < 1e-15
    # a fixed base point's tangent vectors do not turn
    t = TWOPI * rng.random(n)
    V = np.column_stack([np.cos(t), np.sin(t)])
    assert np.array_equal(g.ramp_tangent_winding(fixed, V), np.zeros(n))


@pytest.mark.parametrize("g", sorted(GS))
def test_chain_positions_are_the_walks_own(g):
    # each recorded position is the image of the walk of `_move` so far,
    # the last one `forward`'s, sign bits included; psi is the step's angle
    # of the point's distance to its center, 0 off the annulus
    g = GS[g]
    rng = np.random.default_rng(22)
    pts = np.concatenate([_window_edges(g, rng), uniform_disk(rng, 2000, 1.0)])
    z, psi, d2 = g._chain(pts)
    chain = np.stack([z.real, z.imag], axis=-1)

    def same(a, b):
        return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))

    px, py = pts[:, 0].copy(), pts[:, 1].copy()
    assert same(chain[0], pts)
    for k, st in enumerate(g._sequence()):
        x, y = px - st.center[0], py - st.center[1]
        assert np.array_equal(d2[k], x * x + y * y), k
        assert np.array_equal(psi[k], (1.0 / g.repeats) * st.angle(np.sqrt(x * x + y * y))), k
        st._move(px, py, 1.0 / g.repeats)
        assert same(chain[k + 1], np.column_stack([px, py])), k
    assert same(chain[-1], g.forward(pts))


@pytest.mark.parametrize("g", sorted(GS))
def test_ramp_winding_pairs_each_points_chain_bit_for_bit(g):
    # a point's sub-step images do not depend on its partner, so the
    # broadcast pairs equal the same pairs written out one to one; 90 x 100
    # pairs span two tiles of pairs, and the window edges hold points that
    # the sub-steps fix next to points that they move
    g = GS[g]
    rng = np.random.default_rng(21)
    edges = _window_edges(g, rng, count=4)
    P = np.concatenate([edges[::2][:40], uniform_disk(rng, 50, 0.97)])
    Q = np.concatenate([edges[1::2][:40], uniform_disk(rng, 60, 0.97)])
    n, m = len(P), len(Q)
    grid = g.ramp_winding(P[:, None], Q[None, :])
    pairs = g.ramp_winding(np.repeat(P, m, axis=0), np.tile(Q, (n, 1)))
    assert grid.shape == (90, 100)
    assert np.array_equal(grid.ravel(), pairs)
    for i in (0, 45, 89):  # one point against many
        assert np.array_equal(g.ramp_winding(P[i], Q), grid[i])
        assert np.array_equal(g.ramp_winding(P[i], Q[7]), grid[i, 7])
    # rows longer than a tile are tiled along the row
    wide = np.concatenate([Q, uniform_disk(rng, 9000, 0.97)])
    rows = g.ramp_winding(P[:2, None], wide[None, :])
    assert np.array_equal(rows, [g.ramp_winding(P[0], wide), g.ramp_winding(P[1], wide)])
    assert np.array_equal(rows[:, :m], grid[:2])


@pytest.mark.parametrize("name", ["twist-a", "twist-b", "twist-c"])
def test_ramp_windings_match_the_uncropped_turns(name):
    g = _g(name)
    rng = np.random.default_rng(17)
    P, Q, V = (uniform_disk(rng, 4000, 0.97) for _ in range(3))
    ramp = _ref_ramped(g, _ref_pair_turn, P, Q)
    assert np.max(np.abs(g.ramp_winding(P, Q) - ramp)) < 1e-14
    # the base points move bit for bit as the kernel moves them; the
    # tangents differ only in how the Jacobian's product is rounded
    tangent = _ref_ramped(g, _ref_tangent_turn, P, V)
    assert np.max(np.abs(g.ramp_tangent_winding(P, V) - tangent)) < 1e-14


LEAF_FAMILIES = {
    **{n: ConjugatedRotation(GOLDEN, g) for n, g in GS.items()},
    "plane-twist-a": PlaneExtension(GOLDEN, GOLDEN + 0.3, core=ConjugatedRotation(GOLDEN, GS["twist-a"])),
}


@pytest.mark.parametrize("family", sorted(LEAF_FAMILIES))
def test_fused_leaf_angles_follow_the_pair_rule(family):
    # the two routes to D: leaf_angles carries theta(w) + 2 pi t p through
    # g's sub-steps with `_move`'s turn accumulator, which adds
    # 2 pi D(0, T_p^t w), and ramp_winding reads D pair by pair; so
    # theta(f_t z) - theta(z) = 2 pi [t p + D(0, T_p^t w) - D(0, w)]
    iso = LEAF_FAMILIES[family]
    rng = np.random.default_rng(23)
    pts = uniform_disk(rng, 1000, 0.98 * iso.domain_radius)
    w = iso.g.inverse(pts)
    p = iso.alpha + iso._band(w)
    D0 = iso.g.ramp_winding(np.zeros(2), w)
    angles, _ = iso.leaf_angles(pts)
    start = angles(0.0, ALL)
    assert np.max(np.abs(start - (angles_of(w) + TWOPI * D0))) < 1e-13
    for t in (0.3, 1.0, 2.7):
        D = iso.g.ramp_winding(np.zeros(2), rotate(w, TWOPI * t * p))
        assert np.max(np.abs(angles(t, ALL) - start - TWOPI * (t * p + D - D0))) < 1e-13, t


@pytest.mark.parametrize("family", sorted(LEAF_FAMILIES))
def test_fused_leaf_angles_equal_a_walk_of_the_kernel_bit_for_bit(family):
    # the leaf closure splits T_p^t w itself and walks only the turns: the
    # same bits as `_move` walked over `_split(rotate(w, a))`, for a column
    # of times against every point and for one time per entry
    iso = LEAF_FAMILIES[family]
    g, rng = iso.g, np.random.default_rng(24)
    pts = uniform_disk(rng, 600, 0.98 * iso.domain_radius)
    w = g.inverse(pts)
    p = iso.alpha + iso._band(w)
    angles, _ = iso.leaf_angles(pts)

    def walked(t, idx):
        a = TWOPI * t * (p[idx] if np.ndim(p) else p)
        turn = angles_of(w)[idx] + a
        px, py, _ = _split(rotate(np.broadcast_to(w[idx], turn.shape + (2,)), a))
        for st in g._sequence():
            st._move(px, py, 1.0 / g.repeats, turn=turn.reshape(-1))
        return turn

    idx = rng.permutation(len(pts))[:250]
    column = np.array([[0.0], [0.3], [1.0], [2.7]])
    for t, i in ((column, ALL), (column, idx), (rng.uniform(0.0, 3.0, 250), idx), (0.7, idx[:40])):
        got, want = angles(t, i), walked(t, i)
        assert got.shape == want.shape == np.broadcast_shapes(np.shape(t), (len(pts[i]),))
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_conjugacy_inverse_is_exact():
    g = _g()
    rng = np.random.default_rng(3)
    pts = uniform_disk(rng, 2000, 0.99)
    assert np.max(np.abs(g.inverse(g.forward(pts)) - pts)) < 1e-12
    assert np.max(np.abs(g.forward(g.inverse(pts)) - pts)) < 1e-12


def test_conjugacy_jacobians_unit_determinant_and_inverse():
    g = _g("twist-b")
    rng = np.random.default_rng(4)
    pts = uniform_disk(rng, 300, 0.95)
    Jf = g.jac_forward(pts)
    assert np.max(np.abs(np.linalg.det(Jf) - 1.0)) < 1e-11
    Ji = g._walk(g.forward(pts), 1.0, inverse=True, jac=True)[1]
    assert np.max(np.abs(Ji @ Jf - np.eye(2))) < 1e-10


def test_conjugacy_generating_accumulates_the_composition():
    # S of the composition, checked against the one-step differential rule
    g = _g()
    rng = np.random.default_rng(5)
    pts = uniform_disk(rng, 60, 0.8)
    dirs = _unit(rng, 60)
    h = 1e-5
    fd = (g.generating(pts + h * dirs) - g.generating(pts - h * dirs)) / (2 * h)
    f = g.forward(pts)
    Jv = (g.jac_forward(pts) @ dirs[..., None])[..., 0]
    defect = (f[:, 0] * Jv[:, 1] - f[:, 1] * Jv[:, 0]) / TWOPI - (
        pts[:, 0] * dirs[:, 1] - pts[:, 1] * dirs[:, 0]
    ) / TWOPI
    assert np.max(np.abs(fd - defect)) < 5e-6


def test_conjugacy_fixes_origin_and_boundary():
    g = _g("twist-c")
    assert np.max(np.abs(g.forward(np.zeros((1, 2))))) == 0.0
    t = np.linspace(0.0, TWOPI, 50)
    circle = np.column_stack([np.cos(t), np.sin(t)])
    assert np.max(np.abs(g.forward(circle) - circle)) == 0.0


def test_conjugated_rotation_is_conjugate_to_rigid():
    g = _g()
    iso = ConjugatedRotation(GOLDEN, g)
    rng = np.random.default_rng(6)
    pts = uniform_disk(rng, 200, 0.95)
    direct = g.forward(rotate(g.inverse(pts), TWOPI * GOLDEN))
    assert np.max(np.abs(iso.map(pts) - direct)) < 1e-12
    det = np.linalg.det(iso.jac(1.0, pts))
    assert np.max(np.abs(det - 1.0)) < 1e-10


def test_conjugated_rotation_boundary_restriction_is_rigid():
    iso = ConjugatedRotation(GOLDEN, _g("twist-b"))
    t = np.linspace(0.0, TWOPI, 40)
    circle = np.column_stack([np.cos(t), np.sin(t)])
    for s in (0.25, 0.6, 1.0):
        assert np.max(
            np.abs(iso.eval(s, circle) - rotate(circle, TWOPI * s * GOLDEN))
        ) < 1e-12


def test_conjugated_velocity_matches_finite_time_differences():
    iso = ConjugatedRotation(GOLDEN, _g())
    rng = np.random.default_rng(7)
    pts = uniform_disk(rng, 50, 0.9)
    h = 1e-6
    for t in (0.2, 0.8):
        fd = (iso.eval(t + h, pts) - iso.eval(t - h, pts)) / (2 * h)
        assert np.max(np.abs(iso.velocity(t, pts) - fd)) < 1e-6


def test_deformed_isotopy_shares_the_time_one_map():
    g = _g()
    iso = ConjugatedRotation(GOLDEN, g)
    alt = ConjugatedRotation(GOLDEN, g, deform=True)
    rng = np.random.default_rng(8)
    pts = uniform_disk(rng, 100, 0.95)
    assert np.max(np.abs(iso.map(pts) - alt.map(pts))) < 1e-12
    assert np.max(np.abs(alt.eval(0.0, pts) - pts)) == 0.0


def test_deformed_jacobian_matches_central_differences_past_time_one():
    # past t = 1 the ramp restarts from f^k z, and the Jacobian follows it
    alt = ConjugatedRotation(GOLDEN, _g(), deform=True)
    pts = np.array([[0.4, 0.3], [-0.5, 0.2], [0.1, -0.6]])
    h = 1e-6
    for t in (0.5, 1.5, 2.25):
        fd = np.stack(
            [(alt.eval(t, pts + h * e) - alt.eval(t, pts - h * e)) / (2 * h) for e in np.eye(2)],
            axis=-1,
        )
        assert np.max(np.abs(alt.jac(t, pts) - fd)) < 1e-6, t
    # per-entry times on both sides of t = 1 give the single-time values
    ts = np.array([0.5, 1.5, 2.25])
    want = np.stack([alt.jac(t, p) for t, p in zip(ts, pts)])
    assert np.max(np.abs(alt.jac(ts, pts) - want)) < 1e-13


def test_closed_form_orbit_starts_with_the_point_and_its_image():
    g = _g()
    iso = ConjugatedRotation(GOLDEN, g)
    alt = ConjugatedRotation(GOLDEN, g, deform=True)
    pts = uniform_disk(np.random.default_rng(11), 30, 0.95)
    for p in (pts[0], pts):
        orbit = iso.orbit(p, 40)
        assert orbit.shape == (40,) + p.shape
        assert np.array_equal(orbit[0], p)
        assert np.array_equal(orbit[1], iso.map(p))
        assert np.array_equal(alt.orbit(p, 40), orbit)


def test_closed_form_orbit_follows_the_map_without_drift():
    iso = ConjugatedRotation(GOLDEN, _g())
    pts = uniform_disk(np.random.default_rng(12), 200, 0.97)
    orbit = iso.orbit(pts, 4096)
    # the exact reduction of k*alpha mod 1 keeps every step at one rounding
    assert np.max(np.abs(iso.map(orbit[:-1]) - orbit[1:])) < 1e-12
    assert np.max(np.abs(Isotopy.orbit(iso, pts, 4096) - orbit)) < 1e-9


def test_closed_form_orbit_makes_one_conjugacy_pass(monkeypatch):
    calls = {"inverse": 0, "forward": 0}
    for name in calls:
        method = getattr(ConjugacyMap, name)

        def counted(self, *args, _name=name, _method=method, **kwargs):
            calls[_name] += 1
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(ConjugacyMap, name, counted)
    iso = ConjugatedRotation(GOLDEN, _g())
    iso.orbit(uniform_disk(np.random.default_rng(13), 5), 64)
    assert calls == {"inverse": 1, "forward": 1}


def test_plane_extension_profile_bands():
    iso = PlaneExtension(GOLDEN, 0.75)
    r = np.array([0.2, 1.0, 1.05, 1.0 + 0.75 - GOLDEN, 1.2])
    pts = np.column_stack([r, np.zeros(5)])
    prof = GOLDEN + iso._band(pts)
    assert prof[0] == GOLDEN and prof[1] == GOLDEN
    assert abs(prof[2] - (GOLDEN + 0.05)) < 1e-15
    assert prof[3] == 0.75 and prof[4] == 0.75
    # T_p^3 turns each point about the fixed origin by 3 p(r)
    (w,), _ = displacements(iso, pts, (3,))
    assert np.max(np.abs(w - 3 * prof)) < 1e-12


# planes without a core and with a twist-a core: p bends at r = 1 and at
# R = 1 + beta - alpha
PLANES = {
    f"{beta}{'-cored' if core else ''}": PlaneExtension(
        GOLDEN, beta, core=ConjugatedRotation(GOLDEN, _g()) if core else None
    )
    for beta in (0.75, 0.9)
    for core in (False, True)
}


def plane_points(iso, rng, count):
    """count points whose radii spread over [0, 1.1 R], four of them just
    inside and just outside r = 1 and r = R."""
    R = iso.domain_radius
    edges = [1.0 - 1e-3, 1.0 + 1e-3, R - 1e-3, R + 1e-3]
    r = np.concatenate([edges, 1.1 * R * np.sqrt(rng.random(count - 4))])
    return r[:, None] * _unit(rng, count)


def test_every_family_answers_the_closed_form_hooks():
    # the deformed variant tracks its windings, and shares the action; the
    # points spread over each domain, and x, y are the two farthest out,
    # on a plane's band at different radii
    families = [RigidRotation(GOLDEN), ConjugatedRotation(GOLDEN, _g()), *PLANES.values(),
                PlaneExtension(GOLDEN, 0.9, core=RigidRotation(GOLDEN))]
    for iso in families:
        pts = uniform_disk(np.random.default_rng(12), 20, 0.95 * iso.domain_radius)
        x, y = pts[np.argsort(np.hypot(*pts.T))[-2:]]
        alt = ConjugatedRotation(iso.alpha, iso.g, deform=True, beta=iso.beta)
        windings = (
            lambda f: f.windings_closed_form(pts[:10], pts[10:], (1, 2)),
            lambda f: f.tangent_windings_closed_form(x, np.eye(2)),
            lambda f: f.linking_closed_form(x[None], y[None], (1, 4)),
        )
        for hook in windings:
            assert hook(iso) is not None and hook(alt) is None
        assert np.array_equal(alt.action_closed_form(pts, 2), iso.action_closed_form(pts, 2))


def test_plane_extension_needs_wider_interval():
    with pytest.raises(BadInterval):
        PlaneExtension(GOLDEN, 0.5)


PER_ENTRY_FAMILIES = {
    "rigid": lambda: RigidRotation(GOLDEN),
    "conjugated": lambda: ConjugatedRotation(GOLDEN, _g()),
    "deformed": lambda: ConjugatedRotation(GOLDEN, _g(), deform=True),
    "plane-extension": lambda: PlaneExtension(
        GOLDEN, GOLDEN + 0.3, core=ConjugatedRotation(GOLDEN, _g())
    ),
    "plane-extension-rigid": lambda: PlaneExtension(GOLDEN, GOLDEN + 0.3),
}


@pytest.mark.parametrize("family", sorted(PER_ENTRY_FAMILIES))
def test_per_entry_times_match_scalar_calls(family):
    iso = PER_ENTRY_FAMILIES[family]()
    rng = np.random.default_rng(7)
    pts = uniform_disk(rng, 40, 0.98 * iso.domain_radius)
    t = rng.random(40)
    t[:3] = (0.0, 1.0 / 3.0, 1.0)
    ev = np.stack([iso.eval(ti, p[None])[0] for ti, p in zip(t, pts)])
    jac = np.stack([iso.jac(ti, p[None])[0] for ti, p in zip(t, pts)])
    assert np.array_equal(iso.eval(t, pts), ev)
    assert np.array_equal(iso.jac(t, pts), jac)


# the families whose orbit tracks are tracked: the deformed variant, alone
# or as a plane's core
TRACKED_FAMILIES = {
    "deformed": PER_ENTRY_FAMILIES["deformed"],
    "plane-extension-deformed": lambda: PlaneExtension(
        GOLDEN, GOLDEN + 0.3, core=ConjugatedRotation(GOLDEN, _g(), deform=True)
    ),
}


@pytest.mark.parametrize("family", sorted({**PER_ENTRY_FAMILIES, **TRACKED_FAMILIES}))
def test_eval_column_of_times_matches_per_time_calls(family):
    # times past 1, where the deformed ramp restarts from f^k z, several k
    # in one column
    iso = {**PER_ENTRY_FAMILIES, **TRACKED_FAMILIES}[family]()
    rng = np.random.default_rng(12)
    pts = uniform_disk(rng, 40, 0.98 * iso.domain_radius)
    times = np.concatenate([[0.0, 1.0 / 3.0, 1.0, 2.0, 2.5], 3.0 * rng.random(14)])[:, None]
    for batch in (pts, pts[rng.integers(0, 40, 25)]):
        col = iso.eval(times, batch)
        assert col.shape == (19, len(batch), 2)
        assert np.array_equal(col, np.stack([iso.eval(t, batch) for t in times[:, 0]]))


@pytest.mark.parametrize("family", sorted(TRACKED_FAMILIES))
def test_deformed_per_entry_times_past_one_match_scalar_calls(family):
    # entries on either side of t = 1 and at integer times, where the ramp
    # restarts from f^k z with k = floor(t) for the entries past 1 alone
    iso = TRACKED_FAMILIES[family]()
    assert iso.leaf_angles(np.zeros((1, 2))) is None
    rng = np.random.default_rng(9)
    pts = uniform_disk(rng, 40, 0.98 * iso.domain_radius)
    t = 4.0 * rng.random(40)
    t[:6] = (0.0, 0.5, 1.0, 2.0, 2.0, 3.0)
    ev = np.stack([iso.eval(ti, p) for ti, p in zip(t, pts)])
    jac = np.stack([iso.jac(ti, p[None])[0] for ti, p in zip(t, pts)])
    assert np.array_equal(iso.eval(t, pts), ev)
    assert np.array_equal(iso.jac(t, pts), jac)


@pytest.mark.parametrize("family", sorted(set(PER_ENTRY_FAMILIES) - set(TRACKED_FAMILIES)))
def test_leaf_angles_follow_eval(family):
    # the positions are eval's, bit for bit; the angles are lifts of their
    # principal angles, continuous over the grid, one time per entry or a
    # column
    iso = PER_ENTRY_FAMILIES[family]()
    rng = np.random.default_rng(13)
    pts = uniform_disk(rng, 40, 0.98 * iso.domain_radius)
    angles, positions = iso.leaf_angles(pts)
    times = np.linspace(0.0, 3.0, 3 * 256 + 1)
    ang, pos = angles(times[:, None], ALL), positions(times[:, None], ALL)
    assert ang.shape == (len(times), 40)
    assert np.array_equal(pos, iso.eval(times[:, None], pts))
    assert np.max(np.abs(wrap_to_pi(ang - angles_of(pos)))) < 1e-12
    assert np.max(np.abs(np.diff(ang, axis=0))) < 0.5 * np.pi
    idx = rng.integers(0, 40, 25)
    rows = rng.integers(0, len(times), 25)
    assert np.array_equal(angles(times[rows], idx), ang[rows, idx])
    assert np.array_equal(positions(times[rows], idx), pos[rows, idx])


def test_a_step_that_moves_the_origin_is_rejected():
    # the origin inside the annulus, or on its widened inner edge
    for center, inner in (((0.2, 0.0), 0.1), ((0.3, 0.0), 0.3), ((0.3, 0.0), 0.3 + 1e-12)):
        with pytest.raises(OriginMoved):
            ConjugacyMap((STEP, TwistStep(center, 1.0, inner, 0.5)))
    assert issubclass(OriginMoved, DiskrotError)
    # inside the inner circle or beyond the outer one the origin stays put
    for step in (TwistStep((0.2, 0.0), 1.0, 0.25, 0.5), TwistStep((0.6, 0.0), 1.0, 0.1, 0.5)):
        assert np.array_equal(ConjugacyMap((step,)).forward(np.zeros(2)), np.zeros(2))


def test_closed_form_action_is_constant_for_rigid():
    iso = RigidRotation(GOLDEN)
    pts = uniform_disk(np.random.default_rng(10), 20)
    assert np.max(np.abs(iso.action_closed_form(pts, n=4) - 4 * GOLDEN)) == 0.0


def test_named_hamiltonians_fit_in_the_disk():
    for name, steps in HAMILTONIANS.items():
        for d in steps:
            c = np.hypot(*d["center"])
            assert c < d["inner"], name
            assert c + d["outer"] <= 1.0, name


def test_from_config_roundtrip():
    conjugated = {
        "family": "conjugated",
        "alpha": GOLDEN,
        "g": {"hamiltonian": "twist-b", "steps": 3, "support_radius": 0.8},
        "deform": False,
    }
    plane = {"family": "plane-extension", "alpha": GOLDEN, "beta": 0.9}
    configs = [
        conjugated,
        {"family": "rigid", "alpha": GOLDEN / 2},
        plane,
        {**plane, "core": conjugated},
        {**plane, "core": {**conjugated, "deform": True}},
    ]
    rng = np.random.default_rng(11)
    for cfg in configs:
        iso = from_config(cfg)
        assert iso.config() == cfg
        again = from_config(iso.config())
        pts = uniform_disk(rng, 50, 0.98 * iso.domain_radius)
        assert np.array_equal(iso.map(pts), again.map(pts)), cfg["family"]
    # a rigid core loads as no core
    rigid_core = from_config({**plane, "core": {"family": "rigid", "alpha": GOLDEN}})
    assert rigid_core.config() == plane


def test_from_config_schema_pointers():
    cases = [
        ([], ""),
        ({}, "/family"),
        ({"family": "nope"}, "/family"),
        ({"family": "rigid", "alpha": "thirds"}, "/alpha"),
        ({"family": "conjugated", "g": {"steps": 0}}, "/g/steps"),
        ({"family": "conjugated", "g": {"support_radius": 2.0}}, "/g/support_radius"),
        ({"family": "conjugated", "g": {"hamiltonian": "nope"}}, "/g/hamiltonian"),
        ({"family": "plane-extension"}, "/beta"),
        # JSON booleans are not numbers, and strings are not booleans
        ({"family": "rigid", "alpha": True}, "/alpha"),
        ({"family": "conjugated", "g": {"steps": True}}, "/g/steps"),
        ({"family": "conjugated", "g": {"support_radius": True}}, "/g/support_radius"),
        ({"family": "plane-extension", "beta": True}, "/beta"),
        # NaN and infinities are numbers to JSON readers, not rotation numbers
        ({"family": "rigid", "alpha": float("nan")}, "/alpha"),
        ({"family": "plane-extension", "beta": float("inf")}, "/beta"),
        ({"family": "plane-extension", "beta": 10**400}, "/beta"),
        ({"family": "conjugated", "deform": "false"}, "/deform"),
        ({"family": "conjugated", "deform": 0}, "/deform"),
        # a core turns the unit circle by the plane's alpha, and is no plane
        (
            {"family": "plane-extension", "alpha": 0.3, "beta": 0.9,
             "core": {"family": "conjugated", "alpha": "golden"}},
            "/core/alpha",
        ),
        (
            {"family": "plane-extension", "beta": 0.9,
             "core": {"family": "plane-extension", "beta": 0.8}},
            "/core/family",
        ),
    ]
    for cfg, pointer in cases:
        with pytest.raises(SchemaError) as err:
            from_config(cfg)
        assert err.value.pointer == pointer


def test_near_rational_alpha_warns_but_builds():
    with pytest.warns(NearRationalWarning):
        iso = RigidRotation(0.5)
    assert iso.alpha == 0.5
