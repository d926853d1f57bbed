import dataclasses
import math
import re

import numpy as np
import pytest

import oracles
from sqkdsim import analysis
from sqkdsim.attacks import (
    AttackDomainError,
    AttackSpec,
    IsometryError,
    ProbeChannelMap,
    constrained_random_attack,
    general_attack,
    identity_attack,
    load_matrix_file,
    pns_attack,
    tagging_attack,
    usd_attack_b92,
)
from sqkdsim.fock import AMPLITUDE_FLOOR, X, Z, make_basis_state
from sqkdsim.joint import ChannelBasis, JointState
from sqkdsim.protocol import ProtocolConfig, build_b92_tables, build_ca_tables

SQRT2 = math.sqrt(2.0)


def probe_state(index, channel_occ, basis, n_max, probe_dim):
    return JointState.from_product(
        index, make_basis_state(channel_occ, basis, n_max), probe_dim)


class TestIdentity:
    def test_leaves_states_alone(self):
        spec = identity_attack()
        j = probe_state(0, (0, 1), X, 2, 1)
        assert spec.apply_outbound(j) is j
        assert spec.apply_return(j) is j
        assert spec.validate() == 0.0


class TestSplitting:
    def test_two_photons_mode_zero(self):
        spec = pns_attack(n_max=2)
        out = spec.apply_outbound(probe_state(0, (0, 2), Z, 2, 3))
        assert dict(out.items()) == {(1, (0, 1)): pytest.approx(1.0)}

    def test_two_photons_mode_one(self):
        spec = pns_attack(n_max=2)
        out = spec.apply_outbound(probe_state(0, (2, 0), Z, 2, 3))
        assert dict(out.items()) == {(2, (1, 0)): pytest.approx(1.0)}

    def test_one_photon_each_mode(self):
        spec = pns_attack(n_max=2)
        out = spec.apply_outbound(probe_state(0, (1, 1), Z, 2, 3))
        got = dict(out.items())
        assert got[(2, (0, 1))] == pytest.approx(1 / SQRT2)
        assert got[(1, (1, 0))] == pytest.approx(1 / SQRT2)

    def test_other_pulse_sizes_untouched(self):
        spec = pns_attack(n_max=3)
        j = probe_state(0, (0, 3), Z, 3, 3)
        assert dict(spec.apply_outbound(j).items()) == dict(j.items())

    @pytest.mark.parametrize("occ_in,keep,out_occ", [((0, 2), 1, (0, 1)),
                                                     ((2, 0), 2, (1, 0))])
    def test_split_in_rotated_basis(self, occ_in, keep, out_occ):
        # splitting two plus (minus) photons keeps one plus (minus) photon on
        # each side; the probe's own two modes rotate just like the channel
        spec = pns_attack(n_max=2)
        out = spec.apply_outbound(probe_state(0, occ_in, X, 2, 3))
        sign = -1.0 if keep == 2 else 1.0
        expected = {}
        for e, pamp in ((1, 1 / SQRT2), (2, sign / SQRT2)):
            for occ, camp in (((0, 1), 1 / SQRT2), ((1, 0), sign / SQRT2)):
                expected[(e, occ)] = pamp * camp
        got = dict(out.items())
        assert set(got) == set(expected)
        for key, amp in expected.items():
            assert got[key] == pytest.approx(amp, abs=1e-12)

    def test_requires_two_photon_cap(self):
        with pytest.raises(ValueError):
            pns_attack(n_max=1)


class TestTagging:
    def test_outbound_replaces_pulse(self):
        spec = tagging_attack()
        out = spec.apply_outbound(probe_state(0, (0, 1), X, 2, spec.probe_dim))
        # the pulse is swapped into Eve's register; the channel carries the tag
        assert out.occupation_distribution(Z) == {
            (0, 2): pytest.approx(0.5), (2, 0): pytest.approx(0.5)}
        got = dict(out.items())
        assert got[(0, (0, 2))] == pytest.approx(0.5)
        assert got[(1, (2, 0))] == pytest.approx(0.5)

    def test_outbound_accepts_other_source_states(self):
        spec = tagging_attack()
        for occ in ((0, 1), (1, 0), (0, 0)):
            out = spec.apply_outbound(probe_state(0, occ, Z, 2, spec.probe_dim))
            assert out.occupation_distribution(Z) == {
                (0, 2): pytest.approx(0.5), (2, 0): pytest.approx(0.5)}

    def test_return_restores_plus(self):
        spec = tagging_attack()
        out = spec.apply_outbound(probe_state(0, (0, 1), X, 2, spec.probe_dim))
        back = spec.apply_return(out)
        assert back.bob_distribution(X) == {(0, 1): pytest.approx(1.0)}

    def test_return_domain_excludes_single_photons(self):
        spec = tagging_attack()
        with pytest.raises(AttackDomainError):
            spec.apply_return(probe_state(0, (0, 1), Z, 2, spec.probe_dim))

    def test_count_strategy_decodes(self):
        # the whole tag comes back on CTRL, CTRL_MIN_COUNT photons, and
        # one resent photon on SIFT: Eve guesses CTRL (0) and SIFT (1)
        cfg = ProtocolConfig(n_max=2, residual_policy="measure-resend")
        tab, _meta = build_ca_tables(cfg, tagging_attack())
        sift = tab.ret_off[tab.oloss_cum.size]
        assert set(tab.ret_guess[:sift].tolist()) == {0}
        assert set(tab.ret_guess[sift:].tolist()) == {1}

    def test_outbound_keeps_the_probe_it_writes(self):
        # a one-probe pulse comes out as wide as the map, with all its weight
        spec = tagging_attack()
        out = spec.apply_outbound(probe_state(0, (0, 1), X, 2, 1))
        assert out.probe_dim == spec.probe_dim == 3
        assert np.sum(np.abs(out.amps) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_requires_two_photon_cap(self):
        with pytest.raises(ValueError, match="photon cap must be at least 2"):
            tagging_attack(n_max=1)


class TestGeneral:
    def test_identity_matrices_accepted(self):
        dim = 2 * ChannelBasis(2).dim
        eye = np.eye(dim)
        spec = general_attack(eye, eye, probe_dim=2, n_max=2)
        j = probe_state(1, (0, 1), Z, 2, 2)
        assert dict(spec.apply_outbound(j).items()) == dict(j.items())

    def test_random_unitary_accepted(self):
        rng = np.random.default_rng(8)
        dim = 1 * ChannelBasis(2).dim
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        q, _ = np.linalg.qr(m)
        spec = general_attack(q, np.eye(dim), probe_dim=1, n_max=2)
        assert spec.validate() < 1e-10

    def test_non_isometry_rejected_with_deviation(self):
        dim = ChannelBasis(2).dim
        bad = np.eye(dim) * 0.5
        with pytest.raises(IsometryError, match="deviation"):
            general_attack(bad, np.eye(dim), probe_dim=1, n_max=2)

    def test_pns_matches_dense_form_on_two_photon_keys(self):
        channel = ChannelBasis(2)
        spec = pns_attack(n_max=2)
        cols = spec.outbound.D.shape[-1]
        dense = (spec.outbound.M.reshape(-1, cols)
                 @ spec.outbound.D.reshape(-1, cols).conj().T)
        rebuilt = ProbeChannelMap.from_dense(dense, 3, channel)
        for occ in [(0, 2), (2, 0), (1, 1)]:
            j = probe_state(0, occ, Z, 2, 3)
            a = dict(spec.apply_outbound(j).items())
            b = dict(rebuilt.apply(j).items())
            assert set(a) == set(b)
            for key in a:
                assert a[key] == pytest.approx(b[key], abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            general_attack(np.eye(3), np.eye(3), probe_dim=2, n_max=2)

    def test_perturbed_unitary_rejected_with_deviation(self):
        channel = ChannelBasis(4)
        dim = 4 * channel.dim
        q = oracles.haar_unitary(np.random.default_rng(11), dim)
        bad = q.copy()
        bad[3, 5] += 1e-8
        general_attack(q, q, probe_dim=4, n_max=4)
        with pytest.raises(IsometryError, match="deviation"):
            general_attack(q, bad, probe_dim=4, n_max=4)

    @pytest.mark.parametrize("entry", [np.inf, -np.inf, complex(np.nan, np.inf),
                                       np.nan])
    def test_non_finite_entry_rejected(self, entry):
        m = np.eye(6, dtype=complex)
        m[0, 0] = entry
        with pytest.raises(IsometryError, match="deviation"):
            general_attack(m, np.eye(6), probe_dim=1, n_max=2)

    def test_from_dense_matches_per_column_reference_at_floor(self):
        channel = ChannelBasis(2)
        dim = 2 * channel.dim
        rng = np.random.default_rng(5)
        m = oracles.haar_unitary(rng, dim)
        above = np.nextafter(AMPLITUDE_FLOOR, 1.0)
        m[rng.random((dim, dim)) < 0.3] = 0.0
        m[0, 0] = AMPLITUDE_FLOOR
        m[1, 0] = above
        m[4, 2] = -AMPLITUDE_FLOOR * 1j
        m[7, 2] = -above
        m[:, 3] = 0.0
        m[11, 3] = above * 1j
        m[:, 9] = AMPLITUDE_FLOOR

        def listed(columns):
            return [(list(dom.items()), list(img.items()))
                    for dom, img in columns]

        got = oracles.columns_of(ProbeChannelMap.from_dense(m, 2, channel))
        want = oracles.from_dense_columns_reference(m, 2, channel)
        assert listed(got) == listed(want)
        assert (0, channel.occupations[0]) not in got[0][1]
        assert got[0][1][(0, channel.occupations[1])] == above
        assert got[9][1] == {}
        assert all(type(a) is complex for _, img in got for a in img.values())


def _map_pair(spec):
    return [m for m in (spec.outbound, spec.returning) if m is not None]


def _haar_maps():
    channel = ChannelBasis(4)
    rng = np.random.default_rng(60)
    return _map_pair(general_attack(
        oracles.haar_unitary(rng, 4 * channel.dim),
        oracles.haar_unitary(rng, 4 * channel.dim), probe_dim=4, n_max=4))


_K = [(0, (0, 1)), (0, (1, 0)), (1, (0, 1)), (1, (1, 0)), (2, (0, 0))]
_R = 1 / SQRT2


def _k_map(columns):
    return oracles.map_from_columns(columns, 3, 1)


#: name -> maps whose isometry defect is checked against the reference
DEFECT_CASES = {
    "identity": lambda: [ProbeChannelMap.from_dense(
        np.eye(12), 2, ChannelBasis(2))],
    "no-columns": lambda: [oracles.map_from_columns([], 1, 0)],
    "pns": lambda: _map_pair(pns_attack(n_max=4)),
    "tagging": lambda: _map_pair(tagging_attack()),
    "constrained-random": lambda: _map_pair(
        constrained_random_attack(3, 4, n_max=3)),
    "single-photon-mismatch": lambda: _map_pair(constrained_random_attack(
        7, 4, n_max=3, violation="single-photon-mismatch")),
    "multi-photon-return": lambda: _map_pair(constrained_random_attack(
        9, 3, n_max=3, violation="multi-photon-return", violation_level=3)),
    "haar-dim-60": _haar_maps,
    "half-identity": lambda: [ProbeChannelMap.from_dense(
        0.5 * np.eye(6), 1, ChannelBasis(2))],
    "overlapping-domains": lambda: [_k_map([
        ({_K[0]: 1.0}, {_K[0]: 1.0}),
        ({_K[0]: _R, _K[1]: _R}, {_K[1]: 1.0})])],
    "empty-image": lambda: [_k_map([
        ({_K[0]: 1.0}, {_K[0]: 1.0}), ({_K[1]: 1.0}, {})])],
    "imaginary-overlap": lambda: [_k_map([
        ({_K[0]: 1.0}, {_K[0]: 1.0}),
        ({_K[1]: 1.0}, {_K[0]: 0.6j, _K[1]: 0.8})])],
    "unnormalised-domain": lambda: [_k_map([
        ({_K[0]: 2.0}, {_K[0]: 2.0}), ({_K[1]: 1.0}, {_K[1]: 1.0})])],
    "image-only-keys": lambda: [_k_map([
        ({_K[0]: 1.0}, {_K[3]: 0.6, _K[4]: 0.8j}),
        ({_K[1]: 1.0}, {_K[2]: 1.0, _K[3]: 0.5})])],
}


@pytest.mark.parametrize("case", sorted(DEFECT_CASES))
def test_isometry_defect_matches_pairwise_reference(case):
    for m in DEFECT_CASES[case]():
        want = oracles.isometry_defect_reference(oracles.columns_of(m))
        assert m.isometry_defect() == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("case", ["half-identity", "unnormalised-domain"])
def test_spec_rejects_non_isometry_when_built(case):
    (m,) = DEFECT_CASES[case]()
    with pytest.raises(IsometryError, match="deviation"):
        AttackSpec(name=case, returning=m)


@pytest.mark.parametrize("make,probe_dim,lossless", [
    (identity_attack, 1, False),
    (pns_attack, 3, True),
    (usd_attack_b92, 1, True),
    (tagging_attack, 3, True),
    (lambda: constrained_random_attack(3, 2, n_max=2), 2, True),
    (lambda: general_attack(np.eye(12), np.eye(12), probe_dim=2, n_max=2),
     2, True),
])
def test_probe_and_line_follow_from_the_maps(make, probe_dim, lossless):
    # the widest map's probe, and a lossless line for any map or strategy
    spec = make()
    assert (spec.probe_dim, spec.lossless_channel) == (probe_dim, lossless)
    with pytest.raises(AttributeError):
        spec.probe_dim = probe_dim + 1


def test_spec_maps_cannot_be_swapped_after_the_check():
    spec = identity_attack()
    (m,) = DEFECT_CASES["half-identity"]()
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.returning = m
    assert spec.returning is None


def _apply_inputs(spec, n_max):
    """(map, input) pairs the protocol produces: every pulse it emits on the
    outbound leg, then Alice's SIFT branches and the reflected state on the
    return leg."""
    pairs = []
    for occ, basis in (((0, 1), X), ((0, 2), X), ((0, 1), Z), ((1, 0), Z),
                       ((0, 0), Z)):
        if occ[0] + occ[1] > n_max:
            continue
        start = probe_state(0, occ, basis, n_max, spec.probe_dim)
        if spec.outbound is None:
            psi = start
        else:
            try:
                psi = spec.apply_outbound(start)
            except AttackDomainError:
                continue
            pairs.append((spec.outbound, start))
        if spec.returning is not None:
            pairs.append((spec.returning, psi))
            pairs += [(spec.returning, branch)
                      for _p, _q, branch in psi.sift_branches()]
    return pairs


APPLY_CASES = {
    "pns": lambda: (pns_attack(n_max=3), 3),
    "tagging": lambda: (tagging_attack(), 2),
    "constrained-random": lambda: (constrained_random_attack(3, 4, n_max=3), 3),
    "single-photon-mismatch": lambda: (constrained_random_attack(
        7, 4, n_max=3, violation="single-photon-mismatch"), 3),
    "multi-photon-return": lambda: (constrained_random_attack(
        9, 3, n_max=3, violation="multi-photon-return", violation_level=3), 3),
    "haar-dim-60": lambda: (general_attack(
        *(oracles.haar_unitary(np.random.default_rng(60), 60) for _ in "ab"),
        probe_dim=4, n_max=4), 4),
}


@pytest.mark.parametrize("case", sorted(APPLY_CASES))
def test_apply_matches_per_column_reference(case):
    spec, n_max = APPLY_CASES[case]()
    pairs = _apply_inputs(spec, n_max)
    legs = {id(m) for m, _ in pairs}
    assert legs == {id(m) for m in _map_pair(spec)}
    for m, state in pairs:
        got = dict(m.apply(state).items())
        want = oracles.apply_reference(m, state)
        for key in set(got) | set(want):
            assert abs(got.get(key, 0j) - want.get(key, 0j)) <= 1e-12


def test_rules_refuse_a_key_both_rewritten_and_passed_through():
    key = (0, (1, 0))
    with pytest.raises(ValueError, match=re.escape(
            "key (0, (1, 0)) both rewritten and passed through")):
        ProbeChannelMap.from_occupation_rules(
            {key: [(1, (1, 0), 1.0)]}, identity_keys=[key])


def test_dense_map_applies_like_explicit_identity_domain():
    spec, n_max = APPLY_CASES["haar-dim-60"]()
    pairs = _apply_inputs(spec, n_max)
    # a wider channel than the map's, holding no weight beyond it
    pairs.append((spec.returning,
                  probe_state(1, (0, 1), X, n_max + 1, spec.probe_dim)))
    for m, state in pairs:
        assert m.D is None
        eye = np.eye(m.M.shape[-1]).reshape(m.M.shape)
        want = ProbeChannelMap(eye, m.M).apply(state).amps
        got = m.apply(state).amps
        assert got.shape == want.shape
        assert np.all(got == want)


@pytest.mark.parametrize("case", sorted(APPLY_CASES))
def test_apply_rejects_input_outside_domain(case):
    spec, n_max = APPLY_CASES[case]()
    m = _map_pair(spec)[-1]
    # a probe index no protocol state reaches
    outside = probe_state(spec.probe_dim, (0, 1), Z, n_max,
                          spec.probe_dim + 1)
    if case == "haar-dim-60":
        # the dense map's domain is the whole space: a photon beyond its cap
        outside = probe_state(0, (0, 5), Z, 5, spec.probe_dim)
    with pytest.raises(AttackDomainError):
        oracles.apply_reference(m, outside)
    with pytest.raises(AttackDomainError):
        m.apply(outside)


class TestConstrainedRandom:
    @pytest.mark.parametrize("probe_dim", [1, 2, 3, 4])
    def test_meets_every_rule(self, probe_dim):
        spec = constrained_random_attack(101 + probe_dim, probe_dim, n_max=3)
        report = analysis.check_constraints(spec, n_max=3)
        assert report.alice_11_prob <= 1e-10
        assert report.bob_minus_click_prob <= 1e-10
        assert report.bit_probe_distance <= 1e-10
        assert all(v <= 1e-10 for v in report.multiphoton_return_norms.values())
        assert report.verdict == "undetectable"

    def test_single_photon_violation_is_visible(self):
        spec = constrained_random_attack(7, 4, n_max=3,
                                         violation="single-photon-mismatch")
        report = analysis.check_constraints(spec, n_max=3)
        assert report.bob_minus_click_prob > 1e-10
        assert report.bob_minus_click_prob == pytest.approx(
            report.bit_probe_distance ** 2 / 2, abs=1e-12)

    @pytest.mark.parametrize("level", [2, 3])
    def test_multiphoton_violation_is_visible(self, level):
        spec = constrained_random_attack(9, 3, n_max=3,
                                         violation="multi-photon-return",
                                         violation_level=level)
        report = analysis.check_constraints(spec, n_max=3)
        assert report.bob_minus_click_prob > 1e-10
        assert report.multiphoton_return_norms[level] > 1e-10

    def test_rejects_bad_violation(self):
        with pytest.raises(ValueError):
            constrained_random_attack(1, 4, n_max=3, violation="nope")
        with pytest.raises(ValueError):
            constrained_random_attack(1, 4, n_max=3,
                                      violation="multi-photon-return",
                                      violation_level=7)

    @pytest.mark.parametrize("probe_dim,n_max,message", [
        (0, 3, "probe dimension must be at least 1"),
        (4, 0, "photon cap must be at least 1")])
    def test_rejects_empty_probe_or_cap(self, probe_dim, n_max, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            constrained_random_attack(1, probe_dim, n_max=n_max)


class TestUsd:
    def test_reads_the_configured_overlap(self):
        spec = usd_attack_b92()
        assert spec.lossless_channel
        for c in (0.0, 0.5):
            cfg = ProtocolConfig(variant="b92", transmission=0.1,
                                 b92_overlap=c)
            tables, _meta = build_b92_tables(cfg, spec)
            assert tables.attack == 1
            assert tables.conclusive_p == 1.0 - c * c

    def test_rejects_bad_overlap(self):
        cfg = ProtocolConfig(variant="b92", b92_overlap=1.0)
        with pytest.raises(ValueError, match="overlap"):
            build_b92_tables(cfg, usd_attack_b92())


class TestMatrixFile:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        path = tmp_path / "m.txt"
        rows = ["# test matrix"]
        for row in m:
            rows.append(" ".join(f"{z.real:.17g} {z.imag:.17g}" for z in row))
        path.write_text("\n".join(rows), encoding="utf-8")
        back = load_matrix_file(str(path))
        assert np.allclose(back, m, atol=1e-15)

    def test_parses_like_float_per_token(self, tmp_path):
        rng = np.random.default_rng(3)
        m = oracles.haar_unitary(rng, 6) * 10.0 ** rng.integers(-300, 300, (6, 6))
        tokens = []
        for z in m.ravel():
            tokens += [repr(float(z.real)), f"{z.imag:.17e}"]
        tokens[:8] = ["-0.0", "5e-324", "1.7976931348623157E+308", "+.5",
                      "2.", "3", "1e-320", "-2.2250738585072014e-308"]
        lines = ["# header comment", ""]
        for row in range(6):
            cells = tokens[12 * row:12 * row + 12]
            lines.append("\t".join(cells[:5]) + "  # trailing comment")
            lines.append("   \t ")
            lines.append("  ".join(cells[5:]) + "\t")
        path = tmp_path / "m.txt"
        path.write_text("\n".join(lines) + "\n#", encoding="utf-8")
        got = load_matrix_file(str(path))
        want = oracles.load_matrix_reference(str(path))
        assert got.shape == (6, 6)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_bad_token_names_the_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 0\n0 abc\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*'abc'"):
            load_matrix_file(str(path))

    def test_rejects_non_square(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 0 2 0 3 0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="square"):
            load_matrix_file(str(path))
