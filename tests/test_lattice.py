import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroflow import flows, lattice
from entroflow import (
    DEFAULT_CONFIG_CAP,
    ENV_CONFIG_CAP,
    CouplingVector,
    LatticeSpec,
    Partition,
    ResourceCapError,
    ValidationError,
    atom_probabilities,
    block_site_partition,
    detect_limit_point,
    effective_config_cap,
    entropy,
    gibbs_space,
    induced_config_partition,
    is_coarsening,
    log_partition_function,
    majority_first_site,
    make_space,
    rg_entropy_flow,
    spin_configurations,
)

LN2 = math.log(2.0)


def atom_weight(space, atom):
    return float(sum(space.weights[i] for i in atom))


def flip_index_map(gibbs):
    """config index -> index of the globally flipped configuration."""
    lookup = {tuple(row): i for i, row in enumerate(gibbs.configs.tolist())}
    return {i: lookup[tuple(-gibbs.configs[i])] for i in range(len(gibbs.configs))}


class TestLatticeSpec:
    def test_validation(self):
        with pytest.raises(ValidationError):
            LatticeSpec(site_count=1)
        with pytest.raises(ValidationError):
            LatticeSpec(site_count=4, block_size=1)

    def test_block_length_ladder(self):
        spec = LatticeSpec(site_count=8)
        assert [spec.block_length(level) for level in range(3)] == [2, 4, 8]
        with pytest.raises(ValidationError, match="more than"):
            spec.block_length(3)
        with pytest.raises(ValidationError):
            spec.block_length(-1)

    def test_block_length_divisibility(self):
        spec = LatticeSpec(site_count=6)
        assert spec.block_length(0) == 2
        with pytest.raises(ValidationError, match="divide"):
            spec.block_length(1)

    def test_site_space_is_uniform(self):
        space = LatticeSpec(site_count=4).site_space
        assert space.point_ids == (0, 1, 2, 3)
        assert np.allclose(space.weights, 0.25)


class TestBlockSitePartition:
    def test_level_zero_pairs(self):
        p = block_site_partition(LatticeSpec(site_count=8), 0)
        assert sorted(sorted(a) for a in p.atoms) == [
            [0, 1],
            [2, 3],
            [4, 5],
            [6, 7],
        ]

    def test_levels_nest(self):
        spec = LatticeSpec(site_count=8)
        chain = [block_site_partition(spec, level) for level in range(3)]
        assert is_coarsening(chain[1], chain[0])
        assert is_coarsening(chain[2], chain[1])
        assert chain[2].n_atoms == 1


class TestMajorityFirstSite:
    def test_clear_majorities(self):
        block = np.array([[1, 1, -1], [-1, -1, 1], [1, 1, 1]], dtype=np.int8)
        assert majority_first_site(block).tolist() == [1, -1, 1]

    def test_ties_go_to_first_site(self):
        block = np.array([[1, -1], [-1, 1], [1, -1, -1, 1]][:2], dtype=np.int8)
        assert majority_first_site(block).tolist() == [1, -1]
        four = np.array([[1, -1, -1, 1], [-1, 1, 1, -1]], dtype=np.int8)
        assert majority_first_site(four).tolist() == [1, -1]

    def test_odd_under_global_flip(self):
        rng = np.random.default_rng(7)
        block = rng.choice([-1, 1], size=(64, 6)).astype(np.int8)
        assert np.array_equal(majority_first_site(-block), -majority_first_site(block))

    def test_output_values(self):
        rng = np.random.default_rng(11)
        block = rng.choice([-1, 1], size=(32, 5)).astype(np.int8)
        out = majority_first_site(block)
        assert set(np.unique(out)) <= {-1, 1}


class TestGibbsSpace:
    def test_infinite_temperature_is_uniform(self):
        g = gibbs_space((0.0, 0.0), 2)
        assert np.allclose(g.space.weights, 0.25)
        assert g.log_normalization == pytest.approx(math.log(4.0), rel=1e-15)

    def test_zero_field_ln2_weights(self):
        g = gibbs_space((0.0, LN2), 2)
        assert g.log_normalization == pytest.approx(math.log(8.5), abs=1e-12)
        by_id = dict(zip(g.space.point_ids, g.space.weights))
        assert by_id["++"] == pytest.approx(4.0 / 8.5, abs=1e-15)
        assert by_id["--"] == pytest.approx(4.0 / 8.5, abs=1e-15)
        assert by_id["+-"] == pytest.approx(0.25 / 8.5, abs=1e-15)
        assert by_id["-+"] == pytest.approx(0.25 / 8.5, abs=1e-15)

    def test_normalization_matches_transfer_matrix(self):
        k = CouplingVector(0.3, 0.5)
        g = gibbs_space(k, 8)
        assert abs(g.log_normalization - log_partition_function(k, 8)) <= 1e-10

    @pytest.mark.parametrize(
        "k, n", [((0.0, 45.0), 16), ((0.0, 300.0), 4), ((-300.0, -300.0), 5)]
    )
    def test_couplings_at_the_cap_stay_finite(self, k, n):
        # the unshifted weights exp(K0 sum S + K1 sum SS') overflow a double here
        g = gibbs_space(k, n)
        assert math.isfinite(g.log_normalization)
        assert g.log_normalization == pytest.approx(
            log_partition_function(k, n), rel=1e-12
        )
        assert np.all(np.isfinite(g.space.weight_array))
        assert math.fsum(g.space.weights) == pytest.approx(1.0, abs=1e-12)

    def test_ids_read_site_zero_first(self):
        g = gibbs_space((0.0, 0.0), 3)
        for row, pid in zip(g.configs, g.space.point_ids):
            assert pid == "".join("+" if s > 0 else "-" for s in row)

    def test_site_count_validation(self):
        with pytest.raises(ValidationError):
            gibbs_space((0.0, 0.0), 1)

    def test_configs_are_read_only(self):
        g = gibbs_space((0.0, 0.0), 2)
        with pytest.raises(ValueError):
            g.configs[0, 0] = -1


class TestConfigCap:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(ENV_CONFIG_CAP, raising=False)
        assert effective_config_cap() == DEFAULT_CONFIG_CAP == 2**16

    def test_env_lowers(self, monkeypatch):
        monkeypatch.setenv(ENV_CONFIG_CAP, "8")
        assert effective_config_cap() == 8
        with pytest.raises(ResourceCapError, match="cap of 8"):
            gibbs_space((0.0, 0.0), 4)
        gibbs_space((0.0, 0.0), 3)  # 8 configurations still fit

    def test_env_cannot_raise(self, monkeypatch):
        monkeypatch.setenv(ENV_CONFIG_CAP, str(2**20))
        assert effective_config_cap() == DEFAULT_CONFIG_CAP

    @pytest.mark.parametrize("junk", ["abc", "", "1e4", "0", "-3"])
    def test_junk_values_are_loud(self, monkeypatch, junk):
        monkeypatch.setenv(ENV_CONFIG_CAP, junk)
        with pytest.raises(ValidationError):
            effective_config_cap()

    def test_default_cap_guards_large_chains(self, monkeypatch):
        monkeypatch.delenv(ENV_CONFIG_CAP, raising=False)
        with pytest.raises(ResourceCapError):
            gibbs_space((0.0, 0.0), 17)


class TestInducedConfigPartition:
    def test_singleton_blocks_keep_everything(self):
        g = gibbs_space((0.2, -0.4), 3)
        site = Partition(LatticeSpec(site_count=3).site_space, [[0], [1], [2]])
        p = induced_config_partition(g, site)
        assert p.n_atoms == 8

    def test_one_block_of_two_tracks_first_spin(self):
        g = gibbs_space((0.0, 0.0), 2)
        site = Partition(LatticeSpec(site_count=2).site_space, [[0, 1]])
        p = induced_config_partition(g, site)
        assert p.n_atoms == 2
        assert atom_probabilities(p).probabilities == (0.5, 0.5)

    def test_pair_blocks_at_infinite_temperature(self):
        g = gibbs_space((0.0, 0.0), 4)
        spec = LatticeSpec(site_count=4)
        p = induced_config_partition(g, block_site_partition(spec, 0))
        assert p.n_atoms == 4
        assert entropy(p) == pytest.approx(2.0, abs=1e-12)

    def test_noncontiguous_block_rejected(self):
        g = gibbs_space((0.0, 0.0), 4)
        site = Partition(LatticeSpec(site_count=4).site_space, [[0, 2], [1, 3]])
        with pytest.raises(ValidationError, match="contiguous"):
            induced_config_partition(g, site)

    def test_site_count_mismatch(self):
        g = gibbs_space((0.0, 0.0), 4)
        site = Partition(LatticeSpec(site_count=2).site_space, [[0, 1]])
        with pytest.raises(ValidationError, match="sites"):
            induced_config_partition(g, site)

    def test_block_map_range_checked(self):
        g = gibbs_space((0.0, 0.0), 4)
        spec = LatticeSpec(site_count=4)
        with pytest.raises(ValidationError, match=r"\+-1"):
            induced_config_partition(
                g, block_site_partition(spec, 0), block_map=lambda b: b.sum(axis=1)
            )


class TestRgEntropyFlow:
    def test_free_chain_halves_each_level(self):
        r = rg_entropy_flow((0.0, 0.0), 8, levels=3)
        assert r.entropies == pytest.approx((4.0, 2.0, 1.0), abs=1e-12)
        assert r.atom_counts == (16, 4, 2)
        assert r.coarse_flow.direction == "coarse-graining"
        assert r.refinement_flow.direction == "refinement"

    def test_strong_coupling_pins_one_bit(self):
        r = rg_entropy_flow((0.0, 5.0), 8, levels=3)
        assert all(abs(h - 1.0) < 0.05 for h in r.entropies)

    def test_levels_nest(self):
        r = rg_entropy_flow((0.4, 0.7), 8, levels=3)
        for finer, coarser in zip(r.coarse_flow, r.coarse_flow[1:]):
            assert is_coarsening(coarser, finer)

    def test_entropy_nonincreasing_random_couplings(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            k = tuple(rng.uniform(-1.5, 1.5, 2))
            r = rg_entropy_flow(k, 8, levels=3)
            drops = np.diff(r.entropies)
            assert np.all(drops <= 1e-12)

    def test_single_level_verdicts_are_trivial(self):
        r = rg_entropy_flow((0.1, 0.1), 4, levels=1)
        assert r.coarse_verdict.status == "witnessed"
        assert r.coarse_verdict.witness_index == 0
        assert r.refinement_verdict.status == "witnessed"

    def test_free_chain_verdicts_refute_a_plateau(self):
        r = rg_entropy_flow((0.0, 0.0), 8, levels=3)
        assert r.coarse_verdict.status == "refuted"
        assert r.refinement_verdict.status == "refuted"

    def test_flip_symmetry_without_field(self):
        g = gibbs_space((0.0, 0.8), 8)
        spec = LatticeSpec(site_count=8)
        p = induced_config_partition(g, block_site_partition(spec, 0))
        flip = flip_index_map(g)
        atoms = {frozenset(a) for a in p.atoms}
        for atom in p.atoms:
            image = frozenset(flip[i] for i in atom)
            assert image in atoms
            assert abs(atom_weight(g.space, atom) - atom_weight(g.space, image)) < 1e-12

    def test_direct_majority_does_not_nest(self):
        """Majority over raw sites at depth 2 splits a depth-1 atom.

        With pair blocks the tie rule makes the level-0 variable equal the
        block's first spin, so (+,-,-,-) and (+,+,-,-) share a level-0
        atom; their raw 4-site majorities differ. The chained construction
        exists precisely to avoid this.
        """
        g = gibbs_space((0.0, 0.0), 4)
        spec = LatticeSpec(site_count=4)
        level0 = induced_config_partition(g, block_site_partition(spec, 0))
        direct1 = induced_config_partition(g, block_site_partition(spec, 1))
        assert not is_coarsening(direct1, level0)
        cascade = rg_entropy_flow((0.0, 0.0), 4, levels=2).coarse_flow
        assert is_coarsening(cascade[1], cascade[0])

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            rg_entropy_flow((0.0, 0.0), 8, levels=0)
        with pytest.raises(ValidationError, match="divide|more than"):
            rg_entropy_flow((0.0, 0.0), 6, levels=2)

    def test_depth_validated_before_enumeration(self, monkeypatch):
        monkeypatch.setenv(ENV_CONFIG_CAP, "4")
        # 8 sites exceed the lowered cap, but the depth error comes first
        with pytest.raises(ValidationError, match="more than"):
            rg_entropy_flow((0.0, 0.0), 8, levels=4)


class TestReversedRefinementFlow:
    def test_direction_and_monotone_entropy(self):
        flow = rg_entropy_flow((0.1, 0.4), 8, levels=3).refinement_flow
        assert flow.direction == "refinement"
        values = [entropy(p) for p in flow]
        assert values == sorted(values)

    def test_matches_forward_flow_reversed(self):
        r = rg_entropy_flow((0.3, 0.2), 8, levels=3)
        assert tuple(reversed(tuple(r.refinement_flow))) == tuple(r.coarse_flow)


def pm1_spins(n):
    """All 2^n configurations as int8 +-1 rows, site j down when bit j is set."""
    bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    return (1 - 2 * bits).astype(np.int8)


def chained_level_keys(n, block, levels, rule=None):
    """Level keys from +-1 rows: the rule chained over int8 block variables.

    Without a rule, majority with ties to the block's first site is
    computed inline; rows are grouped with np.unique.
    """
    variables = pm1_spins(n)
    keys = []
    for _ in range(levels):
        blocks = variables.reshape(len(variables), -1, block)
        if rule is None:
            totals = blocks.sum(axis=2, dtype=np.int64)
            variables = np.where(totals != 0, np.sign(totals), blocks[:, :, 0])
        else:
            variables = np.stack(
                [[rule(b[None, :])[0] for b in row] for row in blocks]
            )
        variables = variables.astype(np.int8)
        _, inverse = np.unique(variables, axis=0, return_inverse=True)
        keys.append(inverse.ravel())
    return keys


def log_sum_exp_weights(k, n):
    spins = pm1_spins(n).astype(float)
    exponent = k[0] * spins.sum(axis=1) + k[1] * (spins * np.roll(spins, -1, 1)).sum(1)
    w = np.exp(exponent - exponent.max())
    return w / w.sum()


def reference_entropy(weights, keys):
    masses = np.bincount(keys, weights=weights)
    masses = masses[masses > 0]
    return float(-(masses * np.log2(masses)).sum())


@st.composite
def block_flows(draw):
    """(couplings, sites, block size, levels) over every legal level count."""
    block = draw(st.integers(2, 4))
    sites = draw(st.sampled_from(range(block, 13, block)))
    legal = 1
    while sites % block ** (legal + 1) == 0:
        legal += 1
    levels = draw(st.integers(1, legal))
    coupling = st.floats(min_value=-300.0, max_value=300.0)
    return (draw(coupling), draw(coupling)), sites, block, levels


class TestPackedLevels:
    @settings(max_examples=40, deadline=None)
    @given(block_flows())
    def test_levels_match_pm1_reference(self, flow):
        k, sites, block, levels = flow
        r = rg_entropy_flow(k, sites, block, levels)
        space = r.coarse_flow.space
        weights = log_sum_exp_weights(k, sites)
        for level, keys in enumerate(chained_level_keys(sites, block, levels)):
            reference = Partition._from_labels(space, keys)
            assert r.coarse_flow[level] == reference
            assert r.atom_counts[level] == reference.n_atoms
            assert r.entropies[level] == entropy(reference)
            assert r.entropies[level] == pytest.approx(
                reference_entropy(weights, keys), rel=1e-9, abs=1e-9
            )

    def test_custom_rule_row_by_row(self):
        def last_site(block):
            return block[:, -1]

        g = gibbs_space((0.3, -0.6), 8)
        for spec in (LatticeSpec(site_count=8, block_size=2),
                     LatticeSpec(site_count=8, block_size=4)):
            p = induced_config_partition(
                g, block_site_partition(spec, 0), block_map=last_site
            )
            blocks = g.configs.reshape(len(g.configs), -1, spec.block_size)
            rows = [tuple(last_site(b[None, :])[0] for b in row) for row in blocks]
            groups = {}
            keys = [groups.setdefault(row, len(groups)) for row in rows]
            assert p == Partition._from_labels(g.space, np.array(keys))
            assert p.n_atoms == 2 ** (8 // spec.block_size)

    def test_custom_rule_chained(self):
        def last_site(block):
            return block[:, -1]

        r = rg_entropy_flow((0.2, 0.9), 8, 2, 3, block_map=last_site)
        for level, keys in enumerate(chained_level_keys(8, 2, 3, rule=last_site)):
            assert r.coarse_flow[level] == Partition._from_labels(
                r.coarse_flow.space, keys
            )

    def test_mixed_block_lengths(self):
        g = gibbs_space((0.1, 0.4), 6)
        site = Partition(LatticeSpec(site_count=6).site_space, [[0, 1, 2], [3], [4, 5]])
        p = induced_config_partition(g, site)
        spins = g.configs
        rows = [
            (majority_first_site(s[None, 0:3])[0], s[3], s[4]) for s in spins
        ]
        groups = {}
        keys = [groups.setdefault(row, len(groups)) for row in rows]
        assert p == Partition._from_labels(g.space, np.array(keys))

    def test_rule_called_once_on_the_pattern_table(self):
        seen = []

        def recording(block):
            seen.append(block.copy())
            return majority_first_site(block)

        rg_entropy_flow((0.1, 0.2), 9, 3, 2, block_map=recording)
        assert len(seen) == 1
        assert np.array_equal(seen[0], spin_configurations(3))

    def test_rule_checked_on_every_pattern(self):
        def almost_majority(block):
            out = majority_first_site(block)
            out[np.all(block < 0, axis=1)] = 0  # the all-down pattern only
            return out

        with pytest.raises(ValidationError, match=r"\+-1"):
            rg_entropy_flow((0.0, 0.0), 4, 2, 1, block_map=almost_majority)

    def test_rule_shape_checked(self):
        with pytest.raises(ValidationError, match=r"\+-1 value per row"):
            rg_entropy_flow((0.0, 0.0), 4, block_map=lambda b: b[:, :1])


class TestLazyConfigurationViews:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_point_ids_match_sign_strings(self, n):
        g = gibbs_space((0.2, -0.3), n)
        spins = spin_configurations(n)
        expected = np.where(spins > 0, "+", "-").view(f"<U{n}").ravel().tolist()
        ids = g.space.point_ids
        assert len(ids) == 2**n == g.space.size
        assert list(ids) == expected
        assert [ids[i] for i in range(len(ids))] == expected
        assert len(set(ids)) == len(ids)
        assert ids[-1] == expected[-1] and ids[1:4] == tuple(expected[1:4])
        with pytest.raises(IndexError):
            ids[2**n]
        assert g.space.index_of(expected[5 % 2**n]) == 5 % 2**n

    def test_configs_lazy_and_read_only(self):
        g = gibbs_space((0.0, 0.0), 5)
        assert "configs" not in vars(g)
        assert np.array_equal(g.configs, spin_configurations(5))
        assert g.configs is g.configs
        with pytest.raises(ValueError):
            g.configs[3, 1] = 1

    def test_space_equality_and_hash(self):
        g = gibbs_space((0.4, 0.1), 4)
        again = gibbs_space((0.4, 0.1), 4)
        listed = make_space(tuple(g.space.point_ids), g.space.weight_array)
        assert g.space == again.space == listed
        assert listed == g.space
        assert hash(g.space) == hash(again.space) == hash(listed)
        assert g.space.weights == listed.weights
        assert g.space != gibbs_space((0.4, 0.2), 4).space
        relabelled = make_space(range(16), g.space.weight_array)
        assert g.space != relabelled
        assert not g.space.weight_array.flags.writeable


class TestOnePathThroughTheFlow:
    @settings(max_examples=40, deadline=None)
    @given(block_flows().filter(lambda flow: flow[3] >= 2))
    def test_verdicts_and_lazy_refinement_flow(self, flow):
        # within 12 sites only blocks of 2 and 3 reach a second level
        k, sites, block, levels = flow
        r = rg_entropy_flow(k, sites, block, levels)
        assert r.coarse_verdict == detect_limit_point(r.coarse_flow)
        assert "refinement_flow" not in vars(r)
        refinement = r.refinement_flow
        assert vars(r)["refinement_flow"] is refinement is r.refinement_flow
        assert r.refinement_verdict == detect_limit_point(refinement)
        assert refinement.direction == "refinement"
        assert refinement.sequence == r.coarse_flow.sequence[::-1]
        for finer, coarser in zip(refinement[1:], refinement):
            assert is_coarsening(coarser, finer)

    @pytest.mark.parametrize("sites, block, levels", [(16, 2, 4), (9, 3, 2), (8, 2, 1)])
    def test_nesting_checked_once_and_entropies_computed_once(
        self, monkeypatch, sites, block, levels
    ):
        calls = {"is_coarsening": 0, "entropy": 0}

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(flows, "is_coarsening", counting("is_coarsening", is_coarsening))
        monkeypatch.setattr(flows, "entropy", counting("entropy", entropy))
        monkeypatch.setattr(lattice, "entropy", counting("entropy", entropy))
        rg_entropy_flow((0.2, -0.5), sites, block, levels)
        assert calls == {"is_coarsening": levels - 1, "entropy": levels}


@st.composite
def site_blockings(draw):
    """(sites, contiguous blocks): some leave out one block, of weight zero.

    Block lengths are drawn freely, so a block longer than 12 // its
    length (4 sites or more) is common.
    """
    sites = draw(st.integers(2, 12))
    cuts = draw(st.sets(st.integers(1, sites - 1), max_size=sites - 1))
    bounds = [0, *sorted(cuts), sites]
    blocks = [list(range(a, b)) for a, b in zip(bounds, bounds[1:])]
    if len(blocks) > 1 and draw(st.booleans()):
        blocks.pop(draw(st.integers(0, len(blocks) - 1)))
    return sites, blocks


class TestInducedPartitionReference:
    @settings(max_examples=60, deadline=None)
    @given(site_blockings(), st.sampled_from(["majority", "last"]),
           st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    def test_matches_per_block_pm1_reference(self, blocking, rule, k0, k1):
        sites, blocks = blocking
        weights = np.zeros(sites)
        weights[[s for block in blocks for s in block]] = 1.0
        site = Partition(make_space(range(sites), weights, normalize=True), blocks)
        g = gibbs_space((k0, k1), sites)

        def last_site(block):
            return block[:, -1]

        block_map = majority_first_site if rule == "majority" else last_site
        p = induced_config_partition(g, site, block_map)
        spins = pm1_spins(sites)
        columns = []
        for block in blocks:
            values = spins[:, block].astype(np.int64)
            if rule == "majority":
                totals = values.sum(axis=1)
                columns.append(np.where(totals != 0, np.sign(totals), values[:, 0]))
            else:
                columns.append(values[:, -1])
        _, keys = np.unique(np.stack(columns, axis=1), axis=0, return_inverse=True)
        assert p == Partition._from_labels(g.space, keys.ravel())
