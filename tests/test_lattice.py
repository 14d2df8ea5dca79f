import math
from dataclasses import dataclass

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroflow import flows, ising, lattice, partitions
from entroflow import (
    DEFAULT_CONFIG_CAP,
    ENV_CONFIG_CAP,
    FlowDirectionError,
    CouplingVector,
    InconsistencyError,
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

    @pytest.mark.parametrize("n", [3, 16])
    def test_site_space_is_the_tuple_built_space(self, n):
        space = LatticeSpec(site_count=n).site_space
        expected = make_space(tuple(range(n)), (1 / n,) * n)
        assert space == expected and hash(space) == hash(expected)
        assert all(type(i) is int for i in space.point_ids)


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
        assert atom_probabilities(p) == (0.5, 0.5)

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
    computed inline; a rule is called on the rows of one block position
    at a time. Rows are grouped with np.unique.
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
                [rule(blocks[:, t, :]) for t in range(blocks.shape[1])], axis=1
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


#: Relative bound on an entropy of ``rg_entropy_flow`` against the
#: high-precision reference. A class weight exp(d) is off by about
#: |d| 2^-53 relative, and the classes that carry any entropy have
#: d > -746, so each entropy term is good to about 1e-13 (5.7e-14 was
#: the worst of 1,500 random flows with |K| <= 300).
ENTROPY_REL = 2e-13

#: Absolute slack below which masses are subnormal doubles: an entropy
#: carried by them alone is near 1e-305 or less, with few digits left.
ENTROPY_FLOOR = 1e-300


def pm1_count_tables(n, level_keys):
    """Count tables from +-1 rows: configurations per (atom, (field, bond) class).

    Returns one table per level (atoms numbered by ``np.unique`` of the
    keys) and the field and bond sum of each class.
    """
    spins = pm1_spins(n).astype(np.int64)
    sums = np.stack([spins.sum(1), (spins * np.roll(spins, -1, 1)).sum(1)], axis=1)
    classes, of = np.unique(sums, axis=0, return_inverse=True)
    tables = []
    for keys in level_keys:
        _, atom = np.unique(keys, return_inverse=True)
        table = np.zeros((atom.max() + 1, len(classes)), dtype=np.int64)
        np.add.at(table, (atom.ravel(), of.ravel()), 1)
        tables.append(table)
    return tables, classes[:, 0], classes[:, 1]


def mp_entropies(k, tables, field, bonds):
    """Each table's entropy in bits, in mpmath, as -sum m log2 m over its atoms.

    Row a of a table counts the configurations of atom a in each class,
    whose sums are ``field`` and ``bonds``. The masses are taken at 30
    digits first; the largest is 1 - e, so each level is then redone with
    30 digits more than -log10 e (at most 400: past that the level's
    entropy is far below ``ENTROPY_FLOOR``).
    """
    k0, k1 = (mpmath.mpf(float(x)) for x in k)  # the doubles' exact values
    counts = np.sum(tables[0], axis=0)

    def masses(table):
        # at the working precision: K0 f is exact from 30 digits on
        exponents = [k0 * int(f) + k1 * int(b) for f, b in zip(field, bonds)]
        top = max(exponents)
        w = [mpmath.exp(x - top) for x in exponents]
        z = mpmath.fsum(int(n) * wc for n, wc in zip(counts, w))
        return [mpmath.fsum(int(c) * wc for c, wc in zip(row, w) if c) / z for row in table]

    out = []
    for table in tables:
        with mpmath.workdps(30):
            rest = mpmath.fsum(sorted(masses(table))[:-1])
            digits = 30 if rest <= 0 else 30 + int(mpmath.ceil(-mpmath.log10(rest)))
        with mpmath.workdps(min(400, max(30, digits))):
            out.append(-mpmath.fsum(x * mpmath.log(x, 2) for x in masses(table) if x > 0))
    return out


def assert_near_reference(entropies, reference):
    for level, (h, ref) in enumerate(zip(entropies, reference, strict=True)):
        gap = abs(mpmath.mpf(h) - ref)
        assert gap <= ENTROPY_REL * ref + ENTROPY_FLOOR, (level, h, ref)


def skeleton_tables(r):
    """The count tables of a flow's levels and the sums of their classes."""
    skeleton = r._skeleton
    tables = np.split(skeleton.counts.astype(np.int64), np.cumsum(skeleton.atom_counts[:-1]))
    classes = lattice._classes(r.n_sites)
    return tables, classes.field, classes.bonds


@st.composite
def block_flows(draw, max_sites=12):
    """(couplings, sites, block size, levels) over every legal level count."""
    block = draw(st.integers(2, 4))
    sites = draw(st.sampled_from(range(block, max_sites + 1, block)))
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
            assert r.entropies[level] == pytest.approx(
                reference_entropy(weights, keys), rel=1e-9, abs=1e-9
            )
        keys = chained_level_keys(sites, block, levels)
        assert_near_reference(r.entropies, mp_entropies(k, *pm1_count_tables(sites, keys)))

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
        assert same_verdict(r.coarse_verdict, detect_limit_point(r.coarse_flow))
        assert "refinement_flow" not in vars(r)
        refinement = r.refinement_flow
        assert vars(r)["refinement_flow"] is refinement is r.refinement_flow
        assert same_verdict(r.refinement_verdict, detect_limit_point(refinement))
        assert refinement.direction == "refinement"
        assert refinement.sequence == r.coarse_flow.sequence[::-1]
        for finer, coarser in zip(refinement[1:], refinement):
            assert is_coarsening(coarser, finer)

    @pytest.mark.parametrize("sites, block, levels", [(16, 2, 4), (9, 3, 2), (8, 2, 1)])
    def test_nesting_checked_once_and_entropies_computed_once(
        self, monkeypatch, sites, block, levels
    ):
        calls = {"is_coarsening": 0, "entropy": 0, "_entropy_bits": 0}

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(flows, "is_coarsening", counting("is_coarsening", is_coarsening))
        monkeypatch.setattr(flows, "entropy", counting("entropy", entropy))
        monkeypatch.setattr(
            lattice, "_entropy_bits", counting("_entropy_bits", lattice._entropy_bits)
        )
        rg_entropy_flow((0.2, -0.5), sites, block, levels)
        assert calls == {"is_coarsening": levels - 1, "entropy": 0, "_entropy_bits": levels}


def same_verdict(count_route, gibbs_route):
    """Verdicts that agree but for the last digits of the tail spread.

    The flow's entropies come from the count tables, the Gibbs-side
    flow's from its partitions' masses: at ordered couplings the latter
    drop the largest atom's share, so their spreads agree to 1e-12 only.
    """
    return (count_route.status, count_route.witness_index) == (
        gibbs_route.status, gibbs_route.witness_index
    ) and count_route.tail_entropy_spread == pytest.approx(
        gibbs_route.tail_entropy_spread, rel=1e-9, abs=1e-12
    )


@st.composite
def flip_flows(draw):
    """(|K| <= 3 couplings, sites, block size, levels), any block up to 12 sites."""
    block = draw(st.integers(2, 12))
    sites = draw(st.sampled_from(range(block, 13, block)))
    legal = 1
    while sites % block ** (legal + 1) == 0:
        legal += 1
    levels = draw(st.integers(1, legal))
    coupling = st.floats(min_value=-3.0, max_value=3.0)
    return (draw(coupling), draw(coupling)), sites, block, levels


class TestSpinFlipSymmetry:
    """H_k(K0, K1) = H_k(-K0, K1): a global flip maps the measure at K0 to -K0.

    Majority ties go to the block's first spin, which flips with its
    block, so every level variable flips too and the atoms of each level
    are carried onto atoms of equal mass.
    """

    @settings(max_examples=60, deadline=None)
    @given(flip_flows())
    def test_field_sign_leaves_every_level_entropy(self, flow):
        (k0, k1), sites, block, levels = flow
        up = rg_entropy_flow((k0, k1), sites, block, levels)
        down = rg_entropy_flow((-k0, k1), sites, block, levels)
        assert up.atom_counts == down.atom_counts
        assert np.abs(np.subtract(up.entropies, down.entropies)).max() <= 1e-14

    def test_at_the_configuration_cap(self):
        up = rg_entropy_flow((0.7, -1.3), 16, 2, 4)
        down = rg_entropy_flow((-0.7, -1.3), 16, 2, 4)
        assert up.atom_counts == down.atom_counts
        assert np.abs(np.subtract(up.entropies, down.entropies)).max() <= 1e-14


def last_site(block):
    return block[:, -1]


class TestQuotientLevels:
    """Levels above 0 are computed once per level-0 atom, not per configuration."""

    @pytest.mark.parametrize(
        "k, sites, block, levels, block_map",
        [
            ((0.3, -0.8), 16, 2, 4, majority_first_site),
            ((-1.1, 0.6), 9, 3, 2, majority_first_site),
            ((0.4, 1.2), 16, 4, 2, majority_first_site),
            ((0.2, -0.4), 15, 5, 1, majority_first_site),
            ((0.5, 0.9), 16, 2, 4, last_site),
            ((0.0, 0.0), 16, 2, 4, last_site),
            # zero-weight configurations that drop whole atoms
            ((300.0, 300.0), 16, 2, 4, majority_first_site),
            ((0.0, -300.0), 16, 2, 4, majority_first_site),
            ((0.0, 45.0), 16, 2, 4, majority_first_site),
            ((40.0, -300.0), 16, 4, 2, majority_first_site),
            ((-300.0, 1.0), 9, 3, 2, last_site),
        ],
    )
    def test_levels_match_the_flow_on_the_gibbs_space(self, k, sites, block, levels, block_map):
        r = rg_entropy_flow(k, sites, block, levels, block_map=block_map)
        assert "coarse_flow" not in vars(r)
        flow = r.coarse_flow
        assert flow.direction == "coarse-graining"
        assert flow.sequence == r.partitions and flow[0] is r.level0
        assert [p.n_atoms for p in flow] == list(r.atom_counts)
        space = r.level0.space
        rule = None if block_map is majority_first_site else block_map
        keys = chained_level_keys(sites, block, levels, rule=rule)
        for level, (p, level_keys) in enumerate(zip(r.partitions, keys, strict=True)):
            reference = Partition._from_labels(space, level_keys)
            assert np.array_equal(p.atom_index_array, reference.atom_index_array)
            assert p._masses.tobytes() == reference._masses.tobytes()
        assert_near_reference(r.entropies, mp_entropies(k, *pm1_count_tables(sites, keys)))
        quotient = r.quotient_flow.space
        assert quotient.size == r.level0.n_atoms
        # the class weights and the Gibbs weights round apart, most near
        # |K| = 300; subnormal masses keep fewer digits
        np.testing.assert_allclose(
            quotient.weight_array, r.level0._masses, rtol=1e-11, atol=1e-300
        )
        assert r.quotient_flow.direction == "coarse-graining"
        assert [p.n_atoms for p in r.quotient_flow] == list(r.atom_counts)

    def test_zero_weights_drop_atoms(self):
        r = rg_entropy_flow((300.0, 300.0), 16, 2, 4)
        assert (r.level0.space.weight_array == 0.0).any()
        assert r.atom_counts[0] < 2 ** 8
        assert (r.coarse_flow[1].atom_index_array == -1).sum() == (
            r.level0.atom_index_array == -1
        ).sum()

    def test_coarse_flow_built_and_validated_on_first_read(self, monkeypatch):
        r = rg_entropy_flow((0.2, 0.7), 16, 2, 4)
        checked = []

        def recording(coarse, fine):
            checked.append(fine.space.size)
            return is_coarsening(coarse, fine)

        partitions_of_the_flow = r.partitions  # built on first read
        monkeypatch.setattr(flows, "is_coarsening", recording)
        sorted_sizes = []
        stable_order = partitions._stable_order

        def recording_sort(codes, span):
            sorted_sizes.append(codes.size)
            return stable_order(codes, span)

        monkeypatch.setattr(partitions, "_stable_order", recording_sort)
        assert "coarse_flow" not in vars(r)
        flow = r.coarse_flow
        assert checked == [2**16] * 3
        assert sorted_sizes == []  # the levels are r.partitions, not sorted again
        assert flow.sequence == r.partitions == partitions_of_the_flow
        assert vars(r)["coarse_flow"] is flow is r.coarse_flow
        assert checked == [2**16] * 3
        for level, keys in enumerate(chained_level_keys(16, 2, 4)):
            assert flow[level] == Partition._from_labels(flow.space, keys)

    def test_nesting_failure_on_the_quotient_is_loud(self, monkeypatch):
        monkeypatch.setattr(flows, "is_coarsening", lambda coarse, fine: False)
        with pytest.raises(FlowDirectionError, match="step 0 -> 1"):
            rg_entropy_flow((0.2, 0.7), 8, 2, 2)

    @pytest.mark.parametrize("sites, block, levels", [(16, 2, 4), (16, 4, 2), (9, 3, 2)])
    def test_no_configuration_sized_work_beyond_level_zero(
        self, monkeypatch, sites, block, levels
    ):
        clear_shape_caches()
        sizes = {"_block_codes": [], "_canonical_grouping": [], "is_coarsening": [],
                 "gibbs_space": []}

        def recording(name, real, size_of):
            def wrapper(*args, **kwargs):
                sizes[name].append(size_of(*args))
                return real(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(lattice, "_block_codes", recording(
            "_block_codes", lattice._block_codes, lambda codes, *rest: codes.size))
        grouping = recording("_canonical_grouping", partitions._canonical_grouping,
                             lambda keys, positive: keys.size)
        monkeypatch.setattr(partitions, "_canonical_grouping", grouping)
        monkeypatch.setattr(lattice, "_canonical_grouping", grouping)
        monkeypatch.setattr(flows, "is_coarsening", recording(
            "is_coarsening", is_coarsening, lambda coarse, fine: fine.space.size))
        monkeypatch.setattr(lattice, "gibbs_space", recording(
            "gibbs_space", lattice.gibbs_space, lambda k, n: 2**n))
        r = rg_entropy_flow((0.1, -0.9), sites, block, levels)
        full = 2**sites
        atoms = r.atom_counts[0]
        assert sizes["_block_codes"] == [full] + [atoms] * (levels - 1)
        # level 0, then the quotient levels; no Gibbs space
        assert sizes["_canonical_grouping"] == [full] + [atoms] * levels
        assert sizes["is_coarsening"] == [atoms] * (levels - 1)
        assert sizes["gibbs_space"] == []
        # a warm call at another coupling works on the classes only
        for record in sizes.values():
            record.clear()
        warm = rg_entropy_flow((0.6, 0.3), sites, block, levels)
        assert warm.atom_counts == r.atom_counts
        assert sizes == {"_block_codes": [], "_canonical_grouping": [],
                         "is_coarsening": [atoms] * (levels - 1), "gibbs_space": []}
        assert not {"gibbs_space", "partitions"} & set(vars(warm))
        # reading the partitions enumerates the Gibbs space and groups it once per level
        sizes["is_coarsening"].clear()
        assert [p.n_atoms for p in warm.partitions] == list(r.atom_counts)
        assert sizes == {"_block_codes": [full], "_canonical_grouping": [full] * levels,
                         "is_coarsening": [], "gibbs_space": [full]}
        # and the groupings are kept with the shape
        for record in sizes.values():
            record.clear()
        assert r.partitions[0].atom_index_array is warm.partitions[0].atom_index_array
        assert sizes == {"_block_codes": [], "_canonical_grouping": [],
                         "is_coarsening": [], "gibbs_space": [full]}


def clear_shape_caches():
    lattice._skeleton.cache_clear()
    lattice._classes.cache_clear()
    ising._field_and_bond_sums.cache_clear()


def flow_bytes(r):
    """Every number an entropy flow reports or holds, as exact bytes."""
    quotient = r.quotient_flow
    return (
        [h.hex() for h in r.entropies],
        r.atom_counts,
        [(p.atom_index_array.tobytes(), p._masses.tobytes()) for p in r.partitions],
        quotient.space.weight_array.tobytes(),
        [(p.atom_index_array.tobytes(), p._masses.tobytes()) for p in quotient],
        r.coarse_verdict.to_record(),
        r.refinement_verdict.to_record(),
    )


def cold_flow(k, sites, block, levels, block_map=majority_first_site):
    clear_shape_caches()
    return rg_entropy_flow(k, sites, block, levels, block_map=block_map)


class TestShapeSkeleton:
    """The coupling-free part of a flow is built once per shape and reused."""

    @settings(max_examples=80, deadline=None)
    @given(block_flows(max_sites=16), st.sampled_from([majority_first_site, last_site]),
           st.tuples(st.floats(-300.0, 300.0), st.floats(-300.0, 300.0)))
    def test_a_warm_call_is_a_cold_call(self, flow, rule, before):
        k, sites, block, levels = flow
        cold_flow(before, sites, block, levels, rule)
        warm = rg_entropy_flow(k, sites, block, levels, block_map=rule)
        assert flow_bytes(warm) == flow_bytes(cold_flow(k, sites, block, levels, rule))

    def test_zero_weight_points_are_part_of_the_shape(self):
        # (0, +-300) on 8 sites leaves two configurations each, not the same two
        clear_shape_caches()
        couplings = [(0.1, 0.5), (0.2, 0.7), (0.0, 300.0), (1.0, 300.0), (0.0, -300.0),
                     (0.1, 0.5)]
        warm = [rg_entropy_flow(k, 8, 2, 3) for k in couplings]
        assert lattice._skeleton.cache_info()[:2] == (2, 4)  # (hits, misses)
        assert [r.atom_counts[0] for r in warm] == [16, 16, 2, 2, 2, 16]
        supports = [tuple(np.flatnonzero(r.level0.atom_index_array >= 0)) for r in warm]
        assert supports[2] == supports[3] != supports[4]
        for k, r in zip(couplings, warm):
            assert flow_bytes(r) == flow_bytes(cold_flow(k, 8, 2, 3))

    def test_the_rule_is_part_of_the_shape(self):
        clear_shape_caches()
        k = (0.4, -0.6)
        majority, last = (rg_entropy_flow(k, 16, 2, 4, block_map=rule)
                          for rule in (majority_first_site, last_site))
        assert lattice._skeleton.cache_info()[:2] == (0, 2)
        assert flow_bytes(majority) != flow_bytes(last)
        assert flow_bytes(last) == flow_bytes(cold_flow(k, 16, 2, 4, last_site))

    def test_a_rule_with_state_is_called_on_every_call(self):
        # the shape holds the rule's values, not the rule, so a rule whose
        # values change between calls never reuses a stale grouping
        class SiteRule:
            site = 0

            def __call__(self, block):
                return block[:, self.site]

        k = (0.3, -0.5)
        expected = [flow_bytes(cold_flow(k, 8, 2, 3, fixed))
                    for fixed in (majority_first_site, last_site)]
        assert expected[0] != expected[1]
        rule = SiteRule()
        for site in (0, 1, 1, 0):
            rule.site = site
            got = rg_entropy_flow(k, 8, 2, 3, block_map=rule)
            assert flow_bytes(got) == expected[site]

    def test_an_unhashable_rule_is_accepted(self):
        @dataclass
        class Rule:
            site: int

            def __call__(self, block):
                return block[:, self.site]

        with pytest.raises(TypeError):
            hash(Rule(1))
        r = rg_entropy_flow((0.2, 0.9), 8, 2, 3, block_map=Rule(1))
        assert flow_bytes(r) == flow_bytes(cold_flow((0.2, 0.9), 8, 2, 3, last_site))
        # a fresh lambda per call still finds the shape
        before = lattice._skeleton.cache_info().hits
        rg_entropy_flow((0.4, 0.1), 8, 2, 3, block_map=lambda b: b[:, -1])
        assert lattice._skeleton.cache_info().hits == before + 1

    @pytest.mark.parametrize("k", [CouplingVector(0, 1), CouplingVector(1, 10),
                                   CouplingVector(np.float32(0.3), np.float32(-2.5))])
    def test_couplings_of_any_real_type_give_the_float_flow(self, k):
        floats = (float(k.k0), float(k.k1))
        assert flow_bytes(rg_entropy_flow(k, 16, 2, 4)) == (
            flow_bytes(cold_flow(floats, 16, 2, 4))
        )

    def test_the_cap_still_refuses_on_a_warm_cache(self, monkeypatch):
        monkeypatch.delenv(ENV_CONFIG_CAP, raising=False)
        rg_entropy_flow((0.1, 0.5), 10)
        monkeypatch.setenv(ENV_CONFIG_CAP, "512")
        with pytest.raises(ResourceCapError, match="1024 configurations exceed the cap of 512"):
            rg_entropy_flow((0.1, 0.5), 10)
        with pytest.raises(ResourceCapError, match="cap of 512"):
            gibbs_space((0.1, 0.5), 10)

    def test_shared_labels_cannot_be_written(self):
        r = rg_entropy_flow((0.3, -0.8), 8, 2, 3)
        for labels in [*(p.atom_index_array for p in r.partitions),
                       *(p.atom_index_array for p in r.quotient_flow)]:
            with pytest.raises(ValueError, match="read-only"):
                labels[0] = 5
            with pytest.raises(ValueError, match="WRITEABLE"):
                labels.setflags(write=True)
        warm = rg_entropy_flow((0.3, -0.8), 8, 2, 3)
        for p, q in zip(warm.partitions, r.partitions, strict=True):
            assert p.atom_index_array is q.atom_index_array  # shared
        assert flow_bytes(warm) == flow_bytes(cold_flow((0.3, -0.8), 8, 2, 3))


class TestCountTables:
    """Level masses from per-level counts of the (field sum, bond sum) classes."""

    @settings(max_examples=40, deadline=None)
    @given(block_flows(max_sites=16), st.sampled_from([majority_first_site, last_site]))
    def test_entropies_match_a_high_precision_reference(self, flow, rule):
        k, sites, block, levels = flow
        r = rg_entropy_flow(k, sites, block, levels, block_map=rule)
        tables, field, bonds = skeleton_tables(r)
        assert [len(table) for table in tables] == list(r.atom_counts)
        assert_near_reference(r.entropies, mp_entropies(k, tables, field, bonds))

    @pytest.mark.parametrize(
        "k, atom_counts",
        [
            # summing -p log2 p over the Gibbs space's atom masses is off here
            # by -1.4e-2, -6.2e-3, -5.0e-3 and -2.2e-8 relative: the
            # largest mass rounds to 1 and its term is lost
            ((40.0, -3.0), (256, 16, 4, 2)),
            ((5.0, 40.0), (256, 16, 4, 2)),
            ((20.0, 40.0), (238, 16, 4, 2)),
            ((0.7, 300.0), (2, 2, 2, 2)),
        ],
    )
    def test_ordered_couplings_keep_the_largest_atoms_share(self, k, atom_counts):
        r = rg_entropy_flow(k, 16, 2, 4)
        assert r.atom_counts == atom_counts
        assert all(h > 0.0 for h in r.entropies)
        assert_near_reference(r.entropies, mp_entropies(k, *skeleton_tables(r)))
        keys = chained_level_keys(16, 2, 4)
        assert_near_reference(r.entropies, mp_entropies(k, *pm1_count_tables(16, keys)))

    @pytest.mark.parametrize(
        "k, sites, block, levels, block_map, atom_counts",
        [
            ((300.0, 300.0), 16, 2, 4, majority_first_site, (1, 1, 1, 1)),
            ((0.0, -300.0), 16, 2, 4, majority_first_site, (2, 2, 2, 2)),
            ((0.0, 45.0), 16, 2, 4, majority_first_site, (256, 16, 4, 2)),
            ((40.0, -300.0), 16, 4, 2, majority_first_site, (2, 2)),
            ((-300.0, 1.0), 9, 3, 2, last_site, (4, 2)),
        ],
    )
    def test_underflow_corners_keep_their_atom_counts(
        self, k, sites, block, levels, block_map, atom_counts
    ):
        r = rg_entropy_flow(k, sites, block, levels, block_map=block_map)
        assert r.atom_counts == atom_counts
        assert tuple(p.n_atoms for p in r.partitions) == atom_counts

    def test_log_z_matches_the_transfer_matrix(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            k = CouplingVector(*rng.uniform(-300.0, 300.0, 2))
            n = int(rng.integers(2, 17))
            log_z = lattice._class_weights(k, lattice._classes(n))[2]
            closed = log_partition_function(k, n)
            assert abs(log_z - closed) <= 1e-12 * max(1.0, abs(log_z))
        r = rg_entropy_flow((0.3, -0.8), 16, 2, 4)
        assert r.log_normalization == pytest.approx(r.gibbs_space.log_normalization, rel=1e-14)

    def test_the_gibbs_side_is_built_when_read(self):
        r = rg_entropy_flow((0.2, 0.7), 8, 2, 3)
        assert not {"gibbs_space", "partitions", "coarse_flow"} & set(vars(r))
        assert r.gibbs_space is r.gibbs_space
        assert r.gibbs_space.space == gibbs_space((0.2, 0.7), 8).space
        assert r.partitions[0] is r.level0 and r.coarse_flow.sequence == r.partitions

    def test_a_gibbs_space_with_other_zeros_is_loud(self, monkeypatch):
        r = rg_entropy_flow((0.0, 300.0), 8, 2, 3)
        real = lattice.gibbs_space
        monkeypatch.setattr(lattice, "gibbs_space", lambda k, n: real((0.1, 0.5), n))
        with pytest.raises(InconsistencyError, match="weight 0"):
            r.partitions

    def test_the_shape_holds_the_zero_weight_classes(self, monkeypatch):
        keys = []
        real = lattice._skeleton

        def recording(*key):
            keys.append(key)
            return real(*key)

        monkeypatch.setattr(lattice, "_skeleton", recording)
        skeleton = rg_entropy_flow((0.0, 300.0), 8, 2, 3)._skeleton
        classes = lattice._classes(8)
        zeros = np.frombuffer(keys[0][-1], dtype=np.int64)
        kept = np.setdiff1d(np.arange(classes.counts.size), zeros)
        # only the classes of the two ground states, all up and all down
        assert classes.bonds[kept].tolist() == [8.0, 8.0]
        assert np.flatnonzero(skeleton.positive).tolist() == [0, 255]
        assert rg_entropy_flow((0.1, 0.5), 8, 2, 3)._skeleton.positive is None
        assert keys[1][-1] == b""


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
