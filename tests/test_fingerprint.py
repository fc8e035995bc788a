"""Tests for path and subgraph enumeration, hashing, fingerprints, and metrics."""

import json
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from molvae import fingerprint
from molvae.chem import Atom, build
from molvae.corpus import DRUG_SMILES, random_molecule
from molvae.fingerprint import (
    Fingerprint,
    FpConfig,
    canonical_subgraph_key,
    cosine,
    dice,
    enumerate_subgraphs,
    fnv1a64_array,
    hash_keys,
    key_table,
    latent_similarity,
    path_fingerprint,
    pooled_vector,
    splitmix64_array,
    tanimoto,
    _fold_word,
)
from molvae.smiles import parse_smiles
from molvae.vaemodel import init_model_params

from helpers import (
    brute_subgraphs,
    enumerate_paths,
    fnv1a64,
    oracle_fingerprint,
    oracle_hash_word,
    oracle_hex,
    oracle_similarities,
    oracle_subgraph_key,
    permute,
    slot_sets,
    splitmix64,
)


def fp_of(bits, nbits=2048):
    return Fingerprint(bits=frozenset(bits), nbits=nbits)


# -- path enumeration ----------------------------------------------------


def test_path_count_linear_chain():
    # A path graph with n atoms has n-k paths of k bonds.
    mol = parse_smiles("CCCCC")
    for k in range(1, 5):
        paths = enumerate_paths(mol, k, k)
        assert len(paths) == 5 - k


def test_path_count_ring():
    # A 6-cycle has 6 paths of each length 1..5 and 6 closed 6-bond walks
    # collapsing under the bond-set... each 6-bond simple bond path revisits
    # the start atom; there are 6 of them (one per starting edge direction
    # pair), still 6 after reversal dedup.
    mol = parse_smiles("C1CCCCC1")
    for k in range(1, 6):
        assert len(enumerate_paths(mol, k, k)) == 6
    assert len(enumerate_paths(mol, 6, 6)) == 6


def test_paths_match_bruteforce_on_random_molecules():
    def brute(mol, min_len, max_len):
        adj = [[] for _ in range(mol.n_atoms)]
        for slot, (i, j, _) in enumerate(mol.bonds):
            adj[i].append((j, slot))
            adj[j].append((i, slot))
        out = set()

        def walk(path, used):
            nbonds = len(used)
            if min_len <= nbonds:
                fwd = tuple(path)
                out.add(min(fwd, tuple(reversed(fwd))))
            if nbonds == max_len:
                return
            for nxt, slot in adj[path[-1]]:
                if slot not in used:
                    walk(path + [slot, nxt], used | {slot})

        for s in range(mol.n_atoms):
            walk([s], frozenset())
        return out

    rng = np.random.default_rng(7)
    for _ in range(20):
        mol = random_molecule(rng, int(rng.integers(2, 9)))
        assert enumerate_paths(mol, 1, 4) == brute(mol, 1, 4)


def test_paths_deduplicate_reversal():
    mol = parse_smiles("CCO")
    paths = enumerate_paths(mol, 2, 2)
    assert len(paths) == 1  # C-C-O seen once, not once per direction


def test_single_atom_has_no_paths():
    assert enumerate_paths(parse_smiles("C"), 1, 7) == set()


# -- subgraph enumeration ------------------------------------------------


def enumerated(mol, min_len, max_len):
    """`enumerate_subgraphs` as slot sets, after checking it lists no subgraph twice."""
    masks = enumerate_subgraphs(mol, min_len, max_len)
    assert len(set(masks)) == len(masks)
    return slot_sets(masks)


def test_subgraphs_match_bruteforce_on_random_molecules():
    rng = np.random.default_rng(11)
    for _ in range(20):
        mol = random_molecule(rng, int(rng.integers(2, 10)))
        assert enumerated(mol, 1, 5) == brute_subgraphs(mol, 1, 5)
        assert enumerated(mol, 2, 4) == brute_subgraphs(mol, 2, 4)


@pytest.mark.parametrize("name", sorted(DRUG_SMILES))
def test_subgraphs_match_bruteforce_on_fused_and_aromatic_rings(name):
    mol = parse_smiles(DRUG_SMILES[name])
    assert enumerated(mol, 1, 7) == brute_subgraphs(mol, 1, 7)


@pytest.mark.parametrize("bounds", [(1, 1), (3, 3), (7, 7), (4, 6), (0, 2), (1, 0), (3, 2)])
def test_subgraphs_match_bruteforce_for_narrow_size_ranges(bounds):
    rng = np.random.default_rng(13)
    mols = [random_molecule(rng, int(rng.integers(2, 12))) for _ in range(8)]
    for mol in mols + [parse_smiles(DRUG_SMILES["caffeine"])]:
        assert enumerated(mol, *bounds) == brute_subgraphs(mol, *bounds)


def test_molecule_without_bonds_has_no_subgraphs():
    for mol in (parse_smiles("C"), build([Atom("C"), Atom("O"), Atom("N")], [])):
        assert enumerate_subgraphs(mol, 1, 7) == []
        assert brute_subgraphs(mol, 1, 7) == set()


def test_subgraph_masks_are_not_limited_to_64_bonds():
    mol = parse_smiles("C" * 70)
    masks = enumerate_subgraphs(mol, 1, 2)
    assert len(masks) == 69 + 68 and max(masks) > 1 << 64
    assert enumerated(mol, 1, 2) == brute_subgraphs(mol, 1, 2)


def test_every_path_is_an_enumerated_subgraph():
    rng = np.random.default_rng(5)
    for _ in range(20):
        mol = random_molecule(rng, int(rng.integers(2, 10)))
        subgraphs = enumerated(mol, 1, 7)
        for path in enumerate_paths(mol, 1, 7):
            assert frozenset(path[1::2]) in subgraphs


def test_subgraph_count_star():
    # Isobutane: 3 single bonds, 3 pairs, 1 star; only the pairs are paths.
    mol = parse_smiles("CC(C)C")
    counts = [len(enumerate_subgraphs(mol, k, k)) for k in (1, 2, 3)]
    assert counts == [3, 3, 1]
    assert len(enumerate_paths(mol, 3, 3)) == 0


def test_subgraph_key_separates_branch_from_chain():
    star = parse_smiles("CC(C)C")
    chain = parse_smiles("CCCC")
    (s,) = enumerate_subgraphs(star, 3, 3)
    (c,) = enumerate_subgraphs(chain, 3, 3)
    assert canonical_subgraph_key(key_table(star), s) == "C1-C3|C1-C3|C1-C3"
    assert canonical_subgraph_key(key_table(chain), c) == "C1-C2|C1-C2|C2-C2"


def test_subgraph_key_aromatic_and_bond_symbols():
    mol = parse_smiles("c1ccccc1C#N")
    table = key_table(mol)
    keys = {canonical_subgraph_key(table, sg) for sg in enumerate_subgraphs(mol, 1, 1)}
    assert keys == {"c1:c1", "C1-c1", "C1#N1"}


# -- hashing -------------------------------------------------------------


def test_fnv1a64_reference_values():
    # Published FNV-1a 64-bit test vectors, hashed together in one call.
    want = [0xCBF29CE484222325, 0xAF63DC4C8601EC8C, 0x85944171F73967E8]
    assert fnv1a64_array(["", "a", "foobar"]).tolist() == want
    assert [fnv1a64(data) for data in (b"", b"a", b"foobar")] == want


def test_splitmix64_deterministic_and_64bit():
    out = splitmix64_array(np.array([42, 42], dtype=np.uint64), 5)
    assert out.dtype == np.uint64 and out.shape == (5, 2)
    assert out[:, 0].tolist() == out[:, 1].tolist()
    assert len(set(out[:, 0].tolist())) == 5
    gen = splitmix64(42)
    assert out[:, 0].tolist() == [next(gen) for _ in range(5)]
    # Round k adds k golden gammas at once; near 2**64 every round's state wraps.
    states = [2**64 - 1, 2**64 - 2, 2**64 - 0x9E3779B97F4A7C15, 2**64 - 0x9E3779B97F4A7C15 - 1, 0]
    for rounds in (1, 2, 3):
        out = splitmix64_array(np.array(states, dtype=np.uint64), rounds)
        assert out.dtype == np.uint64 and out.shape == (rounds, len(states))
        for column, state in zip(out.T.tolist(), states):
            gen = splitmix64(state)
            assert column == [next(gen) for _ in range(rounds)]


def test_splitmix64_reference_value():
    # splitmix64(0) first output, per the published reference sequence.
    assert splitmix64_array(np.zeros(1, dtype=np.uint64), 1).tolist() == [[0xE220A8397B1DCDAF]]
    assert next(splitmix64(0)) == 0xE220A8397B1DCDAF


ascii_keys = st.lists(st.text(st.characters(max_codepoint=127), max_size=80), unique=True, max_size=40)


@settings(max_examples=300, deadline=None)
@given(ascii_keys, st.integers(1, 3), st.integers(1, 256).map(lambda k: 8 * k))
@example([], 2, 2048)
@example(["", "x" * 80, "C1-C2", "C1-C2|C2-O1", "\x00", "\x00\x00"], 3, 8)
def test_hash_keys_equals_the_per_key_oracle(keys, bits_per_hash, nbits):
    assert fnv1a64_array(keys).tolist() == [fnv1a64(k.encode("ascii")) for k in keys]
    assert hash_keys(keys, bits_per_hash, nbits) == oracle_hash_word(keys, bits_per_hash, nbits)


# -- fingerprints --------------------------------------------------------


def test_fingerprint_deterministic():
    mol = parse_smiles("CC(=O)Oc1ccccc1C(=O)O")
    f1 = path_fingerprint(mol)
    f2 = path_fingerprint(mol)
    assert f1.bits == f2.bits


def test_fingerprint_invariant_under_atom_renumbering():
    rng = np.random.default_rng(3)
    for _ in range(10):
        mol = random_molecule(rng, int(rng.integers(3, 10)))
        perm = list(rng.permutation(mol.n_atoms))
        assert path_fingerprint(mol).bits == path_fingerprint(permute(mol, perm)).bits


def test_fingerprint_bits_in_range_and_density():
    f = path_fingerprint(parse_smiles("CCO"), FpConfig(nbits=64))
    assert all(0 <= b < 64 for b in f.bits)
    assert f.density == f.on_count / 64


def test_fingerprint_bits_per_hash_bound():
    cfg = FpConfig(bits_per_hash=2)
    mol = parse_smiles("CC(C)O")
    nkeys = len(enumerate_subgraphs(mol, cfg.min_path, cfg.max_path))
    f = path_fingerprint(mol, cfg)
    assert 0 < f.on_count <= 2 * nkeys


def test_bits_per_hash_may_not_exceed_nbits():
    """A key cannot set more bits than the vector has; hashing one would
    allocate bits_per_hash words per key."""
    assert FpConfig(nbits=64, bits_per_hash=64).bits_per_hash == 64
    with pytest.raises(ValueError, match="bits_per_hash <= nbits, got 65 and 64"):
        FpConfig(nbits=64, bits_per_hash=65)


def test_nbits_is_bounded():
    """A huge nbits is refused up front rather than allocated while hashing."""
    assert FpConfig(nbits=2**20).nbits == 2**20
    for nbits in (2**20 + 8, 80_000_000_000_000):
        with pytest.raises(ValueError, match=f"up to 1048576, got {nbits}$"):
            FpConfig(nbits=nbits)


def test_max_path_is_bounded():
    """The count of connected subgraphs grows exponentially with max_path, so a
    long one is refused up front rather than enumerated."""
    assert FpConfig(max_path=16).max_path == 16
    with pytest.raises(ValueError, match="max_path <= 16, got 1 and 17$"):
        FpConfig(max_path=17)


def test_bits_per_hash_is_bounded():
    """A huge bits_per_hash is refused up front rather than allocated while
    hashing, at about 16 bytes per key per bit."""
    assert FpConfig(nbits=2**20, bits_per_hash=1024).bits_per_hash == 1024
    for bits in (1025, 2**20):
        with pytest.raises(ValueError, match=f"<= 1024 and bits_per_hash <= nbits, got {bits} and 1048576$"):
            FpConfig(nbits=2**20, bits_per_hash=bits)


def test_single_atom_fingerprint_is_empty():
    assert path_fingerprint(parse_smiles("C")).on_count == 0


def test_fold_equals_hashing_into_fewer_bits():
    mol = parse_smiles("CC(=O)Oc1ccccc1C(=O)O")
    wide = path_fingerprint(mol, FpConfig(nbits=2048, target_density=0.0))
    assert wide.nbits == 2048
    for nbits in (1024, 256, 64):
        narrow = path_fingerprint(mol, FpConfig(nbits=nbits, target_density=0.0))
        assert _fold_word(wide.word, wide.nbits, nbits) == narrow.word


def test_folded_density_reaches_target_unless_minimum_length():
    rng = np.random.default_rng(2)
    smiles = ["C", "CC", "CCO", "CC(=O)Oc1ccccc1C(=O)O", "CN1C=NC2=C1C(=O)N(C(=O)N2C)C"]
    mols = [parse_smiles(s) for s in smiles]
    mols += [random_molecule(rng, int(rng.integers(2, 10))) for _ in range(20)]
    for mol in mols:
        for target in (0.1, 0.3, 0.5):
            f = path_fingerprint(mol, FpConfig(target_density=target))
            assert f.nbits >= 64
            assert f.density >= target or f.nbits == 64
            # Folding stops at the first length that reaches the target.
            if f.nbits < 2048:
                unfolded = path_fingerprint(mol, FpConfig(target_density=0.0))
                assert _fold_word(unfolded.word, 2048, 2 * f.nbits).bit_count() / (2 * f.nbits) < target


def test_fold_rejects_non_power_of_two_ratio():
    with pytest.raises(ValueError, match="^fingerprint lengths 192 vs 64$"):
        _fold_word(0b10, 192, 64)
    with pytest.raises(ValueError, match="^fingerprint lengths 64 vs 128$"):
        _fold_word(0b10, 64, 128)


def test_to_hex_layout():
    f = fp_of({0, 15}, nbits=16)
    # Bit 0 is the high bit of the first digit; bit 15 the low bit of the last.
    assert f.to_hex() == "8001"
    assert fp_of(set(), nbits=16).to_hex() == "0000"


def test_fingerprint_holds_positions_as_one_int():
    f = fp_of({0, 3, 2047})
    assert f.word == 1 | 8 | 1 << 2047
    assert f.bits == {0, 3, 2047}
    assert f.on_count == 3
    assert f == fp_of([2047, 3, 0, 3])
    with pytest.raises(ValueError):
        fp_of({64}, nbits=64)


# -- bit-identity against the set-based oracles in tests/helpers.py ------


@pytest.fixture(scope="module")
def oracle_mols():
    rng = np.random.default_rng(17)
    mols = [random_molecule(rng, int(rng.integers(2, 17))) for _ in range(24)]
    return mols + [parse_smiles(smi) for smi in DRUG_SMILES.values()]


def test_subgraph_keys_equal_the_oracle(oracle_mols):
    for mol in oracle_mols:
        table = key_table(mol)
        for subgraph in brute_subgraphs(mol, 1, 7):
            mask = sum(1 << s for s in subgraph)
            assert canonical_subgraph_key(table, mask) == oracle_subgraph_key(mol, subgraph)


@pytest.mark.parametrize(
    "cfg",
    [
        FpConfig(),
        FpConfig(target_density=0.0),
        FpConfig(bits_per_hash=1),
        FpConfig(bits_per_hash=2),
        FpConfig(bits_per_hash=3),
    ],
    ids=["default", "unfolded", "bits_per_hash=1", "bits_per_hash=2", "bits_per_hash=3"],
)
def test_path_fingerprint_bits_equal_the_oracle(cfg, oracle_mols):
    for mol in oracle_mols:
        f = path_fingerprint(mol, cfg)
        bits, nbits = oracle_fingerprint(mol, cfg)
        assert (f.bits, f.nbits) == (bits, nbits)
        assert f.to_hex() == oracle_hex(bits, nbits)


def golden_mols():
    mols = {name: parse_smiles(smi) for name, smi in sorted(DRUG_SMILES.items())}
    rng = np.random.default_rng(41)
    for k in range(20):
        mols[f"random-{k}"] = random_molecule(rng, int(rng.integers(12, 21)))
    return mols


@pytest.mark.parametrize("name", ["default", "unfolded"])
def test_path_fingerprint_equals_committed_hex(name):
    """`to_hex()` of every drug and of 20 seeded 12-20-atom molecules, pinned.

    tests/golden_fingerprints.json was written by the set-based subgraph
    enumeration and keying of commit b13df1d, before both moved to bond bit
    masks, so any change to which subgraphs are found or how they are keyed shows.
    """
    want = json.loads((Path(__file__).parent / "golden_fingerprints.json").read_text())[name]
    cfg = FpConfig() if name == "default" else FpConfig(target_density=0.0)
    got = {k: path_fingerprint(mol, cfg).to_hex() for k, mol in golden_mols().items()}
    assert got == want


def random_positions(rng, nbits):
    size = int(rng.integers(0, nbits // 2 + 1)) if rng.random() < 0.8 else int(rng.integers(0, 4))
    return frozenset(map(int, rng.choice(nbits, size=size, replace=False)))


def test_metrics_equal_the_set_formulas_on_mixed_lengths():
    rng = np.random.default_rng(23)
    for _ in range(3000):
        lengths = [64 << int(k) for k in rng.integers(0, 6, size=2)]
        pair = [(random_positions(rng, n), n) for n in lengths]
        a, b = (Fingerprint(bits, nbits) for bits, nbits in pair)
        want = oracle_similarities(*pair)
        assert tanimoto(a, b) == want["tanimoto"]
        assert dice(a, b) == want["dice"]
        assert cosine(a, b) == want["cosine"]
        assert a.to_hex() == oracle_hex(*pair[0])
    # Each new fingerprint meets the last few drawn at every length, in both
    # orders and twice, so most comparisons read a fold an earlier one stored.
    drawn = {64 << k: [] for k in range(6)}
    for _ in range(400):
        nbits = 64 << int(rng.integers(0, 6))
        positions = random_positions(rng, nbits)
        a = Fingerprint(positions, nbits)
        for earlier in drawn.values():
            for b, b_positions in earlier[-2:]:
                want = oracle_similarities((positions, nbits), (b_positions, b.nbits))
                for _ in range(2):
                    for x, y in ((a, b), (b, a)):
                        assert tanimoto(x, y) == want["tanimoto"]
                        assert dice(x, y) == want["dice"]
                        assert cosine(x, y) == want["cosine"]
        drawn[nbits].append((a, positions))


def test_a_fingerprint_folds_to_each_length_once(monkeypatch):
    calls = []

    def counted(word, nbits, n):
        calls.append(n)
        return _fold_word(word, nbits, n)

    monkeypatch.setattr(fingerprint, "_fold_word", counted)
    rng = np.random.default_rng(5)
    wide = Fingerprint.from_word(int.from_bytes(rng.bytes(256), "little"), 2048)
    narrow = [Fingerprint.from_word(w, n) for n in (64, 128) for w in range(1, 51)]
    for f in narrow:
        for metric in (tanimoto, dice, cosine):
            assert metric(wide, f) == metric(f, wide)
    assert sorted(calls) == [64, 128]


def test_a_fingerprint_with_stored_folds_is_still_the_same_value():
    rng = np.random.default_rng(9)
    word = int.from_bytes(rng.bytes(256), "little")
    used, fresh = Fingerprint.from_word(word, 2048), Fingerprint.from_word(word, 2048)
    for n in (64, 256, 1024):
        tanimoto(used, fp_of({1, 2, 3}, nbits=n))
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh) and used.to_hex() == fresh.to_hex()
    assert used.bits == fresh.bits
    back = pickle.loads(pickle.dumps(used))
    assert back == fresh and back.to_hex() == fresh.to_hex()
    assert tanimoto(back, fp_of({1, 2, 3}, nbits=64)) == tanimoto(fresh, fp_of({1, 2, 3}, nbits=64))


# -- similarity metrics --------------------------------------------------


def test_metric_hand_values():
    a = fp_of({1, 2, 3})
    b = fp_of({2, 3, 4, 5})
    assert tanimoto(a, b) == pytest.approx(2 / 5)
    assert dice(a, b) == pytest.approx(4 / 7)
    assert cosine(a, b) == pytest.approx(2 / np.sqrt(12))


def test_metric_identity():
    a = fp_of({5, 6})
    assert tanimoto(a, a) == 1.0
    assert dice(a, a) == 1.0
    assert cosine(a, a) == 1.0


def test_metric_disjoint_sets():
    a, b = fp_of({1}), fp_of({2})
    assert tanimoto(a, b) == 0.0
    assert dice(a, b) == 0.0
    assert cosine(a, b) == 0.0


def test_metric_empty_conventions():
    e = fp_of(set())
    a = fp_of({1})
    for m in (tanimoto, dice, cosine):
        assert m(e, e) == 1.0
        assert m(e, a) == 0.0
        assert m(a, e) == 0.0


def test_metrics_return_python_floats():
    for a, b in ((fp_of(set()), fp_of(set())), (fp_of({1, 2, 3}), fp_of({2, 3, 4, 5}))):
        for m in (tanimoto, dice, cosine):
            assert type(m(a, b)) is float


def test_metric_length_mismatch():
    # Neither length is a power-of-two multiple of the other: incomparable,
    # on every repeat, and no fold is stored.
    short, odd = fp_of({1}, nbits=64), fp_of({1}, nbits=96)
    for _ in range(3):
        for m in (tanimoto, dice, cosine):
            with pytest.raises(ValueError, match="^fingerprint lengths 96 vs 64$"):
                m(short, odd)
            with pytest.raises(ValueError, match="^fingerprint lengths 96 vs 64$"):
                m(odd, short)
    assert not vars(odd).get("_folds") and not vars(short).get("_folds")


def test_metric_folds_longer_fingerprint():
    long = fp_of({1, 64, 70, 100, 127}, nbits=128)
    short = fp_of({0, 1, 6, 36, 40}, nbits=64)
    folded = fp_of({1, 0, 6, 36, 63}, nbits=64)  # bit b -> b mod 64
    assert _fold_word(long.word, 128, 64) == folded.word
    for m in (tanimoto, dice, cosine):
        assert m(long, short) == m(folded, short)
        assert m(short, long) == m(short, folded)


@settings(max_examples=500, deadline=None)
@given(
    st.sets(st.integers(0, 255), max_size=64),
    st.sets(st.integers(0, 255), max_size=64),
)
def test_metric_axioms(bits_a, bits_b):
    a, b = fp_of(bits_a, 256), fp_of(bits_b, 256)
    t, d, c = tanimoto(a, b), dice(a, b), cosine(a, b)
    for v in (t, d, c):
        assert 0.0 <= v <= 1.0
    assert t <= d + 1e-12
    assert t <= c + 1e-12
    assert tanimoto(b, a) == t
    assert dice(b, a) == d
    assert cosine(b, a) == c


# -- latent metric -------------------------------------------------------


def test_latent_similarity_symmetric_and_self_one():
    store = init_model_params(seed=0)
    a = parse_smiles("CCO")
    b = parse_smiles("c1ccccc1")
    assert latent_similarity(a, a, store) == 1.0
    assert latent_similarity(a, b, store) == latent_similarity(b, a, store)


def test_latent_similarity_range():
    store = init_model_params(seed=0)
    a = parse_smiles("CCO")
    b = parse_smiles("CC(=O)Oc1ccccc1C(=O)O")
    v = latent_similarity(a, b, store)
    # Normalized vectors differ by at most 2, so similarity is at least 1/3.
    assert 1.0 / 3.0 <= v <= 1.0


def test_pooled_vector_shape_and_sum():
    store = init_model_params(seed=0)
    mol = parse_smiles("CCO")
    g = pooled_vector(mol, store)
    assert g.shape == (64,)
    assert g.sum() == pytest.approx(3.0, abs=1e-9)
