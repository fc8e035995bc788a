"""An independent numpy forward pass of the molvae model.

It never touches `molvae.numkernel`: every quantity is computed from the
model's equations on plain float64 arrays, so the checks can hold the library
to it. Parameters come in as a dict of arrays keyed by the library's
parameter names (`enc.l1.rel0`, `pool.wp`, `side.m1`, ...).
"""

from __future__ import annotations

import numpy as np

ELEMENTS = ("H", "C", "N", "O", "F", "P", "S", "Cl", "Br", "I")
N_RELATIONS = 4
FEATURE_DIM = 32


def features(mol) -> np.ndarray:
    """Element (10) | charge -1/0/+1 (3) | implicit H 0-4 (5) | degree 0-4 (5) | pad."""
    x = np.zeros((mol.n_atoms, FEATURE_DIM))
    degree = [0] * mol.n_atoms
    for i, j, _ in mol.bonds:
        degree[i] += 1
        degree[j] += 1
    for i, atom in enumerate(mol.atoms):
        x[i, ELEMENTS.index(atom.element)] = 1.0
        x[i, 11 + max(-1, min(1, atom.formal_charge))] = 1.0
        x[i, 13 + min(atom.implicit_h, 4)] = 1.0
        x[i, 18 + min(degree[i], 4)] = 1.0
    return x


def bonded(mol) -> np.ndarray:
    """Binary n x n adjacency: 1 where any bond joins the pair."""
    a = np.zeros((mol.n_atoms, mol.n_atoms))
    for i, j, _ in mol.bonds:
        a[i, j] = a[j, i] = 1.0
    return a


def mean_mats(mol) -> list[np.ndarray]:
    """Per relation, row i averages over the neighbours of i joined by that bond type."""
    mats = []
    for r in range(N_RELATIONS):
        a = np.zeros((mol.n_atoms, mol.n_atoms))
        for i, j, t in mol.bonds:
            if int(t) == r:
                a[i, j] = a[j, i] = 1.0
        deg = a.sum(axis=1, keepdims=True)
        mats.append(np.divide(a, deg, out=np.zeros_like(a), where=deg > 0))
    return mats


def elu(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0.0, x, np.expm1(np.minimum(x, 0.0)))


def sigmoid(x: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def _layer(p: dict, prefix: str, h: np.ndarray, mats: list[np.ndarray]) -> np.ndarray:
    out = h @ p[f"{prefix}.self"]
    for r, m in enumerate(mats):
        out = out + (m @ h) @ p[f"{prefix}.rel{r}"]
    return out


def encode(p: dict, mol) -> tuple[np.ndarray, np.ndarray]:
    """Per-atom mean and log-std: two ELU relational layers, then linear heads."""
    mats = mean_mats(mol)
    h = elu(_layer(p, "enc.l1", features(mol), mats))
    h = elu(_layer(p, "enc.l2", h, mats))
    return _layer(p, "enc.mu", h, mats), _layer(p, "enc.sigma", h, mats)


def pooled(p: dict, mu: np.ndarray) -> np.ndarray:
    """Row softmax of mu @ Wp, summed over atoms."""
    s = mu @ p["pool.wp"]
    e = np.exp(s - s.max(axis=1, keepdims=True))
    return (e / e.sum(axis=1, keepdims=True)).sum(axis=0)


def side(p: dict, g: np.ndarray) -> float:
    hidden = elu(g[None, :] @ p["side.m1"] + p["side.b1"])
    return float((hidden @ p["side.m2"] + p["side.b2"])[0, 0])


def edge_probs(mu: np.ndarray) -> np.ndarray:
    """Deterministic decoder: sigmoid(mu mu^T)."""
    return sigmoid(mu @ mu.T)


def loss(p: dict, mol, label: float, noise: np.ndarray, beta: float, lam: float) -> float:
    """Softplus BCE over unordered pairs + beta * closed-form KL + lam * squared side error."""
    mu, log_std = encode(p, mol)
    z = mu + np.exp(log_std) * noise
    logits = z @ z.T
    iu = np.triu_indices(mol.n_atoms, k=1)
    if iu[0].size:
        x = logits[iu]
        recon = float(np.mean(np.logaddexp(0.0, x) - bonded(mol)[iu] * x))
    else:
        recon = 0.0
    kl = 0.5 * (float(np.sum(mu**2 + np.exp(2.0 * log_std) - 2.0 * log_std)) - mu.size)
    err = side(p, pooled(p, mu)) - label
    return recon + beta * kl + lam * err * err
