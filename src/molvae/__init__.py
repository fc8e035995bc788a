"""Graph-VAE molecular toolkit: SMILES, autodiff, R-GCN VAE, fingerprints."""
