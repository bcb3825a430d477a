"""PTC-lite: synthetic Predictive Toxicology Challenge tables with the
paper's shapes — molecule(2), atom(3), bond(3), connected(3).

``connected`` holds both orientations of each bond ((a,b) and (b,a)), so
connected ⋈ bond has coverage > 1 (tuple repetition), matching the
paper's high-coverage PTC views.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

def ptc_tables(
    spark: SparkSession, *, scale: float = 1.0, seed: int = 13
) -> dict[str, DataFrame]:
    g = np.random.default_rng(seed)
    n_mol = max(20, int(343 * min(1.0, scale * 2)))
    n_atom = max(80, int(2400 * scale))
    n_bond = max(60, int(2400 * scale))

    mol_ids = np.arange(1, n_mol + 1)
    molecule = pd.DataFrame(
        {"molecule_id": mol_ids, "mlabel": np.where(mol_ids % 2 == 0, "P", "N")}
    )

    atom_id = np.arange(1, n_atom + 1)
    atom_mol = g.integers(1, n_mol + 1, n_atom)
    atom = pd.DataFrame(
        {
            "atom_id": atom_id,
            "molecule_id": atom_mol,
            "element": g.integers(0, 8, n_atom),
        }
    )

    bond_id = np.arange(1, n_bond + 1)
    # each bond connects two atoms of one molecule
    a1 = g.integers(1, n_atom + 1, n_bond)
    mol_of = dict(zip(atom_id, atom_mol))
    bond = pd.DataFrame(
        {
            "bond_id": bond_id,
            "molecule_id": np.array([mol_of[a] for a in a1]),
            "btype": g.integers(1, 4, n_bond),
        }
    )

    a2 = np.minimum(a1 + 1 + (bond_id % 3), n_atom)
    both = pd.DataFrame(
        {
            "atom_id1": np.r_[a1, a2],
            "atom_id2": np.r_[a2, a1],
            "bond_id": np.r_[bond_id, bond_id],
        }
    )
    # a handful of connections reference bonds that do not exist (tuple
    # loss when joining with bond)
    n_dangling = max(1, n_bond // 50)
    both.loc[: n_dangling - 1, "bond_id"] = n_bond + 1 + np.arange(n_dangling)
    connected = both.drop_duplicates(["atom_id1", "atom_id2"]).reset_index(drop=True)

    return {
        "molecule": spark.createDataFrame(molecule),
        "atom": spark.createDataFrame(atom),
        "bond": spark.createDataFrame(bond),
        "connected": spark.createDataFrame(connected),
    }
