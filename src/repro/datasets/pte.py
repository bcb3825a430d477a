"""PTE-lite: synthetic predictive-toxicology tables with the paper's
shapes — drug(1 attribute, 0 FDs), active(2), bond(4), atm(5).

Engineered behaviours: ``active`` covers only part of ``drug`` (tuple
loss in joins), ``atom1_id → drug_id`` in bond plus ``drug_id →
activity`` in active feed inferFDs (the paper reports inferFDs
recovering up to 100% of PTE's join FDs), and a bond attribute whose
only violations belong to inactive drugs so it upstages in
[bond ⋈ drug] ⋈ active.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

def pte_tables(
    spark: SparkSession, *, scale: float = 1.0, seed: int = 11
) -> dict[str, DataFrame]:
    g = np.random.default_rng(seed)
    n_drug = max(20, int(340 * min(1.0, scale * 2)))
    n_atm = max(60, int(1800 * scale))
    n_bond = max(60, int(1900 * scale))

    drug_ids = np.arange(1, n_drug + 1)
    drug = pd.DataFrame({"drug_id": drug_ids})

    # active: ~88% of drugs, activity functionally determined by drug.
    n_active = max(10, int(n_drug * 0.88))
    active_ids = drug_ids[:n_active]
    active = pd.DataFrame(
        {
            "drug_id": active_ids,
            "activity": np.where(active_ids % 3 == 0, "pos", "neg"),
        }
    )
    inactive = set(drug_ids[n_active:])

    # atm: atm_id key; element -> atype; atoms belong to one drug.
    atm_id = np.arange(1, n_atm + 1)
    element = g.integers(0, 10, n_atm)
    atm = pd.DataFrame(
        {
            "atm_id": atm_id,
            "drug_id": g.integers(1, n_drug + 1, n_atm),
            "element": element,
            "charge": (element % 4) - 1 + (atm_id % 2) * 0.5,
            "atype": element * 2 + 40,  # element -> atype
        }
    )
    atom_drug = dict(zip(atm["atm_id"], atm["drug_id"]))

    # bond (4 attributes, like original PTE): both endpoint atoms belong
    # to the bond's drug, so atom1_id -> drug_id holds; btype = f(atom1_id)
    # except for bonds of inactive drugs (upstaged in [bond⋈drug]⋈active).
    atoms_of_drug: dict[int, list[int]] = {}
    for a, d in atom_drug.items():
        atoms_of_drug.setdefault(d, []).append(a)
    atom1 = g.integers(1, n_atm + 1, n_bond)
    b_drug = np.array([atom_drug[a] for a in atom1])
    atom2 = np.array(
        [atoms_of_drug[d][int(g.integers(0, len(atoms_of_drug[d])))] for d in b_drug]
    )
    btype = atom1 % 5
    corrupt = np.array([d in inactive for d in b_drug]) & (g.random(n_bond) < 0.8)
    btype = np.where(corrupt, 5 + (atom2 % 3), btype)
    bond = pd.DataFrame(
        {
            "drug_id": b_drug,
            "atom1_id": atom1,
            "atom2_id": atom2,
            "btype": btype,
        }
    )

    return {
        "drug": spark.createDataFrame(drug),
        "active": spark.createDataFrame(active),
        "atm": spark.createDataFrame(atm),
        "bond": spark.createDataFrame(bond),
    }
