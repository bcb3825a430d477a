"""MIMIC-III-lite: synthetic clinical tables with the paper's join
topology (patients ⋈ admissions, diagnoses_icd ⋈ patients,
d_icd_diagnoses ⋈ diagnoses_icd).

Engineered behaviours (Section II's motivating mechanics):

- ``flag_a → flag_b`` on patients is *approximate*: violated only by
  "orphan" patients that no admission references — after the join the
  violators vanish and the FD is upstaged (Lemma 2 / Example 2).
- Admissions stores the subject-level attribute ``insurance``
  (``subject_id → insurance``) and has a near-key ``admittime``; both
  feed ``inferFDs`` transitivity through ``subject_id``.
- A few admissions reference non-existent patients, so the natural join
  drops tuples on both sides (coverage < 1, like the paper's Q(patients
  ⋈ admissions) at 0.79).
- Small categorical domains let genuine join FDs arise.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

def mimic_tables(
    spark: SparkSession, *, scale: float = 1.0, seed: int = 7
) -> dict[str, DataFrame]:
    g = np.random.default_rng(seed)
    n_p = max(30, int(800 * scale))
    n_a = max(40, int(1200 * scale))
    n_d = max(60, int(2400 * scale))
    n_codes = max(12, int(40 * min(1.0, scale)))

    # ---- patients (7 attributes) ----------------------------------------
    subject_id = np.arange(1, n_p + 1)
    n_orphan = max(2, n_p // 20)  # last 5% never admitted
    referencable = n_p - n_orphan
    dod_days = g.integers(0, 4000, n_p)
    alive = g.random(n_p) < 0.6
    dod = (pd.to_datetime("2100-01-01") + pd.to_timedelta(dod_days, unit="D")).where(~alive)
    flag_a = g.integers(0, 4, n_p)
    flag_b = (flag_a * 3 + 1) % 5  # functional... except for orphans:
    orphan_mask = subject_id > referencable
    corrupt = orphan_mask & (g.random(n_p) < 0.9)
    flag_b = np.where(corrupt, (flag_b + 1 + g.integers(0, 3, n_p)) % 7 + 10, flag_b)
    patients = pd.DataFrame(
        {
            "subject_id": subject_id,
            "gender": g.choice(["M", "F"], n_p),
            "dob": pd.to_datetime("1930-01-01")
            + pd.to_timedelta(g.integers(0, 25000, n_p) // 100 * 100, unit="D"),
            "dod": dod,
            "expire_flag": (~alive).astype(int),  # dod -> expire_flag
            "flag_a": flag_a,
            "flag_b": flag_b,
        }
    )

    # ---- admissions (10 attributes) -------------------------------------
    hadm_id = np.arange(1, n_a + 1)
    adm_subject = g.integers(1, referencable + 1, n_a)
    n_bad = max(1, n_a // 100)  # admissions referencing unknown patients
    adm_subject[:n_bad] = n_p + 1 + np.arange(n_bad)
    admittime = pd.Series(
        pd.to_datetime("2120-01-01")
        + pd.to_timedelta(hadm_id * 431 + g.integers(0, 7, n_a), unit="min")
    )  # injective: admittime is a key
    diagnosis = g.integers(0, 30, n_a)
    h_expire_flag = (diagnosis % 7 == 0).astype(int)  # diagnosis -> h_expire_flag
    admission_location = g.integers(0, 8, n_a)
    insurance_of_subject = g.choice(
        ["Medicare", "Medicaid", "Private", "Self"], n_p + 1 + n_bad
    )
    admissions = pd.DataFrame(
        {
            "hadm_id": hadm_id,
            "subject_id": adm_subject,
            "admittime": admittime,
            "admission_type": g.choice(["EMERGENCY", "ELECTIVE", "URGENT"], n_a),
            "admission_location": admission_location,
            "insurance": insurance_of_subject[adm_subject - 1],
            "diagnosis": diagnosis,
            "h_expire_flag": h_expire_flag,
            "discharge_location": (admission_location * 2 + h_expire_flag) % 9,
            "admyear": admittime.dt.year,
        }
    )

    # ---- diagnoses_icd (4 attributes) -----------------------------------
    d_subject = g.integers(1, referencable + 1, n_d)
    diagnoses_icd = pd.DataFrame(
        {
            "row_id": np.arange(1, n_d + 1),
            "subject_id": d_subject,
            "seq_num": g.integers(1, 6, n_d),
            "icd9_code": g.integers(100, 100 + n_codes, n_d),
        }
    )

    # ---- d_icd_diagnoses (3 attributes) ---------------------------------
    codes = np.arange(100, 100 + n_codes + 5)  # a few codes never diagnosed
    d_icd_diagnoses = pd.DataFrame(
        {
            "icd9_code": codes,
            "short_title": [f"ST_{c}" for c in codes],  # injective
            "long_title": [f"CAT_{c % 6}" for c in codes],  # short -> long
        }
    )

    return {
        "patients": spark.createDataFrame(patients),
        "admissions": spark.createDataFrame(admissions),
        "diagnoses_icd": spark.createDataFrame(diagnoses_icd),
        "d_icd_diagnoses": spark.createDataFrame(d_icd_diagnoses),
    }
