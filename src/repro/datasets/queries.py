"""The 16 SPJ evaluation views (paper Table II), as view-spec ASTs.

MIMIC/PTE/PTC views mirror the paper's query list; TPC-H views are the
paper's Q2*/Q3*/Q9*/Q11* (TPC-H queries with group-by/order-by removed,
constants kept in spirit, adapted to the synthetic TPC-H-lite schema).
Equijoins are canonicalized to shared-name joins by renaming at the
leaves (see views/spec.py).
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.views.spec import BaseRel, Join, Project, Select, ViewSpec


@dataclass(frozen=True)
class QueryDef:
    dataset: str
    name: str
    spec: ViewSpec


def _mimic() -> list[QueryDef]:
    patients = BaseRel("patients")
    admissions = BaseRel("admissions")
    diagnoses = BaseRel("diagnoses_icd")
    dicd = BaseRel("d_icd_diagnoses")
    q1 = Project(
        Select(
            Join(patients, admissions, on=("subject_id",)),
            "admission_type = 'EMERGENCY'",
        ),
        (
            "subject_id", "gender", "dod", "expire_flag", "flag_a",
            "flag_b", "insurance", "diagnosis", "h_expire_flag",
            "admission_location",
        ),
    )
    q2 = Join(diagnoses, patients, on=("subject_id",))
    q3 = Join(dicd, diagnoses, on=("icd9_code",))
    q4 = Join(Join(diagnoses, patients, on=("subject_id",)), dicd, on=("icd9_code",))
    return [
        QueryDef("mimic3", "Q(patients ⋈ admissions)", q1),
        QueryDef("mimic3", "diagnosesicd ⋈ patients", q2),
        QueryDef("mimic3", "dicddiagnoses ⋈ diagnosesicd", q3),
        QueryDef("mimic3", "[diagnosesicd ⋈ patients] ⋈ dicddiagnoses", q4),
    ]


def _ptc() -> list[QueryDef]:
    molecule = BaseRel("molecule")
    atom = BaseRel("atom")
    bond = BaseRel("bond")
    connected = BaseRel("connected")
    atom1 = BaseRel("atom", rename=(("atom_id", "atom_id1"),))
    q5 = Join(atom, molecule, on=("molecule_id",))
    q6 = Join(connected, bond, on=("bond_id",))
    q7 = Join(Join(connected, bond, on=("bond_id",)), molecule, on=("molecule_id",))
    q8 = Join(connected, Join(atom1, molecule, on=("molecule_id",)), on=("atom_id1",))
    return [
        QueryDef("ptc", "atom ⋈ molecule", q5),
        QueryDef("ptc", "connected ⋈ bond", q6),
        QueryDef("ptc", "[connected ⋈ bond] ⋈ molecule", q7),
        QueryDef("ptc", "connected ⋈id1 [atom ⋈ molecule]", q8),
    ]


def _pte() -> list[QueryDef]:
    drug = BaseRel("drug")
    active = BaseRel("active")
    atm = BaseRel("atm")
    bond = BaseRel("bond")
    atm1 = BaseRel(
        "atm",
        rename=(
            ("atm_id", "atom1_id"), ("element", "element_1"),
            ("charge", "charge_1"), ("atype", "atype_1"),
        ),
    )
    atm2 = BaseRel(
        "atm",
        rename=(
            ("atm_id", "atom2_id"), ("element", "element_2"),
            ("charge", "charge_2"), ("atype", "atype_2"),
        ),
    )
    q9 = Join(atm, drug, on=("drug_id",))
    q10 = Join(active, drug, on=("drug_id",))
    q11 = Join(Join(bond, drug, on=("drug_id",)), active, on=("drug_id",))
    q12 = Join(
        Join(
            Join(atm1, bond, on=("atom1_id", "drug_id")),
            atm2,
            on=("atom2_id", "drug_id"),
        ),
        drug,
        on=("drug_id",),
    )
    return [
        QueryDef("pte", "atm ⋈ drug", q9),
        QueryDef("pte", "active ⋈ drug", q10),
        QueryDef("pte", "[bond ⋈ drug] ⋈ active", q11),
        QueryDef("pte", "[atm ⋈ bond ⋈ atm] ⋈ drug", q12),
    ]


def _tpch() -> list[QueryDef]:
    part = BaseRel("part", rename=(("p_partkey", "partkey"),))
    partsupp = BaseRel(
        "partsupp", rename=(("ps_partkey", "partkey"), ("ps_suppkey", "suppkey"))
    )
    supplier = BaseRel(
        "supplier", rename=(("s_suppkey", "suppkey"), ("s_nationkey", "nationkey"))
    )
    nation = BaseRel(
        "nation", rename=(("n_nationkey", "nationkey"), ("n_regionkey", "regionkey"))
    )
    region = BaseRel("region", rename=(("r_regionkey", "regionkey"),))
    customer = BaseRel(
        "customer", rename=(("c_custkey", "custkey"), ("c_nationkey", "nationkey"))
    )
    orders = BaseRel(
        "orders", rename=(("o_orderkey", "orderkey"), ("o_custkey", "custkey"))
    )
    lineitem = BaseRel(
        "lineitem",
        rename=(
            ("l_orderkey", "orderkey"), ("l_partkey", "partkey"),
            ("l_suppkey", "suppkey"),
        ),
    )

    q2 = Project(
        Join(
            Join(
                Join(
                    Join(
                        Select(part, "p_size = 15 AND p_type = 'ECONOMY'"),
                        partsupp,
                        on=("partkey",),
                    ),
                    supplier,
                    on=("suppkey",),
                ),
                nation,
                on=("nationkey",),
            ),
            region,
            on=("regionkey",),
        ),
        (
            "partkey", "suppkey", "p_brand", "p_retailprice", "ps_supplycost",
            "s_acctbal", "s_phone", "nationkey", "n_name", "r_name",
        ),
    )
    q3 = Project(
        Join(
            Join(
                Select(customer, "c_mktsegment = 'BUILDING'"),
                Select(orders, "o_orderdate < TIMESTAMP '1995-03-15 00:00:00'"),
                on=("custkey",),
            ),
            Select(lineitem, "l_shipdate > TIMESTAMP '1995-03-15 00:00:00'"),
            on=("orderkey",),
        ),
        ("custkey", "orderkey", "o_orderdate", "o_orderpriority",
         "l_linenumber", "l_quantity"),
    )
    q9 = Project(
        Join(
            Join(
                Join(
                    Join(
                        Join(
                            Select(part, "p_type = 'PROMO'"),
                            partsupp,
                            on=("partkey",),
                        ),
                        supplier,
                        on=("suppkey",),
                    ),
                    lineitem,
                    on=("partkey", "suppkey"),
                ),
                orders,
                on=("orderkey",),
            ),
            nation,
            on=("nationkey",),
        ),
        ("partkey", "suppkey", "nationkey", "n_name", "ps_supplycost",
         "l_quantity", "o_orderdate", "l_discount", "p_brand"),
    )
    q11 = Select(
        Join(
            Join(partsupp, supplier, on=("suppkey",)),
            nation,
            on=("nationkey",),
        ),
        "n_name = 'NATION_07'",
    )
    return [
        QueryDef("tpch", "Q2*(P ⋈ PS ⋈ S ⋈ N ⋈ R)", q2),
        QueryDef("tpch", "Q3*(C ⋈ O ⋈ L)", q3),
        QueryDef("tpch", "Q9*(P ⋈ PS ⋈ S ⋈ L ⋈ O ⋈ N)", q9),
        QueryDef("tpch", "Q11*(PS ⋈ S ⋈ N)", q11),
    ]


def all_queries() -> list[QueryDef]:
    return _pte() + _ptc() + _mimic() + _tpch()
