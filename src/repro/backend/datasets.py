"""Deterministic synthetic datasets for the paper's domains.

The original testbed queried a real student-records database we do not
have; these generators produce the synthetic equivalent (DESIGN.md's
substitution table): seeded, reproducible records for students (§3's
running scenario), insurance claims, bank loans, and patients (§1).
"""

from __future__ import annotations

import functools
import random

from .store import Database

__all__ = [
    "student_database",
    "claims_database",
    "loans_database",
    "patients_database",
]

_FIRST_NAMES = [
    "Ana", "Bruno", "Carla", "Diogo", "Elsa", "Fábio", "Graça", "Hugo",
    "Inês", "João", "Katia", "Luís", "Marta", "Nuno", "Olga", "Pedro",
    "Rita", "Sérgio", "Teresa", "Vasco",
]
_LAST_NAMES = [
    "Silva", "Santos", "Ferreira", "Pereira", "Oliveira", "Costa",
    "Rodrigues", "Martins", "Jesus", "Sousa", "Fernandes", "Gonçalves",
]
_DEGREES = ["Mathematics", "Engineering", "Informatics", "Biology", "Economics"]
_COURSES = ["M101", "E204", "I310", "B120", "EC210", "M202", "I405"]


def student_database(count: int = 200) -> Database:
    """Student records keyed by student ID (the §3 scenario's data).

    Deployments ask for the same ``count`` once per replica and
    shard: the rows are generated once, each caller gets its own copy —
    lazily (:meth:`Table.copy`): a replica holds privately only the rows
    it has read or written, not the dataset.
    """
    return _generate_students(count).copy()


@functools.lru_cache(maxsize=4)
def _generate_students(count: int) -> Database:
    """The master copy: never handed out, so never mutated."""
    rng = random.Random(7)
    database = Database("students-operational")
    table = database.create_table("students", primary_key="student_id")
    for index in range(count):
        student_id = f"S{index + 1:05d}"
        table.insert(
            {
                "student_id": student_id,
                "name": f"{rng.choice(_FIRST_NAMES)} {rng.choice(_LAST_NAMES)}",
                "degree": rng.choice(_DEGREES),
                "email": f"{student_id.lower()}@uma.pt",
                "enrolled_courses": sorted(
                    rng.sample(_COURSES, k=rng.randint(1, 4))
                ),
                "year": rng.randint(1, 5),
            }
        )
    return database


def claims_database(count: int = 150) -> Database:
    """Insurance claims keyed by claim ID (§1's first domain)."""
    rng = random.Random(11)
    database = Database("claims-operational")
    table = database.create_table("claims", primary_key="claim_id")
    statuses = ["filed", "under-assessment", "approved", "rejected", "settled"]
    for index in range(count):
        claim_id = f"C{index + 1:05d}"
        table.insert(
            {
                "claim_id": claim_id,
                "policy_number": f"P{rng.randint(1, 40):04d}",
                "amount": round(rng.uniform(100.0, 25000.0), 2),
                "status": rng.choice(statuses),
                "description": f"Claim {claim_id} for policy damage",
            }
        )
    return database


def loans_database(count: int = 120) -> Database:
    """Loan applications keyed by loan ID (§1's second domain)."""
    rng = random.Random(13)
    database = Database("loans-operational")
    table = database.create_table("loans", primary_key="loan_id")
    for index in range(count):
        loan_id = f"L{index + 1:05d}"
        amount = round(rng.uniform(1000.0, 300000.0), 2)
        score = rng.randint(300, 850)
        table.insert(
            {
                "loan_id": loan_id,
                "customer_id": f"K{rng.randint(1, 60):04d}",
                "amount": amount,
                "credit_score": score,
                "approved": score >= 620 and amount < 250000.0,
            }
        )
    return database


def patients_database(count: int = 100) -> Database:
    """Patient records keyed by patient ID (§1's third domain)."""
    rng = random.Random(17)
    database = Database("patients-operational")
    table = database.create_table("patients", primary_key="patient_id")
    conditions = ["hypertension", "diabetes", "asthma", "fracture", "allergy"]
    for index in range(count):
        patient_id = f"H{index + 1:05d}"
        table.insert(
            {
                "patient_id": patient_id,
                "name": f"{rng.choice(_FIRST_NAMES)} {rng.choice(_LAST_NAMES)}",
                "conditions": sorted(rng.sample(conditions, k=rng.randint(1, 3))),
                "next_treatment": f"2026-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}",
            }
        )
    return database
