"""The loan-solvency pipeline: backends for the saga benchmark.

Three services mirror the classic CRUD → business-logic → orchestration
tiering of a B2B loan process (ROADMAP item 4):

* **LoanDesk** (CRUD) — ``RegisterLoan`` / ``CancelLoan`` over a loan
  applications table;
* **SolvencyEngine** (business logic) — ``ReserveFunds`` /
  ``ReleaseFunds`` against per-applicant credit limits; an insolvent
  applicant *fails the forward operation*, which is the saga's designed
  compensation trigger;
* **LoanBooking** (orchestration) — ``BookLoan`` / ``UnbookLoan``
  finalising the approved loan.

Compensation handlers are deliberately **tolerant of an absent forward
effect**: a saga may compensate an in-doubt step whose forward call
never applied, and in that case the handler returns without touching
the store — no backend write, hence no ``effect_log`` entry, so the
atomicity audit never sees a phantom compensation.  When the forward
effect *is* present, the compensation performs exactly one status
write, which (under its logged idempotency key) the audit pairs with
the forward effect.
"""

from __future__ import annotations

from typing import Any, Dict

from .services import ServiceImplementation, _require
from .store import Database

__all__ = [
    "loan_desk_database",
    "solvency_database",
    "loan_booking_database",
    "register_loan",
    "cancel_loan",
    "reserve_funds",
    "release_funds",
    "book_loan",
    "unbook_loan",
]

#: Per-applicant credit limit tiers, cycled over applicant indices.
#: ``amount > limit`` fails ``ReserveFunds`` — applicants on the lowest
#: tier are the benchmark's deterministic insolvency cases.
_CREDIT_TIERS = (5_000.0, 25_000.0, 50_000.0, 100_000.0)


def loan_desk_database() -> Database:
    """The CRUD tier's store: one table of loan applications."""
    database = Database("loan-desk")
    database.create_table("loan_applications", primary_key="loan_id")
    return database


def solvency_database() -> Database:
    """The solvency tier's store: 32 accounts with credit limits, and
    reservations."""
    database = Database("solvency")
    accounts = database.create_table("accounts", primary_key="applicant_id")
    database.create_table("reservations", primary_key="loan_id")
    for index in range(32):
        accounts.insert(
            {
                "applicant_id": f"APP-{index:04d}",
                "credit_limit": _CREDIT_TIERS[index % len(_CREDIT_TIERS)],
                "reserved": 0.0,
            }
        )
    return database


def loan_booking_database() -> Database:
    """The orchestration tier's store: finalised bookings."""
    database = Database("loan-booking")
    database.create_table("bookings", primary_key="loan_id")
    return database


# -- LoanDesk (CRUD) ---------------------------------------------------------------------


def register_loan(database: Database) -> ServiceImplementation:
    """Open a loan application (``b2b:RegisterLoan``)."""

    def handler(arguments: Dict[str, Any]) -> Any:
        loan_id = _require(arguments, "loanId")
        applicant = _require(arguments, "applicant")
        amount = float(_require(arguments, "amount"))
        database.write(
            "loan_applications",
            {
                "loan_id": loan_id,
                "applicant": applicant,
                "amount": amount,
                "status": "registered",
            },
        )
        return {"loanId": loan_id, "status": "registered"}

    return ServiceImplementation(
        name="loan-desk/register",
        handler=handler,
        backend=database,
        service_time=0.003,
        mutating=True,
    )


def cancel_loan(database: Database) -> ServiceImplementation:
    """Compensate ``RegisterLoan``: mark the application cancelled.

    A no-op (no write, no effect entry) when the application was never
    registered or is already cancelled — safe to run in doubt.
    """

    def handler(arguments: Dict[str, Any]) -> Any:
        loan_id = _require(arguments, "loanId")
        table = database.table("loan_applications")
        if not table.contains(loan_id):
            return {"loanId": loan_id, "status": "absent"}
        if table.get(loan_id)["status"] == "cancelled":
            return {"loanId": loan_id, "status": "cancelled"}
        database.update("loan_applications", loan_id, {"status": "cancelled"})
        return {"loanId": loan_id, "status": "cancelled"}

    return ServiceImplementation(
        name="loan-desk/cancel",
        handler=handler,
        backend=database,
        service_time=0.003,
        mutating=True,
    )


# -- SolvencyEngine (business logic) -----------------------------------------------------


def reserve_funds(database: Database) -> ServiceImplementation:
    """Reserve ``amount`` against the applicant's credit limit.

    Raises (→ SOAP fault) when the applicant is unknown or the amount
    exceeds the remaining limit — the saga's business-level abort.
    """

    def handler(arguments: Dict[str, Any]) -> Any:
        loan_id = _require(arguments, "loanId")
        applicant = _require(arguments, "applicant")
        amount = float(_require(arguments, "amount"))
        account = database.read("accounts", applicant)
        available = account["credit_limit"] - account["reserved"]
        if amount > available:
            raise ValueError(
                f"applicant {applicant} is insolvent: requested {amount:.0f}, "
                f"available {available:.0f}"
            )
        database.update(
            "accounts", applicant, {"reserved": account["reserved"] + amount}
        )
        database.write(
            "reservations",
            {
                "loan_id": loan_id,
                "applicant": applicant,
                "amount": amount,
                "status": "reserved",
            },
        )
        return {"loanId": loan_id, "reserved": amount, "status": "reserved"}

    return ServiceImplementation(
        name="solvency/reserve",
        handler=handler,
        backend=database,
        service_time=0.004,
        mutating=True,
    )


def release_funds(database: Database) -> ServiceImplementation:
    """Compensate ``ReserveFunds``: return the reserved amount.

    A no-op when no active reservation exists for the loan (forward
    never applied, or already released).
    """

    def handler(arguments: Dict[str, Any]) -> Any:
        loan_id = _require(arguments, "loanId")
        reservations = database.table("reservations")
        if not reservations.contains(loan_id):
            return {"loanId": loan_id, "status": "absent"}
        reservation = reservations.get(loan_id)
        if reservation["status"] == "released":
            return {"loanId": loan_id, "status": "released"}
        account = database.read("accounts", reservation["applicant"])
        database.update(
            "accounts",
            reservation["applicant"],
            {"reserved": max(0.0, account["reserved"] - reservation["amount"])},
        )
        database.update("reservations", loan_id, {"status": "released"})
        return {"loanId": loan_id, "status": "released"}

    return ServiceImplementation(
        name="solvency/release",
        handler=handler,
        backend=database,
        service_time=0.004,
        mutating=True,
    )


# -- LoanBooking (orchestration) ---------------------------------------------------------


def book_loan(database: Database) -> ServiceImplementation:
    """Finalise the loan (``b2b:BookLoan``)."""

    def handler(arguments: Dict[str, Any]) -> Any:
        loan_id = _require(arguments, "loanId")
        amount = float(_require(arguments, "amount"))
        database.write(
            "bookings",
            {"loan_id": loan_id, "amount": amount, "status": "booked"},
        )
        return {"loanId": loan_id, "status": "booked"}

    return ServiceImplementation(
        name="booking/book",
        handler=handler,
        backend=database,
        service_time=0.003,
        mutating=True,
    )


def unbook_loan(database: Database) -> ServiceImplementation:
    """Compensate ``BookLoan``: void the booking (no-op when absent)."""

    def handler(arguments: Dict[str, Any]) -> Any:
        loan_id = _require(arguments, "loanId")
        table = database.table("bookings")
        if not table.contains(loan_id):
            return {"loanId": loan_id, "status": "absent"}
        if table.get(loan_id)["status"] == "voided":
            return {"loanId": loan_id, "status": "voided"}
        database.update("bookings", loan_id, {"status": "voided"})
        return {"loanId": loan_id, "status": "voided"}

    return ServiceImplementation(
        name="booking/unbook",
        handler=handler,
        backend=database,
        service_time=0.003,
        mutating=True,
    )
