"""Exact-conservation transaction ledger.

Amounts are integers in minor currency units, so every balance holds
without floating-point drift: for each transfer, what the payer loses
equals what the payee receives plus the leakage routed to a third-party
sink (taxes, fees; negative leakage models a subsidy).  Each entry also
records the running balances after it, and the audit replays the whole
ledger against those records.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ImbalancedEntry, ValidationError, _check_type, check_int

__all__ = ["Transaction", "LedgerEntry", "TransactionLedger",
           "BalanceReport", "ledger_audit", "subset_balance"]


@dataclass(frozen=True)
class Transaction:
    """One transfer: ``source`` pays ``amount``; ``target`` receives
    ``amount - leakage``; the sink collects ``leakage``."""

    source: str
    target: str
    amount: int
    leakage: int = 0

    def __post_init__(self):
        problems = []
        amount = check_int(self.amount, "amount", problems, 0)
        leakage = check_int(self.leakage, "leakage", problems)
        for name, party in (("source", self.source), ("target", self.target)):
            if not isinstance(party, str) or not party:
                problems.append(f"{name} must be a non-empty party name")
        if amount is not None and leakage is not None and leakage > amount:
            problems.append(
                f"leakage {leakage} exceeds amount {amount}; the target "
                "would receive a negative sum")
        if problems:
            raise ValidationError(problems)
        object.__setattr__(self, "amount", amount)
        object.__setattr__(self, "leakage", leakage)

    @property
    def received(self) -> int:
        return self.amount - self.leakage


@dataclass(frozen=True)
class LedgerEntry:
    """A transaction plus the recorded balances right after it."""

    transaction: Transaction
    source_balance_after: int
    target_balance_after: int
    sink_balance_after: int


class TransactionLedger:
    """Append-only ledger with per-party running totals and a sink."""

    def __init__(self, initial_balances=None):
        problems = []
        try:
            initial = dict(initial_balances or {})
        except (TypeError, ValueError):
            raise ValidationError("initial_balances must be a mapping of party to balance") from None
        self.initial_balances = {p: check_int(b, f"balance of {p!r}", problems)
                                 for p, b in initial.items()}
        if problems:
            raise ValidationError(problems)
        self._balances = dict(self.initial_balances)
        self._sink = 0
        self.entries: list[LedgerEntry] = []

    def record(self, tx: Transaction) -> LedgerEntry:
        """Apply a transaction; unknown parties start at balance zero."""
        _check_type(tx, Transaction, "tx")
        self._balances.setdefault(tx.source, 0)
        self._balances.setdefault(tx.target, 0)
        self._balances[tx.source] -= tx.amount
        self._balances[tx.target] += tx.received
        self._sink += tx.leakage
        entry = LedgerEntry(tx, self._balances[tx.source],
                            self._balances[tx.target], self._sink)
        self.entries.append(entry)
        return entry

    @property
    def balances(self) -> dict:
        return dict(self._balances)

    @property
    def sink_total(self) -> int:
        return self._sink


@dataclass(frozen=True)
class BalanceReport:
    """Audit outcome: per-party net flows and the sink accumulation."""

    entries_checked: int
    party_deltas: dict
    sink_total: int
    total_initial: int
    total_final: int


def ledger_audit(ledger: TransactionLedger) -> BalanceReport:
    """Replay the ledger and verify every recorded balance exactly.

    Raises :class:`ImbalancedEntry` at the first entry whose recorded
    balances disagree with the replay, i.e. whose money does not
    conserve against the rest of the ledger.
    """
    balances = dict(_check_type(ledger, TransactionLedger, "ledger").initial_balances)
    sink = 0
    for idx, entry in enumerate(ledger.entries):
        tx = entry.transaction
        balances.setdefault(tx.source, 0)
        balances.setdefault(tx.target, 0)
        before = balances[tx.source] + balances[tx.target]
        balances[tx.source] -= tx.amount
        balances[tx.target] += tx.received
        sink += tx.leakage
        if tx.source != tx.target:
            after = balances[tx.source] + balances[tx.target]
            if before != after + tx.leakage:  # pragma: no cover - arithmetic identity
                raise ImbalancedEntry(idx, "per-entry conservation broken")
        if entry.source_balance_after != balances[tx.source]:
            raise ImbalancedEntry(
                idx, f"recorded source balance {entry.source_balance_after} != "
                     f"replayed {balances[tx.source]}")
        if entry.target_balance_after != balances[tx.target]:
            raise ImbalancedEntry(
                idx, f"recorded target balance {entry.target_balance_after} != "
                     f"replayed {balances[tx.target]}")
        if entry.sink_balance_after != sink:
            raise ImbalancedEntry(
                idx, f"recorded sink balance {entry.sink_balance_after} != "
                     f"replayed {sink}")
    deltas = {p: balances.get(p, 0) - ledger.initial_balances.get(p, 0)
              for p in set(balances) | set(ledger.initial_balances)}
    total_initial = sum(ledger.initial_balances.values())
    total_final = sum(balances.values())
    assert total_initial == total_final + sink  # exact by integer arithmetic
    return BalanceReport(entries_checked=len(ledger.entries),
                         party_deltas=deltas, sink_total=sink,
                         total_initial=total_initial, total_final=total_final)


def subset_balance(ledger: TransactionLedger, indices) -> tuple:
    """(sum of party deltas, sum of leakage) over the entries at ``indices``.

    The two always sum to zero: whatever the parties lose over any
    subset of transfers is exactly what the sink gained there.
    """
    _check_type(ledger, TransactionLedger, "ledger")
    try:
        indices = list(indices)
    except TypeError:
        raise ValidationError(f"indices must be an iterable of entry indices, "
                              f"got {indices!r}") from None
    problems = []
    indices = [check_int(i, f"indices[{k}]", problems, 0, len(ledger.entries) - 1)
               for k, i in enumerate(indices)]
    if problems:
        raise ValidationError(problems)
    delta = 0
    leak = 0
    for i in indices:
        tx = ledger.entries[i].transaction
        delta += tx.received - tx.amount
        leak += tx.leakage
    return delta, leak
