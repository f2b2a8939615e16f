"""Exact money conservation in the transaction ledger."""

import dataclasses

import pytest

from hierstat import (
    ImbalancedEntry,
    Transaction,
    TransactionLedger,
    ValidationError,
    ledger_audit,
    subset_balance,
)


def _sample_ledger():
    ledger = TransactionLedger({"a": 1000, "b": 500, "c": 0})
    ledger.record(Transaction("a", "b", 300))
    ledger.record(Transaction("b", "c", 200, leakage=20))
    ledger.record(Transaction("c", "a", 50, leakage=-5))
    return ledger


def test_two_party_transfer_balances():
    ledger = TransactionLedger({"a": 100, "b": 0})
    ledger.record(Transaction("a", "b", 40))
    report = ledger_audit(ledger)
    assert report.sink_total == 0
    assert report.party_deltas == {"a": -40, "b": 40}
    assert report.total_initial == report.total_final


def test_sink_accumulates_exact_leakage():
    ledger = _sample_ledger()
    report = ledger_audit(ledger)
    assert report.sink_total == 20 - 5
    assert ledger.sink_total == 15
    assert report.total_initial == report.total_final + report.sink_total


def test_corrupted_entry_located_by_index():
    ledger = _sample_ledger()
    bad = dataclasses.replace(ledger.entries[1],
                              target_balance_after=ledger.entries[1].target_balance_after + 1)
    ledger.entries[1] = bad
    with pytest.raises(ImbalancedEntry) as err:
        ledger_audit(ledger)
    assert err.value.index == 1


def test_corrupted_sink_record_detected():
    ledger = _sample_ledger()
    bad = dataclasses.replace(ledger.entries[2], sink_balance_after=999)
    ledger.entries[2] = bad
    with pytest.raises(ImbalancedEntry) as err:
        ledger_audit(ledger)
    assert err.value.index == 2


def test_subset_balance_mirrors_leakage():
    ledger = _sample_ledger()
    for subset in ([0], [1], [0, 2], [0, 1, 2]):
        delta, leak = subset_balance(ledger, subset)
        assert delta == -leak


def test_subset_balance_checks_every_index():
    # a negative index, a bool, one past the end, a string and a float:
    # one ValidationError names each of them
    bad = [-1, True, 3, "0", 0.0]
    with pytest.raises(ValidationError) as err:
        subset_balance(_sample_ledger(), [0] + bad)
    assert err.value.violations == [f"indices[{k}] must be an integer in [0, 2], got {i!r}"
                                    for k, i in enumerate(bad, start=1)]
    assert subset_balance(_sample_ledger(), []) == (0, 0)
    with pytest.raises(ValidationError):
        subset_balance(TransactionLedger(), [0])


@pytest.mark.parametrize("indices", [0, None])
def test_subset_balance_rejects_a_non_iterable(indices):
    with pytest.raises(ValidationError) as err:
        subset_balance(_sample_ledger(), indices)
    assert err.value.violations == [
        f"indices must be an iterable of entry indices, got {indices!r}"]


def test_transaction_validation():
    with pytest.raises(ValidationError):
        Transaction("a", "b", -5)
    with pytest.raises(ValidationError):
        Transaction("a", "b", 10, leakage=11)
    with pytest.raises(ValidationError):
        Transaction("a", "b", 10.5)  # floats are not money here
    with pytest.raises(ValidationError):
        TransactionLedger({"a": 1.5})


def test_balances_are_a_copy():
    ledger = _sample_ledger()
    balances = ledger.balances
    assert balances == {"a": 755, "b": 600, "c": 130}
    balances["a"] = 0
    del balances["b"]
    assert ledger.balances == {"a": 755, "b": 600, "c": 130}
    assert ledger_audit(ledger).total_final == 1485


def test_unknown_parties_start_at_zero():
    ledger = TransactionLedger()
    ledger.record(Transaction("x", "y", 10, leakage=1))
    report = ledger_audit(ledger)
    assert report.party_deltas == {"x": -10, "y": 9}
    assert report.sink_total == 1
