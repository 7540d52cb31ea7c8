from __future__ import annotations

from pathlib import Path

import pytest

from comal.commitments import parse_commitments
from comal.protocol import parse_protocol, parse_protocols

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text()


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def ordering():
    return parse_protocol(fixture_text("ordering.bspl"))


@pytest.fixture(scope="session")
def chan():
    """Two messages on one channel, A -> B. No fixture protocol ever has two
    messages in flight on one channel, so FIFO delivery changes nothing there."""
    return parse_protocol(
        """
        Chan {
          roles A, B
          parameters out k key, out x, out y
          A -> B: m1[out k key, out x]
          A -> B: m2[in k key, out y]
        }
        """
    )


@pytest.fixture(scope="session")
def escrow_ordering():
    return parse_protocol(fixture_text("escrow_ordering.bspl"))


@pytest.fixture(scope="session")
def purchase():
    return parse_commitments(fixture_text("purchase.cupid"))["Purchase"]


@pytest.fixture(scope="session")
def escrow_purchase():
    return parse_commitments(fixture_text("escrow_purchase.cupid"))["EscrowPurchase"]


@pytest.fixture(scope="session")
def escrow_commitments():
    return parse_commitments(fixture_text("escrow_transfer.cupid"))


@pytest.fixture(scope="session")
def escrow_transfer(escrow_commitments):
    return escrow_commitments["EscrowTransfer"]


@pytest.fixture(scope="session")
def operationalization_registry():
    return parse_protocols(fixture_text("operationalization.bspl"))
