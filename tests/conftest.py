import pytest

from ionlattice.lattice import LatticeParams

#: collected "criterion NN: PASS/FAIL" lines, echoed after the run
ACCEPTANCE_LINES = []


@pytest.fixture
def nn_ring():
    """NN ring factory in library units (critical point at nu_t = 1)."""

    def make(n=20, nu=1.0):
        return LatticeParams(n=n, nu=nu)

    return make


@pytest.fixture
def lr_ring():
    """Longer-range ring factory (couplings out to fourth neighbours)."""

    def make(n=20, nu=1.0):
        return LatticeParams(n=n, nu=nu, tau_max=4)

    return make


@pytest.fixture
def record_criterion():
    """Record one acceptance line, print it, and fail the test if not met."""

    def rec(num, ok, detail):
        line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})"
        ACCEPTANCE_LINES.append(line)
        print(line)
        assert ok, line

    return rec


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
