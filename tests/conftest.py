"""Suite-wide fixtures: a per-test time limit."""

import signal

import pytest

#: seconds one test may run before it fails; the slowest takes about 2 s
TIME_LIMIT_S = 60


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs past TIME_LIMIT_S instead of hanging the suite."""

    def expire(signum, frame):
        pytest.fail(f"test ran past its {TIME_LIMIT_S} s limit", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
