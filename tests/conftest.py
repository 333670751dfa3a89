import signal

import pytest


@pytest.fixture
def deadline():
    """``deadline(seconds)`` makes the running test fail with TimeoutError after ``seconds``.

    A hang then fails in seconds instead of spinning until the suite is
    killed.  The timer is cancelled and the previous SIGALRM handler is
    restored when the test ends.
    """

    def expire(signum, frame):
        raise TimeoutError("test ran past its deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    try:
        yield lambda seconds: signal.setitimer(signal.ITIMER_REAL, seconds)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
