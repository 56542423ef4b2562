"""A time limit on every test, so that a regression that loops fails the
test instead of hanging the suite."""

import signal

import pytest

#: Seconds a test may run: well above criterion 6's own 300 s runtime cap.
TEST_TIME_LIMIT_S = 600


if hasattr(signal, "SIGALRM"):  # POSIX only
    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(item):
        def expire(signum, frame):
            raise TimeoutError(f"{item.nodeid} ran longer than {TEST_TIME_LIMIT_S} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(TEST_TIME_LIMIT_S)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
