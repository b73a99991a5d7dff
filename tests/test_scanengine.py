import pytest

from ergospectra.errors import InvalidInput
from ergospectra.scanengine import scan


def square_job(x):
    return x * x


def flaky_job(x):
    if x == 2:
        raise ValueError("boom")
    return -x


class TestScan:
    def test_serial_matches_parallel(self):
        payloads = list(range(20))
        serial = scan(square_job, payloads, workers=1)
        parallel = scan(square_job, payloads, workers=4)
        assert serial.values == parallel.values
        assert serial.ok and parallel.ok

    def test_empty(self):
        result = scan(square_job, [], workers=4)
        assert result.values == {} and result.ok

    def test_failure_collected(self):
        result = scan(flaky_job, [1, 2, 3], workers=1)
        assert not result.ok
        assert set(result.values) == {0, 2}
        assert "boom" in result.failures[1]

    def test_failure_keeps_traceback(self):
        result = scan(flaky_job, [1, 2, 3], workers=2)
        assert result.failures[1].startswith("Traceback")
        assert "flaky_job" in result.failures[1]
        assert "ValueError: boom" in result.failures[1]

    def test_custom_keys_and_order(self):
        result = scan(square_job, [3, 1, 2], keys=["c", "a", "b"], workers=2)
        assert result.ordered(["a", "b", "c"]) == [1, 4, 9]

    def test_key_length_mismatch(self):
        with pytest.raises(InvalidInput):
            scan(square_job, [1, 2], keys=[1], workers=1)

    def test_wall_time_reported(self):
        assert scan(square_job, [1], workers=1).wall_time >= 0.0
