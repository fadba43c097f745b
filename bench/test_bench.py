"""Tests of the benchmark's own helpers: the tail rule, span self time, the gate,
and the scale that brings times to reference speed."""

import pytest

import checks
import spans
import speed


class TestTail:
    def test_value_has_exactly_ten_samples_beyond_it(self):
        value, percentile, n = checks.tail(range(1, 101))
        assert (value, percentile, n) == (90, 90.0, 100)

    def test_order_of_samples_does_not_matter(self):
        assert checks.tail([5, 1, 4, 2, 3] * 4) == checks.tail(sorted([5, 1, 4, 2, 3] * 4))

    def test_eleven_samples_give_the_smallest(self):
        value, percentile, n = checks.tail([7.0] + [9.0] * 10)
        assert value == 7.0 and n == 11
        assert percentile == pytest.approx(100.0 / 11)

    def test_ten_samples_are_too_few(self):
        with pytest.raises(ValueError):
            checks.tail(range(10))


class TestScale:
    def test_kernel_at_reference_time_leaves_times_alone(self):
        ref = speed.REFERENCE_S["narrow"]
        assert speed.scale("narrow", [ref] * 6) == pytest.approx(1.0)

    def test_slow_host_scales_times_down_by_the_median_kernel_time(self):
        ref = speed.REFERENCE_S["wide"]
        # one call hit a stall; the median ignores it
        times = [2 * ref, 2 * ref, 2 * ref, 50 * ref, 1.9 * ref, 2.1 * ref]
        assert speed.scale("wide", times) == pytest.approx(0.5)

    def test_kernels_run(self):
        assert all(t > 0 for kind in speed.KERNELS for t in speed.sample(kind, 1))


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


class TestSelfTime:
    def test_nested_spans(self):
        # root [0, 10] holds a [1, 5] (which holds g [2, 4]) and b [6, 8]
        tracer = spans.Tracer(clock=FakeClock(0, 1, 2, 4, 5, 6, 8, 10))
        tracer.enter("root")
        tracer.enter("a")
        tracer.enter("g")
        tracer.exit()
        tracer.exit()
        tracer.enter("b")
        tracer.exit()
        tracer.exit()
        rows = {(p, n): (calls, total, own) for p, n, calls, total, own in tracer.table()}
        assert rows == {
            ("", "root"): (1, 10, 4),
            ("root", "a"): (1, 4, 2),
            ("a", "g"): (1, 2, 2),
            ("root", "b"): (1, 2, 2),
        }
        assert sum(own for _, _, own in rows.values()) == rows[("", "root")][1]

    def test_repeated_calls_aggregate_per_parent(self):
        tracer = spans.Tracer(clock=FakeClock(0, 1, 3, 4, 5, 6, 7, 9))

        def leaf():
            return None

        traced_leaf = tracer.wrap("leaf", leaf)
        outer = tracer.wrap("outer", lambda: [traced_leaf(), traced_leaf()])
        outer()
        tracer.enter("other")
        tracer.exit()
        rows = {(p, n): (calls, total, own) for p, n, calls, total, own in tracer.table()}
        assert rows[("outer", "leaf")] == (2, 3, 3)
        assert rows[("", "outer")] == (1, 6, 3)
        assert rows[("", "other")] == (1, 2, 2)

    def test_span_closes_when_the_call_raises(self):
        tracer = spans.Tracer(clock=FakeClock(0, 1, 2, 5))

        def fail():
            raise ArithmeticError

        traced_fail = tracer.wrap("fail", fail)
        tracer.wrap("outer", lambda: pytest.raises(ArithmeticError, traced_fail))()
        rows = {(p, n): (calls, total, own) for p, n, calls, total, own in tracer.table()}
        assert rows == {("", "outer"): (1, 5, 4), ("outer", "fail"): (1, 1, 1)}


def write_suite(directory, iterations, trace_rows):
    (directory / "weber_summary.csv").write_text(
        "algorithm,case,iterations,time_s,terminal_reason,seed\n"
        f"mimva,rand0,{iterations},0.25,max_iterations,0\n"
    )
    rows = "".join(f"{n},{0.5 / (n + 1)!r},0.0,{0.01 * n!r}\n" for n in range(trace_rows))
    (directory / "weber_mimva_rand0.csv").write_text(
        "# E_n is the stopping metric at x_n before step n; iterations = data rows - 1\n"
        "n,E_n,delta_n,elapsed_s\n" + rows
    )


EXPECT = checks.Expectation({("mimva", "rand0"): (2, "max_iterations")}, {"mimva": 0.2})


class TestGate:
    def test_recorded_run_passes(self, tmp_path):
        write_suite(tmp_path, iterations=2, trace_rows=3)
        suite = checks.read_suite(tmp_path, "weber")
        assert checks.gate(suite, EXPECT) == {}
        assert suite.rows_written == 4
        run = suite.runs[0]
        assert (run.iterations, run.trace_rows, run.final_error) == (2, 3, 0.5 / 3)

    def test_perturbed_iteration_count_fails(self, tmp_path):
        write_suite(tmp_path, iterations=3, trace_rows=4)
        suite = checks.read_suite(tmp_path, "weber")
        failures = checks.gate(suite, EXPECT)
        assert list(failures) == [("mimva", "rand0")]
        assert "3 iterations" in failures[("mimva", "rand0")]

    def test_final_error_above_bound_fails(self, tmp_path):
        write_suite(tmp_path, iterations=2, trace_rows=3)
        suite = checks.read_suite(tmp_path, "weber")
        strict = checks.Expectation(EXPECT.runs, {"mimva": 0.1})
        assert list(checks.gate(suite, strict)) == [("mimva", "rand0")]

    def test_changed_digest_and_missing_run_fail(self, tmp_path):
        write_suite(tmp_path, iterations=2, trace_rows=3)
        suite = checks.read_suite(tmp_path, "weber")
        expect = checks.Expectation(
            {**EXPECT.runs, ("mimha", "rand0"): (2, "max_iterations")}, EXPECT.max_final_error
        )
        failures = checks.gate(suite, expect, reference={("mimva", "rand0"): "0" * 64})
        assert set(failures) == {("mimva", "rand0"), ("mimha", "rand0")}

    def test_clock_fields_do_not_count_as_bytes(self, tmp_path):
        write_suite(tmp_path, iterations=2, trace_rows=3)
        before = checks.read_suite(tmp_path, "weber").bytes_written
        summary = tmp_path / "weber_summary.csv"
        summary.write_text(summary.read_text().replace("0.25", "0.2512345"))
        assert checks.read_suite(tmp_path, "weber").bytes_written == before
