"""Work split between forked workers: contiguous parts, results in order,
every child reaped, and a child's failure raised in the parent."""

import errno
import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracstar._csvio as csvio
from conftest import assert_no_child_processes
from fracstar._csvio import chunks, cpus, start


def fan_out(run, parts):
    """Every part's result, part 0 run here and the others in forked children."""
    return start(run, parts)[1]()


class TestChunks:
    @given(
        sizes=st.lists(st.integers(0, 10**6), max_size=20),
        workers=st.integers(1, 12),
        minimum=st.sampled_from([1, 1000, csvio.SPLIT_MIN_VALUES]),
    )
    @settings(max_examples=200, deadline=None)
    def test_contiguous_parts_cover_every_item_once(self, sizes, workers, minimum):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(csvio, "cpus", lambda: workers)
            mp.setattr(csvio, "SPLIT_MIN_VALUES", minimum)
            parts = chunks(sizes)
        assert [i for part in parts for i in part] == list(range(len(sizes)))
        if sizes:
            assert all(len(part) for part in parts)
        else:
            assert parts == [range(0)]
        assert len(parts) <= workers
        assert len(parts) <= max(1, sum(sizes) // minimum)

    @given(blocks=st.integers(1, 300), width=st.integers(1, 50), workers=st.integers(1, 8))
    def test_equal_items_are_shared_evenly(self, blocks, width, workers):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(csvio, "cpus", lambda: workers)
            mp.setattr(csvio, "SPLIT_MIN_VALUES", 1)
            lengths = [len(part) for part in chunks([width] * blocks)]
        assert len(lengths) == min(blocks, workers)
        assert max(lengths) - min(lengths) <= 1

    def test_files_are_shared_by_their_values(self, monkeypatch):
        # four sources and four initial data, in the order a problem file
        # names them: each worker takes two sources
        monkeypatch.setattr(csvio, "cpus", lambda: 2)
        sizes = [67270, 510, 67965, 523, 67551, 526, 65862, 525]
        assert chunks(sizes) == [range(0, 3), range(3, 8)]

    def test_only_large_conversions_split(self, monkeypatch):
        monkeypatch.setattr(csvio, "cpus", lambda: 8)
        # a state of Nt = 128 steps on one edge of 129 nodes stays whole ...
        assert chunks([129] * 129) == [range(129)]
        # ... four edges of 513 nodes take four workers
        assert len(chunks([4 * 513] * 129)) == 4

    def test_without_fork_everything_is_one_part(self, monkeypatch):
        monkeypatch.setattr(csvio, "SPLIT_MIN_VALUES", 1)
        monkeypatch.delattr(os, "fork", raising=False)
        assert chunks([10**6] * 4) == [range(4)]

    def test_a_given_number_of_parts(self):
        # whatever the data and the CPUs, at most one part per item
        assert chunks([1] * 10, 3) == [range(0, 3), range(3, 7), range(7, 10)]
        assert chunks([10**6] * 2, 3) == [range(0, 1), range(1, 2)]
        assert chunks([7], 0) == [range(1)] and chunks([], 2) == [range(0)]

    def test_workers_are_capped_at_eight(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        assert cpus() == 8
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert cpus() == 8
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert cpus() == 1


class TestFanOut:
    def test_results_come_back_in_part_order(self):
        parts = [range(0, 2), range(2, 5), range(5, 6)]
        out = fan_out(lambda k, part: (k, os.getpid(), [i * i for i in part]), parts)
        assert [(k, squares) for k, _, squares in out] == [
            (0, [0, 1]), (1, [4, 9, 16]), (2, [25])
        ]
        pids = [pid for _, pid, _ in out]
        assert pids[0] == os.getpid() and len(set(pids)) == 3
        assert_no_child_processes()

    def test_arrays_come_back_bitwise(self):
        values = np.array([[0.0, -0.0, 5e-324], [np.nan, -np.inf, 1 / 3]])
        out = fan_out(lambda k, part: [values, values[:, k], "text"], [range(1)] * 3)
        for k, (array, column, text) in enumerate(out):
            assert (array.tobytes(), array.shape, text) == (values.tobytes(), (2, 3), "text")
            assert column.tobytes() == values[:, k].tobytes()
        assert_no_child_processes()

    def test_child_exception_is_raised_after_every_child_is_reaped(self):
        def run(k, part):
            if k >= 1:
                raise (KeyError if k == 1 else ValueError)(f"part {k} failed")
            return k

        # the lowest failing part's exception, with its type and message
        with pytest.raises(KeyError, match="part 1 failed"):
            fan_out(run, [range(1)] * 3)
        assert_no_child_processes()

    def test_own_part_failure_reaps_the_children(self):
        def run(k, part):
            if k == 0:
                raise RuntimeError("own part failed")
            return np.zeros(1 << 18)  # more than a pipe holds

        with pytest.raises(RuntimeError, match="own part failed"):
            fan_out(run, [range(1)] * 3)
        assert_no_child_processes()

    def test_child_that_dies_without_a_result(self):
        def run(k, part):
            if k == 1:
                os._exit(3)
            return k

        with pytest.raises(ChildProcessError, match="exited without a result"):
            fan_out(run, [range(1)] * 2)
        assert_no_child_processes()

    @pytest.mark.parametrize("cut", [True, False])
    def test_child_that_dies_while_sending_has_no_result(self, monkeypatch, cut):
        # the child sends its array, whole or cut halfway through the array's
        # frame, and exits 9 before it is done: no result counts
        def dying(fd, obj):
            buffers = []
            frames = [pickle.dumps(obj, 5, buffer_callback=buffers.append)]
            frames += [b.raw() for b in buffers]
            with open(fd, "wb") as fh:
                for frame in frames:
                    fh.write(len(frame).to_bytes(8, "little"))
                    fh.write(frame[: len(frame) // 2] if cut and frame is frames[-1] else frame)
            os._exit(9)

        monkeypatch.setattr(csvio, "_send", dying)
        with pytest.raises(ChildProcessError, match="exited without a result"):
            fan_out(lambda k, part: np.arange(1.0, 1001.0), [range(1), range(1, 2)])
        assert_no_child_processes()

    def test_exception_that_does_not_pickle(self):
        def run(k, part):
            if k == 1:
                exc = ValueError("carries a lambda")
                exc.hook = lambda: None
                raise exc
            return k

        with pytest.raises(RuntimeError, match="carries a lambda"):
            fan_out(run, [range(1)] * 2)
        assert_no_child_processes()

    @pytest.mark.parametrize(
        "name, exc",
        [("pipe", OSError(errno.EMFILE, "Too many open files")),
         ("fork", BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable"))],
    )
    def test_parts_that_cannot_be_forked_run_here(self, monkeypatch, name, exc):
        # the second pipe or fork fails, as under a file or process limit:
        # part 1 runs in a child, parts 2 and 3 here, and no pipe is left open
        fds = []
        pipe = os.pipe
        monkeypatch.setattr(os, "pipe", lambda: fds.extend(pipe()) or tuple(fds[-2:]))
        fail_from_second_call(monkeypatch, name, exc)
        out = fan_out(lambda k, part: (k, os.getpid()), [range(1)] * 4)
        assert [k for k, _ in out] == [0, 1, 2, 3]
        pids = [pid for _, pid in out]
        assert pids[0] == pids[2] == pids[3] == os.getpid() != pids[1]
        assert_no_child_processes()
        assert len(fds) == (2 if name == "pipe" else 4)
        for fd in fds:
            with pytest.raises(OSError):
                os.fstat(fd)

    def test_child_failure_is_raised_before_unforked_parts_run(self, monkeypatch):
        fail_from_second_call(monkeypatch, "fork", OSError(errno.EAGAIN, "no process"))
        ran = []

        def run(k, part):
            if k == 1:
                raise KeyError("part 1 failed")
            ran.append(k)

        with pytest.raises(KeyError, match="part 1 failed"):
            fan_out(run, [range(1)] * 3)
        assert ran == [0]
        assert_no_child_processes()


class TestStart:
    def test_every_part_runs_in_a_child_while_the_caller_works(self):
        forked, join = start(lambda k, part: (k, os.getpid()), [range(1)] * 3, first=0)
        assert forked == 3
        here = os.getpid()  # the caller's own work would go here
        out = join()
        assert [k for k, _ in out] == [0, 1, 2]
        assert here not in {pid for _, pid in out} and len({pid for _, pid in out}) == 3
        assert_no_child_processes()

    def test_a_join_dropped_uncalled_reaps_the_children(self):
        forked, join = start(lambda k, part: np.zeros(1 << 18), [range(1)] * 2, first=0)
        assert forked == 2
        del join  # the caller failed before it joined
        assert_no_child_processes()


class TestRowWriter:
    """Rows handed over as tickets, formatted by workers and this process,
    give the bytes of one process."""

    def write(self, path, rows, sends=()):
        lead = [f"{t}," for t in range(len(rows))]
        with csvio.RowWriter(path, "h", lead, ["a,", "b,"], rows.shape) as writer:
            for stop in sends:
                writer.rows[:stop] = rows[:stop]
                writer.send(stop)
            writer.rows[:] = rows
            writer.close()
        return path.read_bytes()

    def test_a_full_pipe_leaves_its_blocks_to_this_process(self, tmp_path, monkeypatch):
        rows = np.arange(40.0).reshape(20, 2) / 3
        serial = self.write(tmp_path / "serial.csv", rows)
        monkeypatch.setattr(csvio, "SPLIT_MIN_VALUES", 1)
        monkeypatch.setattr(csvio, "cpus", lambda: 3)
        write = os.write

        def full(fd, data):  # the ticket pipe takes two tickets, then is full
            if len(data) == 8:
                if len(tickets) == 2:
                    raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
                tickets.append(data)
            return write(fd, data)

        for sends in ([], [3, 5, 9], range(2, 21)):
            tickets = []
            monkeypatch.setattr(os, "write", full)
            split = self.write(tmp_path / "split.csv", rows, sends)
            monkeypatch.setattr(os, "write", write)
            assert split == serial
            assert_no_child_processes()
        assert serial.startswith(b"h\n0,a,0\n0,b,0.33333333333333331\n1,a,0.66666666666666663\n")


def fail_from_second_call(monkeypatch, name, exc):
    """Make ``os.<name>`` raise ``exc`` from its second call on."""
    real = getattr(os, name)
    calls = []

    def limited():
        calls.append(1)
        if len(calls) > 1:
            raise exc
        return real()

    monkeypatch.setattr(os, name, limited)
