"""Work handed out to forked workers: a worker count by CPUs, values and
items, results in worker order, every child reaped, a child's failure raised
in the parent, and files read by ticket, the ones left by this process."""

import errno
import os
import pickle
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracstar._csvio as csvio
from conftest import assert_no_child_processes, splitting
from fracstar._csvio import chunks, cpus, read_csv_files, start


def fan_out(run, workers):
    """Every worker's result, worker 0 run here and the others in forked children."""
    return start(run, workers)()


class TestChunks:
    @given(
        values=st.integers(0, 10**7),
        items=st.integers(0, 20),
        workers=st.integers(1, 12),
        minimum=st.sampled_from([1, 1000, csvio.SPLIT_MIN_VALUES]),
    )
    @settings(max_examples=200, deadline=None)
    def test_one_worker_per_cpu_item_and_split(self, values, items, workers, minimum):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(csvio, "cpus", lambda: workers)
            mp.setattr(csvio, "SPLIT_MIN_VALUES", minimum)
            count = chunks(values, items)
        assert 1 <= count <= max(1, min(workers, items, values // minimum))
        # as many as each bound allows
        assert count == 1 or count in (workers, items, values // minimum)

    def test_files_are_shared_by_their_values(self, monkeypatch):
        # four sources and four initial data, in the order a problem file
        # names them: two workers on two CPUs, four at most on more
        sizes = [67270, 510, 67965, 523, 67551, 526, 65862, 525]
        monkeypatch.setattr(csvio, "cpus", lambda: 2)
        assert chunks(sum(sizes), len(sizes)) == 2
        monkeypatch.setattr(csvio, "cpus", lambda: 8)
        assert chunks(sum(sizes), len(sizes)) == 4

    def test_only_large_conversions_split(self, monkeypatch):
        monkeypatch.setattr(csvio, "cpus", lambda: 8)
        # a state of Nt = 128 steps on one edge of 129 nodes stays whole ...
        assert chunks(129 * 129, 129) == 1
        # ... four edges of 513 nodes take four workers
        assert chunks(4 * 513 * 129, 129) == 4

    def test_without_fork_everything_is_one_part(self, monkeypatch):
        monkeypatch.setattr(csvio, "SPLIT_MIN_VALUES", 1)
        monkeypatch.delattr(os, "fork", raising=False)
        assert chunks(4 * 10**6, 4) == 1

    def test_a_given_number_of_parts(self, monkeypatch):
        # whatever the data and the CPUs, at most one worker per item, and one
        # for no item or no value
        monkeypatch.setattr(csvio, "cpus", lambda: 8)
        assert chunks(10**7, 3) == 3 and chunks(2 * 10**6, 2) == 2
        assert chunks(10**7, 0) == chunks(0, 5) == 1

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
        out = fan_out(lambda k: (k, os.getpid(), [i * i for i in range(k, 2 * k + 1)]), 3)
        assert [(k, squares) for k, _, squares in out] == [
            (0, [0]), (1, [1, 4]), (2, [4, 9, 16])
        ]
        pids = [pid for _, pid, _ in out]
        assert pids[0] == os.getpid() and len(set(pids)) == 3
        assert_no_child_processes()

    def test_arrays_come_back_bitwise(self):
        values = np.array([[0.0, -0.0, 5e-324], [np.nan, -np.inf, 1 / 3]])
        out = fan_out(lambda k: [values, values[:, k], "text"], 3)
        for k, (array, column, text) in enumerate(out):
            assert (array.tobytes(), array.shape, text) == (values.tobytes(), (2, 3), "text")
            assert column.tobytes() == values[:, k].tobytes()
        assert_no_child_processes()

    def test_child_exception_is_raised_after_every_child_is_reaped(self):
        def run(k):
            if k >= 1:
                raise (KeyError if k == 1 else ValueError)(f"part {k} failed")
            return k

        # the lowest failing worker's exception, with its type and message
        with pytest.raises(KeyError, match="part 1 failed"):
            fan_out(run, 3)
        assert_no_child_processes()

    def test_own_part_failure_reaps_the_children(self):
        def run(k):
            if k == 0:
                raise RuntimeError("own part failed")
            return np.zeros(1 << 18)  # more than a pipe holds

        with pytest.raises(RuntimeError, match="own part failed"):
            fan_out(run, 3)
        assert_no_child_processes()

    def test_child_that_dies_without_a_result(self):
        def run(k):
            if k == 1:
                os._exit(3)
            return k

        with pytest.raises(ChildProcessError, match="exited without a result"):
            fan_out(run, 2)
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
            fan_out(lambda k: np.arange(1.0, 1001.0), 2)
        assert_no_child_processes()

    def test_exception_that_does_not_pickle(self):
        def run(k):
            if k == 1:
                exc = ValueError("carries a lambda")
                exc.hook = lambda: None
                raise exc
            return k

        with pytest.raises(RuntimeError, match="carries a lambda"):
            fan_out(run, 2)
        assert_no_child_processes()

    @pytest.mark.parametrize(
        "name, exc",
        [("pipe", OSError(errno.EMFILE, "Too many open files")),
         ("fork", BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable"))],
    )
    def test_parts_that_cannot_be_forked_run_here(self, monkeypatch, name, exc):
        # the second pipe or fork fails, as under a file or process limit:
        # worker 1 runs in a child, workers 0, 2 and 3 here, and no pipe is
        # left open
        fds = []
        pipe = os.pipe
        monkeypatch.setattr(os, "pipe", lambda: fds.extend(pipe()) or tuple(fds[-2:]))
        fail_from_second_call(monkeypatch, name, exc)
        out = fan_out(lambda k: (k, os.getpid()), 4)
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

        def run(k):
            if k == 1:
                raise KeyError("part 1 failed")
            ran.append(k)

        with pytest.raises(KeyError, match="part 1 failed"):
            fan_out(run, 3)
        assert ran == [0]
        assert_no_child_processes()


class TestStart:
    def test_workers_run_in_children_while_the_caller_works(self, tmp_path):
        def run(k):
            (tmp_path / str(k)).write_text(str(os.getpid()))
            return k

        join = start(run, 3)
        # workers 1 and 2 run in their children before the join, worker 0 here in it
        deadline = time.monotonic() + 30
        while len(list(tmp_path.iterdir())) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["1", "2"]
        assert join() == [0, 1, 2]
        pids = [int((tmp_path / str(k)).read_text()) for k in range(3)]
        assert pids[0] == os.getpid() not in pids[1:] and pids[1] != pids[2]
        assert_no_child_processes()

    def test_a_join_dropped_uncalled_reaps_the_children(self):
        ran = []
        join = start(lambda k: ran.append(k) or np.zeros(1 << 18), 3)
        del join  # the caller failed before it joined
        assert_no_child_processes()
        assert ran == []  # worker 0 runs only in the join


class TestReader:
    """Files handed out one ticket each: the forked workers read from the
    start, this process the ones left when it collects; the values are those
    one process reads."""

    def test_a_stalled_worker_leaves_files_to_the_caller(self, tmp_path, monkeypatch):
        paths = []
        for i in range(6):
            paths.append(tmp_path / f"{i}.csv")
            np.savetxt(paths[-1], np.arange(12.0).reshape(3, 4) / (i + 3), delimiter=",")
        parent, read, here = os.getpid(), csvio._read, []

        def stalling(path):
            if os.getpid() == parent:
                here.append(path)
            else:  # a forked worker stalls before each file it takes
                time.sleep(0.2)
            return read(path)

        monkeypatch.setattr(csvio, "_read", stalling)
        with splitting():  # two forked workers
            files = read_csv_files(paths)()
        assert_no_child_processes()
        assert here  # this process read at least one file
        for path in paths:
            expected = np.loadtxt(path, delimiter=",", ndmin=2)
            assert (files[path].shape, files[path].tobytes()) == (
                expected.shape, expected.tobytes()
            )

    @given(
        data=st.data(),
        workers=st.integers(1, 8),
        kinds=st.lists(st.sampled_from(["values", "empty", "missing", "unparsable"]),
                       max_size=12),
    )
    @settings(max_examples=30, deadline=None)
    def test_reads_give_the_serial_values_or_errors(
        self, tmp_path_factory, data, workers, kinds
    ):
        tmp = tmp_path_factory.mktemp("read")
        paths = [tmp / f"{i}.csv" for i in range(len(kinds))]
        for path, kind in zip(paths, kinds):
            if kind == "values":
                shape = data.draw(st.tuples(st.integers(1, 4), st.integers(1, 4)))
                values = data.draw(st.lists(
                    st.floats(allow_nan=False), min_size=shape[0] * shape[1],
                    max_size=shape[0] * shape[1],
                ))
                np.savetxt(path, np.reshape(values, shape), delimiter=",", fmt="%.17g")
            elif kind != "missing":
                path.write_text("" if kind == "empty" else "1.0,x\n")
        serial = {path: csvio._read(path) for path in paths}
        fds = len(os.listdir("/dev/fd"))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(csvio, "SPLIT_MIN_VALUES", 1)
            mp.setattr(csvio, "cpus", lambda: workers)
            files = read_csv_files(paths)()
        assert_no_child_processes()
        assert len(os.listdir("/dev/fd")) == fds
        assert files.keys() == serial.keys()
        for path, expected in serial.items():
            if isinstance(expected, str):
                assert files[path] == expected
            else:
                assert (files[path].shape, files[path].tobytes()) == (
                    expected.shape, expected.tobytes()
                )


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
