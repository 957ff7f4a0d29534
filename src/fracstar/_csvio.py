"""CSV text to and from arrays, converted on every CPU the process may run on.

Formatting and parsing hold the GIL, so only another process can use another
CPU.  :func:`start` forks a child per part of the work, which shares this
process's memory until either writes to it and sends its result back through
a pipe.  The reader forks every part while the caller works; the writer forks
its workers first and hands them rows as the caller finishes them.  With too
little work, one CPU or no ``os.fork``, all of it runs here, and so does a
part whose fork fails.  The arrays and bytes are those of one process.
"""

import bisect
import contextlib
import itertools
import os
import pickle
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np

# The fewest values each worker beyond the first must convert to or from
# text.  A fork and join costs about 3.6 ms (two-core Xeon, Python 3.11);
# 2**16 values take about 22 ms to parse and 52 ms to format, so a worker
# saves several times its cost, and optimize-sized problems (tens of
# thousands of values) stay in one process.
SPLIT_MIN_VALUES = 1 << 16


def cpus() -> int:
    """The CPUs this process may run on, at most 8."""
    try:
        count = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        count = os.cpu_count() or 1
    return min(count, 8)


def chunks(sizes: list[int], workers: int | None = None) -> list[range]:
    """Contiguous, non-empty ranges of the indices of ``sizes`` (the values
    of each item) of about equal total size, or ``[range(0)]`` for no items:
    ``workers`` of them, by default one per CPU while each holds
    ``SPLIT_MIN_VALUES`` values (one without ``os.fork``), at most one per item."""
    total = sum(sizes)
    if workers is None:
        workers = min(cpus() if hasattr(os, "fork") else 1, total // SPLIT_MIN_VALUES)
    workers = max(1, min(workers, len(sizes)))
    ends = [0, *itertools.accumulate(sizes)]  # ends[b]: the values before item b
    cuts = []
    for j in range(1, workers):
        # the boundary nearest to j equal shares
        share = total * j / workers
        b = bisect.bisect_left(ends, share)
        cuts.append(b if ends[b] - share <= share - ends[b - 1] else b - 1)
    bounds = [0, *cuts, len(sizes)]
    ranges = [range(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]
    return ranges or [range(0)]


def start(run, parts: list[range], first: int = 1):
    """Fork a child for each part from ``first`` on; return how many were
    forked and the join, which returns ``[run(k, part) for k, part in
    enumerate(parts)]``.  It runs the parts before ``first`` here, collects
    what each child sent before it left by ``os._exit`` (its result or its
    exception), then runs here the parts whose pipe or fork failed.  Every
    child is reaped before the join returns or raises the exception of the
    lowest part that raised one; a join dropped uncalled reaps them too."""
    work = _work(run, parts, first)
    return next(work), work.__next__


def _work(run, parts: list[range], first: int):
    # yields the number of children forked, then, resumed, the results
    pipes: dict[int, int] = {}  # child pid -> read end of its pipe
    try:
        for k in range(first, len(parts)):
            try:
                r, w = os.pipe()
            except OSError:
                break
            # Forking is safe: the child runs only Python text work, calls no
            # BLAS, and leaves by os._exit, so the stdio buffers and atexit
            # handlers it inherits never run twice.  Python >= 3.12 warns
            # (DeprecationWarning) on a fork in a process with threads, such
            # as a BLAS pool; the warning must not reach stderr.
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                break
            if pid == 0:
                status = 1
                try:
                    for fd in (r, *pipes.values()):
                        os.close(fd)
                    try:
                        result = (True, run(k, parts[k]))
                    except BaseException as exc:  # sent to the parent, which raises it
                        result = (False, exc)
                    _send(w, result)
                    status = 0
                finally:
                    os._exit(status)
            os.close(w)
            pipes[pid] = r
        yield len(pipes)
        results = [(True, run(k, parts[k])) for k in range(first)]
        received = [_receive(r) for r in pipes.values()]
    finally:
        # every read end is closed first: a child still writing then fails
        # on a broken pipe and leaves, so no wait below can block for good
        for r in pipes.values():
            os.close(r)
        statuses = [os.waitpid(pid, 0)[1] for pid in pipes]
    for pid, got, status in zip(pipes, received, statuses):  # whole, and exited 0
        lost = (False, ChildProcessError(f"worker {pid} exited without a result"))
        results.append(got if got is not None and status == 0 else lost)
    for ok, value in results:
        if not ok:
            raise value
    yield [value for _, value in results] + [
        run(k, parts[k]) for k in range(len(results), len(parts))
    ]


def _send(fd: int, obj) -> None:
    """Write ``obj`` to the pipe ``fd`` as length-prefixed frames: its pickle,
    then the raw data of each array in it, which is not copied into the
    pickle."""
    buffers = []
    try:
        payload = pickle.dumps(obj, 5, buffer_callback=buffers.append)
    except Exception:  # an exception that does not pickle
        buffers = []
        payload = pickle.dumps((False, RuntimeError(repr(obj[1]))), 5)
    with open(fd, "wb") as fh:
        for frame in (payload, *(b.raw() for b in buffers)):
            fh.write(len(frame).to_bytes(8, "little"))
            fh.write(frame)


def _receive(fd: int):
    """The object :func:`_send` wrote whole to the pipe ``fd``, else ``None``.
    Each frame is read into a buffer of its size, and the arrays are rebuilt
    on their buffers, without a copy."""
    frames = []
    with open(fd, "rb", closefd=False) as fh:
        while head := fh.read(8):
            frame = bytearray(int.from_bytes(head, "little"))
            if len(head) < 8 or fh.readinto(frame) < len(frame):
                return None
            frames.append(frame)
    return pickle.loads(frames[0], buffers=frames[1:]) if frames else None


def _read(path: Path):
    """The values of the CSV file ``path`` as ``np.loadtxt`` reads them with
    ``ndmin=2``, or the text of the error reading it raised."""
    try:
        # an empty file warns; the caller reports it as a violation
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            return np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        return str(exc)


def read_csv_files(paths: list[Path]):
    """Start :func:`_read` of each path in ``cpus() - 1`` forked workers, the
    files split by size (a 17-digit value and its separator take about 20
    bytes), and return the call that collects ``{path: values}``.  With too
    little data, one CPU, or no worker forked, they are read here at once."""
    sizes = []
    for path in paths:
        try:
            sizes.append(path.stat().st_size // 20)
        except OSError:
            sizes.append(0)
    workers = min(cpus() - 1, sum(sizes) // SPLIT_MIN_VALUES) if hasattr(os, "fork") else 0
    parts = chunks(sizes, workers)
    forked, join = start(
        lambda k, part: [_read(paths[i]) for i in part], parts, 0 if workers else 1
    )
    if forked < len(parts):  # read here at once: the join returns a copy
        join = join().copy
    return lambda: dict(zip(paths, itertools.chain.from_iterable(join())))


class RowWriter(contextlib.AbstractContextManager):
    """Writes ``header``, then one block of rows per entry of ``lead``, to
    ``path``: row ``r`` of block ``k`` is ``lead[k] + labels[r]`` (text with
    its own separators) and value ``r`` of ``convert(rows[k:k + 1])[0]`` with
    17 significant digits.  ``rows`` is the source array, or the shape of a
    zero-filled one to make, which the caller fills and hands over by
    :meth:`send`.  The workers :func:`chunks` allows beyond this process are
    forked at once (a made array is then shared memory); each formats the
    tickets (ranges of a 32nd of ``SPLIT_MIN_VALUES`` values or more) it
    takes from one pipe into its unnamed temporary file beside ``path``.
    Leaving the writer as a context ends its workers and files."""

    def __init__(self, path: Path, header: str, lead, labels, rows, convert=np.asarray):
        self.path, self.header, self.lead, self.convert = path, header, lead, convert
        self.labels = [label.replace("%", "%%") for label in labels]
        self._group = -(-SPLIT_MIN_VALUES // (32 * max(1, len(labels))))  # blocks a ticket
        forks = len(chunks([len(labels)] * len(lead))) - 1
        if isinstance(rows, tuple) and forks:
            import mmap  # only a writer that forks shares its rows
            rows = np.frombuffer(mmap.mmap(-1, 8 * int(np.prod(rows))), float).reshape(rows)
        self.rows = np.zeros(rows) if isinstance(rows, tuple) else rows
        self._sent, self._r, self._w, self._join, self._files = 0, None, None, None, []
        try:
            if forks:
                self._r, self._w = os.pipe()
                os.set_blocking(self._w, False)  # a full pipe leaves blocks to later tickets
                for _ in range(forks + 1):
                    self._files.append(tempfile.TemporaryFile(dir=path.parent, buffering=0))
                self._pid = os.getpid()
                self._join = start(self._work, [range(1)] * (forks + 1))[1]
        except BaseException:
            self.__exit__()
            raise

    def send(self, stop: int) -> bool:
        """Hand over the blocks before ``stop``, whose rows are final; false
        if they wait for a later ticket (too few, or the pipe is full)."""
        if self._w is None or stop - self._sent < self._group:
            return False
        try:  # one write of at most PIPE_BUF bytes is whole
            os.write(self._w, struct.pack("<II", self._sent, stop))
        except BlockingIOError:
            return False
        self._sent = stop
        return True

    def close(self) -> None:
        """With every block final: hand over the rest, format tickets here too
        until none is left, and write ``path`` from the parts in block order."""
        with self:
            n, parts = len(self.lead), None
            if self._join is not None:
                while self._sent < n and self.send(min(self._sent + self._group, n)):
                    pass  # what a full pipe leaves is formatted here
                os.close(self._w)
                self._w = None  # a worker that finds the pipe empty now ends
                parts = self._join()
            with open(self.path, "w") as out:
                out.write(self.header + "\n")
                if parts is None:
                    return self._format(out, 0, n)
                out.flush()
                for _, k, begin, end in sorted(itertools.chain.from_iterable(parts)):
                    out.buffer.write(os.pread(self._files[k].fileno(), end - begin, begin))

    def _work(self, k: int, part: range) -> list[tuple[int, int, int, int]]:
        """Format tickets from the pipe into file ``k`` until it is empty and
        closed; return ``(first block, k, first byte, end byte)`` of each."""
        if os.getpid() != self._pid:
            os.close(self._w)  # only the writer's process sends tickets
        fd, done = self._files[k].fileno(), []
        # this process's part first takes what a full pipe left, as one ticket
        ticket = struct.pack("<II", self._sent, len(self.lead)) if k == 0 else os.read(self._r, 8)
        with open(fd, "w", closefd=False) as fh:
            while ticket:
                a, b = struct.unpack("<II", ticket)
                begin = os.lseek(fd, 0, os.SEEK_CUR)
                self._format(fh, a, b)
                fh.flush()
                done.append((a, k, begin, os.lseek(fd, 0, os.SEEK_CUR)))
                ticket = os.read(self._r, 8)
        return done

    def _format(self, fh, a: int, b: int) -> None:
        for g in range(a, b, self._group):
            stop = min(g + self._group, b)
            for key, row in zip(self.lead[g:stop], self.convert(self.rows[g:stop]).tolist()):
                key = key.replace("%", "%%")
                template = key + ("%.17g\n" + key).join(self.labels) + "%.17g\n"
                fh.write(template % tuple(row))

    def __exit__(self, *exc) -> None:
        for fd in {self._w, self._r} - {None}:
            os.close(fd)
        # the pipe is closed, so every worker ends; dropping the join reaps them
        self._r = self._w = self._join = None
        for f in self._files:
            f.close()

