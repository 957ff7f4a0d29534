"""CSV text to and from arrays, converted on every CPU the process may run on.

Formatting and parsing hold the GIL, so only another process can use another
CPU.  :func:`start` forks a child for each worker but worker 0, which is this
process when it joins; a child shares this process's memory until either
writes to it, and sends its result back through a pipe.  The work goes out as
tickets on one pipe, which every worker takes until it is empty, this process
last: one per file read, one per range of rows written.  With too little
work, one CPU or no ``os.fork``, all of it runs here, as does a worker whose
fork fails.  The arrays and bytes are those of one process.
"""

import contextlib
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


def chunks(values: int, items: int) -> int:
    """Workers for ``items`` pieces of ``values`` values: one per CPU while each
    has ``SPLIT_MIN_VALUES`` values and a piece, at least one; one without ``os.fork``."""
    return max(1, min(cpus(), values // SPLIT_MIN_VALUES, items)) if hasattr(os, "fork") else 1


def start(run, workers: int):
    """Fork a child for each worker from 1 on and return the join, which
    returns ``[run(k) for k in range(workers)]``: it runs worker 0 here,
    collects what each child sent before it left by ``os._exit`` (its result
    or its exception), then runs here the workers whose pipe or fork failed.
    Every child is reaped before the join returns or raises the exception of
    the lowest worker that raised one, and by a join dropped uncalled."""
    work = _work(run, workers)
    next(work)
    return work.__next__


def _work(run, workers: int):
    # yields once the children are forked, then, resumed, the results
    pipes: dict[int, int] = {}  # child pid -> read end of its pipe
    try:
        for k in range(1, workers):
            # Forking is safe: the child runs only Python text work, calls no
            # BLAS, and leaves by os._exit, so the stdio buffers and atexit
            # handlers it inherits never run twice.  Python >= 3.12 warns
            # (DeprecationWarning) on a fork in a process with threads, such
            # as a BLAS pool; the warning must not reach stderr.
            r = w = None
            try:
                r, w = os.pipe()
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()
            except OSError:  # this worker and the ones after it run here
                for fd in {r, w} - {None}:
                    os.close(fd)
                break
            if pid == 0:
                status = 1
                try:
                    for fd in (r, *pipes.values()):
                        os.close(fd)
                    try:
                        result = (True, run(k))
                    except BaseException as exc:  # sent to the parent, which raises it
                        result = (False, exc)
                    _send(w, result)
                    status = 0
                finally:
                    os._exit(status)
            os.close(w)
            pipes[pid] = r
        yield
        results = [(True, run(0))]
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
    yield [value for _, value in results] + [run(k) for k in range(len(results), workers)]


def _put(w: int, a: int, b: int) -> bool:
    """Put the ticket ``(a, b)`` on the pipe ``w``; false if it is full."""
    try:  # one write of at most PIPE_BUF bytes is whole
        return os.write(w, struct.pack("<II", a, b)) == 8
    except BlockingIOError:
        return False


def _tickets(r: int | None, left=()):
    """The tickets ``left``, then those from the pipe ``r`` until it is empty and closed."""
    yield from left
    while r is not None and (ticket := os.read(r, 8)):
        yield struct.unpack("<II", ticket)


def _send(fd: int, obj) -> None:
    """Write ``obj`` to the pipe ``fd`` as length-prefixed frames: its pickle,
    then the raw data of each array in it, not copied into the pickle."""
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
    """Start :func:`_read` of each path, a ticket per file, in the workers their
    size allows (a 17-digit value and its separator take about 20 bytes), and
    return the call that collects ``{path: values}`` and reads the files left."""
    values = 0
    for path in paths:
        with contextlib.suppress(OSError):
            values += path.stat().st_size // 20
    workers, r, sent = chunks(values, len(paths)), None, 0
    if workers > 1:
        r, w = os.pipe()
        os.set_blocking(w, False)  # a full pipe leaves its files to this process
        while sent < len(paths) and _put(w, sent, sent + 1):
            sent += 1
        os.close(w)  # a worker that finds the pipe empty now ends

    def work(k: int) -> list:  # worker 0 first reads what the pipe had no room for
        left = [(i, i + 1) for i in range(sent, len(paths))] if k == 0 else ()
        return [(i, _read(paths[i])) for i, _ in _tickets(r, left)]

    join = start(work, workers)

    def collect():
        try:
            return {paths[i]: read for part in join() for i, read in part}
        finally:
            if r is not None:
                os.close(r)

    return collect


class RowWriter(contextlib.AbstractContextManager):
    """Writes ``header``, then one block of rows per entry of ``lead``, to
    ``path``: row ``r`` of block ``k`` is ``lead[k] + labels[r]`` (text with
    its own separators) and value ``r`` of ``convert(rows[k:k + 1])[0]`` with
    17 significant digits.  ``rows`` is the source array, or the shape of a
    zero-filled one to make, which the caller fills and hands over by
    :meth:`send`.  The workers :func:`chunks` allows beyond this process are
    forked at once (a made array is then shared memory); each formats its
    tickets (a 32nd of ``SPLIT_MIN_VALUES`` values or more) into its unnamed
    temporary file beside ``path``.  Leaving the writer as a context ends its
    workers and files."""

    def __init__(self, path: Path, header: str, lead, labels, rows, convert=np.asarray):
        self.path, self.header, self.lead, self.convert = path, header, lead, convert
        self.labels = [label.replace("%", "%%") for label in labels]
        self._group = -(-SPLIT_MIN_VALUES // (32 * max(1, len(labels))))  # blocks a ticket
        forks = chunks(len(labels) * len(lead), len(lead)) - 1
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
                self._join = start(self._work, forks + 1)
        except BaseException:
            self.__exit__()
            raise

    def send(self, stop: int) -> bool:
        """Hand over the blocks before ``stop``, whose rows are final; false
        if they wait for a later ticket (too few, or the pipe is full)."""
        ready = self._w is not None and stop - self._sent >= self._group
        if ready and _put(self._w, self._sent, stop):
            self._sent = stop
            return True
        return False

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
                for _, k, begin, end in sorted(t for part in parts for t in part):
                    out.buffer.write(os.pread(self._files[k].fileno(), end - begin, begin))

    def _work(self, k: int) -> list[tuple[int, int, int, int]]:
        """Format tickets from the pipe into file ``k`` until it is empty and
        closed; return ``(first block, k, first byte, end byte)`` of each."""
        if self._w is not None:  # a child's copy: only the writer sends tickets
            os.close(self._w)
        fd, done = self._files[k].fileno(), []
        # worker 0, this process, first takes what a full pipe left, as one ticket
        left = [(self._sent, len(self.lead))] if k == 0 else ()
        with open(fd, "w", closefd=False) as fh:
            for a, b in _tickets(self._r, left):
                begin = os.lseek(fd, 0, os.SEEK_CUR)
                self._format(fh, a, b)
                fh.flush()
                done.append((a, k, begin, os.lseek(fd, 0, os.SEEK_CUR)))
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

