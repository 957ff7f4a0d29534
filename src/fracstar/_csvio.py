"""CSV text to and from arrays, converted on every CPU the process may run on.

Formatting and parsing hold the GIL, so only another process can use another
CPU.  :func:`fan_out` splits the work into contiguous parts: part 0 runs in
this process and every other part in a child made by ``os.fork``, which
shares the parent's memory until either writes to it; a child's result comes
back pickled through a pipe.  The reader forks every part (:func:`start`) and
the caller works meanwhile.  Without ``os.fork``, with one CPU, or with too
little work to pay for a fork, all of it is one part, run in this process;
a part that cannot be forked (no process or file slot left) runs there too.
The arrays and the bytes written are those of one process.
"""

from __future__ import annotations

import bisect
import itertools
import os
import pickle
import shutil
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


def fan_out(run, parts: list[range]) -> list:
    """``[run(k, part) for k, part in enumerate(parts)]``, with part 0 run in
    this process while every other part runs in a forked child.  A child
    sends back its result, or the exception it raised, and leaves by
    ``os._exit``.  Where a pipe or a fork fails, that part and the ones
    after it run in this process once the children are done, so a fork
    failure costs only speed.  Every child is reaped before this returns or
    raises, and the exception of the lowest part that raised one is raised
    here."""
    return start(run, parts)[1]()


def start(run, parts: list[range], first: int = 1):
    """Fork a child for each part from ``first`` on, as :func:`fan_out` does,
    and return how many were forked and the call that joins them: it runs
    the parts before ``first`` here, then ends as :func:`fan_out` does.  A
    join dropped uncalled reaps the children too."""
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
        for pid, r in pipes.items():
            lost = ChildProcessError(f"worker {pid} exited without a result")
            results.append(_receive(r) or (False, lost))
    finally:
        # every read end is closed first: a child still writing then fails
        # on a broken pipe and leaves, so no wait below can block for good
        for r in pipes.values():
            os.close(r)
        for pid in pipes:
            os.waitpid(pid, 0)
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
    """The object :func:`_send` wrote to the pipe ``fd``, or ``None`` if
    nothing was written.  Each frame is read into a buffer of its size, and
    the arrays are rebuilt on their buffers, without a copy."""
    frames = []
    with open(fd, "rb", closefd=False) as fh:
        while head := fh.read(8):
            frame = bytearray(int.from_bytes(head, "little"))
            fh.readinto(frame)
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


def write_csv(path: Path, header: str, lead, labels, values) -> None:
    """Write ``header``, then one block of rows per entry of ``lead``: row
    ``r`` of block ``k`` is ``lead[k] + labels[r]`` followed by ``values[k, r]``
    with 17 significant digits.  ``lead`` and ``labels`` are text that carries
    its own separators, so each time and node is formatted once; a block is
    formatted by one ``%`` template built from them.

    The blocks are split between workers (:func:`fan_out`): the first range
    is written to ``path``, each other range to an unnamed temporary file
    beside it, which is then appended to ``path``."""
    labels = [label.replace("%", "%%") for label in labels]
    parts = chunks([len(labels)] * len(lead))
    temps = []

    def write(k: int, blocks: range) -> None:
        # a worker writes through the temporary file's descriptor, which it
        # shares with this process, and leaves it open for the append
        with open(path if k == 0 else temps[k - 1].fileno(), "w", closefd=k == 0) as fh:
            if k == 0:
                fh.write(header + "\n")
            for b in blocks:
                key = lead[b].replace("%", "%%")
                template = key + ("%.17g\n" + key).join(labels) + "%.17g\n"
                fh.write(template % tuple(values[b].tolist()))

    try:
        for _ in parts[1:]:
            temps.append(tempfile.TemporaryFile(dir=path.parent, buffering=0))
        fan_out(write, parts)
        if temps:
            with open(path, "ab") as out:
                for temp in temps:
                    temp.seek(0)
                    shutil.copyfileobj(temp, out, 1 << 20)
    finally:
        for temp in temps:
            temp.close()
