"""Row shards of a batch, run in worker processes.

``run(fn, inputs, outputs, *args)`` calls ``fn(inputs, outputs, *args)`` on
the rows of a batch. inputs and outputs are dicts of arrays whose first axis
is the row (env) axis; fn reads its rows of inputs and writes its rows of
outputs, and each row's results depend on that row alone. A large batch is
split into contiguous row shards, at most one per CPU the process may run
on (``os.sched_getaffinity``, read at each call, so a process pinned to one
CPU never starts a worker) and each of at least MIN_SHARD_ROWS rows. The
caller runs fn on the first shard itself and hands each other one to a
worker process, one of CPUs - 1 forked on the first batch that shards.
``VecLocomotionEnv.step`` runs its whole physics loop this way, all of its
substeps, so a control step makes one round trip per worker.

Threads would not pay: the GIL serialises a substep's many small numpy
calls, so two 512-row thread shards stepped a 1024-row stance in 14.41 ms
against 14.46 ms for one shard, while two processes of 512 rows each, side
by side, took 9.88 ms (medians of six interleaved repeats of 100 substeps).

A worker owns an anonymous shared mmap sized to its shard. The caller copies
the shard's rows of inputs into it, sends the row count, the layout and
(fn, args) over a pipe, (fn, args) only when one of them is not the object
it last sent (so a caller does not edit them in place), runs its own shard
and copies the worker's rows of outputs back. The arrays in a block are in
C order; the copies in and out take arrays of any memory layout. A
worker's error is raised in the caller once its own shard is done, with
the worker's traceback as a note; a worker that died raises a
RuntimeError; any error stops every worker, and the next batch that shards
forks new ones. Workers are daemonic, ignore SIGINT and exit on EOF of
their pipe, so none outlives its caller.

Workers are forked, so they start from the caller's imports and state, and
fn is sent by reference. From Python 3.12 on, ``fork`` warns when the
caller has live threads, such as OpenBLAS's, and a test run that turns
warnings into errors fails there; this module is written for Python 3.11
and Linux.

Per ``VecLocomotionEnv.step`` in a loop of steps (2 vCPUs, numpy 2.4; ms,
median [quartiles] of 10 paired runs, each side in a fresh process, the
first side alternating), one shard against two:

=====================  ======================  ======================  =======
batch                  one shard               two shards              two won
=====================  ======================  ======================  =======
PJS zero action, 256   52.1 [41.8, 54.9]       42.2 [40.5, 44.4]       8 of 10
PJS zero action, 512   77.0 [71.6, 80.4]       57.0 [54.9, 58.4]       10
PJS zero action, 1024  144.8 [139.3, 150.3]    94.2 [88.5, 100.4]      10
HJLS random, 256       55.8 [50.6, 59.1]       45.7 [43.9, 46.9]       9
HJLS random, 512       97.8 [95.4, 98.8]       64.1 [62.0, 66.4]       10
HJLS random, 1024      170.5 [161.8, 179.7]    107.7 [102.9, 112.1]    10
=====================  ======================  ======================  =======

In such a loop two shards pay from 256 rows on, but ``ppo.train`` runs the
policy between two control steps, and after each multi-threaded product
OpenBLAS's helper thread spins on a core for tens of ms, beside the
worker. There a two-shard 256-row HJLS step right after a policy-sized
float32 product took 63-70 ms against 47-58 ms in one shard (48-49 ms
with one OpenBLAS thread), and an HJLS rollout at 512 envs ran at
4109-4491 env-steps/s in 256-row shards against 4992-5550 in one (three
fresh-process pairs of 4 iterations), while at 1024 envs two shards still
won (6128-6548 against 5417-6045). So a shard has at least
MIN_SHARD_ROWS = 512 rows, and batches of 256 and 512 rows, the rollout's
sizes, stay in one.
"""

import math
import mmap
import multiprocessing
import operator
import os
import signal
import traceback

import numpy as np

MIN_SHARD_ROWS = 512
_FORK = multiprocessing.get_context("fork")
_WORKERS = {}  # shard i + 1 -> its _Worker i, started on first use


def _spec(arrays):
    """The layout of arrays in a block, without the row count: each key,
    the shape after the row axis and the dtype."""
    return [(key, a.shape[1:], a.dtype.str) for key, a in arrays.items()]


def _views(spec, rows, block=None, offset=0):
    """The arrays of spec with `rows` rows, laid out one after another in
    block from offset, each at a multiple of 8 bytes (nothing is laid out
    when block is None), and the offset after the last."""
    views = {}
    for key, tail, dtype in spec:
        shape, dtype = (rows,) + tail, np.dtype(dtype)
        if block is not None:
            views[key] = np.ndarray(shape, dtype, block, offset)
        offset += -(-math.prod(shape) * dtype.itemsize // 8) * 8
    return views, offset


def _serve(conn, caller_end, block):
    """A worker's loop: for each (rows, specs, the call if it changed)
    received, run the call on the shard laid out in block and reply None
    or the error it raised. It returns when the caller's end of the pipe
    closes, which the caller's exit does too."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the caller's to handle
    # copies of the callers' ends would keep the pipes open after the caller exits
    caller_end.close()
    for worker in _WORKERS.values():
        worker.conn.close()
    call = None
    try:
        while True:
            rows, (inputs, outputs), sent = conn.recv()
            call = call if sent is None else sent
            try:
                inputs, end = _views(inputs, rows, block)
                outputs, _ = _views(outputs, rows, block, end)
                call[0](inputs, outputs, *call[1:])
                reply = None
            except Exception as error:  # the caller raises it
                error.add_note(f"in a shard worker:\n{traceback.format_exc()}")
                reply = error
            conn.send(reply)
    except (EOFError, BrokenPipeError):
        return


class _Worker:
    """A daemonic process, forked, that runs row shards one at a time in an
    anonymous shared block (see the module docstring). It holds the last
    call (fn, *args) it was sent."""

    def __init__(self, nbytes):
        self.block = mmap.mmap(-1, nbytes)  # anonymous and shared: the fork maps it too
        self.call = ()
        self.outputs = None  # the shard's outputs in the block while it runs
        self.conn, worker_end = _FORK.Pipe()
        self.process = _FORK.Process(target=_serve, args=(worker_end, self.conn, self.block),
                                     name="vsloco-shard", daemon=True)
        self.process.start()
        worker_end.close()

    def _pipe(self, op, *args):
        try:
            return op(*args)
        except (EOFError, OSError) as error:
            self.close()
            raise RuntimeError(f"shard worker {self.process.pid} exited "
                               f"(code {self.process.exitcode})") from error

    def submit(self, call, inputs, specs, rows):
        """Copy the rows (a slice) of inputs into the block and start the
        call on them."""
        n = rows.stop - rows.start
        views, end = _views(specs[0], n, self.block)
        for key, a in views.items():
            a[...] = inputs[key][rows]
        self.outputs = _views(specs[1], n, self.block, end)[0]
        same = len(call) == len(self.call) and all(map(operator.is_, call, self.call))
        self._pipe(self.conn.send, (n, specs, None if same else call))
        self.call = call

    def collect(self, outputs, rows):
        """Wait for the shard, copy its outputs into the rows of outputs,
        and raise its error if it raised one."""
        error = self._pipe(self.conn.recv)
        if error is not None:
            raise error
        for key, a in self.outputs.items():
            outputs[key][rows] = a
        self.outputs = None

    def close(self):
        """Stop the worker. It holds nothing to flush, so it is killed."""
        self.conn.close()
        self.process.kill()
        self.process.join()


def _worker(i, nbytes):
    """Worker i, started, or replaced if it was closed or its block is
    smaller than nbytes."""
    worker = _WORKERS.get(i)
    if worker is None or worker.conn.closed or len(worker.block) < nbytes:
        if worker is not None:
            worker.close()
        worker = _WORKERS[i] = _Worker(nbytes)
    return worker


def close():
    """Stop every worker; the next batch that shards starts new ones."""
    for worker in _WORKERS.values():
        worker.close()
    _WORKERS.clear()


def run(fn, inputs, outputs, *args):
    """fn(inputs, outputs, *args) on the rows of inputs and outputs, in
    row shards when the batch is large (see the module docstring). fn is a
    module-level function; it and args are sent to the workers by pickle."""
    n = len(next(iter(inputs.values())))
    shards = min(len(os.sched_getaffinity(0)), n // MIN_SHARD_ROWS)
    if shards < 2:
        fn(inputs, outputs, *args)
        return
    bounds = [n * i // shards for i in range(shards + 1)]
    mine, *theirs = map(slice, bounds, bounds[1:])
    specs = _spec(inputs), _spec(outputs)
    started = []
    try:
        for i, rows in enumerate(theirs):
            worker = _worker(i, _views(specs[0] + specs[1], rows.stop - rows.start)[1])
            worker.submit((fn, *args), inputs, specs, rows)
            started.append((worker, rows))
        fn(*({key: a[mine] for key, a in part.items()} for part in (inputs, outputs)), *args)
        for worker, rows in started:  # raises a shard's error
            worker.collect(outputs, rows)
    except BaseException:  # no worker may be left with a shard, a reply or part of a message
        close()
        raise
