"""How fast the host runs right now, against the reference host.

The host's speed drifts by 20 to 50% over minutes, and by a fifth within
half a minute, because other tenants share the machine; every timing of
a run drifts with it.  :class:`HostSpeed` keeps a gauge process that
times three fixed pure-Python tasks on request, pinned to a CPU the
benchmark names.  A round's slowdown is the geometric mean, over tasks
and CPUs, of each task's time over its time on the reference host.  The
workloads take a round beside each operation and divide the operation's
time by the slowdown there.  A change to PyMAO leaves the tasks alone,
so it moves the divided timings in full.

The tasks run in their own process so that their memory, and the
collector's work on it, stay out of the benchmark process's figures.
Between them they respond to the host's state as PyMAO does.  In a
10-minute probe on the reference host, ``api.optimize`` and
``api.simulate`` times drifted with a log standard deviation of 0.09 to
0.11 between 30-second windows; divided by rounds of tasks like these
taken beside each operation, 0.03 was left.  Dict, string and
small-object tasks alone moved up to twice as far as PyMAO did; a task
bound by memory latency had to be in the mix.

Run as ``python3 perfbench/gauge.py``: each line on standard input names
a CPU; the gauge pins itself there, runs each task once and answers with
one JSON object of seconds per task.
"""

from __future__ import annotations

import gc
import json
import math
import os
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Sequence

#: Elements of :func:`_memory`'s chain: about 40 MB of list slots and int
#: objects, past the caches, visited in a full-period scrambled order.
_CHAIN = 1 << 20


def _arith() -> int:
    total = 0
    for i in range(40_000):
        total += i * i % 7
    return total


def _chain() -> List[int]:
    # i -> 5i + 12345 (mod 2**20) visits every index once per cycle; the
    # stride defeats the prefetcher.
    return [(5 * i + 12345) & (_CHAIN - 1) for i in range(_CHAIN)]


def _memory(chain: List[int]) -> int:
    index = total = 0
    for _ in range(8_000):
        index = chain[index]
        total += index
    return total


class _Machine:
    """A toy register machine: dict dispatch to bound methods, a
    register dict, list memory and one record object per step."""

    __slots__ = ("regs", "memory", "ops")

    def __init__(self) -> None:
        self.regs = {"a": 0, "b": 1, "c": 2, "d": 3}
        self.memory = [0] * 4096
        self.ops = {"add": self.add, "mov": self.mov, "load": self.load,
                    "store": self.store}

    def add(self, dst: str, src: str) -> None:
        self.regs[dst] = (self.regs[dst] + self.regs[src]) & 0xFFFF

    def mov(self, dst: str, src: str) -> None:
        self.regs[dst] = self.regs[src]

    def load(self, dst: str, src: str) -> None:
        self.regs[dst] = self.memory[self.regs[src] & 4095]

    def store(self, dst: str, src: str) -> None:
        self.memory[self.regs[dst] & 4095] = self.regs[src]


class _Record:
    __slots__ = ("op", "dst", "value")

    def __init__(self, op: str, dst: str, value: int) -> None:
        self.op = op
        self.dst = dst
        self.value = value


_PROGRAM = list(zip(["add", "mov", "load", "store", "add", "add"] * 50,
                    "abcdabcdab" * 30, "bcdabcdabc" * 30))


def _machine() -> int:
    machine = _Machine()
    trace = []
    for _ in range(20):
        for op, dst, src in _PROGRAM:
            machine.ops[op](dst, src)
            trace.append(_Record(op, dst, machine.regs[dst]))
    return len(trace)


#: Median seconds of each task on the reference host (2-core Linux
#: container, Python 3.11.7).
NOMINAL_S = {"arith": 0.0043, "memory": 0.0040, "machine": 0.0051}


def _tasks() -> Dict[str, Callable[[], object]]:
    chain = _chain()
    return {"arith": _arith, "memory": lambda: _memory(chain),
            "machine": _machine}


def main() -> int:
    tasks = _tasks()
    gc.disable()
    for line in sys.stdin:
        os.sched_setaffinity(0, [int(line)])
        times = {}
        for name, task in tasks.items():
            start = time.perf_counter()
            task()
            times[name] = time.perf_counter() - start
        print(json.dumps(times), flush=True)
    return 0


class HostSpeed:
    """The gauge process, and the slowdown of each round it has run."""

    def __init__(self, cpus: Sequence[int]) -> None:
        self.cpus = list(cpus)
        self.rounds: List[float] = []
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def sample(self, rounds: int = 1) -> int:
        """Run every task once on each CPU, *rounds* times; the caller
        waits, so the gauge never runs beside the benchmark's own work.
        Returns the index of the last round."""
        for _ in range(rounds):
            logs = []
            for cpu in self.cpus:
                self._proc.stdin.write("%d\n" % cpu)
                self._proc.stdin.flush()
                line = self._proc.stdout.readline()
                if not line:
                    raise RuntimeError("the host-speed gauge exited")
                logs += [math.log(seconds / NOMINAL_S[name])
                         for name, seconds in json.loads(line).items()]
            self.rounds.append(math.exp(sum(logs) / len(logs)))
        return len(self.rounds) - 1

    def near(self, index: int) -> float:
        """The slowdown around round *index*: the median of it and its
        neighbours.  The host's speed moves within a run, so a timing is
        divided by the rounds taken next to it."""
        return statistics.median(self.rounds[max(0, index - 1):index + 2])

    @property
    def slowdown(self) -> float:
        """The median slowdown over every round."""
        return statistics.median(self.rounds)

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


if __name__ == "__main__":
    sys.exit(main())
