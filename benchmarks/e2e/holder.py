"""The process that holds the write-ahead log when it is killed.

``holder.py SRC SNAPSHOT TAG COUNT`` opens the crash-safe store, writes
COUNT batches, prints ``ack <seconds>`` after each one is acknowledged
(durable by the program's own contract), then waits to be SIGKILLed.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])

from repro import QueryService  # noqa: E402

from workloads import batch_triples  # noqa: E402


def main() -> None:
    snapshot, tag, count = sys.argv[2], sys.argv[3], int(sys.argv[4])
    service = QueryService.from_snapshot(snapshot, wal=True, max_workers=1)
    for batch in range(count):
        start = time.perf_counter()
        service.store.add_term_triples(batch_triples(tag, batch))
        print("ack", time.perf_counter() - start, flush=True)
    sys.stdin.read()


if __name__ == "__main__":
    main()
