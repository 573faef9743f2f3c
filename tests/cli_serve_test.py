#!/usr/bin/env python3
"""End-to-end check of the irhint_cli binary: flag parsing and the serving
front end, driven through stdin/stdout the way a client drives it.

    cli_serve_test.py <path to irhint_cli>

1. `irhint_cli generate` writes a small synthetic corpus.
2. A fixed session goes through `irhint_cli serve --index scored-irhint
   --shards 2` and every reply is checked: a Boolean query, a top-k query,
   a top-k query with k = 2^32 - 1, an inverted insert straddling the
   shard boundary (refused, no id burned), stats and quit. The session is
   one synchronous client, so the engine is quiet for every request and
   the stats count the legs its thread ran itself.
3. An unknown --index name must exit non-zero.

Exits 0 when every check holds; otherwise prints each failure and exits 1.
"""

import subprocess
import sys
import tempfile
from pathlib import Path

OBJECTS = 3000
DOMAIN = 1_000_000  # two shards meet at 500000

SESSION = [
    "query 0 500000 1",
    "topk 3 0 500000 1 2",
    "topk 4294967295 0 500000 1 2",
    "insert 600000 400000 3",
    "insert 10 20 3",
    "stats",
    "quit",
]


def run(cli, args, stdin=""):
    return subprocess.run([cli] + args, input=stdin, capture_output=True,
                          text=True, timeout=120)


def hits(reply):
    """The id:score pairs of a `topk` reply, after checking its count."""
    fields = reply.split()
    if fields[:1] != ["OK"] or int(fields[1]) != len(fields) - 2:
        raise ValueError(f"malformed topk reply: {reply[:80]}")
    return fields[2:]


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    cli = sys.argv[1]
    failures = []

    def check(ok, what):
        if not ok:
            failures.append(what)

    with tempfile.TemporaryDirectory() as scratch:
        corpus = str(Path(scratch) / "corpus.bin")
        generated = run(cli, ["generate", "--out", corpus,
                              "--cardinality", str(OBJECTS),
                              "--domain", str(DOMAIN), "--seed", "7"])
        if generated.returncode != 0:
            sys.exit(f"generate failed: {generated.stderr}")

        served = run(cli, ["serve", "--in", corpus, "--index",
                           "scored-irhint", "--shards", "2"],
                     "\n".join(SESSION) + "\n")
        check(served.returncode == 0, f"serve exited {served.returncode}")
        check("scored-irHINT" in served.stderr,
              f"banner names another kind: {served.stderr.strip()}")
        replies = served.stdout.splitlines()
        # stats answers with a block of "stat" lines; the rest one line each.
        stats = [r for r in replies if r.startswith("stat ")]
        replies = [r for r in replies if not r.startswith("stat ")]
        if len(replies) != len(SESSION) - 1:
            sys.exit(f"serve exited {served.returncode} after "
                     f"{len(replies)} of {len(SESSION) - 1} replies: "
                     f"{[r[:60] for r in replies]} {served.stderr[-300:]}")
        query, top3, top_all, inverted, insert, bye = replies

        check(query.startswith("OK ") and int(query.split()[1]) > 0,
              f"query: {query[:80]}")
        check(len(hits(top3)) == 3, f"topk 3: {top3[:80]}")
        # k past every match returns every match; its head is the top 3.
        all_hits = hits(top_all)
        check(len(all_hits) > 3 and all_hits[:3] == hits(top3),
              f"huge-k topk: {top_all[:80]}")
        check(inverted.startswith("ERR InvalidArgument"),
              f"straddling inverted insert: {inverted}")
        check(insert == f"OK id={OBJECTS}",
              f"insert after the refused one: {insert}")
        check("stat shards 2" in stats, f"stats: {stats}")
        # The query and both top-k requests cover both shards: shard 0's
        # leg is queued and shard 1's runs on the caller, since nothing
        # else touches shard 1. The insert reaches shard 0 alone and runs
        # there too, unless shard 0's worker still holds the shard after
        # the last top-k leg.
        ran = [int(s.split()[2]) for s in stats
               if s.startswith("stat ran_on_caller ")]
        check(len(ran) == 1 and 3 <= ran[0] <= 4,
              f"stat ran_on_caller: {stats}")
        check(bye == "BYE", f"quit: {bye}")

        unknown = run(cli, ["serve", "--in", corpus, "--index", "no-such"],
                      "quit\n")
        check(unknown.returncode != 0,
              "an unknown --index name was accepted")
        check("unknown index 'no-such'" in unknown.stderr,
              f"unknown --index message: {unknown.stderr.strip()}")

    for failure in failures:
        print(f"FAIL {failure}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
