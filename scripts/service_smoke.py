#!/usr/bin/env python3
"""Loopback smoke test of tools/retrust_server (CI's Release service step).

Usage: service_smoke.py <path/to/retrust_server>

Launches the server on an ephemeral port, registers two CSV tenants, and
drives a mixed repair + sweep + apply_delta workload from concurrent
connections (one per tenant plus one mixed). Asserts:

  * every response is ok,
  * ZERO requests were rejected — the workload stays under capacity, so
    any shed request is an admission-control bug,
  * per-tenant stats see the deltas (data_version advanced, tuples grew),
  * the server exits 0 after the shutdown verb.

Then the warm-restart phase: save_snapshot the delta-mutated tenant, kill
the server, restart it with --tenant-snapshot pointing at the file, and
assert the restored tenant answers the SAME repair requests with
bit-identical responses (modulo wall-clock "seconds"). Also exercises
unload_tenant: an unloaded tenant's next request transparently reloads it
and still answers identically.

The search-answer memo check opens the third server: one repair sent twice
with the same seed must get the same reply (modulo "seconds"), and the
global search_expansions counter must not grow on the repeat, because the
session answers it from its memo without searching. A one-item sweep that
repeats a repair sent just before it must equal that repair's reply (modulo
"seconds") and must not grow search_expansions either.

Finally the pipelined-wire phase (on that server): hundreds of concurrent
connections each pipeline a burst of requests — all sent before any reply
is read — across mixed tenants. Asserts every reply is ok, every reply is
matched back to its request by the echoed id (replies may arrive out of
order), and ZERO requests were rejected under capacity. Then quota
fairness: a token-bucket-throttled tenant is flooded and sheds requests
with Overloaded errors, while a quiet unlimited tenant's concurrent
requests all succeed — one tenant's rejections never starve another.

The observability phase rides on the same server: the `metrics` verb is
scraped mid-load and again after the quota flood, asserting counters only
ever grow, that the registry's completed/rejected_quota series agree with
the client-side tallies, and that >= 15 distinct series are exposed. A
repair with "trace": true must return a span tree (untraced repairs must
not), and `dump_recent` must remember the most recent requests.
"""

import json
import os
import re
import socket
import subprocess
import sys
import tempfile
import threading


def write_tenant_csv(path, num_rows, violation_stride):
    """City->Zip mostly holds; every `violation_stride`-th row breaks it."""
    with open(path, "w") as f:
        f.write("Name,City,Zip\n")
        for i in range(num_rows):
            city = f"City{i % 7}"
            zipc = f"Z{i % 7}" if i % violation_stride else f"ZBAD{i}"
            f.write(f"P{i},{city},{zipc}\n")


class Conn:
    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.file = self.sock.makefile("rw")

    def rpc(self, obj):
        self.file.write(json.dumps(obj) + "\n")
        self.file.flush()
        reply = json.loads(self.file.readline())
        return reply

    def close(self):
        self.file.close()
        self.sock.close()


def drive_tenant(port, tenant, rounds, errors):
    """Interleaved repairs and deltas for one tenant on its own socket."""
    try:
        conn = Conn(port)
        for i in range(rounds):
            r = conn.rpc({"op": "repair", "tenant": tenant,
                          "tau_r": [0.25, 0.5, 1.0][i % 3], "seed": i + 1,
                          "id": i})
            if not r.get("ok"):
                errors.append(f"{tenant} repair {i}: {r}")
            if r.get("id") != i:
                errors.append(f"{tenant} repair {i}: id echo broken: {r}")
            if i % 3 == 1:
                d = conn.rpc({"op": "apply_delta", "tenant": tenant,
                              "inserts": [[f"New{i}", f"City{i % 7}",
                                           f"Z{i % 7}"]]})
                if not d.get("ok"):
                    errors.append(f"{tenant} delta {i}: {d}")
        s = conn.rpc({"op": "sweep", "tenant": tenant,
                      "requests": [{"tau": 0}, {"tau_r": 0.5},
                                   {"tau_r": 1.0}]})
        if not s.get("ok") or len(s.get("results", [])) != 3:
            errors.append(f"{tenant} sweep: {s}")
        conn.close()
    except Exception as e:  # noqa: BLE001 - collect, don't crash the thread
        errors.append(f"{tenant}: {type(e).__name__}: {e}")


def parse_metrics(text):
    """Exposition text -> {series: float}; series keep their labels."""
    out = {}
    for line in text.strip().splitlines():
        series, value = line.rsplit(" ", 1)
        out[series] = float(value)
    return out


def start_server(server_bin, extra_args):
    """Launches the server and returns (proc, port) once it is listening."""
    proc = subprocess.Popen(
        [server_bin, "--port", "0", "--workers", "2",
         "--queue-depth", "1024"] + extra_args,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    line = proc.stdout.readline()
    m = re.search(r"listening on 127\.0\.0\.1:(\d+)", line)
    assert m, f"no listening banner, got: {line!r}"
    return proc, int(m.group(1))


# The fixed request grid of the warm-restart bit-identity check: fully
# deterministic (explicit seeds), covering both τ forms.
PROBE_REQUESTS = [
    {"op": "repair", "tenant": "hosp", "tau_r": 0.5, "seed": 7},
    {"op": "repair", "tenant": "hosp", "tau_r": 1.0, "seed": 3},
    {"op": "repair", "tenant": "hosp", "tau": 0, "seed": 1},
]


def probe_responses(conn):
    """The probe grid's responses with the wall-clock field stripped —
    everything else must be bit-identical across a warm restart."""
    out = []
    for req in PROBE_REQUESTS:
        r = conn.rpc(req)
        r.pop("seconds", None)
        out.append(json.dumps(r, sort_keys=True))
    return out


def main():
    if len(sys.argv) != 2:
        print(__doc__)
        return 2
    server_bin = sys.argv[1]

    tmp = tempfile.mkdtemp(prefix="retrust_smoke_")
    csv_a = os.path.join(tmp, "hosp.csv")
    csv_b = os.path.join(tmp, "census.csv")
    write_tenant_csv(csv_a, 80, 9)
    write_tenant_csv(csv_b, 60, 7)

    proc, port = start_server(server_bin, ["--snapshot-dir", tmp])
    try:
        ctl = Conn(port)
        for tenant, path in (("hosp", csv_a), ("census", csv_b)):
            r = ctl.rpc({"op": "load_tenant", "tenant": tenant, "csv": path,
                         "fds": ["City->Zip"]})
            assert r.get("ok"), f"load_tenant {tenant}: {r}"

        rounds = 12
        errors = []
        threads = [threading.Thread(target=drive_tenant,
                                    args=(port, tenant, rounds, errors))
                   for tenant in ("hosp", "census")]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, "\n".join(errors)

        stats = ctl.rpc({"op": "stats"})
        assert stats.get("ok"), stats
        print(f"server stats: {json.dumps(stats, sort_keys=True)}")
        assert stats["rejected"] == 0, \
            f"requests rejected under capacity: {stats}"
        assert stats["expired_in_queue"] == 0, stats
        assert stats["cancelled"] == 0, stats
        # 12 repairs + 4 deltas + 1 sweep per tenant, 2 tenants.
        assert stats["completed"] == 2 * (rounds + 4 + 1), stats
        assert stats["queue_depth"] == 0 and stats["in_flight"] == 0, stats
        assert stats["p50_latency_seconds"] <= stats["p99_latency_seconds"]

        for tenant, base_rows in (("hosp", 80), ("census", 60)):
            ts = ctl.rpc({"op": "stats", "tenant": tenant})
            assert ts.get("ok") and ts["loaded"], ts
            assert ts["num_tuples"] == base_rows + 4, ts  # 4 delta inserts
            assert ts["data_version"] == 5, ts            # 1 + 4 applies
            assert ts["bytes_estimate"] > 0, ts
            print(f"tenant {tenant}: n={ts['num_tuples']} "
                  f"v={ts['data_version']} "
                  f"context_bytes={ts['bytes_estimate']}")

        # --- warm-restart phase -----------------------------------------
        # Baseline answers of the delta-mutated tenant, then a consistent-
        # cut snapshot of it.
        baseline = probe_responses(ctl)
        snap = os.path.join(tmp, "hosp.snap")
        r = ctl.rpc({"op": "save_snapshot", "tenant": "hosp", "path": snap})
        assert r.get("ok") and r.get("path") == snap, r
        assert os.path.getsize(snap) > 0

        # unload_tenant releases the session; census is DIRTY (its CSV
        # spec cannot reproduce the applied deltas) so the registry
        # auto-saves it to --snapshot-dir first, and the next request
        # reloads it transparently from that snapshot.
        r = ctl.rpc({"op": "unload_tenant", "tenant": "census"})
        assert r.get("ok") and r.get("unloaded"), r
        ts = ctl.rpc({"op": "stats", "tenant": "census"})
        assert ts.get("ok"), ts
        assert ts["loaded"] is False or not ts["loaded"], \
            f"census still loaded after unload: {ts}"
        r = ctl.rpc({"op": "repair", "tenant": "census", "tau_r": 1.0})
        assert r.get("ok"), f"repair after unload failed: {r}"

        r = ctl.rpc({"op": "shutdown"})
        assert r.get("ok"), r
        ctl.close()
        proc.wait(timeout=30)
        assert proc.returncode == 0, f"server exit {proc.returncode}"

        # Kill-and-restart: the replacement process restores hosp from the
        # snapshot file (no CSV, no O(n^2) rebuild) and must answer the
        # SAME probe grid identically.
        proc, port = start_server(
            server_bin,
            ["--tenant-snapshot", f"hosp={snap}", "--snapshot-dir", tmp])
        ctl = Conn(port)
        restored = probe_responses(ctl)
        assert restored == baseline, (
            "warm restart diverged:\n" +
            "\n".join(f"want {w}\n got {g}"
                      for w, g in zip(baseline, restored) if w != g))
        ts = ctl.rpc({"op": "stats", "tenant": "hosp"})
        assert ts.get("ok") and ts["loaded"], ts
        assert ts["num_tuples"] == 80 + 4, ts   # the deltas survived
        assert ts["data_version"] == 5, ts

        # Unload/reload round trip on the restored tenant stays identical.
        r = ctl.rpc({"op": "unload_tenant", "tenant": "hosp"})
        assert r.get("ok"), r
        assert probe_responses(ctl) == baseline, \
            "reload after unload diverged"

        r = ctl.rpc({"op": "shutdown"})
        assert r.get("ok"), r
        ctl.close()
        proc.wait(timeout=30)
        assert proc.returncode == 0, f"server exit {proc.returncode}"

        # --- pipelined-wire + quota phase -------------------------------
        proc, port = start_server(server_bin, [])
        ctl = Conn(port)
        for tenant, path in (("hosp", csv_a), ("census", csv_b)):
            r = ctl.rpc({"op": "load_tenant", "tenant": tenant, "csv": path,
                         "fds": ["City->Zip"]})
            assert r.get("ok"), f"load_tenant {tenant}: {r}"

        # Search-answer memo: the repeat reuses the first request's search,
        # so its reply is identical and no search counter moves.
        memo_req = {"op": "repair", "tenant": "hosp", "tau_r": 0.5,
                    "seed": 5}
        first = ctl.rpc(memo_req)
        before = ctl.rpc({"op": "stats"})
        repeat = ctl.rpc(memo_req)
        after = ctl.rpc({"op": "stats"})
        assert first.get("ok") and repeat.get("ok"), (first, repeat)
        first.pop("seconds", None)
        repeat.pop("seconds", None)
        assert first == repeat, f"repeated repair diverged:\n{first}\n{repeat}"
        assert after["search_expansions"] == before["search_expansions"], \
            f"repeated repair searched again: {before} -> {after}"
        print("search-answer memo: repeat identical, no search expansions")

        # A sweep item runs through the same path as a single repair, memo
        # included: one item repeating a repair just sent equals its reply
        # and searches nothing.
        single = ctl.rpc({"op": "repair", "tenant": "hosp", "tau_r": 0.3,
                          "seed": 6})
        before = ctl.rpc({"op": "stats"})
        swept = ctl.rpc({"op": "sweep", "tenant": "hosp",
                         "requests": [{"tau_r": 0.3, "seed": 6}]})
        after = ctl.rpc({"op": "stats"})
        assert single.get("ok") and swept.get("ok"), (single, swept)
        assert len(swept["results"]) == 1, swept
        item = swept["results"][0]
        single.pop("seconds", None)
        item.pop("seconds", None)
        assert item == single, f"sweep item diverged:\n{single}\n{item}"
        assert after["search_expansions"] == before["search_expansions"], \
            f"sweep item searched again: {before} -> {after}"
        print("sweep item: equals the single repair, no search expansions")

        # Hundreds of concurrent connections, each pipelining a burst of
        # repairs over mixed tenants: every request goes out before any
        # reply is read, so replies interleave freely and only the echoed
        # id correlates them.
        num_conns, burst = 200, 4
        errors = []

        def pipeline_conn(conn_index):
            try:
                tenant = ("hosp", "census")[conn_index % 2]
                conn = Conn(port)
                ids = [conn_index * 1000 + j for j in range(burst)]
                lines = "".join(
                    json.dumps({"op": "repair", "tenant": tenant,
                                "tau_r": [0.25, 0.5, 1.0][j % 3],
                                "seed": j + 1, "id": ids[j]}) + "\n"
                    for j in range(burst))
                conn.file.write(lines)
                conn.file.flush()
                replies = {}
                for _ in range(burst):
                    reply = json.loads(conn.file.readline())
                    replies[reply.get("id")] = reply
                if sorted(replies) != ids:
                    errors.append(f"conn {conn_index}: id mismatch "
                                  f"{sorted(replies)} != {ids}")
                for i, reply in replies.items():
                    if not reply.get("ok"):
                        errors.append(f"conn {conn_index} id {i}: {reply}")
                conn.close()
            except Exception as e:  # noqa: BLE001
                errors.append(f"conn {conn_index}: {type(e).__name__}: {e}")

        threads = [threading.Thread(target=pipeline_conn, args=(i,))
                   for i in range(num_conns)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        assert not errors, "\n".join(errors[:10])
        stats = ctl.rpc({"op": "stats"})
        assert stats.get("ok"), stats
        assert stats["rejected"] == 0, \
            f"pipelined workload under capacity was shed: {stats}"
        assert stats["completed"] >= num_conns * burst, stats
        print(f"pipelined phase: {num_conns} connections x {burst} requests "
              f"ok (p99 {stats['p99_latency_seconds'] * 1e3:.2f}ms)")

        # Mid-load metrics scrape: the registry must already see the
        # pipelined burst (compared for monotonicity after the quota
        # phase below).
        m = ctl.rpc({"op": "metrics"})
        assert m.get("ok"), m
        assert m["series"] >= 15, f"too few metric series: {m['series']}"
        mid_metrics = parse_metrics(m["text"])
        assert mid_metrics[
            'retrust_wire_requests_total{verb="repair"}'] >= num_conns * burst

        # Quota fairness: "throttled" gets a tiny token bucket and is
        # flooded; "hosp" stays unlimited and runs concurrently. The
        # throttled tenant must shed with Overloaded (synchronously — the
        # rejects never enter the queue), the quiet tenant must see every
        # request succeed.
        r = ctl.rpc({"op": "load_tenant", "tenant": "throttled",
                     "csv": csv_b, "fds": ["City->Zip"],
                     "quota_rate": 1.0, "quota_burst": 2})
        assert r.get("ok"), r
        flood_outcomes = []

        def flood():
            try:
                conn = Conn(port)
                n = 30
                conn.file.write("".join(
                    json.dumps({"op": "repair", "tenant": "throttled",
                                "tau_r": 0.5, "seed": 1, "id": j}) + "\n"
                    for j in range(n)))
                conn.file.flush()
                for _ in range(n):
                    flood_outcomes.append(json.loads(conn.file.readline()))
                conn.close()
            except Exception as e:  # noqa: BLE001
                errors.append(f"flood: {type(e).__name__}: {e}")

        def quiet():
            try:
                conn = Conn(port)
                for j in range(10):
                    reply = conn.rpc({"op": "repair", "tenant": "hosp",
                                      "tau_r": 1.0, "seed": j + 1})
                    if not reply.get("ok"):
                        errors.append(f"quiet request {j} failed: {reply}")
                conn.close()
            except Exception as e:  # noqa: BLE001
                errors.append(f"quiet: {type(e).__name__}: {e}")

        flood_thread = threading.Thread(target=flood)
        quiet_thread = threading.Thread(target=quiet)
        flood_thread.start()
        quiet_thread.start()
        flood_thread.join(timeout=300)
        quiet_thread.join(timeout=300)
        assert not errors, "\n".join(errors[:10])
        served = sum(1 for r in flood_outcomes if r.get("ok"))
        shed = sum(1 for r in flood_outcomes
                   if not r.get("ok") and r.get("error") == "overloaded")
        assert served >= 1, f"burst tokens never admitted: {flood_outcomes[:3]}"
        assert shed >= 20, f"flood was not throttled: served={served} " \
                           f"shed={shed}"
        assert served + shed == len(flood_outcomes), flood_outcomes[:3]
        stats = ctl.rpc({"op": "stats"})
        assert stats["rejected_quota"] == shed, stats
        assert stats["rejected"] == stats["rejected_quota"], \
            f"non-quota rejections leaked into the quiet tenant: {stats}"
        print(f"quota phase: throttled served={served} shed={shed}, "
              f"quiet tenant all ok")

        # --- observability phase ----------------------------------------
        # Second scrape: every counter is monotone across scrapes, and the
        # registry agrees with both the stats verb and the client-side
        # tallies of the quota flood.
        m = ctl.rpc({"op": "metrics"})
        assert m.get("ok"), m
        metrics = parse_metrics(m["text"])
        regressed = [s for s, v in mid_metrics.items()
                     if "_total" in s and metrics.get(s, 0) < v]
        assert not regressed, f"counters went backwards: {regressed}"
        assert metrics[
            'retrust_requests_rejected_total{reason="quota"}'] == shed, \
            (metrics, shed)
        assert metrics["retrust_quota_denials_total"] == shed
        assert metrics["retrust_requests_completed_total"] == \
            stats["completed"], (metrics, stats)
        assert metrics["retrust_requests_submitted_total"] == \
            stats["completed"] + shed
        print(f"metrics phase: {m['series']} series, counters monotone, "
              f"registry agrees with client tallies")

        # A traced repair returns its span tree inline; untraced must not.
        r = ctl.rpc({"op": "repair", "tenant": "hosp", "tau_r": 0.5,
                     "seed": 1, "trace": True})
        assert r.get("ok"), r
        trace = r.get("trace")
        assert trace and trace["name"] == "request", r
        top = {s["name"] for s in trace["spans"]}
        assert {"decode", "queue_wait", "service"} <= top, trace
        service = next(s for s in trace["spans"] if s["name"] == "service")
        session = next(s for s in service.get("spans", [])
                       if s["name"] == "session")
        assert any(s["name"] == "search" for s in session.get("spans", [])), \
            trace
        r = ctl.rpc({"op": "repair", "tenant": "hosp", "tau_r": 0.5,
                     "seed": 1})
        assert r.get("ok") and "trace" not in r, r

        # The flight recorder remembers the most recent requests (the
        # traced + untraced repairs just issued lead, newest first).
        d = ctl.rpc({"op": "dump_recent", "limit": 5})
        assert d.get("ok"), d
        records = d.get("records", [])
        assert records, d
        assert records[0]["verb"] == "repair", records[0]
        assert records[0]["status"] == "ok", records[0]
        assert records[0]["traced"] is False and records[1]["traced"], records
        print(f"flight recorder: {len(records)} recent records, "
              f"newest verb={records[0]['verb']}")

        r = ctl.rpc({"op": "shutdown"})
        assert r.get("ok"), r
        ctl.close()
        proc.wait(timeout=30)
        assert proc.returncode == 0, f"server exit {proc.returncode}"
        print("service smoke (incl. warm restart + pipelined wire): OK")
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()


if __name__ == "__main__":
    sys.exit(main())
