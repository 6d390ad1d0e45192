#!/usr/bin/env python3
"""Validate a BENCH_perf_*.json file from the wall-clock perf suite.

Usage: check_perf.py <BENCH_perf_engine.json | BENCH_perf_datapath.json
                      | BENCH_perf_parallel.json | BENCH_perf_interp.json
                      | BENCH_supp_multitenant.json
                      | BENCH_supp_kv_txn.json>

Checks the JSON schema (bench name, seed, shard count, metric list with
name/value/unit) and bench-specific invariants:

- perf_engine: all four mixes present; deterministic dispatch counters
  match the configured run shape; events/sec above a *loose* floor —
  this guards against 10x regressions (an accidental O(log n) or
  per-event allocation creeping back), not machine-to-machine noise.
- perf_datapath: the fragmented-RPC scenario must copy ZERO payload
  bytes (the whole point of the buffer layer) and share a nonzero
  number; the cluster scenario likewise copies nothing.
- perf_parallel: all four configuration families (ring/static,
  ring/adaptive, idle/static, idle/adaptive — the sync-mode x placement
  matrix) ran at every swept shard count and completed the identical
  closed-loop request count; cross-shard posts flowed in the scattered
  placements; on the idle-frontier topology with co-shardable pairs the
  adaptive run produced zero cross posts and strictly fewer
  (EOT-extended) windows than static sync. The 4-shard aggregate
  events/sec must be >= 2x the 1-shard rate and the idle-frontier
  adaptive run >= 1.3x its static twin — both floors enforced only when
  the recorded hw_threads >= 4, since the parallelism physically cannot
  show on a 1-2 core box. Each cell also carries its stall breakdown
  (busy/barrier/sync wall components + lookahead utilization), and
  busy + barrier + sync must reconstruct the total wall time within 1%.
- perf_interp: every standard lambda present; its per-invocation
  instruction count equals the recorded one exactly (the interpreter's
  cost model is the paper's contract, so any drift is a semantic
  change, not noise); ns/instruction min <= median <= max and under a
  loose order-of-magnitude ceiling.
- supp_multitenant: per-tenant SLO rows present for every scenario; the
  noisy-neighbor victim's shared-card p99 within 1.25x its isolated
  baseline while the aggressor oversubscribes its DRR weight share by
  >= 10x; the scale-to-zero tenant took cold failures and released all
  replicas again. Simulated-time metrics: exact, no machine noise.
- supp_kv_txn: every YCSB/cache/TPC-C cell present with nonzero
  commits; the read-only mix never aborts; the write-heavy mix aborts
  strictly more at Zipf 0.99 than uniform under both lock protocols;
  the NIC node-cache hit ratio is 0 at capacity 0 (host baseline) and
  monotonically non-decreasing in capacity.

Exit code 0 on success.
"""
import json
import sys

# Deliberately ~10-30x below rates seen on a developer machine: CI boxes
# are slow and shared, and this floor only exists to catch order-of-
# magnitude regressions.
ENGINE_FLOORS_EPS = {
    "dispatch": 1_000_000,
    "cancel_mix": 800_000,
    "backlog": 150_000,
    "nested": 1_000_000,
}


def fail(message):
    print(f"check_perf: FAIL: {message}")
    sys.exit(1)


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        fail(f"cannot parse {path}: {err}")
    for key in ("bench", "seed", "shards", "metrics"):
        if key not in doc:
            fail(f"missing top-level key '{key}'")
    if not isinstance(doc["shards"], int) or doc["shards"] < 1:
        fail(f"'shards' must be a positive integer, got {doc['shards']!r}")
    if not isinstance(doc["metrics"], list) or not doc["metrics"]:
        fail("'metrics' must be a non-empty list")
    for m in doc["metrics"]:
        for key in ("name", "value", "unit"):
            if key not in m:
                fail(f"metric entry missing '{key}': {m}")
        if not isinstance(m["value"], (int, float)):
            fail(f"metric '{m['name']}' value is not numeric")
    return doc


def metrics_by_name(doc):
    return {m["name"]: m["value"] for m in doc["metrics"]}


def check_engine(doc):
    got = metrics_by_name(doc)
    for mix, floor in ENGINE_FLOORS_EPS.items():
        rate_key = f"{mix}_events_per_sec"
        if rate_key not in got:
            fail(f"perf_engine missing metric '{rate_key}'")
        if got[rate_key] < floor:
            fail(
                f"{rate_key} = {got[rate_key]:.0f} below loose floor "
                f"{floor} (order-of-magnitude regression?)"
            )
        for suffix in ("_dispatched", "_arena_slots"):
            if mix + suffix not in got:
                fail(f"perf_engine missing metric '{mix + suffix}'")
        if got[f"{mix}_dispatched"] <= 0:
            fail(f"{mix}_dispatched is zero — mix did not run")
    print("check_perf: OK perf_engine "
          + ", ".join(f"{m}={got[m + '_events_per_sec']:.0f}/s"
                      for m in ENGINE_FLOORS_EPS))


def check_datapath(doc):
    got = metrics_by_name(doc)
    for scenario in ("rpc", "cluster"):
        for suffix in ("_bytes_copied", "_bytes_shared", "_packets"):
            key = scenario + suffix
            if key not in got:
                fail(f"perf_datapath missing metric '{key}'")
        if got[f"{scenario}_bytes_copied"] != 0:
            fail(
                f"{scenario}_bytes_copied = "
                f"{got[scenario + '_bytes_copied']:.0f}; the datapath "
                "must be zero-copy"
            )
        if got[f"{scenario}_bytes_shared"] <= 0:
            fail(f"{scenario}_bytes_shared is zero — no payload moved")
        if got[f"{scenario}_packets"] <= 0:
            fail(f"{scenario}_packets is zero — scenario did not run")
    print("check_perf: OK perf_datapath "
          f"rpc shared {got['rpc_bytes_shared']:.0f} B copied 0, "
          f"cluster shared {got['cluster_bytes_shared']:.0f} B copied 0")


# Every (shard count, configuration) cell of perf_parallel carries the
# same column set; the four families are the sync/placement matrix the
# bench sweeps (see bench/perf_parallel.cc).
PARALLEL_FAMILIES = ("", "_adaptive", "_idle_static", "_idle_adaptive")
PARALLEL_SUFFIXES = (
    "_events_per_sec", "_dispatched", "_completed", "_cross_posts",
    "_windows", "_windows_extended", "_window_span_ns",
    "_busy_ns", "_barrier_ns", "_sync_ns", "_wall_ns",
    "_stall_sum_err_pct", "_lookahead_util",
)


def check_parallel(doc):
    got = metrics_by_name(doc)
    for key in ("hw_threads", "islands"):
        if key not in got:
            fail(f"perf_parallel missing metric '{key}'")
    # Swept shard counts come from the legacy family's cells
    # ("shards<N>_events_per_sec" with a purely numeric <N>); the other
    # families must then cover the same counts.
    swept = sorted(
        int(name[len("shards"):-len("_events_per_sec")])
        for name in got
        if name.startswith("shards") and name.endswith("_events_per_sec")
        and name[len("shards"):-len("_events_per_sec")].isdigit()
    )
    if 1 not in swept or 4 not in swept:
        fail(f"perf_parallel must sweep shard counts 1 and 4, got {swept}")
    islands = got["islands"]
    completed = None
    for s in swept:
        for family in PARALLEL_FAMILIES:
            cell = f"shards{s}{family}"
            for suffix in PARALLEL_SUFFIXES:
                if cell + suffix not in got:
                    fail(f"perf_parallel missing metric '{cell + suffix}'")
            if got[f"{cell}_events_per_sec"] <= 0:
                fail(f"{cell}_events_per_sec is zero — cell did not run")
            if got[f"{cell}_dispatched"] <= 0:
                fail(f"{cell}_dispatched is zero — cell did not run")
            # Closed-loop: every cell completes the same request count —
            # neither shard count, placement, nor sync mode may change
            # the simulated outcome.
            if completed is None:
                completed = got[f"{cell}_completed"]
            elif got[f"{cell}_completed"] != completed:
                fail(
                    f"{cell}_completed = {got[cell + '_completed']:.0f} != "
                    f"{completed:.0f}; configuration changed the simulated "
                    "result"
                )
            if s > 1 and family in ("", "_idle_static"):
                if got[f"{cell}_cross_posts"] <= 0:
                    fail(f"{cell}_cross_posts is zero — no cross-shard "
                         "traffic in a scattered placement")
                if got[f"{cell}_windows"] <= 0:
                    fail(f"{cell}_windows is zero — static sync ran no "
                         "windows")
            # Stall breakdown: the busy/barrier/sync components must be
            # present and reconstruct the measured wall time within 1%.
            if got[f"{cell}_wall_ns"] <= 0:
                fail(f"{cell}_wall_ns is zero — stall accounting did not "
                     "run")
            if got[f"{cell}_busy_ns"] <= 0:
                fail(f"{cell}_busy_ns is zero — no shard busy time "
                     "recorded")
            if got[f"{cell}_stall_sum_err_pct"] > 1.0:
                fail(
                    f"{cell}_stall_sum_err_pct = "
                    f"{got[cell + '_stall_sum_err_pct']:.3f}%; busy + "
                    "barrier + sync must reconstruct wall time within 1%"
                )
            util = got[f"{cell}_lookahead_util"]
            if not 0.0 < util <= 1.0:
                fail(f"{cell}_lookahead_util = {util:.3f} outside (0, 1]")
        # Adaptive sync on the idle-frontier topology: block placement
        # co-shards every client/NIC pair whenever a shard holds >= 2
        # islands, so the run must be cross-traffic-free and collapse to
        # strictly fewer (EOT-extended) windows than static sync pays.
        if 1 < s <= islands / 2:
            idle_a = f"shards{s}_idle_adaptive"
            idle_s = f"shards{s}_idle_static"
            if got[f"{idle_a}_cross_posts"] != 0:
                fail(
                    f"{idle_a}_cross_posts = "
                    f"{got[idle_a + '_cross_posts']:.0f}; co-sharded pairs "
                    "must produce zero cross-shard traffic"
                )
            if got[f"{idle_a}_windows"] >= got[f"{idle_s}_windows"]:
                fail(
                    f"{idle_a}_windows = {got[idle_a + '_windows']:.0f} not "
                    f"below static's {got[idle_s + '_windows']:.0f}; EOT "
                    "extension did not collapse the idle frontier"
                )
            if got[f"{idle_a}_windows_extended"] <= 0:
                fail(f"{idle_a}_windows_extended is zero — no window was "
                     "EOT-extended")
    if completed is None or completed <= 0:
        fail("perf_parallel completed zero requests")
    for key in ("speedup_4x", "idle_speedup_4x"):
        if key not in got:
            fail(f"perf_parallel missing metric '{key}'")
    hw = got["hw_threads"]
    if hw >= 4:
        if got["speedup_4x"] < 2.0:
            fail(
                f"speedup_4x = {got['speedup_4x']:.2f} on a {hw:.0f}-thread "
                "machine; 4 shards must be >= 2x the 1-shard rate"
            )
        if got["idle_speedup_4x"] < 1.3:
            fail(
                f"idle_speedup_4x = {got['idle_speedup_4x']:.2f} on a "
                f"{hw:.0f}-thread machine; adaptive + locality must beat "
                "static sync by >= 1.3x on the idle-frontier topology"
            )
        verdict = (
            f"speedup_4x={got['speedup_4x']:.2f} "
            f"idle_speedup_4x={got['idle_speedup_4x']:.2f} "
            "(floors 2.0/1.3 enforced)"
        )
    else:
        verdict = (
            f"speedup_4x={got['speedup_4x']:.2f} "
            f"idle_speedup_4x={got['idle_speedup_4x']:.2f} "
            f"(floors skipped: {hw:.0f} hw thread(s))"
        )
    print(f"check_perf: OK perf_parallel shards={swept} "
          f"families={len(PARALLEL_FAMILIES)} "
          f"completed={completed:.0f}/cell " + verdict)


def check_multitenant(doc):
    got = metrics_by_name(doc)
    # Per-tenant SLO rows must be present for every scenario.
    tenants = (
        "noisy/victim_isolated",
        "noisy/victim_shared",
        "noisy/aggressor_shared",
        "burst/gold",
        "burst/silver",
        "burst/bronze",
        "scalezero/idlecorp",
    )
    for tenant in tenants:
        for suffix in ("/offered", "/goodput", "/p99"):
            if tenant + suffix not in got:
                fail(f"supp_multitenant missing per-tenant row "
                     f"'{tenant + suffix}'")
        if got[tenant + "/offered"] <= 0:
            fail(f"{tenant}/offered is zero — scenario did not run")
    # Noisy neighbor: DRR must hold the victim's p99 within 25% of the
    # isolated baseline while the aggressor oversubscribes its weight
    # share by at least 10x.
    isolated = got["noisy/victim_isolated/p99"]
    shared = got["noisy/victim_shared/p99"]
    if isolated <= 0:
        fail("noisy/victim_isolated/p99 is zero — baseline did not run")
    if shared > 1.25 * isolated:
        fail(
            f"victim p99 {shared:.3f} ms exceeds 1.25x the isolated "
            f"baseline {isolated:.3f} ms — tenant isolation regressed"
        )
    if got.get("noisy/aggressor_offered_over_share", 0.0) < 10.0:
        fail(
            "aggressor offered only "
            f"{got.get('noisy/aggressor_offered_over_share', 0.0):.1f}x its "
            "weight share; the noisy-neighbor scenario must saturate at "
            ">= 10x"
        )
    # Scale-to-zero: the burst must hit a parked tenant (cold failures)
    # and the loop must release every replica again afterwards.
    if got.get("scalezero/cold_failures", 0.0) <= 0:
        fail("scalezero/cold_failures is zero — tenant was not parked")
    if got.get("scalezero/final_replicas", -1.0) != 0:
        fail("scalezero/final_replicas nonzero — scale-down never landed")
    print(
        "check_perf: OK supp_multitenant "
        f"victim p99 {shared:.3f}/{isolated:.3f} ms "
        f"({shared / isolated:.2f}x <= 1.25x), aggressor "
        f"{got['noisy/aggressor_offered_over_share']:.1f}x share"
    )


def check_kv_txn(doc):
    got = metrics_by_name(doc)
    protos = ("no_wait", "wait_die")
    suffixes = ("/commits", "/aborts", "/abort_rate", "/p50", "/p99",
                "/hit_ratio")
    # Every YCSB cell must be present and have committed work.
    cells = [
        f"ycsb/{mix}/{proto}/{z}"
        for mix in "ABCDEF"
        for proto in protos
        for z in ("z00", "z99")
    ]
    cache_sizes = (0, 64, 256, 2048)
    cells += [f"cache/{n}" for n in cache_sizes]
    cells += [f"tpcc/w{w}/{proto}" for w in (1, 8) for proto in protos]
    for cell in cells:
        for suffix in suffixes:
            if cell + suffix not in got:
                fail(f"supp_kv_txn missing metric '{cell + suffix}'")
        if got[cell + "/commits"] <= 0:
            fail(f"{cell}/commits is zero — cell committed nothing")
        if not 0.0 <= got[cell + "/hit_ratio"] <= 1.0:
            fail(f"{cell}/hit_ratio = {got[cell + '/hit_ratio']:.3f} "
                 "outside [0, 1]")
    # Read-only YCSB C takes only shared locks: it must never abort.
    for proto in protos:
        for z in ("z00", "z99"):
            cell = f"ycsb/C/{proto}/{z}"
            if got[cell + "/aborts"] != 0:
                fail(f"{cell}/aborts = {got[cell + '/aborts']:.0f}; "
                     "the read-only mix must never conflict")
    # Contention responds to skew: the write-heavy mix at Zipf 0.99 must
    # abort strictly more often than its uniform twin, per protocol.
    for proto in protos:
        uniform = got[f"ycsb/A/{proto}/z00/abort_rate"]
        skewed = got[f"ycsb/A/{proto}/z99/abort_rate"]
        if skewed <= uniform:
            fail(
                f"ycsb/A/{proto}: zipf 0.99 abort rate {skewed:.4f} not "
                f"above uniform {uniform:.4f} — contention does not "
                "respond to skew"
            )
    # NIC cache effectiveness: capacity 0 is the host-backend baseline
    # (every access a miss), and the hit ratio must be monotonically
    # non-decreasing in capacity.
    if got["cache/0/hit_ratio"] != 0.0:
        fail(f"cache/0/hit_ratio = {got['cache/0/hit_ratio']:.3f}; the "
             "host baseline must never hit the NIC cache")
    if got.get("cache/0/host_reads", 0.0) <= 0:
        fail("cache/0/host_reads is zero — baseline pages never crossed "
             "to host memory")
    last = -1.0
    for n in cache_sizes:
        ratio = got[f"cache/{n}/hit_ratio"]
        if ratio < last:
            fail(
                f"cache/{n}/hit_ratio = {ratio:.3f} below the smaller "
                f"cache's {last:.3f} — hit ratio must be monotone in "
                "capacity"
            )
        last = ratio
    if last <= 0.0:
        fail("largest NIC cache still has zero hit ratio — cache never "
             "served a page")
    print(
        "check_perf: OK supp_kv_txn "
        f"A-mix abort z99/z00 no_wait "
        f"{got['ycsb/A/no_wait/z99/abort_rate']:.3f}/"
        f"{got['ycsb/A/no_wait/z00/abort_rate']:.3f}, hit ratio "
        + " -> ".join(f"{got[f'cache/{n}/hit_ratio']:.3f}"
                      for n in cache_sizes)
    )


# Instructions per invocation of each standard lambda on the request
# perf_interp sends (web page 1, GET 0xABCDEF, SET 42=99, 64x64 image).
INTERP_INSTRUCTIONS = {
    "web_server": 2000,
    "kv_client_get": 2365,
    "kv_client_set": 2367,
    "image_transformer": 1547,
}
# ~10x above a slow shared VM: catches an accidental per-instruction
# allocation or lookup, not machine-to-machine noise.
INTERP_CEILING_NS = {
    "web_server": 50.0,
    "kv_client_get": 50.0,
    "kv_client_set": 50.0,
    "image_transformer": 200.0,  # bulk grayscale dominates
}


def check_interp(doc):
    got = metrics_by_name(doc)
    for name, expected in INTERP_INSTRUCTIONS.items():
        for suffix in ("_instructions", "_cycles", "_ns_per_instr",
                       "_ns_per_instr_min", "_ns_per_instr_max",
                       "_instr_per_sec"):
            if name + suffix not in got:
                fail(f"perf_interp missing metric '{name + suffix}'")
        if got[f"{name}_instructions"] != expected:
            fail(f"{name}_instructions = {got[f'{name}_instructions']:.0f}, "
                 f"expected exactly {expected}")
        lo = got[f"{name}_ns_per_instr_min"]
        mid = got[f"{name}_ns_per_instr"]
        hi = got[f"{name}_ns_per_instr_max"]
        if not 0 < lo <= mid <= hi:
            fail(f"{name} ns/instr not ordered: min {lo} median {mid} "
                 f"max {hi}")
        if mid > INTERP_CEILING_NS[name]:
            fail(f"{name}_ns_per_instr = {mid:.2f} above loose ceiling "
                 f"{INTERP_CEILING_NS[name]} (order-of-magnitude "
                 "regression?)")
    print("check_perf: OK perf_interp "
          + ", ".join(f"{n}={got[n + '_ns_per_instr']:.2f}ns"
                      for n in INTERP_INSTRUCTIONS))


def main():
    if len(sys.argv) != 2:
        print(__doc__)
        sys.exit(2)
    doc = load(sys.argv[1])
    if doc["bench"] == "perf_engine":
        check_engine(doc)
    elif doc["bench"] == "perf_datapath":
        check_datapath(doc)
    elif doc["bench"] == "perf_parallel":
        check_parallel(doc)
    elif doc["bench"] == "perf_interp":
        check_interp(doc)
    elif doc["bench"] == "supp_multitenant":
        check_multitenant(doc)
    elif doc["bench"] == "supp_kv_txn":
        check_kv_txn(doc)
    else:
        fail(f"unknown bench '{doc['bench']}'")


if __name__ == "__main__":
    main()
