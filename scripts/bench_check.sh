#!/usr/bin/env bash
# Regression gate over results/BENCH_tiering.json. The forward's stores
# run into the backward, so at the paper testbed every backend hides its
# stores (the paper's Figure 10): each must report the compute-bound step
# (the ssd backend on ten times faster links) with no store wait. Where
# the links bind (half the testbed's link speed, adaptive offloading off)
# the per-tier critical path must still differentiate the backends: two
# byte-identical step times there mean tier link speed stopped reaching
# the step clock, and the order must be dram < tiered-4g < ssd, each with
# a store wait. The profile-guided plan must beat the static front-first
# walk it replaces. Every gate below runs; the script fails if any does.
# Regenerate the JSON with:
#   cargo run -p ssdtrain-bench --release --bin bench_tiering
set -uo pipefail
cd "$(dirname "$0")/.."
status=0

json=results/BENCH_tiering.json
if [ ! -f "$json" ]; then
    echo "FAIL: missing $json (run the bench_tiering binary first)" >&2
    exit 1
fi

awk '
  /"compute_bound_step_secs":/ {
    cb = $0
    sub(/.*"compute_bound_step_secs": /, "", cb)
    sub(/,.*/, "", cb)
    next
  }
  # One line per backend where the links bind.
  /"binding_backend":/ {
    b = $0
    sub(/.*"binding_backend": "/, "", b)
    sub(/".*/, "", b)
    v = $0
    sub(/.*"step_secs": /, "", v)
    sub(/,.*/, "", v)
    w = $0
    sub(/.*"store_wait_secs": /, "", w)
    sub(/,.*/, "", w)
    bsteps[b] = v
    bwait[b] = w
    border[nb++] = b
    next
  }
  /"name":/ {
    line = $0
    sub(/.*"name": "/, "", line)
    sub(/".*/, "", line)
    name = line
  }
  # Only backend objects carry step_secs, so `name` still holds the
  # backend label here (tier entries never print).
  /"step_secs":/ {
    v = $0
    sub(/.*"step_secs": /, "", v)
    sub(/,.*/, "", v)
    steps[name] = v
    order[n++] = name
  }
  /"store_stall_secs":/ {
    v = $0
    sub(/.*"store_stall_secs": /, "", v)
    sub(/,.*/, "", v)
    wait[name] += v
  }
  /"memory_stall_secs":/ {
    v = $0
    sub(/.*"memory_stall_secs": /, "", v)
    sub(/,.*/, "", v)
    wait[name] += v
  }
  END {
    fail = 0
    if (n < 2) {
      print "FAIL: fewer than two backends in the bench report"
      fail = 1
    }
    if (cb == "") {
      print "FAIL: bench report carries no compute-bound step"
      fail = 1
    }
    # At the testbed point: the compute-bound step, no store wait.
    # Compare the formatted strings, not the floats.
    for (i = 0; i < n; i++) {
      if (steps[order[i]] != cb) {
        printf "FAIL: %s reports %s s at the testbed, not the compute-bound %s s\n", \
               order[i], steps[order[i]], cb
        fail = 1
      }
      if (!(wait[order[i]] + 0 == 0)) {
        printf "FAIL: %s exposes %s s of store wait at the testbed\n", \
               order[i], wait[order[i]]
        fail = 1
      }
    }
    # Where the links bind: byte-identical step times between any two
    # backends mean the timing model degenerated.
    for (i = 0; i < nb; i++) {
      for (j = i + 1; j < nb; j++)
        if (bsteps[border[i]] == bsteps[border[j]]) {
          printf "FAIL: where the links bind, %s and %s report byte-identical step_secs (%s)\n", \
                 border[i], border[j], bsteps[border[i]]
          fail = 1
        }
      if (!(bwait[border[i]] + 0 > 0)) {
        printf "FAIL: where the links bind, %s exposes no store wait\n", border[i]
        fail = 1
      }
    }
    if (("dram" in bsteps) && ("tiered-4g" in bsteps) && ("ssd" in bsteps)) {
      if (!(bsteps["dram"] + 0 < bsteps["tiered-4g"] + 0 && \
            bsteps["tiered-4g"] + 0 < bsteps["ssd"] + 0)) {
        printf "FAIL: where the links bind, expected dram < tiered-4g < ssd, got %s / %s / %s\n", \
               bsteps["dram"], bsteps["tiered-4g"], bsteps["ssd"]
        fail = 1
      }
    } else {
      print "FAIL: bench report is missing one of dram / tiered-4g / ssd where the links bind"
      fail = 1
    }
    if ("tiered-4g-planned" in steps && \
        !(steps["tiered-4g-planned"] + 0 < steps["tiered-4g"] + 0)) {
      printf "FAIL: planned placement (%s s) must beat the static walk (%s s)\n", \
             steps["tiered-4g-planned"], steps["tiered-4g"]
      fail = 1
    }
    if (fail) exit 1
    printf "bench gate ok: %d backends compute-bound at the testbed, %d distinct and ordered where the links bind\n", n, nb
  }
' "$json" || status=1

# Capacity gate over results/BENCH_capacity.json: offloading optimizer
# state to the array must buy model size the bounded host pool cannot
# (ssd/tiered max_hidden strictly above dram-only), and the overlapped
# optimizer update must expose strictly less time than the inline one.
# Regenerate with:
#   cargo run -p ssdtrain-bench --release --bin bench_capacity
capacity=results/BENCH_capacity.json
if [ ! -f "$capacity" ]; then
    echo "FAIL: missing $capacity (run the bench_capacity binary first)" >&2
    exit 1
fi

awk '
  /"name":/ {
    line = $0
    sub(/.*"name": "/, "", line)
    sub(/".*/, "", line)
    name = line
    ov = ($0 ~ /"overlap": true/) ? "yes" : "no"
    v = $0
    sub(/.*"max_hidden": /, "", v)
    sub(/,.*/, "", v)
    hidden[name "/" ov] = v + 0
  }
  /"backend":/ {
    line = $0
    sub(/.*"backend": "/, "", line)
    sub(/".*/, "", line)
    b = line
    inline = $0
    sub(/.*"opt_secs_inline": /, "", inline)
    sub(/,.*/, "", inline)
    exposed = $0
    sub(/.*"opt_exposed_overlap": /, "", exposed)
    sub(/[,}].*/, "", exposed)
    timed[b] = 1
    if (!(exposed + 0 < inline + 0)) {
      printf "FAIL: %s: overlapped exposure (%s s) must stay strictly below the inline update (%s s)\n", \
             b, exposed, inline
      fail = 1
    }
  }
  END {
    for (b in timed) nb++
    if (nb < 3) {
      print "FAIL: capacity report is missing backend timings"
      fail = 1
    }
    split("no yes", ovs, " ")
    for (i in ovs) {
      ov = ovs[i]
      if (!(("ssd/" ov) in hidden) || !(("dram/" ov) in hidden) || \
          !(("tiered-4g/" ov) in hidden)) {
        printf "FAIL: capacity report is missing a backend at overlap=%s\n", ov
        fail = 1
        continue
      }
      if (!(hidden["ssd/" ov] > hidden["dram/" ov])) {
        printf "FAIL: overlap=%s: ssd max_hidden (%d) must exceed dram-only (%d)\n", \
               ov, hidden["ssd/" ov], hidden["dram/" ov]
        fail = 1
      }
      if (!(hidden["tiered-4g/" ov] > hidden["dram/" ov])) {
        printf "FAIL: overlap=%s: tiered max_hidden (%d) must exceed dram-only (%d)\n", \
               ov, hidden["tiered-4g/" ov], hidden["dram/" ov]
        fail = 1
      }
    }
    if (fail) exit 1
    printf "capacity gate ok: array-backed capacity above dram-only, overlap exposure below inline\n"
  }
' "$capacity" || status=1

# I/O-path gate over results/BENCH_io.json: write coalescing must pay —
# the coalesced arms' effective WAF strictly below the per-tensor
# prefetching baseline, and their tiered step time too where the store
# path binds (binding_step_secs, at a quarter of the testbed's link
# speed; at the testbed the forward's stores hide behind the backward) —
# and the double-buffered group prefetch must not stall the backward
# more than on-demand loads do.
# Regenerate with:
#   cargo run -p ssdtrain-bench --release --bin bench_io
io=results/BENCH_io.json
if [ ! -f "$io" ]; then
    echo "FAIL: missing $io (run the bench_io binary first)" >&2
    exit 1
fi

awk '
  /"name":/ {
    line = $0
    sub(/.*"name": "/, "", line)
    sub(/".*/, "", line)
    name = line
    v = $0; sub(/.*"binding_step_secs": /, "", v); sub(/,.*/, "", v); step[name] = v + 0
    v = $0; sub(/.*"waf": /, "", v); sub(/,.*/, "", v); waf[name] = v + 0
    v = $0; sub(/.*"load_stall_secs": /, "", v); sub(/,.*/, "", v); stall[name] = v + 0
    v = $0; sub(/.*"coalesce_segments": /, "", v); sub(/,.*/, "", v); segs[name] = v + 0
    n++
  }
  END {
    fail = 0
    base = "per-tensor-depth2"
    if (!(base in step) || !("per-tensor-ondemand" in step)) {
      print "FAIL: io report is missing a per-tensor baseline arm"
      exit 1
    }
    coalesced = 0
    for (name in step) {
      if (name ~ /^coalesced-/) {
        coalesced++
        if (!(segs[name] > 0)) {
          printf "FAIL: %s sealed no segments — the coalescer never engaged\n", name
          fail = 1
        }
        if (!(waf[name] < waf[base])) {
          printf "FAIL: %s waf (%.6f) must be strictly below per-tensor (%.6f)\n", \
                 name, waf[name], waf[base]
          fail = 1
        }
        if (!(step[name] < step[base])) {
          printf "FAIL: %s step where the links bind (%.6f s) must be strictly below per-tensor (%.6f s)\n", \
                 name, step[name], step[base]
          fail = 1
        }
        if (!(stall[name] <= stall["per-tensor-ondemand"])) {
          printf "FAIL: %s backward stall (%.6f s) must not exceed on-demand (%.6f s)\n", \
                 name, stall[name], stall["per-tensor-ondemand"]
          fail = 1
        }
      }
    }
    if (coalesced < 2) {
      print "FAIL: io report needs at least two coalesced arms (segment-size axis)"
      fail = 1
    }
    if (fail) exit 1
    printf "io gate ok: %d arms, coalesced waf and binding step below per-tensor, group stall bounded\n", n
  }
' "$io" || status=1
exit $status
