#!/usr/bin/env sh
# Tier-1 verification for the ixp-vantage workspace:
#   build, test, and the ixp-lint invariant pass (no-panic decoder
#   contract and friends; see crates/lint and DESIGN.md).
#
# Clippy runs last and gates (`-D warnings`) whenever its driver is
# installed, offline too. It is skipped only when `cargo clippy
# --version` fails or IXP_CI_OFFLINE=1 is set.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --workspace"
# Every member crate's unit and property tests, not just the root
# package's integration suites.
cargo test -q --workspace

echo "==> cargo test -q --test fault_tolerance (degraded-mode acceptance)"
cargo test -q --test fault_tolerance

echo "==> cargo test -q --test chaos_soak (kill/resume + overload gate)"
# The chaos-soak gate replays the reference week under process-level
# chaos: kill-and-resume at seeded offsets (byte-identical checkpoints
# and metrics), damaged-checkpoint rejection, overload shedding with
# exact accounting, and the < 2 % Table-1 drift bar. Budgeted: the soak
# runs at tiny scale and must not balloon into a minutes-long gate.
soak_started=$(date +%s)
cargo test -q --test chaos_soak
soak_elapsed=$(( $(date +%s) - soak_started ))
if [ "$soak_elapsed" -gt 120 ]; then
    echo "ci: chaos-soak runtime budget exceeded: ${soak_elapsed}s > 120s" >&2
    exit 1
fi
echo "ci: chaos soak took ${soak_elapsed}s (budget 120s)"

echo "==> cargo test -q --test transport_soak (wire-transport chaos gate)"
# The transport soak drives the reference week's sFlow plus stray garbage
# packets through the UDP-grade intake under 5 % loss, duplication,
# reordering, and truncation — with a mid-stream kill and resume of both
# the supervisor and the transport state. Gates: byte-identical
# recovery, exact extended conservation, and the < 2 % Table-1 drift bar.
tsoak_started=$(date +%s)
cargo test -q --test transport_soak
tsoak_elapsed=$(( $(date +%s) - tsoak_started ))
if [ "$tsoak_elapsed" -gt 120 ]; then
    echo "ci: transport-soak runtime budget exceeded: ${tsoak_elapsed}s > 120s" >&2
    exit 1
fi
echo "ci: transport soak took ${tsoak_elapsed}s (budget 120s)"

echo "==> cargo run -p ixp-lint -- --format json > target/lint-report.json (cold)"
# The JSON report is written unconditionally — even when the lint gate
# below fails, target/lint-report.json holds the findings for triage.
# The cache is cleared first so this run exercises the full analysis.
mkdir -p target
rm -rf target/lint-cache
lint_started=$(date +%s)
cargo run -q -p ixp-lint -- --format json > target/lint-report.json || true

echo "==> cargo run -p ixp-lint"
cargo run -q -p ixp-lint
lint_elapsed=$(( $(date +%s) - lint_started ))
# Runtime budget for the two cold full-workspace lint passes: the
# parallel per-file front end should keep this far under a minute; a
# blowout here means the fan-out regressed to sequential or a pass went
# quadratic.
if [ "$lint_elapsed" -gt 60 ]; then
    echo "ci: lint runtime budget exceeded: ${lint_elapsed}s > 60s" >&2
    exit 1
fi
echo "ci: cold lint passes took ${lint_elapsed}s (budget 60s)"

echo "==> cargo run -p ixp-lint -- --format json (warm cache)"
# The warm run must be answered from target/lint-cache: byte-identical
# to the cold report, and fast — the fixpoint hit skips analysis
# entirely, so anything near the cold time means the cache is broken.
warm_started=$(date +%s)
cargo run -q -p ixp-lint -- --format json > target/lint-report-warm.json || true
warm_elapsed=$(( $(date +%s) - warm_started ))
cmp target/lint-report.json target/lint-report-warm.json || {
    echo "ci: warm-cache lint report differs from the cold run" >&2
    exit 1
}
if [ "$warm_elapsed" -gt 10 ]; then
    echo "ci: warm lint budget exceeded: ${warm_elapsed}s > 10s" >&2
    exit 1
fi
echo "ci: warm lint pass took ${warm_elapsed}s (budget 10s, byte-identical)"

# Smoke-check the machine-readable report: it must parse against the
# documented schema (crates/lint/src/json.rs, version 3), agree with the
# gate above that the tree is clean, and advertise the L8 concurrency
# and L9-L11 invariant rules in its registry array.
grep -q '"version": 3' target/lint-report.json || {
    echo "ci: target/lint-report.json does not advertise schema version 3" >&2
    exit 1
}
for rule in lock-order-cycle guard-across-blocking shared-state-escape \
            atomic-ordering order-dependent-merge \
            unaccounted-drop codec-asymmetry schema-drift error-sink; do
    grep -q "\"id\": \"$rule\"" target/lint-report.json || {
        echo "ci: rule $rule missing from target/lint-report.json" >&2
        exit 1
    }
done
cargo test -q -p ixp-lint --test cli json_format_

echo "==> metrics smoke test (snapshot determinism + schema)"
# Two same-seed repro runs under the frozen test clock must export
# byte-identical ixp-obs snapshots; the companion cargo test parses the
# first one against the ixp-obs/1 schema and checks the metric families.
cargo run -q --release -p ixp-bench --bin repro -- --scale tiny --exp E1 \
    --metrics target/metrics-a.json >/dev/null 2>&1
cargo run -q --release -p ixp-bench --bin repro -- --scale tiny --exp E1 \
    --metrics target/metrics-b.json >/dev/null 2>&1
cmp target/metrics-a.json target/metrics-b.json || {
    echo "ci: metrics snapshots differ between same-seed runs" >&2
    exit 1
}
cargo test -q --test metrics_smoke

echo "==> supervised resume smoke test (checkpoint byte-identity)"
# A supervised run killed at a datagram boundary and resumed from its
# sealed checkpoint must write a metrics snapshot — and a final
# checkpoint — byte-identical to the run that was never interrupted.
# The same-seed byte-identity bar extends to the observability plane:
# two whole runs export identical ixp-trace/1 documents, two killed runs
# seal identical flight dumps, and every kill leaves a flight dump
# beside its checkpoint.
cargo run -q --release -p ixp-bench --bin repro -- --scale tiny \
    --checkpoint target/ckpt-whole.bin --trace target/trace-whole-a.json \
    --metrics target/metrics-whole.json >/dev/null 2>&1
cargo run -q --release -p ixp-bench --bin repro -- --scale tiny \
    --checkpoint target/ckpt-whole-b.bin --trace target/trace-whole-b.json \
    --metrics target/metrics-whole-b.json >/dev/null 2>&1
cmp target/trace-whole-a.json target/trace-whole-b.json || {
    echo "ci: event-journal traces differ between same-seed runs" >&2
    exit 1
}
cargo run -q --release -p ixp-bench --bin repro -- --scale tiny \
    --checkpoint target/ckpt-mid.bin --kill-at 400 \
    --metrics target/metrics-killed.json > target/repro-killed.log 2>&1
[ -f target/ckpt-mid.bin.flight ] || {
    echo "ci: killed run left no flight dump beside its checkpoint" >&2
    exit 1
}
grep -q "flight dump to " target/repro-killed.log || {
    echo "ci: killed run did not report its flight dump (see target/repro-killed.log)" >&2
    exit 1
}
cargo run -q --release -p ixp-bench --bin repro -- --scale tiny \
    --checkpoint target/ckpt-mid-b.bin --kill-at 400 \
    --metrics target/metrics-killed-b.json >/dev/null 2>&1
cmp target/ckpt-mid.bin.flight target/ckpt-mid-b.bin.flight || {
    echo "ci: flight dumps differ between same-seed killed runs" >&2
    exit 1
}
cargo run -q --release -p ixp-bench --bin repro -- --scale tiny \
    --resume target/ckpt-mid.bin --checkpoint target/ckpt-resumed.bin \
    --metrics target/metrics-resumed.json >/dev/null 2>&1
cmp target/metrics-whole.json target/metrics-resumed.json || {
    echo "ci: resumed run's metrics snapshot differs from uninterrupted run" >&2
    exit 1
}
cmp target/ckpt-whole.bin target/ckpt-resumed.bin || {
    echo "ci: resumed run's final checkpoint differs from uninterrupted run" >&2
    exit 1
}

echo "==> transport smoke test (wire front-end determinism + metrics)"
# Two same-seed supervised runs fed through the in-memory link and the
# transport intake must export byte-identical metrics snapshots carrying
# the transport_* families, must end with the accounting invariant
# holding, and must print the same Table 1 line as the supervised run
# without a transport: it is the same fault-free datagrams in the same
# order.
cargo run -q --release -p ixp-bench --bin repro -- --scale tiny \
    --transport memory --metrics target/metrics-transport-a.json \
    > target/transport-mem-a.log 2>&1
cargo run -q --release -p ixp-bench --bin repro -- --scale tiny \
    --transport memory --metrics target/metrics-transport-b.json \
    > target/transport-mem-b.log 2>&1
cmp target/metrics-transport-a.json target/metrics-transport-b.json || {
    echo "ci: transport-mode metrics snapshots differ between same-seed runs" >&2
    exit 1
}
grep -q "transport accounting invariant.*: holds" target/transport-mem-a.log || {
    echo "ci: transport accounting invariant violated (see target/transport-mem-a.log)" >&2
    exit 1
}
for family in transport_offered_total transport_received_total \
              transport_accepted_total transport_shed_total \
              transport_decode_errors_total; do
    grep -q "$family" target/metrics-transport-a.json || {
        echo "ci: metric family $family missing from the transport snapshot" >&2
        exit 1
    }
done
cargo run -q --release -p ixp-bench --bin repro -- --scale tiny \
    --transport none --checkpoint target/ckpt-transport-none.bin \
    --metrics target/metrics-transport-none.json > target/transport-none.log 2>&1
mem_t1=$(grep "Table 1:" target/transport-mem-a.log)
none_t1=$(grep "Table 1:" target/transport-none.log)
if [ -z "$mem_t1" ] || [ "$mem_t1" != "$none_t1" ]; then
    echo "ci: --transport memory Table 1 ($mem_t1) differs from --transport none ($none_t1)" >&2
    exit 1
fi

echo "==> sealed side files and full markdown (same-seed byte identity)"
# The whole report, not just its metrics, is a pure function of the seed.
# A transport run killed mid-week writes its transport state and flight
# record as sealed side files beside the checkpoint; two same-seed kills
# must write them byte-identically, and resuming from one must end with
# the transport ledger balanced.
cargo run -q --release -p ixp-bench --bin repro -- --scale tiny \
    --markdown target/repro-a.md >/dev/null 2>&1
cargo run -q --release -p ixp-bench --bin repro -- --scale tiny \
    --markdown target/repro-b.md >/dev/null 2>&1
cmp target/repro-a.md target/repro-b.md || {
    echo "ci: repro markdown differs between same-seed runs" >&2
    exit 1
}
for run in a b; do
    cargo run -q --release -p ixp-bench --bin repro -- --scale tiny \
        --transport memory --checkpoint "target/tkill-$run.bin" --kill-at 400 \
        >/dev/null 2>&1
done
for side in transport flight; do
    cmp "target/tkill-a.bin.$side" "target/tkill-b.bin.$side" || {
        echo "ci: .$side side files differ between same-seed killed runs" >&2
        exit 1
    }
done
cargo run -q --release -p ixp-bench --bin repro -- --scale tiny \
    --transport memory --resume target/tkill-a.bin \
    > target/transport-resumed.log 2>&1
grep -q "transport accounting invariant.*: holds" target/transport-resumed.log || {
    echo "ci: resumed transport run does not balance (see target/transport-resumed.log)" >&2
    exit 1
}

echo "==> repro --transport udp loopback smoke (UDP when permitted)"
# The same week through an in-process loopback UDP socket pair. Exit 42
# means the environment denied the bind: the in-memory smoke above
# already covered the same intake and accounting code, so log the
# reason and move on rather than failing on sandbox policy.
udp_status=0
cargo run -q --release -p ixp-bench --bin repro -- --scale tiny \
    --transport udp --metrics target/metrics-transport-udp.json \
    > target/transport-udp.log 2>&1 || udp_status=$?
if [ "$udp_status" -eq 42 ]; then
    echo "ci: UDP loopback denied here ($(grep '^transport:' target/transport-udp.log | head -n 1)); in-memory transport smoke stands in"
elif [ "$udp_status" -ne 0 ]; then
    echo "ci: repro --transport udp exited $udp_status (see target/transport-udp.log)" >&2
    exit 1
else
    grep -q "transport accounting invariant.*: holds" target/transport-udp.log || {
        echo "ci: UDP-mode transport accounting invariant violated (see target/transport-udp.log)" >&2
        exit 1
    }
    echo "ci: UDP loopback smoke passed"
fi

echo "==> obsd exposition smoke (loopback HTTP when permitted)"
# When this environment allows loopback TCP, exercise the exposition
# server end to end: a supervised run with --serve must answer all four
# endpoints with their declared schemas, report a clean conservation
# audit on /healthz, serve a /trace byte-identical to the --trace file
# it wrote, and exit 0 on GET /quit. Where sockets are denied the server
# logs the denial and the run continues — the obsd unit and property
# tests stand in, so log the reason and move on. The fetches go through
# the workspace's own std TcpStream client (crates/obsd/src/bin/httpget)
# so this gate never depends on an external curl.
httpget() {
    cargo run -q --release -p ixp-obsd --bin httpget -- "$@"
}
: > target/obsd-smoke.log
cargo run -q --release -p ixp-bench --bin repro -- --scale tiny \
    --transport memory --checkpoint target/obsd-ckpt.bin \
    --trace target/obsd-trace.json --serve 127.0.0.1:0 \
    > target/obsd-smoke.log 2>&1 &
obsd_pid=$!
obsd_addr=""
for _ in $(seq 1 100); do
    obsd_addr=$(sed -n 's/^obsd: serving on //p' target/obsd-smoke.log | head -n 1)
    [ -n "$obsd_addr" ] && break
    grep -q "^obsd: binding .* denied" target/obsd-smoke.log && break
    sleep 0.2
done
if grep -q "^obsd: binding .* denied" target/obsd-smoke.log; then
    wait "$obsd_pid" || true
    echo "ci: loopback TCP denied here ($(sed -n 's/^obsd: //p' target/obsd-smoke.log | head -n 1)); obsd unit tests stand in"
elif [ -z "$obsd_addr" ]; then
    kill "$obsd_pid" 2>/dev/null || true
    echo "ci: repro --serve never reported an address (see target/obsd-smoke.log)" >&2
    exit 1
else
    # Fetch after the run completes so /healthz carries the final audit
    # verdict and /trace the full journal.
    for _ in $(seq 1 150); do
        grep -q "serving until GET /quit" target/obsd-smoke.log && break
        sleep 0.2
    done
    httpget "$obsd_addr" /metrics > target/obsd-metrics.txt
    httpget "$obsd_addr" /metrics.json > target/obsd-metrics.json
    httpget "$obsd_addr" /healthz > target/obsd-healthz.json
    httpget "$obsd_addr" /trace > target/obsd-trace-live.json
    grep -q "obs_audit_breaches_total 0" target/obsd-metrics.txt || {
        echo "ci: /metrics missing a zero obs_audit_breaches_total" >&2
        exit 1
    }
    grep -q '"schema": "ixp-obs/1"' target/obsd-metrics.json || {
        echo "ci: /metrics.json does not declare schema ixp-obs/1" >&2
        exit 1
    }
    grep -q '"schema": "ixp-health/1"' target/obsd-healthz.json || {
        echo "ci: /healthz does not declare schema ixp-health/1" >&2
        exit 1
    }
    grep -q '"status": "ok"' target/obsd-healthz.json || {
        echo "ci: /healthz does not report status ok" >&2
        exit 1
    }
    grep -q '"audit_verdict": "pass"' target/obsd-healthz.json || {
        echo "ci: /healthz does not report a passing conservation audit" >&2
        exit 1
    }
    grep -q '"schema": "ixp-trace/1"' target/obsd-trace-live.json || {
        echo "ci: /trace does not declare schema ixp-trace/1" >&2
        exit 1
    }
    cmp target/obsd-trace-live.json target/obsd-trace.json || {
        echo "ci: /trace differs from the --trace file the same run wrote" >&2
        exit 1
    }
    httpget "$obsd_addr" /quit >/dev/null
    wait "$obsd_pid" || {
        echo "ci: repro --serve exited nonzero (see target/obsd-smoke.log)" >&2
        exit 1
    }
    echo "ci: obsd HTTP smoke passed ($obsd_addr)"
fi

if [ -n "${IXP_CI_OFFLINE:-}" ]; then
    echo "==> clippy skipped (IXP_CI_OFFLINE is set)"
elif ! cargo clippy --version >/dev/null 2>&1; then
    echo "==> clippy skipped: driver not installed"
else
    echo "==> cargo clippy --workspace --all-targets"
    cargo clippy --workspace --all-targets -- -D warnings || {
        echo "ci: clippy FAILED" >&2
        exit 1
    }
fi

echo "ci: all gates passed"
