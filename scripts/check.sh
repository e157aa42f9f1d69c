#!/usr/bin/env bash
# The full local gate: formatting, lints, tests, bench compilation.
# Everything runs offline — the workspace has no external dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> clippy panic-lint gate (no unwrap/expect in library code)"
cargo clippy -p icvbe-units -p icvbe-devphys -p icvbe-numerics -p icvbe-core \
  -p icvbe-thermal -p icvbe-spice -p icvbe-bandgap -p icvbe-instrument \
  -p icvbe-campaign -p icvbe-trace -p icvbe-serve \
  --lib -- -D warnings -D clippy::unwrap-used -D clippy::expect-used

echo "==> cargo test -q"
cargo test --workspace -q

echo "==> alloc_free x3: thread-local allocation counters stay race-free"
# These tests run concurrently and one allocates on purpose; a counter
# shared across threads fails about half the runs. Three runs in a row
# make a reintroduced race visible.
for _ in 1 2 3; do
  cargo test -q -p icvbe-spice --test alloc_free
done

echo "==> cargo bench --no-run"
cargo bench --workspace --no-run

echo "==> bench smoke: campaign_scaling threads/8 (guards + timing)"
cargo bench -p icvbe-bench --bench campaign_scaling -- 'threads/8'

echo "==> fault-injection smoke: quarantine report vs golden fixture"
cargo build --release -p icvbe-repro
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
./target/release/repro campaign --diameter 5 --seed 13 --threads 2 \
  --faults heavy --out "$smoke_dir" > /dev/null
diff -u scripts/fixtures/quarantine_smoke.csv "$smoke_dir/campaign_quarantine.csv"

echo "==> trace smoke: chrome JSON shape + masked folded profile vs golden fixture"
./target/release/repro campaign --diameter 3 --seed 7 --threads 2 \
  --trace="$smoke_dir" > /dev/null
grep -q '"schema":"icvbe-campaign-trace-v1"' "$smoke_dir/campaign_trace.json"
grep -q '"traceEvents":\[' "$smoke_dir/campaign_trace.json"
grep -q '"ph":"B"' "$smoke_dir/campaign_trace.json"
# The folded profile's frame paths are deterministic; only the trailing
# nanosecond sample counts are wall-clock. Mask them and pin the paths.
sed 's/ [0-9][0-9]*$/ 0/' "$smoke_dir/campaign_profile.folded" \
  | diff -u scripts/fixtures/trace_smoke.folded -

echo "==> perf smoke: incremental restamping is live"
./target/release/repro campaign --diameter 5 --seed 13 --threads 2 \
  --out "$smoke_dir/default" > /dev/null
metrics="$smoke_dir/default/campaign_metrics.json"
# The fast path must actually be running: incremental restamps taken and
# their derived rate nonzero.
grep -q '"restamp_incremental":0[,}]' "$metrics" && \
  { echo "FAIL: no incremental restamps"; exit 1; }
grep -q '"restamp_savings":0[,}]' "$metrics" && \
  { echo "FAIL: zero restamp savings"; exit 1; }

echo "==> warm/cold smoke: extrapolated warm starts change no artifact byte"
# Warm solves start from the last two solutions extrapolated in
# temperature; the fixed-point polish and cluster walk must make every
# accepted point independent of that start.
./target/release/repro campaign --diameter 5 --seed 13 --threads 2 \
  --cold --out "$smoke_dir/cold" > /dev/null
for f in campaign_aggregate.json campaign_aggregate.csv \
         campaign_quarantine.json campaign_quarantine.csv; do
  cmp "$smoke_dir/default/$f" "$smoke_dir/cold/$f" || \
    { echo "FAIL: $f differs between warm and --cold"; exit 1; }
done

echo "==> vexp smoke: exp-kernel conformance tests (2-ulp, lane/slice bit-identity)"
cargo test -q -p icvbe-numerics --lib vexp

echo "==> vexp grep gate: no libm exp in Newton/stamp hot paths"
# The bits contract routes every hot-path exponential through the
# in-tree vexp kernel; a stray f64::exp would silently reintroduce
# platform-dependent bits. Doc comments and #[cfg(test)] code may still
# reference libm for conformance checks; the kernel itself has no libm
# fallback.
for f in crates/numerics/src/vexp.rs \
         crates/spice/src/limexp.rs crates/spice/src/bjt.rs \
         crates/devphys/src/saturation.rs crates/devphys/src/carriers.rs; do
  if sed '/#\[cfg(test)\]/,$d' "$f" | grep -v '^\s*//' | grep -q '\.exp()'; then
    echo "FAIL: libm .exp() in hot-path file $f"; exit 1
  fi
done

echo "==> framing grep gate: every serve protocol line is one write"
# A newline written on its own leaves a one-byte segment behind the line
# text; Nagle's algorithm holds it for the peer's delayed ACK (~40 ms per
# request/response turn). Lines go out through protocol::write_line.
for f in crates/serve/src/*.rs; do
  if sed '/#\[cfg(test)\]/,$d' "$f" | grep -v '^\s*//' | grep -q 'write_all(b"\\n")'; then
    echo "FAIL: separate newline write in $f"; exit 1
  fi
done

echo "==> serve smoke: streamed artifacts match one-shot bytes; kill -9 + resume"
frozen="campaign_aggregate.json campaign_aggregate.csv
        campaign_quarantine.json campaign_quarantine.csv"
./target/release/repro campaign --diameter 4 --seed 21 --threads 2 \
  --out "$smoke_dir/golden_small" > /dev/null
ckdir="$smoke_dir/ck"
./target/release/repro serve --addr 127.0.0.1:0 --threads 2 --slice 8 \
  --checkpoint-every 1 --checkpoint-dir "$ckdir" > "$smoke_dir/serve.log" &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
  addr="$(sed -n 's/^icvbe-serve listening on //p' "$smoke_dir/serve.log")"
  [ -n "$addr" ] && break
  sleep 0.1
done
[ -n "$addr" ] || { echo "FAIL: daemon never came up"; exit 1; }
./target/release/repro submit --addr "$addr" --label lot1 --diameter 4 --seed 21 \
  --out "$smoke_dir/served" > /dev/null
for f in $frozen; do
  cmp "$smoke_dir/golden_small/$f" "$smoke_dir/served/$f" || \
    { echo "FAIL: $f differs between one-shot and served"; exit 1; }
done
# A second, much larger lot: SIGKILL the daemon once its checkpoint file
# shows mid-campaign progress, restart on the same directory, and collect
# the resumed job by label — bytes must still match the one-shot run.
./target/release/repro campaign --diameter 40 --seed 22 --threads 2 \
  --out "$smoke_dir/golden_big" > /dev/null
./target/release/repro submit --addr "$addr" --label lot2 --diameter 40 --seed 22 \
  > /dev/null 2>&1 &
submit_pid=$!
progress=0
for _ in $(seq 1 200); do
  ck="$(ls "$ckdir"/job-*.json 2>/dev/null | head -1 || true)"
  if [ -n "$ck" ]; then
    progress="$(tr -d '\\' 2>/dev/null < "$ck" | grep -o '"next_die":[0-9]*' \
      | head -1 | cut -d: -f2 || true)"
    [ "${progress:-0}" -ge 20 ] && break
  fi
  sleep 0.05
done
[ "${progress:-0}" -ge 20 ] || \
  { echo "FAIL: no mid-campaign checkpoint observed"; exit 1; }
kill -9 "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
wait "$submit_pid" 2>/dev/null || true
./target/release/repro serve --addr 127.0.0.1:0 --threads 2 --slice 8 \
  --checkpoint-every 1 --checkpoint-dir "$ckdir" > "$smoke_dir/serve2.log" &
serve2_pid=$!
addr2=""
for _ in $(seq 1 100); do
  addr2="$(sed -n 's/^icvbe-serve listening on //p' "$smoke_dir/serve2.log")"
  [ -n "$addr2" ] && break
  sleep 0.1
done
[ -n "$addr2" ] || { echo "FAIL: restarted daemon never came up"; exit 1; }
./target/release/repro watch --addr "$addr2" --label lot2 \
  --out "$smoke_dir/resumed" > /dev/null
for f in $frozen; do
  cmp "$smoke_dir/golden_big/$f" "$smoke_dir/resumed/$f" || \
    { echo "FAIL: $f differs after kill -9 + resume"; exit 1; }
done
kill "$serve2_pid" 2>/dev/null || true
wait "$serve2_pid" 2>/dev/null || true

echo "==> serve smoke: two tenants in parallel on a one-thread-per-slice daemon"
# --threads 1 gives one slot per core, so on a multi-core host both jobs
# execute side by side; each must still match its one-shot bytes.
for seed in 31 32; do
  ./target/release/repro campaign --diameter 6 --seed "$seed" --threads 1 \
    --out "$smoke_dir/golden_par$seed" > /dev/null
done
./target/release/repro serve --addr 127.0.0.1:0 --threads 1 --slice 4 \
  > "$smoke_dir/serve_par.log" &
servep_pid=$!
addrp=""
for _ in $(seq 1 100); do
  addrp="$(sed -n 's/^icvbe-serve listening on //p' "$smoke_dir/serve_par.log")"
  [ -n "$addrp" ] && break
  sleep 0.1
done
[ -n "$addrp" ] || { echo "FAIL: parallel daemon never came up"; exit 1; }
./target/release/repro submit --addr "$addrp" --tenant alice --label par31 \
  --diameter 6 --seed 31 --out "$smoke_dir/served_par31" > /dev/null &
submit_a=$!
./target/release/repro submit --addr "$addrp" --tenant bob --label par32 \
  --diameter 6 --seed 32 --out "$smoke_dir/served_par32" > /dev/null &
submit_b=$!
wait "$submit_a" || { echo "FAIL: tenant alice's submit failed"; exit 1; }
wait "$submit_b" || { echo "FAIL: tenant bob's submit failed"; exit 1; }
for seed in 31 32; do
  for f in $frozen; do
    cmp "$smoke_dir/golden_par$seed/$f" "$smoke_dir/served_par$seed/$f" || \
      { echo "FAIL: $f differs between one-shot and parallel-served seed $seed"; exit 1; }
  done
done
kill "$servep_pid" 2>/dev/null || true
wait "$servep_pid" 2>/dev/null || true

echo "==> chaos smoke: contained die panics are thread-invariant and counted"
./target/release/repro campaign --diameter 5 --seed 13 --threads 2 \
  --chaos die_panic=0.4 --chaos-seed 7 --out "$smoke_dir/chaos_t2" > /dev/null
./target/release/repro campaign --diameter 5 --seed 13 --threads 8 \
  --chaos die_panic=0.4 --chaos-seed 7 --out "$smoke_dir/chaos_t8" > /dev/null
for f in $frozen; do
  cmp "$smoke_dir/chaos_t2/$f" "$smoke_dir/chaos_t8/$f" || \
    { echo "FAIL: $f differs across thread counts under chaos"; exit 1; }
done
grep -q '"internal_panic":[1-9]' "$smoke_dir/chaos_t2/campaign_quarantine.json" || \
  { echo "FAIL: no internal_panic quarantine despite die_panic chaos"; exit 1; }
grep -q '"die_panics":0[,}]' "$smoke_dir/chaos_t2/campaign_metrics.json" && \
  { echo "FAIL: contained panics not counted"; exit 1; }
# Zero-chaos must reproduce historical bytes: an explicit --chaos-seed with
# all-zero probabilities changes nothing against the plain run.
./target/release/repro campaign --diameter 5 --seed 13 --threads 2 \
  --chaos-seed 99 --out "$smoke_dir/chaos_off" > /dev/null
for f in $frozen; do
  cmp "$smoke_dir/default/$f" "$smoke_dir/chaos_off/$f" || \
    { echo "FAIL: $f differs with chaos plumbing idle"; exit 1; }
done

echo "==> chaos smoke x3: kill -9 a faulty-write daemon, tear the checkpoint, resume"
# A checkpoint rotation that moved a torn primary over the last good
# generation lost the job in about one run in six; three runs in a row
# make a regression visible.
for drill in 1 2 3; do
  ck3="$smoke_dir/ck3_$drill"
  ./target/release/repro serve --addr 127.0.0.1:0 --threads 2 --slice 8 \
    --checkpoint-every 1 --checkpoint-dir "$ck3" \
    --chaos write_error=0.2,torn=0.1 --chaos-seed "$((4 + drill))" \
    > "$smoke_dir/serve3.log" 2>/dev/null &
  serve3_pid=$!
  addr3=""
  for _ in $(seq 1 100); do
    addr3="$(sed -n 's/^icvbe-serve listening on //p' "$smoke_dir/serve3.log")"
    [ -n "$addr3" ] && break
    sleep 0.1
  done
  [ -n "$addr3" ] || { echo "FAIL: chaos daemon never came up"; exit 1; }
  ./target/release/repro submit --addr "$addr3" --label lot3 --diameter 40 --seed 22 \
    > /dev/null 2>&1 &
  submit3_pid=$!
  # Wait for mid-campaign progress AND a populated rotated slot, so tearing
  # the primary leaves a last-good generation to fall back to.
  progress=0
  for _ in $(seq 1 400); do
    ck="$(ls "$ck3"/job-*.json 2>/dev/null | grep -v prev | head -1 || true)"
    prev="$(ls "$ck3"/job-*.prev.json 2>/dev/null | head -1 || true)"
    if [ -n "$ck" ] && [ -n "$prev" ]; then
      progress="$(tr -d '\\' 2>/dev/null < "$ck" | grep -o '"next_die":[0-9]*' \
        | head -1 | cut -d: -f2 || true)"
      [ "${progress:-0}" -ge 20 ] && break
    fi
    sleep 0.05
  done
  [ "${progress:-0}" -ge 20 ] || \
    { echo "FAIL: no mid-campaign checkpoint + rotated slot observed"; exit 1; }
  kill -9 "$serve3_pid"
  wait "$serve3_pid" 2>/dev/null || true
  wait "$submit3_pid" 2>/dev/null || true
  # Tear the tail off the newest checkpoint — a crash mid-write. The restart
  # (chaos off) must recover through the .prev slot, byte-identically.
  # kill -9 can land between the rotate and the fresh primary write; a
  # missing primary is already the torn state the drill wants, so only
  # truncate when one exists.
  ck="$(ls "$ck3"/job-*.json 2>/dev/null | grep -v prev | head -1 || true)"
  [ -z "$ck" ] || truncate -s -17 "$ck"
  ./target/release/repro serve --addr 127.0.0.1:0 --threads 2 --slice 8 \
    --checkpoint-every 1 --checkpoint-dir "$ck3" \
    > "$smoke_dir/serve4.log" 2>"$smoke_dir/serve4.err" &
  serve4_pid=$!
  addr4=""
  for _ in $(seq 1 100); do
    addr4="$(sed -n 's/^icvbe-serve listening on //p' "$smoke_dir/serve4.log")"
    [ -n "$addr4" ] && break
    sleep 0.1
  done
  [ -n "$addr4" ] || { echo "FAIL: post-tear daemon never came up"; exit 1; }
  ./target/release/repro watch --addr "$addr4" --label lot3 \
    --out "$smoke_dir/resumed3_$drill" > /dev/null
  for f in $frozen; do
    cmp "$smoke_dir/golden_big/$f" "$smoke_dir/resumed3_$drill/$f" || \
      { echo "FAIL: $f differs after torn-checkpoint resume"; exit 1; }
  done
  kill "$serve4_pid" 2>/dev/null || true
  wait "$serve4_pid" 2>/dev/null || true
done

echo "==> shard smoke: multi-process campaign is byte-identical; killed worker is typed"
./target/release/repro campaign --diameter 5 --seed 13 --threads 2 \
  --shards 1 --out "$smoke_dir/shard1" > /dev/null
./target/release/repro campaign --diameter 5 --seed 13 --threads 2 \
  --shards 4 --out "$smoke_dir/shard4" > /dev/null
for f in $frozen; do
  cmp "$smoke_dir/default/$f" "$smoke_dir/shard1/$f" || \
    { echo "FAIL: $f differs between in-process and 1-shard run"; exit 1; }
  cmp "$smoke_dir/shard1/$f" "$smoke_dir/shard4/$f" || \
    { echo "FAIL: $f differs between 1-shard and 4-shard run"; exit 1; }
done
# A worker killed mid-slice must surface as the supervisor's typed error,
# not a hang, a partial artifact, or a silent success.
if ICVBE_SHARD_FAIL=2 ./target/release/repro campaign --diameter 5 --seed 13 \
  --threads 2 --shards 4 --out "$smoke_dir/shard_killed" \
  > /dev/null 2>"$smoke_dir/shard_killed.err"; then
  echo "FAIL: supervisor succeeded despite a killed shard worker"; exit 1
fi
grep -q 'shard worker 2 exited with code 3' "$smoke_dir/shard_killed.err" || \
  { echo "FAIL: killed worker did not surface the typed supervisor error"; exit 1; }
[ ! -e "$smoke_dir/shard_killed/campaign_aggregate.json" ] || \
  { echo "FAIL: failed sharded run still wrote artifacts"; exit 1; }

echo "==> adaptive smoke: probe corner bits match exhaustive, trailing corners skipped"
./target/release/repro campaign --diameter 5 --seed 13 --threads 2 \
  --adaptive --out "$smoke_dir/adaptive" > /dev/null
# default is the same spec run exhaustively; its first CSV data row is the
# probe corner. Adaptive appends a `skipped` column, so compare the shared
# prefix of the probe row and demand full skips on the trailing corners.
probe_ex="$(sed -n 2p "$smoke_dir/default/campaign_aggregate.csv")"
probe_ad="$(sed -n 2p "$smoke_dir/adaptive/campaign_aggregate.csv")"
case "$probe_ad" in
  "$probe_ex"*) : ;;
  *) echo "FAIL: adaptive probe corner drifted from the exhaustive bits"; exit 1 ;;
esac
grep -q '"skipped":[1-9]' "$smoke_dir/adaptive/campaign_aggregate.json" || \
  { echo "FAIL: adaptive run on a clean wafer skipped nothing"; exit 1; }

echo "==> campaign benchmark: builds against this tree; correctness gate holds"
# A one-second pass of every workload. The benchmark exits nonzero when
# its correctness gate fails (pinned aggregate digests; served artifacts
# byte-equal to in-process runs), so a change that breaks the
# benchmark's build or its accepted bits fails here.
cargo run --release --quiet --offline --manifest-path campaign_bench/Cargo.toml -- \
  --workload all --seconds 1 > "$smoke_dir/campaign_bench.out" || \
  { echo "FAIL: campaign benchmark build or correctness gate"; exit 1; }

echo "OK: all checks passed"
