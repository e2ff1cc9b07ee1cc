#!/usr/bin/env bash
# Kill/restart zero-loss gate: run the loadgen chaos drill — every
# session subscribes and hibernates onto the spool, a third of the load
# is published, and the host is killed abruptly and restarted on the same
# spool; then some sessions reconnect and keep reading (resident), the
# next third is published, and the host is killed again while those
# sessions are resident and mid-forward; the rest is published and the
# devices drain everything back. The gate: every session recovered, zero
# notifications lost across the kills, duplicates bounded, and no
# trace-attributed "lost" outcome.
# Finally the spool itself is checksum-verified with lasthop-journal.
#
# Scale with RECOVERY_DEVICES / RECOVERY_TOPICS / RECOVERY_N; keep the
# report as a CI artifact with RECOVERY_REPORT.
set -euo pipefail
cd "$(dirname "$0")/.."

DEVICES="${RECOVERY_DEVICES:-60}"
TOPICS="${RECOVERY_TOPICS:-12}"
N="${RECOVERY_N:-1200}"
OUT="${RECOVERY_REPORT:-$(mktemp)}"
SPOOL="$(mktemp -d)"
trap 'rm -rf "$SPOOL"' EXIT

go run ./cmd/lasthop-loadgen -recovery \
  -publishers 4 -devices "$DEVICES" -topics "$TOPICS" -n "$N" \
  -spool-dir "$SPOOL" -trace-sample 1 -timeout 5m -q -out "$OUT"

python3 - "$OUT" "$DEVICES" <<'EOF'
import json, sys
rep = json.load(open(sys.argv[1]))
devices = int(sys.argv[2])
fail = 0
def gate(cond, msg):
    global fail
    if not cond:
        print("check_recovery: FAIL:", msg, file=sys.stderr)
        fail = 1
recovered = rep.get("recovered", 0)
lost = rep.get("lost", 0)
delivered = rep.get("delivered", 0)
duplicates = rep.get("duplicates", 0)
gate(recovered == devices, f"recovered {recovered} of {devices} sessions")
gate(lost == 0, f"{lost} notifications lost across the kill")
gate(delivered > 0, "nothing delivered")
# Redelivery after a crash is legal (at-most-duplicate-suppressed), but
# a correct READ-ID reconciliation keeps it far below one per delivery.
gate(duplicates <= delivered // 10, f"{duplicates} duplicates for {delivered} deliveries")
outcomes = rep.get("traceOutcomes", {})
gate(outcomes.get("lost", 0) == 0, f"trace outcomes report loss: {outcomes}")
print(f"check_recovery: {recovered} sessions recovered, {delivered} delivered, "
      f"{duplicates} duplicates, 0 lost; outcomes={outcomes}")
sys.exit(fail)
EOF

# The drill leaves the drained spool behind; every record must still
# pass its CRC.
go run ./cmd/lasthop-journal -spool "$SPOOL" -verify
echo "check_recovery: OK"
