#!/usr/bin/env bash
# Compliance gate: prove end to end, with the real binary, that the
# identifier-column compliance layer still catches and scrubs every
# planted identifier in the PII evaluation fixture.
#
# gate (default):
#   1. generate the planted-PII fixture (counts exact by construction:
#      name 400, ssn 400, email 800, phone 400 at the default 400 rows);
#   2. `tclose scan` must report exactly those per-rule counts;
#   3. a --dry-run must write neither release nor audit log;
#   4. `tclose anonymize --compliance --stream` must yield a release
#      with zero planted identifiers (grep for emails, SSN/phone shapes,
#      planted surnames) and drop the RECORD_ID column;
#   5. the audit log must hold exactly one JSONL line per cell the scan
#      counted as pending, and never plaintext;
#   6. cells that merely start like scrub output (`TOK_`, `HASH_`,
#      `[REDACTED:`) must still be scanned: a small extra CSV carries an
#      SSN, a phone number and an email behind those prefixes, and
#      `tclose scan` must count all three.
#   Writes COMPLIANCE_SCAN.txt / COMPLIANCE_SCAN.json /
#   COMPLIANCE_DRYRUN.txt / COMPLIANCE_AUDIT.jsonl to the repository
#   root (CI uploads them as artifacts).
#
# selftest:
#   the gate must FAIL when a detection rule is disabled out from under
#   it (TCLOSE_COMPLIANCE_DISABLE=ssn) — a gate that still passes with a
#   rule switched off gates nothing.
#
# Usage: scripts/compliance_gate.sh [gate|selftest]   (from the repo root)
set -euo pipefail

mode="${1:-gate}"
bin="target/release/tclose"
rows=400

fail() {
    echo "compliance gate: $*" >&2
    exit 1
}

build() {
    if [ ! -x "$bin" ]; then
        cargo build --release -p tclose-cli
    fi
}

gate() {
    build
    # not `local`: the EXIT trap runs after the function has returned
    work="$(mktemp -d)"
    trap 'rm -rf "${work:-}"' EXIT

    local fixture="$work/pii.csv"
    local policy="$work/policy.toml"
    local release="$work/release.csv"
    local audit="$work/audit.jsonl"

    "$bin" generate --dataset pii --n "$rows" --seed 42 --output "$fixture" \
        > /dev/null

    cat > "$policy" <<EOF
[compliance]
profile = "hipaa"
strategy = "tokenize"
key = "ci-gate-key"
drop_columns = ["RECORD_ID"]

[compliance.audit]
enabled = true
path = "$audit"
salt = "ci-gate-salt"
EOF

    # --- scan: exact planted counts -----------------------------------
    "$bin" scan --input "$fixture" --compliance "$policy" \
        > COMPLIANCE_SCAN.txt
    "$bin" scan --input "$fixture" --compliance "$policy" --json \
        > COMPLIANCE_SCAN.json
    local rule_count rule count
    for rule_count in "name:$rows" "ssn:$rows" "email:$((2 * rows))" \
        "phone:$rows"; do
        rule="${rule_count%%:*}"
        count="${rule_count##*:}"
        grep -qFx "  $rule: $count" COMPLIANCE_SCAN.txt \
            || fail "scan lost rule $rule (expected $count hits)"
    done
    local pending
    pending="$(awk '/^cells pending transform /{print $4}' COMPLIANCE_SCAN.txt)"
    [ "$pending" = "$((5 * rows))" ] \
        || fail "scan pending=$pending, expected $((5 * rows))"

    # --- dry run: preview only, nothing written -----------------------
    "$bin" anonymize --input "$fixture" --output "$release" \
        --qi AGE,ZIP,STAY_DAYS --confidential CHARGE --k 4 --t 0.35 \
        --compliance "$policy" --dry-run > COMPLIANCE_DRYRUN.txt
    grep -q "dry run: no release or audit log written" COMPLIANCE_DRYRUN.txt \
        || fail "dry run did not announce itself"
    [ ! -e "$release" ] || fail "dry run wrote the release"
    [ ! -e "$audit" ] || fail "dry run wrote the audit log"

    # --- the real run: scrubbed, streamed release ---------------------
    "$bin" anonymize --input "$fixture" --output "$release" \
        --qi AGE,ZIP,STAY_DAYS --confidential CHARGE --k 4 --t 0.35 \
        --stream --shard-size 100 --compliance "$policy" > /dev/null

    # no planted identifier survives, in any shape
    ! grep -q "@example.com" "$release" || fail "plaintext email in release"
    ! grep -q "@mail.example.org" "$release" || fail "embedded email in release"
    ! grep -Eq '[0-9]{3}-[0-9]{2}-[0-9]{4}' "$release" \
        || fail "SSN-shaped value in release"
    ! grep -Eq '\([0-9]{3}\) [0-9]{3}-[0-9]{4}' "$release" \
        || fail "phone-shaped value in release"
    ! grep -Eq 'Lovelace|Hopper|Turing' "$release" \
        || fail "planted surname in release"
    grep -q "TOK_" "$release" || fail "no tokens in release — scrub ran?"
    head -n 1 "$release" | grep -qv "RECORD_ID" \
        || fail "drop_columns kept RECORD_ID"

    # --- audit log: one line per pending cell, never plaintext --------
    [ -s "$audit" ] || fail "audit log missing"
    local lines
    lines="$(wc -l < "$audit")"
    [ "$lines" -eq "$pending" ] \
        || fail "audit lines=$lines, scan pending=$pending"
    ! grep -q "@example.com" "$audit" || fail "plaintext in audit log"
    cp "$audit" COMPLIANCE_AUDIT.jsonl

    # --- token-prefixed cells are not exempt from the scan ------------
    local prefixed="$work/prefixed.csv"
    cat > "$prefixed" <<'EOF'
ID,NOTES
1,TOK_ref 123-45-6789 on file
2,HASH_note call (555) 210-4477
3,[REDACTED:x] mail a.b@example.com
EOF
    "$bin" scan --input "$prefixed" --compliance "$policy" \
        > "$work/prefixed_scan.txt"
    for rule in ssn phone email; do
        grep -qFx "  $rule: 1" "$work/prefixed_scan.txt" \
            || fail "scan skipped a token-prefixed cell ($rule)"
    done

    echo "compliance gate passed: $pending cells scrubbed and audited" \
        "across $rows records"
}

selftest() {
    build
    # the intact gate must pass…
    "$0" gate > /dev/null || fail "selftest: intact gate failed"
    # …and disabling one rule out from under it must break it.
    if TCLOSE_COMPLIANCE_DISABLE=ssn "$0" gate > /dev/null 2>&1; then
        fail "selftest: gate passed with the ssn rule disabled"
    fi
    echo "compliance gate self-test passed: disabling a rule fails the gate"
}

case "$mode" in
    gate) gate ;;
    selftest) selftest ;;
    *)
        echo "usage: scripts/compliance_gate.sh [gate|selftest]" >&2
        exit 2
        ;;
esac
