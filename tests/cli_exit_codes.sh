#!/usr/bin/env sh
# Smoke test for the CLI's error-category -> exit-code contract
# (src/core/error.h): 0 success, 2 invalid input, 3 numeric failure,
# 4 io corruption, 5 resource limit, 1 uncategorized.
#
# Usage: cli_exit_codes.sh <path-to-tsvstress_cli>
set -u

CLI="$1"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
fails=0

expect_code() {
  want="$1"
  label="$2"
  shift 2
  "$CLI" "$@" >"$WORK/out.log" 2>"$WORK/err.log"
  got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL [$label]: expected exit $want, got $got" >&2
    sed 's/^/  stderr: /' "$WORK/err.log" >&2
    fails=$((fails + 1))
  else
    echo "ok [$label]: exit $got"
  fi
}

# --- exit 0: a clean evaluate run ----------------------------------------
cat >"$WORK/ok.tsv" <<EOF
structure 2.5 0.5 BCB
tsv 0 0
tsv 12 0
EOF
expect_code 0 "clean evaluate" \
  evaluate "$WORK/ok.tsv" --spacing=2 --out="$WORK/field.csv"

# --- exit 0: checkpointed evaluate, file removed on success --------------
expect_code 0 "checkpointed evaluate" \
  evaluate "$WORK/ok.tsv" --spacing=2 --out="$WORK/field_cp.csv" \
  --checkpoint="$WORK/run.ckpt" --checkpoint-every=1
if [ -e "$WORK/run.ckpt" ]; then
  echo "FAIL [checkpoint cleanup]: checkpoint survived a finished run" >&2
  fails=$((fails + 1))
else
  echo "ok [checkpoint cleanup]"
fi
if ! cmp -s "$WORK/field.csv" "$WORK/field_cp.csv"; then
  echo "FAIL [checkpointed field]: differs from the plain evaluate" >&2
  fails=$((fails + 1))
else
  echo "ok [checkpointed field matches plain evaluate]"
fi

# --- exit 0: --ls-only runs Stage I alone ---------------------------------
expect_code 0 "ls-only evaluate" \
  evaluate "$WORK/ok.tsv" --spacing=2 --ls-only --out="$WORK/ls.csv"
expect_code 0 "ls-only checkpointed evaluate" \
  evaluate "$WORK/ok.tsv" --spacing=2 --ls-only --out="$WORK/ls_cp.csv" \
  --checkpoint="$WORK/ls.ckpt" --checkpoint-every=1
if ! cmp -s "$WORK/ls.csv" "$WORK/ls_cp.csv"; then
  echo "FAIL [ls-only checkpointed field]: differs from the plain run" >&2
  fails=$((fails + 1))
else
  echo "ok [ls-only checkpointed field matches plain run]"
fi
# At 12 um pitch Stage II moves the field, so LS and PF must differ.
if cmp -s "$WORK/ls.csv" "$WORK/field.csv"; then
  echo "FAIL [ls-only field]: equals the PF field" >&2
  fails=$((fails + 1))
else
  echo "ok [ls-only field differs from PF]"
fi
expect_code 0 "ls-only eco" eco "$WORK/ok.tsv" --spacing=2 --ls-only
expect_code 0 "ls-only variation" \
  variation "$WORK/ok.tsv" --spacing=2 --ls-only --samples=2 \
  --out="$WORK/variation.csv"
# The per-point CSV header: fixed quantile levels and exceedance thresholds.
if [ "$(head -n 1 "$WORK/variation.csv")" != \
     "x,y,mean,sigma,q05,q50,q95,p_gt_60,p_gt_80,p_gt_100" ]; then
  echo "FAIL [variation header]: $(head -n 1 "$WORK/variation.csv")" >&2
  fails=$((fails + 1))
else
  echo "ok [variation header]"
fi

# --- exit 0: snapshot save, then info names its kind ----------------------
expect_code 0 "snapshot save" \
  snapshot save "$WORK/ok.tsv" --spacing=2 --out="$WORK/engine.snap"
expect_code 0 "snapshot info" snapshot info "$WORK/engine.snap"
if ! grep -q "kind engine-state" "$WORK/out.log"; then
  echo "FAIL [snapshot info kind]: $(cat "$WORK/out.log")" >&2
  fails=$((fails + 1))
else
  echo "ok [snapshot info names engine-state]"
fi

# --- exit 2: invalid input ------------------------------------------------
cat >"$WORK/nan.tsv" <<EOF
structure 2.5 0.5 BCB
tsv nan 0
EOF
expect_code 2 "NaN coordinate" evaluate "$WORK/nan.tsv"
expect_code 2 "missing placement file" evaluate "$WORK/does_not_exist.tsv"
expect_code 2 "unknown flag" evaluate "$WORK/ok.tsv" --no-such-flag
# The lookup-table Stage II knobs were removed; they are unknown flags now.
expect_code 2 "removed --lookup" evaluate "$WORK/ok.tsv" --lookup
expect_code 2 "removed --quant" eco "$WORK/ok.tsv" --quant=0.25
expect_code 2 "missing snapshot" eco --snapshot="$WORK/missing.snap"

# --- exit 4: io corruption ------------------------------------------------
printf 'TSVSNAP\0garbage-after-a-valid-magic-but-nothing-else' \
  >"$WORK/broken.snap"
expect_code 4 "corrupt snapshot" snapshot info "$WORK/broken.snap"
# Kind id 3 (a retired kind) in the header of a valid engine snapshot: the
# payload checksum still holds, so only the kind check can refuse it.
cp "$WORK/engine.snap" "$WORK/kind3.snap"
printf '\003\000\000\000' |
  dd of="$WORK/kind3.snap" bs=1 seek=12 conv=notrunc 2>/dev/null
expect_code 4 "retired snapshot kind" snapshot info "$WORK/kind3.snap"

# --- usage errors are invalid input too ----------------------------------
expect_code 2 "no arguments"

if [ "$fails" -ne 0 ]; then
  echo "$fails check(s) failed" >&2
  exit 1
fi
echo "all exit-code checks passed"
