#!/usr/bin/env bash
# Byte-identity oracle for refactors that must not change any output.
#
# Usage: tools/byte_oracle.sh OUT [CONFIG] [--against OTHER_OUT [--rtol R]]
#
# CONFIG is the JSON text of an experiment config (default '{}': the
# default config, seed 42). Run it on two checkouts and compare the last
# line (or the whole listing) of the two outputs. For a change that moves
# low-order bits on purpose, run it on the parent into OTHER_OUT, then on
# the change with --against OTHER_OUT: after the listing,
# tools/oracle_compare.py compares OUT with OTHER_OUT at relative tolerance
# R (default 1e-9), and its verdict sets the exit status. With BLAS on one
# thread, under OUT it runs:
#   a/  restorect distill
#   b/  restorect train-phase1, then train-phase2
#   a/  restorect compare-samplers --steps 1,2,3,4,5 (phase-1 checkpoints loaded)
#   c/  the same in an empty directory (phase 1 retrained)
#   d/  restorect check; d/check_detail.txt holds each check's name,
#       pass flag and detail string, without the per-check milliseconds
#   e/  restorect demo-hvi and demo-diffusion (their CSVs), and the stdout
#       of every demos/*.py script as e/<script>.txt
# and prints the sha256sum listing of every file under a/ b/ c/ d/ e/ except
# timing files and the raw check report, then one sha256 of that listing.
# Each command's stdout goes to OUT/<step>.log, which is not listed (it
# holds paths and wall times).
set -euo pipefail

usage() {
    echo "usage: $0 OUT [CONFIG-JSON] [--against OTHER_OUT [--rtol R]]" >&2
    exit 2
}
out=
config_json='{}'
against=
rtol=1e-9
positional=0
while [ $# -gt 0 ]; do
    case $1 in
        --against) [ $# -ge 2 ] || usage; against=$2; shift 2 ;;
        --rtol) [ $# -ge 2 ] || usage; rtol=$2; shift 2 ;;
        -*) usage ;;
        *)
            case $positional in
                0) out=$1 ;;
                1) config_json=$1 ;;
                *) usage ;;
            esac
            positional=$((positional + 1))
            shift
            ;;
    esac
done
[ -n "$out" ] || usage
if [ -n "$against" ]; then
    [ -d "$against" ] || { echo "$0: no directory $against" >&2; exit 2; }
    against=$(cd "$against" && pwd)
fi
repo=$(cd "$(dirname "$0")/.." && pwd)

export OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1
export PYTHONPATH="$repo/src${PYTHONPATH:+:$PYTHONPATH}"

mkdir -p "$out"
out=$(cd "$out" && pwd)
rm -rf "$out/a" "$out/b" "$out/c" "$out/d" "$out/e"
mkdir -p "$out/a" "$out/b" "$out/c" "$out/d" "$out/e"
printf '%s\n' "$config_json" > "$out/config.json"

run() {  # run LOG ARGS...: one restorect command, stdout to OUT/LOG.log
    local log=$1
    shift
    python -m restorect.cli "$@" > "$out/$log.log"
}

run distill distill --config "$out/config.json" --out "$out/a"
run phase1 train-phase1 --config "$out/config.json" --out "$out/b"
run phase2 train-phase2 --config "$out/config.json" --out "$out/b"
run samplers_a compare-samplers --config "$out/config.json" --out "$out/a" --steps 1,2,3,4,5
run samplers_c compare-samplers --config "$out/config.json" --out "$out/c" --steps 1,2,3,4,5
run check check --out "$out/d"
python - "$out/d/check_report.json" > "$out/d/check_detail.txt" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
print(f"total={report['total']} passed={report['passed']}")
for r in report["checks"]:
    print(f"{r['name']}\t{int(r['passed'])}\t{r['detail']}")
EOF
run demo_hvi demo-hvi --out "$out/e"
run demo_diffusion demo-diffusion --out "$out/e"
for demo in "$repo"/demos/*.py; do
    name=$(basename "$demo" .py)
    python "$demo" > "$out/e/$name.txt"
done

cd "$out"
listing=$(find a b c d e -type f ! -name '*timing*' ! -name 'check_report.json' | LC_ALL=C sort \
    | xargs sha256sum)
printf '%s\n' "$listing"
echo "files: $(printf '%s\n' "$listing" | wc -l)"
echo "digest: $(printf '%s\n' "$listing" | sha256sum | cut -d' ' -f1)"
if [ -n "$against" ]; then
    python "$repo/tools/oracle_compare.py" "$out" "$against" --rtol "$rtol"
fi
