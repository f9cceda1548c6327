#!/usr/bin/env bash
# Byte-identity oracle for refactors that must not change any output.
#
# Usage: tools/byte_oracle.sh OUT [CONFIG]
#
# CONFIG is the JSON text of an experiment config (default '{}': the
# default config, seed 42). Run it on two checkouts and compare the last
# line (or the whole listing) of the two outputs. With BLAS on one thread,
# under OUT it runs:
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

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 OUT [CONFIG-JSON]" >&2
    exit 2
fi
out=$1
config_json=${2:-'{}'}
repo=$(cd "$(dirname "$0")/.." && pwd)

export OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1
export PYTHONPATH="$repo/src${PYTHONPATH:+:$PYTHONPATH}"
unset RESTORECT_SEED

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
