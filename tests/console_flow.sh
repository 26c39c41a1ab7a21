#!/bin/sh
# The console-script checks: the README flow through the `gcum` entry point
# on the small run config of tests/test_cli.py, and what must hold around it.
#
# usage: sh tests/console_flow.sh WORKDIR
#
# Needs `gcum` and a `python` that imports gcum, numpy and pytest on PATH.
# Every artifact goes under WORKDIR, which must be new or empty; a failed
# check exits non-zero.
set -eu
tests=$(cd "$(dirname "$0")" && pwd)
mkdir -p "$1"
cd "$1"
export GCUM_THREADS="${GCUM_THREADS:-1}"

echo "== README flow through the console script"
export PYTHONHASHSEED=1
python -c 'import json, sys; sys.path.insert(0, sys.argv[1]); import test_cli; print(json.dumps(test_cli._SMALL))' \
    "$tests" > small.json
gcum gen-data --config small.json --out data.json
gcum train --stage 1 --config small.json --data data.json --out s1.ckpt
gcum train --stage 2 --config small.json --data data.json --init-checkpoint s1.ckpt --out s2.ckpt
gcum eval --checkpoint s2.ckpt --data data.json --out report.json > eval.out

echo "== README flow again under a different PYTHONHASHSEED: the same bytes"
mkdir again
(
  cd again
  export PYTHONHASHSEED=2
  gcum gen-data --config ../small.json --out data.json
  gcum train --stage 1 --config ../small.json --data data.json --out s1.ckpt
  gcum train --stage 2 --config ../small.json --data data.json --init-checkpoint s1.ckpt --out s2.ckpt
  gcum eval --checkpoint s2.ckpt --data data.json --out report.json > eval.out
  for f in data.json s1.ckpt s1.ckpt.meta.json s1.ckpt.log.jsonl s2.ckpt s2.ckpt.meta.json s2.ckpt.log.jsonl report.json eval.out; do
    cmp "$f" "../$f"
  done
)

echo "== Gradient check through the console script"
gcum grad-check --seed 0

# at lr_peak 1e12 stage 1 overflows; two epochs are too few to get there
echo "== A diverging run exits 5 and names where"
python -c 'import json; c = json.load(open("small.json")); c["train"].update(lr_peak=1e12, total_epochs=6); print(json.dumps(c))' > diverge.json
code=0
gcum train --stage 1 --config diverge.json --data data.json --out diverge.ckpt 2> diverge.err || code=$?
cat diverge.err
test "$code" -eq 5
grep -q "training diverged: stage 1, epoch" diverge.err

# a module flag is a JSON bool: "no" is an artifact error, not a refined eval
echo "== An eval of a sidecar whose grce flag is a string exits 3"
mkdir damaged
cp s2.ckpt damaged/s2.ckpt
python -c 'import json, sys; m = json.load(open(sys.argv[1])); m["modules"]["grce"] = "no"; print(json.dumps(m))' \
    s2.ckpt.meta.json > damaged/s2.ckpt.meta.json
code=0
gcum eval --checkpoint damaged/s2.ckpt --data data.json 2> damaged.err || code=$?
cat damaged.err
test "$code" -eq 3
grep -q "modules.grce must be bool" damaged.err

echo "== Ablation under two PYTHONHASHSEEDs: the same JSON and table"
for h in 1 2; do
  mkdir "ablate$h"
  (cd "ablate$h" && PYTHONHASHSEED=$h gcum ablate --config ../small.json --seeds 3 --out ablation.json > table.out)
done
cmp ablate1/ablation.json ablate2/ablation.json
cmp ablate1/table.out ablate2/table.out

echo "== console flow passed"
