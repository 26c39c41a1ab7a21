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

# eval featurizes views and ranks queries 256 at a time: 300 groups at three
# views per camera leave 270 query and 270 gallery views, two chunks each,
# and their views fall in both width classes of the group blocks
echo "== Eval over more than one chunk and both block widths under two PYTHONHASHSEEDs: the same bytes"
python -c 'import json; c = json.load(open("small.json")); c["data"].update(n_group_identities=300, views_per_group_per_camera=3); print(json.dumps(c))' > large.json
gcum gen-data --config large.json --out large-data.json
for h in 1 2; do
  PYTHONHASHSEED=$h gcum eval --checkpoint s2.ckpt --data large-data.json --out "large$h.json" > "large$h.out"
done
python -c 'import json, sys; r = json.load(open("large1.json"))["report"]; sys.exit(0 if min(r["n_query"], r["n_gallery"]) > 256 else 1)'
# a view keeping at most ceil(M0/2) members runs the group blocks narrow: at
# M0 = 3 the test views must show counts of at most 2 and counts of 3
python -c '
import sys
from gcum.cli import load_run_config
from gcum.synthdata import load_dataset, split_train_test
run, ds = load_run_config("large.json"), load_dataset("large-data.json")
counts = {len(s.identity_ids) for s in ds.views_of(split_train_test(ds, run.train_fraction)[1])}
sys.exit(0 if run.m0 == 3 and min(counts) <= 2 and 3 in counts else 1)'
cmp large1.json large2.json
cmp large1.out large2.out

echo "== Gradient check through the console script"
gcum grad-check --seed 0

# grad-check trains nothing: an overflow at a huge step names the check, not a divergence
echo "== A gradient check whose step overflows exits 5 and names grad-check"
code=0
gcum grad-check --seed 0 --step 1e300 2> grad-step.err || code=$?
cat grad-step.err
test "$code" -eq 5
grep -q "grad-check stage1_contrastive is not finite at --step 1e+300" grad-step.err
if grep -q "training diverged" grad-step.err; then
  echo "grad-check reported a divergence" >&2
  exit 1
fi

# at lr_peak 1e12 stage 1 overflows; two epochs are too few to get there
echo "== A diverging run exits 5, names where, and lets no numpy warning out"
python -c 'import json; c = json.load(open("small.json")); c["train"].update(lr_peak=1e12, total_epochs=6); print(json.dumps(c))' > diverge.json
code=0
gcum train --stage 1 --config diverge.json --data data.json --out diverge.ckpt 2> diverge.err || code=$?
cat diverge.err
test "$code" -eq 5
grep -q "training diverged: stage 1, epoch" diverge.err
if grep -q RuntimeWarning diverge.err; then
  echo "a numpy RuntimeWarning escaped the diverging run" >&2
  exit 1
fi

# stage 1 reads no q_views; stage 2 needs a positive view of each anchor's group in its batch
echo "== A stage 2 with one view per group exits 2 and names train.q_views"
python -c 'import json; c = json.load(open("small.json")); c["train"].update(p_groups=4, q_views=1); print(json.dumps(c))' > one-view.json
code=0
gcum train --stage 2 --config one-view.json --data data.json --init-checkpoint s1.ckpt --out one-view.ckpt 2> one-view.err || code=$?
cat one-view.err
test "$code" -eq 2
grep -q "train.q_views" one-view.err
test ! -e one-view.ckpt

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

# the checkpoint is there and its sidecar is not: an artifact error naming the sidecar, not a missing checkpoint
echo "== An eval of a checkpoint whose sidecar is missing exits 3 and names the sidecar"
mkdir no-sidecar
cp s2.ckpt no-sidecar/s2.ckpt
code=0
gcum eval --checkpoint no-sidecar/s2.ckpt --data data.json 2> no-sidecar.err || code=$?
cat no-sidecar.err
test "$code" -eq 3
grep -q "checkpoint sidecar no-sidecar/s2.ckpt.meta.json not found" no-sidecar.err

# no UTF-8 sequence starts with 0xFF: an artifact error naming the dataset, not a config error
echo "== An eval of a dataset with a 0xFF byte exits 3 and names the dataset"
python -c 'import sys; b = bytearray(open(sys.argv[1], "rb").read()); b[100] = 0xFF; open(sys.argv[2], "wb").write(b)' \
    data.json damaged/data.json
code=0
gcum eval --checkpoint s2.ckpt --data damaged/data.json 2> damaged-data.err || code=$?
cat damaged-data.err
test "$code" -eq 3
grep -q "dataset damaged/data.json is not UTF-8 at byte 100" damaged-data.err

# catalog entry i is identity i: a sparse id is an artifact error, not a token table of 10^7 rows
echo "== A train on a dataset whose catalog lists identity 10^7 exits 3 and names the entry"
python -c '
import json, sys
d = json.load(open(sys.argv[1]))
old = d["catalog"][1]["identity_id"]
for m in (m for s in d["samples"] for m in s["members"] if m["identity_id"] == old):
    m["identity_id"] = 10**7
d["catalog"][1]["identity_id"] = 10**7
print(json.dumps(d))' data.json > damaged/sparse.json
code=0
gcum train --stage 1 --config small.json --data damaged/sparse.json --out damaged/sparse.ckpt 2> sparse.err || code=$?
cat sparse.err
test "$code" -eq 3
grep -q "catalog entry" sparse.err

echo "== Ablation under two PYTHONHASHSEEDs: the same JSON and table"
for h in 1 2; do
  mkdir "ablate$h"
  (cd "ablate$h" && PYTHONHASHSEED=$h gcum ablate --config ../small.json --seeds 3 --out ablation.json > table.out)
done
cmp ablate1/ablation.json ablate2/ablation.json
cmp ablate1/table.out ablate2/table.out

echo "== console flow passed"
