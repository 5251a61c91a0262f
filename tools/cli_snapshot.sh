#!/usr/bin/env bash
# Run a fixed list of `extremal` CLI commands and write every payload,
# witness, graph and stdout file into OUTDIR.  Commands run inside OUTDIR
# with relative paths, so two snapshots (two checkouts, or two values of
# PYTHONHASHSEED) must agree byte for byte:
#
#   tools/cli_snapshot.sh /tmp/a && (cd other-checkout && tools/cli_snapshot.sh /tmp/b)
#   diff -r /tmp/a /tmp/b
#
# The list covers every subcommand: the criterion-12 set of
# tests/test_acceptance.py plus larger enumerations (3-graphs included),
# Turan numbers by both routes and by each alone (n = 0 and the K8 call on
# 18 vertices among them), degree scans (some where the enumeration gates
# prune), vertex- and edge-deletion scans, both symmetrization modes, the
# three Lagrangian routes (the exact graph value checked inline) and an
# ascent that converges only by face dropping, the semibipartite and
# two-covered hull classes, and scans at a sharp threshold; the --help text
# of the subcommands whose option defaults come from workbench._PARAMS; and
# calls that must fail, with their stderr and exit code kept too.
set -euo pipefail
if [ $# -ne 1 ]; then
  echo "usage: $0 OUTDIR" >&2
  exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
cd "$1"
export PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"

run() {  # run NAME ARG...: one CLI call, its stdout kept as NAME.out
  local name=$1
  shift
  python -m extremal.cli "$@" > "$name.out"
}

fail() {  # fail NAME ARG...: one CLI call that must fail, kept as NAME.out, .err, .code
  local name=$1 code=0
  shift
  python -m extremal.cli "$@" > "$name.out" 2> "$name.err" || code=$?
  echo "$code" > "$name.code"
  if [ "$code" -eq 0 ]; then
    echo "$name: expected a nonzero exit code" >&2
    exit 1
  fi
}

printf '2 5 5\n0 1\n0 4\n1 2\n2 3\n3 4\n' > c5.hgr
printf '2 14 0\n' > empty14.hgr
printf '2 3 2\n0 1\n0 1\n' > dup.hgr
printf '{"r": 3, "n": 4, "edges": [[false, true, 2]]}' > bool3.json
# a K4-free graph on 12 vertices that is not symmetrized
cat > k4free12.hgr <<'HGR'
2 12 35
0 1
0 2
0 3
0 5
0 6
0 11
1 3
1 5
1 7
1 8
1 9
1 11
2 3
2 4
2 6
2 8
2 9
2 10
3 7
3 10
4 5
4 7
4 8
4 9
4 10
5 6
5 7
6 7
6 8
6 10
7 8
7 9
7 10
9 11
10 11
HGR

# the criterion-12 set
run make make turanr 6 3 3 -o t.hgr
run make-big make turan 13 3 -o big.hgr
run check check c5.hgr --family k3 --class bipartite --json check.json
run ex5 ex --n 5 --family k3 --json ex5.json --witness-dir wit5
run lag-big --seed 11 lagrangian big.hgr --restarts 8 --json lag-big.json
# a graph: the exact Motzkin-Straus value (1 - 1/omega)/2 for omega = 3
python - lag-big.json <<'PY'
import json, sys
p = json.load(open(sys.argv[1]))
if not (p["method"] == "motzkin-straus" and p["gap"] == 0 and p["converged"]
        and p["exact"] == "1/3"):
    sys.exit(f"lag-big: expected the exact value 1/3 by Motzkin-Straus, got {p}")
PY
run sym-c5 symmetrize c5.hgr --family k3 --mode vertex --trace sym-c5.json -o sym-c5.hgr
run scan-k3 scan --family k3 --class bipartite --kind degree --n 4..6 --eps 0.1 \
  --json scan-k3.json --csv scan-k3.csv
run extendable extendable c5.hgr --v 0 --class bipartite --zeta 0.05 --piref 0.5 \
  --json extendable.json
run enum-k3 enum --n 5 --r 2 --family k3 -o enum-k3 --json enum-k3.json

# enumeration, Turan numbers and a scan at larger sizes
run enum-7-2 enum --n 7 --r 2 --json enum-7-2.json
# unconstrained 3-graphs, where the order of the link pool is not mask order
run enum-5-3 enum --n 5 --r 3 -o enum-5-3 --json enum-5-3.json
run enum-6-3 enum --n 6 --r 3 -o enum-6-3 --json enum-6-3.json
run enum-sigma3 enum --n 6 --r 3 --family sigma:3 -o enum-sigma3 --json enum-sigma3.json
run enum-k4 enum --n 7 --r 2 --family k4 --json enum-k4.json
# triangle-free graphs on 9 vertices
run enum-k3-9 enum --n 9 --r 2 --family k3 --json enum-k3-9.json
run ex8-k3 ex --n 8 --family k3 --method both --json ex8-k3.json --witness-dir wit8
run ex6-sigma3 ex --n 6 --family sigma:3 --json ex6-sigma3.json --witness-dir wit6
run ex8-sigma3 ex --n 8 --family sigma:3 --json ex8-sigma3.json
# each route of ex on its own; the pattern route also past the canonical budget
run ex8-k3-patterns ex --n 8 --family k3 --method patterns --json ex8-k3-patterns.json
run ex8-k3-brute ex --n 8 --family k3 --method brute --json ex8-k3-brute.json
run ex6-sigma3-patterns ex --n 6 --family sigma:3 --method patterns \
  --json ex6-sigma3-patterns.json
run ex11-k3-patterns ex --n 11 --family k3 --method patterns --pmax 3 \
  --json ex11-k3-patterns.json
run scan-k4 scan --family k4 --class krl:2:3 --kind degree --n 6..7 --eps 0.1 \
  --json scan-k4.json --csv scan-k4.csv

# where the minimum-degree and edge-count gates prune the enumeration
run scan-k3-9 scan --family k3 --class bipartite --kind degree --n 5..9 --eps 0.1 \
  --json scan-k3-9.json --csv scan-k3-9.csv
run scan-k4-8 scan --family k4 --class krl:2:3 --kind degree --n 6..8 --eps 0.1 \
  --json scan-k4-8.json --csv scan-k4-8.csv
run ex9-k3 ex --n 9 --family k3 --method both --json ex9-k3.json
# the empty graph is the one witness at n = 0, by either route
run ex0-k3-patterns ex --n 0 --family k3 --method patterns --json ex0-k3-patterns.json
# K8-freeness of the witness T(18, 7), by clique number
run ex18-k8-patterns ex --n 18 --family k8 --method patterns --pmax 7 \
  --json ex18-k8-patterns.json

# deletion distances: vertex and edge scans of graphs and of 3-graphs
for kind in vertex edge; do
  run "scan-k3-$kind" scan --family k3 --class bipartite --kind "$kind" --n 5..7 \
    --eps 0.1 --delta 0.1 --json "scan-k3-$kind.json" --csv "scan-k3-$kind.csv"
done
run scan-sigma3-edge scan --family sigma:3 --class krl:3:3 --kind edge --n 5..6 \
  --eps 0.05 --delta 0.1 --json scan-sigma3-edge.json --csv scan-sigma3-edge.csv

# symmetrization in both modes, and the three Lagrangian routes
for mode in class vertex; do
  run "sym-$mode" symmetrize k4free12.hgr --family k4 --mode "$mode" \
    --trace "sym-$mode.json" -o "sym-$mode.hgr"
done
run lag-supports lagrangian k4free12.hgr --supports --json lag-supports.json
run make-big3 make turanr 13 3 3 -o big3.hgr
# a 3-graph on 13 vertices, past lagrangian.SUPPORT_LIMIT: only --supports
# enumerates supports (graphs take no float search)
run lag-big-supports lagrangian big3.hgr --supports --json lag-big-supports.json
python - lag-big-supports.json <<'PY'
import json, sys
p = json.load(open(sys.argv[1]))
if not (p["method"] == "support-enumeration" and p["gap"] == 0 and p["converged"]):
    sys.exit(f"lag-big-supports: expected an exact support enumeration, got {p}")
PY
run lag-turanr --seed 3 lagrangian t.hgr --format json --json lag-turanr.json
run lag-big3 --seed 5 lagrangian big3.hgr --restarts 16 --json lag-big3.json
run lag-empty lagrangian empty14.hgr --restarts 4 --json lag-empty.json
# every triple through vertex 0, plus 123: the full-support ascent stalls
# towards the face x_4 = 0, and face dropping lets it converge there
cat > capped.hgr <<'HGR'
3 5 7
0 1 2
0 1 3
0 1 4
0 2 3
0 2 4
0 3 4
1 2 3
HGR
run lag-capped lagrangian capped.hgr --json lag-capped.json
python - lag-capped.json <<'PY'
import json, sys
p = json.load(open(sys.argv[1]))
if not (p["converged"] and p["gap"] == 0):
    sys.exit(f"lag-capped: expected a converged ascent with gap 0, got {p}")
PY

# the other hull classes of the paper: semibipartite (Hefetz-Keevash), with
# weak expansions of a matching, and two-covered systems (Bene Watts-Norin-
# Yepremyan), with cancellative 3-graphs and Sigma3
run make-sb make semibip 2 4 3 -o sb.hgr
run make-m32 make matching 3 2 -o m32.hgr
run make-k43 make complete 4 3 -o k43.hgr
run check-sb check sb.hgr --family weakexp:m32.hgr --class semibip:3 --json check-sb.json
run check-t check t.hgr --family cancellative:3 --class twocov:3 --json check-t.json
run check-k43 check k43.hgr --family sigma:3 --class twocov:3 --json check-k43.json
for kind in vertex edge; do
  run "scan-sigma3-twocov-$kind" scan --family sigma:3 --class twocov:3 --kind "$kind" \
    --n 5..6 --eps 0.1 --delta 0.1 --json "scan-sigma3-twocov-$kind.json"
  run "scan-canc3-semibip-$kind" scan --family cancellative:3 --class semibip:3 \
    --kind "$kind" --n 5..6 --eps 0.1 --delta 0.1 --json "scan-canc3-semibip-$kind.json"
done
# 4/9 is the degree density of complete semibipartite 3-graphs
run scan-weakexp scan --family weakexp:m32.hgr --class semibip:3 --n 5..5 --eps 0.1 \
  --piref 0.4444444444444444 --json scan-weakexp.json
run enum-weakexp enum --n 5 --r 3 --family weakexp:m32.hgr --json enum-weakexp.json

# thresholds are exact: at the sharp Sigma3 value eps* = 13/441 the n = 7
# threshold is the integer 4, which no graph sitting on it exceeds, whether
# eps is spelled as a fraction or as the decimal of the float nearest it
run scan-sigma3-sharp scan --family sigma:3 --class krl:3:3 --n 7..7 --eps 13/441 \
  --piref 2/9 --expect-clean --json scan-sigma3-sharp.json
run scan-sigma3-sharp-decimal scan --family sigma:3 --class krl:3:3 --n 7..7 \
  --eps 0.02947845804988662 --piref 2/9 --expect-clean --json scan-sigma3-sharp-decimal.json
run extendable-t extendable t.hgr --v 0 --class krl:3:3 --zeta 1/20 --piref 2/9 \
  --json extendable-t.json

# option defaults, shown in --help, come from workbench._PARAMS
for cmd in ex lagrangian symmetrize scan; do
  run "help-$cmd" "$cmd" --help
done

# refusals: budget (3), usage or file (2) and a counterexample under --expect-clean (4)
fail enum-budget enum --n 9 --r 3
fail scan-empty-range scan --family k3 --class bipartite --n 9..5 --eps 0.1 --expect-clean
fail scan-k4-dirty scan --family k4 --class bipartite --kind degree --n 5..5 --eps 0.5 \
  --piref 0.6666666666666666 --expect-clean --json scan-k4-dirty.json
fail make-bad-tag make mystery 1 -o mystery.hgr
fail lag-dup lagrangian dup.hgr
fail lag-restarts lagrangian big.hgr --restarts 0
fail ex-bad-family ex --n 5 --family mystery
fail scan-no-preset scan --family file:c5.hgr --class bipartite --n 4..5 --eps 0.1
fail scan-bad-eps scan --family k3 --class bipartite --n 4..5 --eps abc
fail extendable-bad-zeta extendable c5.hgr --v 0 --class bipartite --zeta 1/0 --piref 0.5
# a pattern size cap makes the pattern route a lower bound, so both routes refuse it
fail ex-pmax-both ex --n 7 --family k4 --pmax 2
# JSON booleans are not integers, though Python makes them ints
fail make-json-bool make expansion bool3.json -o bool3-expansion.hgr
# a negative seed is refused by every command, before any work
fail seed-negative --seed -1 lagrangian c5.hgr
# a directory where a file should be is a file error (2), read or written
fail check-dir-input check . --class bipartite
fail check-dir-json check c5.hgr --class bipartite --json .
fail check-json-under-file check c5.hgr --class bipartite --json c5.hgr/x.json
# so is an output path in no directory, before the command runs
fail ex-json-missing-dir ex --n 8 --family sigma:3 --json missing/x.json
# every other output path too: a file where a directory should be, or a missing directory
fail ex-witness-dir-file ex --n 8 --family sigma:3 --witness-dir c5.hgr
fail enum-outdir-file enum --n 8 --r 2 -o c5.hgr
fail scan-csv-missing-dir scan --family k3 --class bipartite --n 4..6 --eps 0.1 \
  --csv missing/x.csv
fail sym-out-missing-dir symmetrize k4free12.hgr --family k4 -o missing/x.hgr
# a family whose uniformity is not the command's r or the class's, before any work
fail enum-family-r enum --n 5 --r 2 --family sigma:3 --json enum-family-r.json
fail scan-family-class-r scan --family k3 --class krl:3:3 --n 5..6 --eps 0 --expect-clean
