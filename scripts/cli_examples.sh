#!/usr/bin/env bash
# The CLI examples: the README's five commands, the operator kinds the CLI
# forms from the hop matrices, the polynomials of (3, 3), whose recurrence
# multiplies by each of the three eigenvalues, the self-paired middle order
# M_2 of n = 3, three labeled spectra solved by rotation
# sector, (4, 8) with five sectors of 99, (5, 4) whose sectors 0 and 3 are
# real and (6, 2), the one example at n = 6, whose orders 4, 5 and 6 the solve
# reads as the adjoints of the blocks of 3, 2 and 1 with no middle order, and
# one at the nome cap, where the lattice weights overflow and the
# bracket takes 2063 factors; two sweeps, whose nomes are solved in one stacked
# pass, on (5, 4) (real sectors 0 and 3, self-paired middle order 3) and on
# (3, 3), and the self-paired M_3 of (5, 4); and `verify`, whose operator checks
# read the move table, at n = 1 (no pair of operators to commute), at n = 3
# (the self-paired middle order D_2) and with the four operators of n = 4.
# Each must exit 0, write nothing to stderr (a numpy RuntimeWarning, say) and
# print canonical JSON, exactly json.dumps(sort_keys=True, indent=2) of what
# it parses to.  Then `enumerate`, `operator`, `verify` and `polys` each write
# `--format csv` to an `--out` file: each must exit 0, write nothing to stdout
# or stderr, and leave a file that Python's csv module reads, opening with the
# command's header and with as many fields in every row.  Last, `--help` of
# rlatt and of each command must exit 0: argparse formats help text only when
# asked, so a help string it cannot format (a stray "%", say) fails nowhere
# else.  Needs `rlatt` and `python` on PATH; fails on the first command that
# breaks a rule.
#
#   bash scripts/cli_examples.sh
set -euo pipefail

canonical='import json, sys; text = sys.stdin.read(); sys.exit(text != json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n")'

stderr_file=$(mktemp)
stdout_file=$(mktemp)
csv_file=$(mktemp)
trap 'rm -f "$stderr_file" "$stdout_file" "$csv_file"' EXIT

run() {
  echo "rlatt $*"
  rlatt "$@" 2> "$stderr_file" | python -c "$canonical"
  if [[ -s "$stderr_file" ]]; then
    cat "$stderr_file" >&2
    echo "rlatt $* wrote to stderr" >&2
    exit 1
  fi
}

run enumerate --n 2 --m 2
run operator  --n 2 --m 2 --g 0.7 --p 0.5 --r 1
run spectrum  --n 2 --m 2 --g 0.7 --p-start 0 --p-stop 0.9 --p-step 0.05
run verify    --n 2 --m 2 --g 1 --p 0.3
run polys     --n 2 --m 2 --g 0.7 --p 0.3
for kind in C S M; do
  run operator --n 2 --m 2 --g 0.7 --p 0.5 --r 1 --kind "$kind"
done
run polys     --n 3 --m 3 --g 0.7 --p 0.3
run operator  --kind M --n 3 --m 2 --g 0.7 --p 0.5 --r 2
run spectrum  --n 4 --m 8 --g 0.7 --p 0.3
run spectrum  --n 5 --m 4 --g 0.7 --p -0.6
run spectrum  --n 6 --m 2 --g 0.7 --p 0.3
run spectrum  --n 2 --m 4 --g 1.3 --p 0.99
run spectrum  --n 5 --m 4 --g 0.7 --p-start 0 --p-stop -0.6 --p-step 0.1
run spectrum  --n 3 --m 3 --g 0.7 --p-start 0 --p-stop 0.6 --p-step 0.1
run operator  --kind M --n 5 --m 4 --g 0.7 --p 0.5 --r 3
run verify    --n 1 --m 8 --g 0.7 --p 0.6
run verify    --n 3 --m 2 --g 0.7 --p -0.2
run verify    --n 4 --m 2 --g 0.7 --p 0.2

# the header the CSV file must open with, then the command
csv_table='import csv, sys; rows = list(csv.reader(open(sys.argv[1], newline=""))); sys.exit(not (len(rows) > 1 and rows[0] == sys.argv[2].split(",") and all(len(row) == len(rows[0]) for row in rows)))'

run_csv() {
  local header=$1
  shift
  echo "rlatt $* --format csv --out FILE"
  rlatt "$@" --format csv --out "$csv_file" > "$stdout_file" 2> "$stderr_file"
  if [[ -s "$stdout_file" || -s "$stderr_file" ]]; then
    cat "$stdout_file" "$stderr_file" >&2
    echo "rlatt $* --format csv --out FILE wrote to stdout or stderr" >&2
    exit 1
  fi
  if ! python -c "$csv_table" "$csv_file" "$header"; then
    echo "rlatt $* --format csv --out FILE did not write a CSV table with the header $header" >&2
    exit 1
  fi
}

run_csv index,partition,weight,delta enumerate --n 2 --m 2
run_csv i,j,re,im operator --n 2 --m 2 --g 0.7 --p 0.5 --r 1
run_csv name,residual,tolerance,passed,seconds,error verify --n 2 --m 2 --g 1 --p 0.3
run_csv mu,nu,u polys --n 2 --m 2 --g 0.7 --p 0.3

echo "rlatt --help"
rlatt --help > /dev/null
for command in enumerate operator spectrum verify polys; do
  echo "rlatt $command --help"
  rlatt "$command" --help > /dev/null
done
