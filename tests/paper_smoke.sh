#!/bin/sh
# Paper smoke: prints the Figure-1 sweep and one `fnda simulate` summary
# per CLI protocol (fixed 50x50 counts on the sequential runner, binomial
# counts on the 3-thread parallel runner).  Every number is a
# deterministic function of the seeds, so the output is compared byte for
# byte with tests/golden/paper_smoke.txt:
#
#   tests/paper_smoke.sh build/tools/fnda > build/paper_smoke.txt
#   cmp build/paper_smoke.txt tests/golden/paper_smoke.txt
set -eu
fnda=${1:?usage: paper_smoke.sh PATH_TO_FNDA}

echo "== fnda sweep --participants 500 --instances 200"
"$fnda" sweep --participants 500 --instances 200
for protocol in tpd pmd vcg kda efficient random-threshold; do
  echo "== fnda simulate --protocol $protocol --threads 1"
  "$fnda" simulate --protocol "$protocol" --threads 1
  echo "== fnda simulate --protocol $protocol --binomial 100 --threads 3"
  "$fnda" simulate --protocol "$protocol" --binomial 100 --threads 3
done
