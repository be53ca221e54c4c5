#!/usr/bin/env bash
# Memory-ceiling gate: prove that planet-scale implicit-topology sessions
# fit pinned heap budgets. Two legs, each an env-gated test in
# memgate_test.go that drives several simulated rounds over a warm session
# and fails if runtime.ReadMemStats reports more than its budget after a
# final GC:
#
#   1. TestImplicitScaleMemoryCeiling: a generate-free n = 10^8
#      G(n, 8·ln n/n).
#   2. TestImplicitGeomMemoryCeiling: an n = 2^24 implicit RGG at 2·r_c on
#      the torus, under the Auto kernel (degree-priced rounds).
#
#   scripts/mem_gate.sh                 # both legs at their pinned budgets
#   MEM_GATE_BUDGET_MB=512 scripts/mem_gate.sh   # custom G(n,p) budget
#   MEM_GATE_N=16777216 MEM_GATE_BUDGET_MB=256 scripts/mem_gate.sh
#   MEM_GATE_GEOM_BUDGET_MB=1024 scripts/mem_gate.sh   # custom RGG budget
#
# G(n,p) leg: the pinned default (1024 MiB for 10^8 nodes, measured
# ~890 MiB) is tight on purpose: one extra O(n) int32 array costs ~400 MiB
# and breaks the gate, and any O(m) state would need ~100 GiB at this
# operating point (mean degree ≈ 147) — the regression this gate exists to
# catch.
#
# Implicit-RGG leg: the pinned default is 768 MiB for 2^24 nodes, about
# 1.15× the measured 669 MiB. Per node, graph.ImplicitGeom holds
#   points (X, Y, radius float64)     24 B
#   cell ids (int32)                   4 B
#   degrees (int32; out = in when every radius is equal,
#            8 B when radii differ)    4 B
#   cell offsets (int, one per cell)  ~0.4 B at 2·r_c (≈ n/21 cells)
# i.e. ~32 B/node = ~520 MiB, plus ~9 B/node of session state. A further
# 8 B/node array (~128 MiB) breaks the budget; any O(m) state (mean degree
# ≈ 4·ln n ≈ 67 at 2·r_c) would multiply it.
set -euo pipefail

cd "$(dirname "$0")/.."

export MEM_GATE_BUDGET_MB="${MEM_GATE_BUDGET_MB:-1024}"
export MEM_GATE_GEOM_BUDGET_MB="${MEM_GATE_GEOM_BUDGET_MB:-768}"

echo "mem_gate: G(n,p) n=${MEM_GATE_N:-100000000} budget ${MEM_GATE_BUDGET_MB} MiB" >&2
go test -run '^TestImplicitScaleMemoryCeiling$' -v -timeout 30m .

echo "mem_gate: implicit RGG n=16777216 budget ${MEM_GATE_GEOM_BUDGET_MB} MiB" >&2
go test -run '^TestImplicitGeomMemoryCeiling$' -v -timeout 30m .
