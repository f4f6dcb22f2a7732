#!/bin/sh
# Regenerate every table and figure of the paper (results/ + stdout log).
# Default scales favour simulation speed; pass-through args (e.g. --div 1)
# reach every binary. exp-paper prints the eleven grid figures (exp-breakdown,
# exp-table2/3, exp-fig6..10, exp-lanes, exp-winograd-a64fx, exp-resnet)
# from one sweep that simulates each distinct design point once.
set -e
cd "$(dirname "$0")"
for exp in exp-paper exp-headline exp-table4 exp-algos exp-tilesize exp-l2lat \
           exp-energy exp-stream exp-whatif exp-serve exp-scale; do
  echo "=== $exp ==="
  cargo run --release -p lva-bench --bin "$exp" -- "$@" 2>/dev/null
  echo
done
