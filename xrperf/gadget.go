package main

// tricolorGadget is the Theorem 3 mapping of examples/tricolor, copied
// because a main package cannot be imported; TestGadgetMatchesExample
// checks the copy against the example.
const tricolorGadget = `
source E(x, y, u, v).        # edge (x,y), numbered u -> v
source Cr(x).                # colour candidates
source Cg(x).
source Cb(x).
source F(u, v).              # the cycle-closing fact F(n, 1)
target E1(x, y).
target F1(u, v).
target Fsrc(u, v).           # marker: survives iff F survives
target Cr1(x).
target Cg1(x).
target Cb1(x).

tgd E(x, y, u, v) & Cr(x) -> E1(x, y).
tgd E(x, y, u, v) & Cg(x) -> E1(x, y).
tgd E(x, y, u, v) & Cb(x) -> E1(x, y).
tgd E(x, y, u, v) & Cr(x) -> F1(u, v).
tgd E(x, y, u, v) & Cg(x) -> F1(u, v).
tgd E(x, y, u, v) & Cb(x) -> F1(u, v).
tgd Cr(x) -> Cr1(x).
tgd Cg(x) -> Cg1(x).
tgd Cb(x) -> Cb1(x).
tgd F(u, v) -> F1(u, v).
tgd F(u, v) -> Fsrc(u, v).
tgd trans: F1(u, v) & F1(v, w) -> F1(u, w).

egd E1(x, y) & Cr1(x) & Cr1(y) & F1(u, v) -> u = v.
egd E1(x, y) & Cg1(x) & Cg1(y) & F1(u, v) -> u = v.
egd E1(x, y) & Cb1(x) & Cb1(y) & F1(u, v) -> u = v.
egd F1(u, u) & F1(v, w) -> v = w.
`
