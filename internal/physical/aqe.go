package physical

// Adaptive query execution (AQE), in the style of Spark 3.x: once runtime
// cardinalities are known at stage boundaries, join algorithms chosen from
// (mis)estimates can be corrected — a sort-merge join whose build side
// turned out tiny becomes a broadcast join, and a broadcast join whose
// build side exploded becomes a sort-merge join.
//
// The paper's model predicts costs for *statically chosen* plans ("if the
// resource changes during the query execution, we will continue executing
// the chosen plan"); AQE is the runtime-feedback contrast, and the `aqe`
// experiment measures how much of RAAL's win survives it.

import "raal/internal/logical"

// Reoptimize returns a copy of p with every equi-join's algorithm
// re-decided from actual cardinalities (the plan must have been executed)
// against the broadcast threshold. It also returns how many joins were
// switched. The input plan is not modified.
func Reoptimize(p *Plan, broadcastThreshold float64) (*Plan, int) {
	switched := 0

	var rewrite func(n *Node) *Node
	rewrite = func(n *Node) *Node {
		c := *n // shallow copy; payload pointers are shared, children replaced
		c.Children = make([]*Node, len(n.Children))
		for i, ch := range n.Children {
			c.Children[i] = rewrite(ch)
		}

		switch c.Op {
		case SortMergeJoin, ShuffledHashJoin:
			// Children are Sort(Exchange(x)) / Exchange(x); unwrap to the
			// true inputs.
			probe := unwrapShuffle(c.Children[0])
			build := unwrapShuffle(c.Children[1])
			if actBytes(build) < broadcastThreshold {
				switched++
				bx := &Node{
					Op: BroadcastExchange, Children: []*Node{build},
					EstRows: build.EstRows, ActRows: build.ActRows, RowBytes: build.RowBytes,
				}
				return &Node{
					Op: BroadcastHashJoin, Children: []*Node{probe, bx},
					LeftKey: c.LeftKey, RightKey: c.RightKey,
					EstRows: c.EstRows, ActRows: c.ActRows, RowBytes: c.RowBytes,
				}
			}
		case BroadcastHashJoin:
			build := c.Children[1].Children[0] // under BroadcastExchange
			if actBytes(build) >= broadcastThreshold {
				switched++
				probe := c.Children[0]
				return &Node{
					Op:       SortMergeJoin,
					Children: []*Node{shuffleSort(probe, c.LeftKey), shuffleSort(build, c.RightKey)},
					LeftKey:  c.LeftKey, RightKey: c.RightKey,
					EstRows: c.EstRows, ActRows: c.ActRows, RowBytes: c.RowBytes,
				}
			}
		}
		return &c
	}

	out := &Plan{Root: rewrite(p.Root), Query: p.Query, Sig: p.Sig + ";aqe"}
	out.finalize(len(p.Nodes))
	return out, switched
}

// unwrapShuffle strips the Sort/ExchangeHashPartition wrappers a shuffle
// join puts over its inputs.
func unwrapShuffle(n *Node) *Node {
	for n.Op == Sort || n.Op == ExchangeHashPartition {
		n = n.Children[0]
	}
	return n
}

// shuffleSort wraps x in ExchangeHashPartition + Sort on key (the
// pre-processing a sort-merge join side requires), propagating observed
// cardinalities since both operators are cardinality-preserving.
func shuffleSort(x *Node, key *logical.BoundCol) *Node {
	ex := &Node{Op: ExchangeHashPartition, Children: []*Node{x}, LeftKey: key,
		EstRows: x.EstRows, ActRows: x.ActRows, RowBytes: x.RowBytes}
	return &Node{Op: Sort, Children: []*Node{ex}, SortCol: key,
		EstRows: x.EstRows, ActRows: x.ActRows, RowBytes: x.RowBytes}
}

// actBytes is a node's observed output volume (estimate when never run).
func actBytes(n *Node) float64 {
	rows := n.ActRows
	if rows == 0 {
		rows = n.EstRows
	}
	w := n.RowBytes
	if w <= 0 {
		w = 8
	}
	return rows * w
}
