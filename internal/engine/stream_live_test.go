package engine

import (
	"maps"
	"testing"

	"raal/internal/cardest"
	"raal/internal/datagen"
	"raal/internal/logical"
	"raal/internal/physical"
	"raal/internal/sql"
)

// watched stands in for an operator and hands every batch it emits to
// check.
type watched struct {
	iterator
	check func(b *Batch)
}

func (w *watched) Next() (*Batch, error) {
	b, err := w.iterator.Next()
	if b != nil {
		w.check(b)
	}
	return b, err
}

// inputs lists the operators an iterator pulls from.
func inputs(it iterator) []iterator {
	switch x := it.(type) {
	case *countedIter:
		return []iterator{x.inner}
	case *watched:
		return []iterator{x.iterator}
	case *hashJoinIter:
		return []iterator{x.left, x.right}
	case *nestedLoopIter:
		return []iterator{x.left, x.right}
	case *filterIter:
		return []iterator{x.child}
	case *projectIter:
		return []iterator{x.child}
	case *passthroughIter:
		return []iterator{x.child}
	case *exchangeIter:
		return []iterator{x.child}
	case *sortIter:
		return []iterator{x.child}
	case *aggIter:
		return []iterator{x.child}
	case *limitIter:
		return []iterator{x.child}
	}
	return nil
}

// TestStreamingDeadColumnsNotGathered runs every candidate plan of a
// three-way COUNT(*) join, whose aggregate reads no column, and checks
// what each join copies: its output batches hold exactly the key columns
// of the joins above it, and its build side those plus its own key.
func TestStreamingDeadColumnsNotGathered(t *testing.T) {
	db := datagen.IMDB(0.03, 1)
	est, err := cardest.New(db, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	stmt, err := sql.Parse(`SELECT COUNT(*) FROM title t, movie_companies mc, company_name cn
		WHERE t.id = mc.movie_id AND cn.id = mc.company_id`)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := logical.NewBinder(db).Bind(stmt)
	if err != nil {
		t.Fatal(err)
	}
	planner := physical.NewPlanner(est)
	planner.MaxPlans = 12
	plans, err := planner.Enumerate(bound)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(db)
	for _, p := range plans {
		want, err := eng.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		// above[n] holds the key columns of the joins above node n.
		above := map[*physical.Node]map[string]bool{}
		var mark func(n *physical.Node, keys map[string]bool)
		mark = func(n *physical.Node, keys map[string]bool) {
			above[n] = keys
			if n.LeftKey != nil && n.RightKey != nil {
				keys = maps.Clone(keys)
				keys[n.LeftKey.String()], keys[n.RightKey.String()] = true, true
			}
			for _, c := range n.Children {
				mark(c, keys)
			}
		}
		mark(p.Root, map[string]bool{})

		root, err := eng.buildIter(p.Root, &runCtx{eng: eng, cap: eng.batchSize(), max: eng.maxRows()}, nil)
		if err != nil {
			t.Fatal(err)
		}
		joins := map[*hashJoinIter]*physical.Node{}
		var watch func(it iterator)
		watch = func(it iterator) {
			if c, ok := it.(*countedIter); ok {
				if j, ok := c.inner.(*hashJoinIter); ok {
					n := c.node
					joins[j] = n
					c.inner = &watched{iterator: j, check: func(b *Batch) {
						for q, col := range j.l.cols {
							if got := b.ints[q] != nil || b.strs[q] != nil; got != above[n][col.name] {
								t.Errorf("%s: %s output holds %s: %v, want %v", p.Sig, n.Op, col.name, got, !got)
							}
						}
					}}
				}
			}
			for _, in := range inputs(it) {
				watch(in)
			}
		}
		watch(root)
		got, err := drain(root)
		if err != nil {
			t.Fatal(err)
		}
		if got.N != 1 || got.Ints["agg0"][0] != want.Ints["agg0"][0] {
			t.Fatalf("%s: COUNT(*) %v, want %v", p.Sig, got.Ints, want.Ints)
		}
		if len(joins) != 2 {
			t.Fatalf("%s: %d hash joins, want 2", p.Sig, len(joins))
		}
		for j, n := range joins {
			if j.buildN == 0 {
				t.Fatalf("%s: %s has an empty build side", p.Sig, n.Op)
			}
			for q, col := range j.right.lay().cols {
				got := j.build[q].ints != nil || j.build[q].strs != nil
				if w := above[n][col.name] || col.name == n.RightKey.String(); got != w {
					t.Errorf("%s: %s build side holds %s: %v, want %v", p.Sig, n.Op, col.name, got, w)
				}
			}
		}
		root.Close()
	}
}
