package engine

import (
	"fmt"

	"raal/internal/catalog"
	"raal/internal/physical"
)

// ErrRowLimit is returned (wrapped) when an operator would produce more
// rows than the engine's limit — the guard against join explosions in
// generated workloads.
var ErrRowLimit = fmt.Errorf("engine: row limit exceeded")

// Engine executes physical plans against a database.
type Engine struct {
	db *catalog.Database

	// MaxRows bounds any single operator's output cardinality; 0 means
	// the default of 5 million.
	MaxRows int

	// BatchSize is the streaming chunk capacity in rows; 0 means
	// DefaultBatchSize. It changes no result, ActRows or Skew.
	BatchSize int

	pool  slabPool
	instr *engineInstr
}

// New returns an Engine over db.
func New(db *catalog.Database) *Engine { return &Engine{db: db} }

func (e *Engine) maxRows() int {
	if e.MaxRows > 0 {
		return e.MaxRows
	}
	return 5_000_000
}

func (e *Engine) batchSize() int {
	if e.BatchSize > 0 {
		return e.BatchSize
	}
	return DefaultBatchSize
}

// Run executes the plan, records each node's actual output cardinality
// in node.ActRows, and returns the final relation. An Engine is safe for
// concurrent Run calls on distinct plans.
func (e *Engine) Run(p *physical.Plan) (*Relation, error) {
	if ins := e.instr; ins != nil {
		ins.runs.Inc()
	}
	for _, n := range p.Nodes {
		n.ActRows = 0
	}
	it, err := e.buildIter(p.Root, &runCtx{eng: e, cap: e.batchSize(), max: e.maxRows()}, nil)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	return drain(it)
}
