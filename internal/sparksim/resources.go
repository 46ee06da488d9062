// Package sparksim simulates the execution of a physical plan on a Spark
// cluster, converting (plan, true cardinalities, resource allocation) into
// a wall-clock cost.
//
// It substitutes for the paper's Tencent/Ali Cloud clusters (Table III) and
// realizes the resource phenomena of Sec. III that motivate a
// resource-aware cost model:
//
//   - more executor memory reduces spill but inflates GC/JVM overhead, so
//     cost over memory is U-shaped rather than monotone;
//   - broadcast joins fall off a cliff when the build side no longer fits
//     in the executor's broadcast budget, so the SMJ/BHJ winner flips with
//     memory;
//   - executors × cores determine task slots, so the same plan costs
//     differently under different parallelism.
package sparksim

import "fmt"

// Resources is a resource allocation for one query, mirroring the paper's
// Table I configuration vocabulary.
type Resources struct {
	Nodes        int     // cluster nodes
	CoresPerNode int     // physical cores per node
	Executors    int     // executors granted to the application
	ExecCores    int     // cores per executor (E-Core)
	ExecMemMB    float64 // memory per executor (E-Memory)
	NetMBps      float64 // network throughput between nodes (N-throughput)
	DiskMBps     float64 // disk read/write throughput (D-throughput)

	// Dynamic marks dynamic resource allocation (paper Sec. II-A): the
	// application acquires executors gradually instead of holding the
	// full set from the start, so early stages run under-provisioned.
	Dynamic bool
}

// DefaultResources matches the paper's cluster shape: 4 nodes × 4 cores,
// 16 GB per node, with a 2-executor × 2-core × 4 GB allocation.
func DefaultResources() Resources {
	return Resources{
		Nodes: 4, CoresPerNode: 4,
		Executors: 2, ExecCores: 2, ExecMemMB: 4096,
		NetMBps: 120, DiskMBps: 180,
	}
}

// MaxResources is the "system performs a single query task" allocation the
// paper normalizes against in Eq. 1.
func MaxResources() Resources {
	return Resources{
		Nodes: 4, CoresPerNode: 4,
		Executors: 8, ExecCores: 4, ExecMemMB: 14336,
		NetMBps: 1000, DiskMBps: 500,
	}
}

// Slots returns the number of concurrently runnable tasks.
func (r Resources) Slots() int {
	s := r.Executors * r.ExecCores
	if s < 1 {
		s = 1
	}
	return s
}

// Validate checks that the allocation is physically sensible.
func (r Resources) Validate() error {
	switch {
	case r.Nodes < 1:
		return fmt.Errorf("sparksim: need at least 1 node, got %d", r.Nodes)
	case r.CoresPerNode < 1:
		return fmt.Errorf("sparksim: need at least 1 core per node, got %d", r.CoresPerNode)
	case r.Executors < 1:
		return fmt.Errorf("sparksim: need at least 1 executor, got %d", r.Executors)
	case r.ExecCores < 1:
		return fmt.Errorf("sparksim: need at least 1 core per executor, got %d", r.ExecCores)
	case r.ExecMemMB <= 0:
		return fmt.Errorf("sparksim: executor memory must be positive, got %v", r.ExecMemMB)
	case r.NetMBps <= 0 || r.DiskMBps <= 0:
		return fmt.Errorf("sparksim: throughputs must be positive (net=%v disk=%v)", r.NetMBps, r.DiskMBps)
	}
	return nil
}

// NumFeatures is the length of a resource feature vector.
const NumFeatures = 8

// Vector returns the raw feature values in Table I order, plus the
// dynamic-allocation flag.
func (r Resources) Vector() []float64 {
	dyn := 0.0
	if r.Dynamic {
		dyn = 1
	}
	return []float64{
		float64(r.Nodes), float64(r.CoresPerNode),
		float64(r.Executors), float64(r.ExecCores),
		r.ExecMemMB, r.NetMBps, r.DiskMBps, dyn,
	}
}

// Normalized returns the features scaled into [0,1] by the system maxima
// (Eq. 1: r* = r / max(r)).
func (r Resources) Normalized(max Resources) []float64 {
	return r.NormalizedInto(make([]float64, NumFeatures), max)
}

// NormalizedInto writes Normalized(max) into dst, which must hold
// NumFeatures values, and returns dst.
func (r Resources) NormalizedInto(dst []float64, max Resources) []float64 {
	v := r.Vector()
	m := max.Vector()
	dst = dst[:len(v)]
	for i := range v {
		if m[i] > 0 {
			dst[i] = v[i] / m[i]
		} else {
			dst[i] = v[i] // flag features (e.g. Dynamic) pass through
		}
		if dst[i] > 1 {
			dst[i] = 1
		}
	}
	return dst
}

func (r Resources) String() string {
	return fmt.Sprintf("%dn×%dc %dex×%dc %0.fMB net=%.0f disk=%.0f",
		r.Nodes, r.CoresPerNode, r.Executors, r.ExecCores, r.ExecMemMB, r.NetMBps, r.DiskMBps)
}
