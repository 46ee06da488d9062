package nn

import (
	"math/rand"
	"testing"

	"raal/internal/autodiff"
	"raal/internal/tensor"
)

// dense returns the lengths of a batch of equally long sequences, the
// ForwardStacked call of an unragged batch.
func dense(batch, steps int) []int {
	lens := make([]int, batch)
	for k := range lens {
		lens[k] = steps
	}
	return lens
}

// finite reads one value in [-8, 8) at a resolution of 1/4096 from two
// bytes: finite and small enough that no activation overflows.
func (r *cellBytes) finite() float64 {
	return float64(int16(uint16(r.byte())<<8|uint16(r.byte()))) / 4096
}

func (r *cellBytes) finiteMat(rows, cols int) *tensor.Matrix {
	m := tensor.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.finite()
	}
	return m
}

// raggedCase is one ragged batch: the LSTM's weights, each sequence's
// inputs and the upstream gradient of each of its hidden states.
type raggedCase struct {
	wx, wh, b *tensor.Matrix
	xs, dhs   []*tensor.Matrix // per sequence: lens[k]×in and lens[k]×hidden
	lens      []int
}

func decodeRagged(data []byte) raggedCase {
	r := cellBytes(data)
	batch, in, hidden := 1+int(r.byte()%5), 1+int(r.byte()%4), 1+int(r.byte()%4)
	rc := raggedCase{lens: make([]int, batch)}
	for k := range rc.lens {
		rc.lens[k] = 1 + int(r.byte()%6)
	}
	rc.wx, rc.wh, rc.b = r.finiteMat(in, 4*hidden), r.finiteMat(hidden, 4*hidden), r.finiteMat(1, 4*hidden)
	for _, n := range rc.lens {
		rc.xs = append(rc.xs, r.finiteMat(n, in))
		rc.dhs = append(rc.dhs, r.finiteMat(n, hidden))
	}
	return rc
}

// checkRagged runs the batch through ForwardStacked twice on recording
// tapes: ragged, and padded to its longest sequence with zero inputs under
// a uniform lens. The padded run is the oracle: every active hidden row
// and the gradients of Wx, Wh and B, from upstream gradients on active rows
// only, must match it bit for bit.
func checkRagged(t *testing.T, rc raggedCase) {
	t.Helper()
	batch, steps := len(rc.lens), 0
	for _, n := range rc.lens {
		steps = max(steps, n)
	}
	in, hidden := rc.wx.Rows, rc.wh.Rows
	l := NewLSTM("lstm", in, hidden, rand.New(rand.NewSource(1)))
	for _, w := range []struct {
		p *Param
		m *tensor.Matrix
	}{{l.Wx, rc.wx}, {l.Wh, rc.wh}, {l.B, rc.b}} {
		copy(w.p.Value().Data, w.m.Data)
	}

	// run lays the batch out as ForwardStacked(lens) reads it — step-major,
	// batch order, with (padded) or without a zero row for every finished
	// sequence — and returns the hidden rows of active sequences by step
	// and sequence, and the gradients of Wx, Wh and B.
	run := func(padded bool) (map[[2]int][]float64, []*tensor.Matrix) {
		lens := rc.lens
		if padded {
			lens = dense(batch, steps)
		}
		rows := 0
		for _, n := range lens {
			rows += n
		}
		x := tensor.New(rows, in)
		dh := make([]*tensor.Matrix, steps)
		seqs := make([][]int, steps) // the sequences hs[s] holds, in row order
		r := 0
		for s := range seqs {
			for k, n := range lens {
				if s < n {
					seqs[s] = append(seqs[s], k)
				}
			}
			dh[s] = tensor.New(len(seqs[s]), hidden) // zero on padded rows
			for i, k := range seqs[s] {
				if s < rc.lens[k] {
					copy(x.Row(r+i), rc.xs[k].Row(s))
					copy(dh[s].Row(i), rc.dhs[k].Row(s))
				}
			}
			r += len(seqs[s])
		}
		net := l.ShareWeights()
		tp := autodiff.NewTape()
		hs := net.ForwardStacked(tp, tp.Const(x), lens)
		var loss *autodiff.Var
		for s, h := range hs {
			term := tp.SumAll(tp.Mul(h, tp.Const(dh[s])))
			if loss == nil {
				loss = term
			} else {
				loss = tp.Add(loss, term)
			}
		}
		tp.Backward(loss)

		active := map[[2]int][]float64{}
		for s, h := range hs {
			if h.Value.Rows != len(seqs[s]) {
				t.Fatalf("padded=%v step %d: %d hidden rows, want %d", padded, s, h.Value.Rows, len(seqs[s]))
			}
			for i, k := range seqs[s] {
				if s < rc.lens[k] {
					active[[2]int{s, k}] = h.Value.Row(i)
				}
			}
		}
		return active, []*tensor.Matrix{net.Wx.Var.Grad, net.Wh.Var.Grad, net.B.Var.Grad}
	}

	gotH, gotG := run(false)
	wantH, wantG := run(true)
	if len(gotH) != len(wantH) {
		t.Fatalf("lens %v: %d active hidden rows, oracle %d", rc.lens, len(gotH), len(wantH))
	}
	for key, want := range wantH {
		got := gotH[key]
		for j := range want {
			if !sameBits(got[j], want[j]) {
				t.Fatalf("lens %v: step %d sequence %d hidden[%d] = %v, padded %v", rc.lens, key[0], key[1], j, got[j], want[j])
			}
		}
	}
	for i, name := range []string{"Wx", "Wh", "B"} {
		mustSameBits(t, gotG[i], wantG[i], name+" grad")
	}
}

// FuzzRaggedLSTM holds the ragged recurrence to itself run padded: over
// random finite weights, inputs, batch sizes and
// lengths, the ragged batch's hidden states and weight gradients must
// equal the padded batch's active rows and weight gradients bit for bit.
func FuzzRaggedLSTM(f *testing.F) {
	f.Add([]byte{3, 1, 2, 0, 4, 4, 2}) // lengths 1, 5, 5, 3
	f.Add([]byte{0, 2, 3, 5})          // one sequence
	f.Add([]byte{2, 0, 0, 5, 5, 5})    // uniform lengths
	rng := rand.New(rand.NewSource(59))
	for k := 0; k < 4; k++ {
		seed := make([]byte, 8+rng.Intn(400))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rc := decodeRagged(data)
		checkRagged(t, rc)
	})
}
