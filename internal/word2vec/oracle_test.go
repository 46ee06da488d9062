package word2vec

// The sequential SGNS step Train was first written as: every sample of a
// pair reads its output row, takes its sigmoid and updates the row before
// the next sample is drawn. It is the oracle Train is held to, bit
// for bit, by TestTrainMatchesOracle and FuzzWord2Vec.

import "math"

// trainOracle trains like Train, one sample at a time, and returns the
// trainer so that both embedding matrices can be compared.
func trainOracle(sentences [][]string, cfg Config) (*trainer, error) {
	t, err := newTrainer(sentences, cfg)
	if err != nil {
		return nil, err
	}
	grad := make([]float64, cfg.Dim)
	t.run(func(n int, center, ctx int32) { t.pairSequential(center, ctx, t.lr(n), grad) })
	return t, nil
}

func (t *trainer) pairSequential(center, ctx int32, lr float64, grad []float64) {
	vin := t.row(t.in, center)
	for d := range grad {
		grad[d] = 0
	}
	// positive pair
	trainPair(vin, t.row(t.out, ctx), 1, lr, grad)
	// negatives
	for n := 0; n < t.cfg.Negatives; n++ {
		neg := t.table[t.rng.Intn(len(t.table))]
		if neg == ctx {
			continue
		}
		trainPair(vin, t.row(t.out, neg), 0, lr, grad)
	}
	for d := range vin {
		vin[d] += grad[d]
	}
}

// trainPair applies one SGNS update: label 1 for a positive pair, 0 for a
// negative sample. The input-vector gradient is accumulated into grad so
// the caller can apply it once per context.
func trainPair(vin, vout []float64, label, lr float64, grad []float64) {
	var dot float64
	for d := range vin {
		dot += vin[d] * vout[d]
	}
	pred := 1 / (1 + math.Exp(-dot))
	g := lr * (label - pred)
	for d := range vin {
		grad[d] += g * vout[d]
		vout[d] += g * vin[d]
	}
}
