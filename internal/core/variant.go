// Package core implements the paper's primary contribution: the
// Resource-Aware Attentional LSTM cost model (RAAL, Sec. IV-D) and its
// ablation variants, with training and batched inference.
//
// The architecture follows Fig. 5: an embedding of the plan (node-semantic
// ⊕ structure features) flows through a plan feature layer (LSTM — or CNN
// for the RAAC variant), then through two attention layers — node-aware
// attention over each node's children (Eqs. 8–9) and resource-aware
// attention between the normalized resource vector and every node
// (Eqs. 10–11) — whose outputs are concatenated with the statistical
// features and regressed to an execution cost through dense layers,
// trained with MSE loss.
//
// There is one network, Model, in float64: one forward, one scorer and one
// tape pool, the network models are built, trained, saved and served in.
package core

// Variant selects a model architecture from the paper's ablation grid
// (Table IV / Table VII).
type Variant struct {
	// Name identifies the variant in reports ("RAAL", "NE-LSTM", ...).
	Name string
	// Structure includes the plan-structure embedding in node inputs;
	// NE-LSTM turns this off.
	Structure bool
	// NodeAttention enables the node-aware attention layer; NA-LSTM
	// turns this off (mean pooling instead).
	NodeAttention bool
	// ResourceAttention enables the resource-aware attention layer; the
	// Table VII "without" columns turn this off, making the model
	// resource-blind.
	ResourceAttention bool
	// CNN replaces the LSTM plan-feature layer with a 1-D CNN (RAAC).
	CNN bool
}

// RAAL is the full model.
func RAAL() Variant {
	return Variant{Name: "RAAL", Structure: true, NodeAttention: true, ResourceAttention: true}
}

// NELSTM is RAAL without the structure feature embedding.
func NELSTM() Variant {
	return Variant{Name: "NE-LSTM", Structure: false, NodeAttention: true, ResourceAttention: true}
}

// NALSTM is RAAL without the node-aware attention layer.
func NALSTM() Variant {
	return Variant{Name: "NA-LSTM", Structure: true, NodeAttention: false, ResourceAttention: true}
}

// RAAC is RAAL with a CNN plan-feature layer instead of the LSTM.
func RAAC() Variant {
	return Variant{Name: "RAAC", Structure: true, NodeAttention: true, ResourceAttention: true, CNN: true}
}

// WithoutResources returns the variant with the resource-aware attention
// layer removed (the left columns of Table VII).
func (v Variant) WithoutResources() Variant {
	v.ResourceAttention = false
	v.Name += "-noRes"
	return v
}

// AllVariants returns the paper's four architectures.
func AllVariants() []Variant {
	return []Variant{RAAL(), NELSTM(), NALSTM(), RAAC()}
}
