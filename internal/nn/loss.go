package nn

import "math"

// SoftmaxCE computes mean softmax cross-entropy over rows of logits against
// integer labels, returning the loss and dLogits. Rows whose label is -1 are
// masked out. It is WeightedSoftmaxCE with every class weighing 1.
func SoftmaxCE(logits *Mat, labels []int) (float64, *Mat) {
	return WeightedSoftmaxCE(logits, labels, nil)
}

// WeightedSoftmaxCE is SoftmaxCE with a per-class weight (for the heavily
// imbalanced node-classification task: most QTIG nodes are negative).
// Classes past the end of classWeight weigh 1.
func WeightedSoftmaxCE(logits *Mat, labels []int, classWeight []float64) (float64, *Mat) {
	d := NewMat(logits.R, logits.C)
	return WeightedSoftmaxCEInto(d, logits, labels, classWeight), d
}

// WeightedSoftmaxCEInto is WeightedSoftmaxCE writing dLogits into d (the
// shape of logits) and returning the loss.
func WeightedSoftmaxCEInto(d, logits *Mat, labels []int, classWeight []float64) float64 {
	if d.R != logits.R || d.C != logits.C {
		panic("nn: WeightedSoftmaxCEInto shape mismatch")
	}
	copy(d.D, logits.D)
	SoftmaxRow(d) // d holds the probabilities until each row is turned into its gradient
	loss, wsum := 0.0, 0.0
	for i := 0; i < d.R; i++ {
		row := d.Row(i)
		y := labels[i]
		if y < 0 {
			clear(row)
			continue
		}
		w := 1.0
		if y < len(classWeight) {
			w = classWeight[y]
		}
		wsum += w
		p := row[y]
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= w * math.Log(p)
		for j := range row {
			row[j] *= w
		}
		row[y] -= w
	}
	if wsum == 0 {
		return 0
	}
	inv := 1 / wsum
	d.Scale(inv)
	return loss * inv
}
