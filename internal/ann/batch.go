package ann

import (
	"errors"
	"fmt"
)

// batchTile bounds how many samples the batch kernels stage through the
// activation slab at once: large enough to amortize each weight row over
// many samples, small enough that the slab stays cache-resident.
const batchTile = 32

// runTiled runs the forward pass for every input in tiles of up to
// batchTile samples and invokes emit with each sample's index and output
// slice (valid only during the callback). Inputs must be pre-validated.
// Staging a whole tile through one activation slab amortizes validation,
// slice setup, and per-call overhead across samples while keeping the
// weight matrix L1-resident for the whole tile; every sample goes through
// the same dense kernel as Run, so outputs are bit-identical to per-sample
// calls.
func (n *Network) runTiled(inputs [][]float64, emit func(sample int, out []float64)) {
	tile := min(batchTile, len(inputs))
	need := tile * len(n.acts)
	if cap(n.batch) < need {
		n.batch = make([]float64, need)
	}
	b := n.batch[:need]
	last := len(n.layers) - 1
	for start := 0; start < len(inputs); start += tile {
		cnt := min(tile, len(inputs)-start)
		in0 := b[tile*n.aoff[0]:]
		inN0 := n.layers[0]
		for s := 0; s < cnt; s++ {
			copy(in0[s*inN0:(s+1)*inN0], inputs[start+s])
		}
		for l := 0; l < last; l++ {
			inN, outN := n.layers[l], n.layers[l+1]
			w := n.weights[n.woff[l]:n.woff[l+1]]
			inB := b[tile*n.aoff[l] : tile*n.aoff[l]+cnt*inN]
			outB := b[tile*n.aoff[l+1] : tile*n.aoff[l+1]+cnt*outN]
			for s := 0; s < cnt; s++ {
				n.dense(inB[s*inN:s*inN+inN:s*inN+inN], outB[s*outN:s*outN+outN:s*outN+outN], w)
			}
		}
		outN := n.layers[last]
		outB := b[tile*n.aoff[last]:]
		for s := 0; s < cnt; s++ {
			emit(start+s, outB[s*outN:(s+1)*outN])
		}
	}
}

// checkBatch validates a batch of inputs (and, when targets is non-nil,
// their matching target vectors).
func (n *Network) checkBatch(inputs, targets [][]float64) error {
	if len(inputs) == 0 {
		return errors.New("ann: empty dataset")
	}
	if targets != nil && len(targets) != len(inputs) {
		return fmt.Errorf("ann: %d inputs but %d targets", len(inputs), len(targets))
	}
	outN := n.layers[len(n.layers)-1]
	for i, in := range inputs {
		if len(in) != n.layers[0] {
			return fmt.Errorf("ann: input %d size %d, want %d", i, len(in), n.layers[0])
		}
		if targets != nil && len(targets[i]) != outN {
			return fmt.Errorf("ann: target %d size %d, want %d", i, len(targets[i]), outN)
		}
	}
	return nil
}

// RunBatch computes the forward pass for every input and returns one
// output vector per input. Unlike Run, the results do not alias network
// scratch: all rows share one backing array allocated by the call.
// Outputs are bit-identical to calling Run on each input.
func (n *Network) RunBatch(inputs [][]float64) ([][]float64, error) {
	if err := n.checkBatch(inputs, nil); err != nil {
		return nil, err
	}
	outN := n.layers[len(n.layers)-1]
	slab := make([]float64, len(inputs)*outN)
	outs := make([][]float64, len(inputs))
	for i := range outs {
		outs[i] = slab[i*outN : (i+1)*outN : (i+1)*outN]
	}
	n.runTiled(inputs, func(s int, out []float64) {
		copy(outs[s], out)
	})
	return outs, nil
}

// ClassifyBatch writes the argmax class of every input into classes
// (whose length must match) without allocating per sample.
func (n *Network) ClassifyBatch(inputs [][]float64, classes []int) error {
	if err := n.checkBatch(inputs, nil); err != nil {
		return err
	}
	if len(classes) != len(inputs) {
		return fmt.Errorf("ann: %d inputs but %d class slots", len(inputs), len(classes))
	}
	n.runTiled(inputs, func(s int, out []float64) {
		classes[s] = argmax(out)
	})
	return nil
}

// AccuracyBatch returns the fraction of inputs whose predicted class
// matches the target argmax, using the tiled batch kernel.
func (n *Network) AccuracyBatch(inputs, targets [][]float64) (float64, error) {
	if targets == nil {
		return 0, errors.New("ann: nil targets")
	}
	if err := n.checkBatch(inputs, targets); err != nil {
		return 0, err
	}
	correct := 0
	n.runTiled(inputs, func(s int, out []float64) {
		if argmax(out) == argmax(targets[s]) {
			correct++
		}
	})
	return float64(correct) / float64(len(inputs)), nil
}

// Accuracy returns the fraction of samples whose Classify matches the
// target argmax.
func (n *Network) Accuracy(ds *Dataset) (float64, error) {
	return n.AccuracyBatch(ds.Inputs, ds.Targets)
}

// MSE returns the mean squared error over ds.
func (n *Network) MSE(ds *Dataset) (float64, error) {
	if err := n.checkBatch(ds.Inputs, ds.Targets); err != nil {
		return 0, err
	}
	var sse float64
	n.runTiled(ds.Inputs, func(s int, out []float64) {
		for o, v := range out {
			e := ds.Targets[s][o] - v
			sse += e * e
		}
	})
	return sse / float64(ds.Len()*n.layers[len(n.layers)-1]), nil
}
