package ann

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// shardSamples is the fixed gradient-shard width: every RPROP epoch sums
// per-sample gradients within ceil(len/shardSamples) shards and combines
// the shard buffers with a fixed-order tree reduction. Because the shard
// structure depends only on the dataset length — never on the worker
// count — the floating-point summation order, and therefore the trained
// weights, are byte-identical at any TrainOptions.Jobs value.
const shardSamples = 16

// TrainOptions tune Train, which runs batch iRPROP- (FANN's default
// training algorithm).
type TrainOptions struct {
	// MaxEpochs bounds training. Default 5000.
	MaxEpochs int
	// DesiredError is the MSE stopping error (the paper uses 0.0001 for
	// its best-performing configurations, 0.01 for the coarse ones).
	DesiredError float64
	// Jobs caps the worker goroutines used for the batch-gradient
	// epochs; <= 0 means GOMAXPROCS. Trained weights are byte-identical
	// at any Jobs value — see shardSamples.
	Jobs int
}

func (o *TrainOptions) fillDefaults() {
	if o.MaxEpochs <= 0 {
		o.MaxEpochs = 5000
	}
	if o.DesiredError <= 0 {
		o.DesiredError = 1e-4
	}
	if o.Jobs <= 0 {
		o.Jobs = runtime.GOMAXPROCS(0)
	}
}

// TrainResult reports a training run.
type TrainResult struct {
	Epochs    int
	MSE       float64
	Converged bool // reached DesiredError before MaxEpochs
}

// Train fits the network to ds.
func (n *Network) Train(ds *Dataset, opts TrainOptions) (TrainResult, error) {
	opts.fillDefaults()
	if err := n.checkBatch(ds.Inputs, ds.Targets); err != nil {
		return TrainResult{}, err
	}
	n.ensureTrainScratch()
	var res TrainResult
	for epoch := 1; epoch <= opts.MaxEpochs; epoch++ {
		mse := n.epochRPROP(ds, opts.Jobs)
		res.Epochs = epoch
		res.MSE = mse
		if mse <= opts.DesiredError {
			res.Converged = true
			return res, nil
		}
	}
	return res, nil
}

// trainScratch is one worker's private forward/backward state.
type trainScratch struct {
	acts   []float64 // laid out like Network.acts
	deltas []float64
}

func (n *Network) newScratch() trainScratch {
	return trainScratch{
		acts:   make([]float64, len(n.acts)),
		deltas: make([]float64, len(n.acts)),
	}
}

func (n *Network) ensureTrainScratch() {
	if n.deltas != nil {
		return
	}
	n.deltas = make([]float64, len(n.acts))
	n.grads = make([]float64, len(n.weights))
	n.prevG = make([]float64, len(n.weights))
	n.stepSz = make([]float64, len(n.weights))
	for i := range n.stepSz {
		n.stepSz[i] = 0.1 // RPROP delta0
	}
}

// ensureShards sizes the per-shard gradient buffers and per-worker
// scratch for a dataset of the given shard count.
func (n *Network) ensureShards(shards, workers int) {
	for len(n.shardGrads) < shards {
		n.shardGrads = append(n.shardGrads, make([]float64, len(n.weights)))
	}
	if len(n.shardSSE) < shards {
		n.shardSSE = make([]float64, shards)
	}
	for len(n.workers) < workers {
		n.workers = append(n.workers, n.newScratch())
	}
}

// backprop runs one forward+backward pass for a single sample,
// accumulating its gradient into grads (laid out like n.weights), and
// returns the sample's summed squared error. sc supplies the activation
// and delta scratch so concurrent shard workers share nothing mutable.
func (n *Network) backprop(sc trainScratch, grads []float64, input, target []float64) float64 {
	out := n.forward(sc.acts, input)
	last := len(n.layers) - 1
	dLast := sc.deltas[n.aoff[last] : n.aoff[last]+n.layers[last]]
	var sse float64
	for o, v := range out {
		err := target[o] - v
		sse += err * err
		// dE/dnet with sigmoid derivative (steepness-scaled).
		dLast[o] = err * 2 * n.steepness * v * (1 - v)
	}
	for l := last - 1; l >= 1; l-- {
		inN, outN := n.layers[l], n.layers[l+1]
		rl := inN + 1
		w := n.weights[n.woff[l]:n.woff[l+1]]
		dl := sc.deltas[n.aoff[l] : n.aoff[l]+inN]
		dl1 := sc.deltas[n.aoff[l+1] : n.aoff[l+1]+outN]
		al := sc.acts[n.aoff[l] : n.aoff[l]+inN]
		// Accumulate over output neurons in ascending order — the same
		// per-element summation order as the historical column-major
		// loop, but streaming each weight row once.
		clear(dl)
		for o, d := range dl1 {
			row := w[o*rl : o*rl+inN]
			for i, wv := range row {
				dl[i] += d * wv
			}
		}
		for i, v := range al {
			dl[i] = dl[i] * 2 * n.steepness * v * (1 - v)
		}
	}
	for l := 0; l < len(n.layers)-1; l++ {
		inN, outN := n.layers[l], n.layers[l+1]
		rl := inN + 1
		g := grads[n.woff[l]:n.woff[l+1]]
		al := sc.acts[n.aoff[l] : n.aoff[l]+inN]
		dl1 := sc.deltas[n.aoff[l+1] : n.aoff[l+1]+outN]
		for o, d := range dl1 {
			row := g[o*rl : o*rl+rl : o*rl+rl]
			for i, v := range al {
				row[i] += d * v
			}
			row[inN] += d // bias
		}
	}
	return sse
}

// epochGradient computes one epoch's summed gradient and SSE over ds.
// Samples are grouped into fixed-width shards; each shard accumulates its
// samples in order into its own buffer (workers claim shards dynamically,
// but a shard's content does not depend on who computed it), and the
// shard buffers are combined by a fixed-order pairwise tree reduction.
// The returned slice is reused across epochs.
func (n *Network) epochGradient(ds *Dataset, jobs int) ([]float64, float64) {
	nSamples := ds.Len()
	shards := (nSamples + shardSamples - 1) / shardSamples
	if shards == 1 {
		clear(n.grads)
		sc := trainScratch{acts: n.acts, deltas: n.deltas}
		var sse float64
		for s := range ds.Inputs {
			sse += n.backprop(sc, n.grads, ds.Inputs[s], ds.Targets[s])
		}
		return n.grads, sse
	}
	workers := min(jobs, shards)
	n.ensureShards(shards, workers)
	runShard := func(sc trainScratch, j int) {
		g := n.shardGrads[j]
		clear(g)
		hi := min((j+1)*shardSamples, nSamples)
		var sse float64
		for s := j * shardSamples; s < hi; s++ {
			sse += n.backprop(sc, g, ds.Inputs[s], ds.Targets[s])
		}
		n.shardSSE[j] = sse
	}
	if workers <= 1 {
		sc := trainScratch{acts: n.acts, deltas: n.deltas}
		for j := 0; j < shards; j++ {
			runShard(sc, j)
		}
	} else {
		var next atomic.Int64
		next.Store(-1)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			sc := n.workers[w]
			go func() {
				defer wg.Done()
				for {
					j := int(next.Add(1))
					if j >= shards {
						return
					}
					runShard(sc, j)
				}
			}()
		}
		wg.Wait()
	}
	// Fixed-order pairwise tree reduction into shard 0.
	for stride := 1; stride < shards; stride *= 2 {
		for i := 0; i+stride < shards; i += 2 * stride {
			dst, src := n.shardGrads[i], n.shardGrads[i+stride]
			for k := range dst {
				dst[k] += src[k]
			}
			n.shardSSE[i] += n.shardSSE[i+stride]
		}
	}
	return n.shardGrads[0], n.shardSSE[0]
}

func (n *Network) epochRPROP(ds *Dataset, jobs int) float64 {
	g, sse := n.epochGradient(ds, jobs)
	const (
		etaPlus  = 1.2
		etaMinus = 0.5
		deltaMax = 50.0
		deltaMin = 1e-6
	)
	w, pg, st := n.weights, n.prevG, n.stepSz
	for i := range w {
		sign := g[i] * pg[i]
		switch {
		case sign > 0:
			st[i] = math.Min(st[i]*etaPlus, deltaMax)
			w[i] += sgn(g[i]) * st[i]
			pg[i] = g[i]
		case sign < 0:
			st[i] = math.Max(st[i]*etaMinus, deltaMin)
			pg[i] = 0 // iRPROP-: skip update after a sign flip
		default:
			w[i] += sgn(g[i]) * st[i]
			pg[i] = g[i]
		}
	}
	return sse / float64(ds.Len()*n.layers[len(n.layers)-1])
}

func sgn(x float64) float64 {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	}
	return 0
}
