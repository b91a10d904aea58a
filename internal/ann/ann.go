// Package ann implements a small feed-forward artificial neural network in
// the style of the FANN library the paper uses as ADAMANT's supervised-
// learning knowledge base: fully connected layers, sigmoid activations with
// configurable steepness, batch iRPROP- training with an MSE stopping
// error, a text save/load format, and k-fold cross-validation helpers.
//
// Querying a trained network is a single forward pass over a fixed set of
// connections — constant time, no allocation — which is what gives ADAMANT
// its bounded (sub-10-microsecond) configuration decisions.
//
// Internally every per-connection array (weights, gradients, RPROP state)
// lives in one contiguous backing slice, laid out as one [input weights,
// bias] row per output neuron so the forward pass walks memory linearly;
// one layer kernel, dense, serves Run, Accuracy and training.
// The text save format and seeded weight initialization keep the package's
// historical [in][out] column order, so saved models and seeds remain
// bit-compatible with earlier versions; see DESIGN.md ("ANN fast path").
package ann

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
)

// Size limits enforced by Validate (and therefore by Load): they keep a
// malformed or hostile saved model from driving make() into a runtime
// panic while allowing networks orders of magnitude larger than the
// shipped 10-24-7 configurator (data/adamant.ann).
const (
	maxLayerNeurons = 1 << 16
	maxConnections  = 1 << 24
)

// Config describes a network shape.
type Config struct {
	// Layers gives the neuron count per layer, input first, output last.
	// Must have at least two layers.
	Layers []int
	// Steepness is the sigmoid steepness (FANN default 0.5).
	Steepness float64
	// Seed drives deterministic weight initialization.
	Seed int64
}

func (c *Config) fillDefaults() {
	if c.Steepness == 0 {
		c.Steepness = 0.5
	}
}

// Validate reports config errors.
func (c Config) Validate() error {
	if len(c.Layers) < 2 {
		return errors.New("ann: need at least input and output layers")
	}
	for i, n := range c.Layers {
		if n <= 0 {
			return fmt.Errorf("ann: layer %d has %d neurons", i, n)
		}
		if n > maxLayerNeurons {
			return fmt.Errorf("ann: layer %d has %d neurons (max %d)", i, n, maxLayerNeurons)
		}
	}
	var total int64
	for l := 0; l < len(c.Layers)-1; l++ {
		total += int64(c.Layers[l]+1) * int64(c.Layers[l+1])
		if total > maxConnections {
			return fmt.Errorf("ann: network exceeds %d connections", maxConnections)
		}
	}
	if c.Steepness < 0 || math.IsNaN(c.Steepness) || math.IsInf(c.Steepness, 0) {
		return errors.New("ann: invalid steepness")
	}
	return nil
}

// Network is a fully connected feed-forward net. Create with New or Load.
// A Network is not safe for concurrent use (Train coordinates its own
// internal workers; see TrainOptions.Jobs).
type Network struct {
	layers    []int
	steepness float64

	// weights holds every connection in one contiguous array. Layer l's
	// block spans woff[l]:woff[l+1] and contains layers[l+1] rows of
	// layers[l]+1 values each: output neuron o's input weights in input
	// order, then its bias, so Run streams both the row and the input
	// activations sequentially.
	weights []float64
	woff    []int

	// acts is the forward-pass scratch, all layers in one array; layer l
	// spans aoff[l]:aoff[l]+layers[l]. Reused across Run and Accuracy calls.
	acts []float64
	aoff []int

	// Training scratch (allocated lazily by ensureTrainScratch). deltas
	// mirrors acts; grads/prevG/stepSz mirror weights.
	deltas []float64
	grads  []float64
	prevG  []float64
	stepSz []float64

	// Parallel-gradient state (see epochGradient): per-shard gradient
	// buffers, per-shard SSE, and per-worker forward/backward scratch.
	shardGrads [][]float64
	shardSSE   []float64
	workers    []trainScratch
}

// New builds a network with random weights in [-0.1, 0.1] (FANN-style
// randomization range).
func New(cfg Config) (*Network, error) {
	n, err := alloc(cfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for l := 0; l < len(n.layers)-1; l++ {
		inN, outN := n.layers[l], n.layers[l+1]
		base, rl := n.woff[l], inN+1
		// Draw in the historical [in][out] order so a given seed yields
		// exactly the weights it always has.
		for k := 0; k < rl*outN; k++ {
			n.weights[base+oldOrderIndex(k, inN, outN)] = (rng.Float64()*2 - 1) * 0.1
		}
	}
	return n, nil
}

// alloc validates cfg and builds a network of its shape with zero weights:
// the offsets, the weight array and the activation scratch. New fills the
// weights from its seed, Load from the file.
func alloc(cfg Config) (*Network, error) {
	cfg.fillDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &Network{
		layers:    append([]int(nil), cfg.Layers...),
		steepness: cfg.Steepness,
	}
	n.woff = make([]int, len(n.layers))
	total := 0
	for l := 0; l < len(n.layers)-1; l++ {
		n.woff[l] = total
		total += (n.layers[l] + 1) * n.layers[l+1]
	}
	n.woff[len(n.layers)-1] = total
	n.weights = make([]float64, total)
	n.aoff = make([]int, len(n.layers))
	total = 0
	for i, sz := range n.layers {
		n.aoff[i] = total
		total += sz
	}
	n.acts = make([]float64, total)
	return n, nil
}

// Layers returns a copy of the layer sizes.
func (n *Network) Layers() []int { return append([]int(nil), n.layers...) }

// NumConnections returns the total connection count including biases.
func (n *Network) NumConnections() int { return n.woff[len(n.layers)-1] }

// sigmoid is 1/(1+e^t) with t = -2·steepness·x. Where that rounds to
// exactly 1 or 0 it returns the constant without calling math.Exp: for
// t < -40, e^t < 4.3e-18 is below half an ulp of 1 (2^-53), so 1+e^t
// rounds to 1; for t > 710, math.Exp overflows to +Inf (above ~709.78) and
// 1/(1+Inf) is 0. NaN fails both tests and takes the formula.
func (n *Network) sigmoid(x float64) float64 {
	t := -2 * n.steepness * x
	if t < -40 {
		return 1
	}
	if t > 710 {
		return 0
	}
	return 1 / (1 + math.Exp(t))
}

// dense computes one layer, out[o] = sigmoid(row_o · in + bias_o), where w
// holds one [input weights, bias] row per output. It runs four rows per
// pass over in, so four independent addition chains overlap, yet each row
// still performs the same additions in the same order as every earlier
// version of this package: bias first, then the inputs in ascending order.
func (n *Network) dense(in, out, w []float64) {
	inN, rl := len(in), len(in)+1
	o := 0
	for ; o+4 <= len(out); o += 4 {
		b0, b1, b2, b3 := o*rl, (o+1)*rl, (o+2)*rl, (o+3)*rl
		r0, r1, r2, r3 := w[b0:b0+rl:b0+rl], w[b1:b1+rl:b1+rl], w[b2:b2+rl:b2+rl], w[b3:b3+rl:b3+rl]
		s0, s1, s2, s3 := r0[inN], r1[inN], r2[inN], r3[inN] // biases
		for i, v := range in {
			s0 += v * r0[i]
			s1 += v * r1[i]
			s2 += v * r2[i]
			s3 += v * r3[i]
		}
		q := out[o : o+4 : o+4]
		q[0], q[1], q[2], q[3] = n.sigmoid(s0), n.sigmoid(s1), n.sigmoid(s2), n.sigmoid(s3)
	}
	for ; o < len(out); o++ {
		row := w[o*rl : o*rl+rl : o*rl+rl]
		sum := row[inN] // bias
		for i, v := range in {
			sum += v * row[i]
		}
		out[o] = n.sigmoid(sum)
	}
}

// forward computes the forward pass into the given activation scratch
// (laid out like n.acts) and returns the output-layer slice.
func (n *Network) forward(acts []float64, input []float64) []float64 {
	copy(acts[:n.layers[0]], input)
	for l := 0; l < len(n.layers)-1; l++ {
		n.dense(acts[n.aoff[l]:n.aoff[l]+n.layers[l]], acts[n.aoff[l+1]:n.aoff[l+1]+n.layers[l+1]],
			n.weights[n.woff[l]:n.woff[l+1]])
	}
	return acts[n.aoff[len(n.layers)-1]:]
}

// Run computes the forward pass. The returned slice aliases internal
// scratch and is valid until the next Run/Accuracy/Train call; copy to retain.
func (n *Network) Run(input []float64) ([]float64, error) {
	if len(input) != n.layers[0] {
		return nil, fmt.Errorf("ann: input size %d, want %d", len(input), n.layers[0])
	}
	return n.forward(n.acts, input), nil
}

// Classify runs the input and returns the argmax output index.
func (n *Network) Classify(input []float64) (int, error) {
	out, err := n.Run(input)
	if err != nil {
		return 0, err
	}
	return argmax(out), nil
}

func argmax(xs []float64) int {
	best := 0
	for i, v := range xs {
		if v > xs[best] {
			best = i
		}
	}
	return best
}

// checkBatch validates a dataset's shape: at least one sample, one target
// per input, and every vector as wide as its layer.
func (n *Network) checkBatch(inputs, targets [][]float64) error {
	if len(inputs) == 0 {
		return errors.New("ann: empty dataset")
	}
	if len(targets) != len(inputs) {
		return fmt.Errorf("ann: %d inputs but %d targets", len(inputs), len(targets))
	}
	outN := n.layers[len(n.layers)-1]
	for i, in := range inputs {
		if len(in) != n.layers[0] {
			return fmt.Errorf("ann: input %d size %d, want %d", i, len(in), n.layers[0])
		}
		if len(targets[i]) != outN {
			return fmt.Errorf("ann: target %d size %d, want %d", i, len(targets[i]), outN)
		}
	}
	return nil
}

// Accuracy returns the fraction of samples whose Classify matches the
// target argmax: one forward pass per sample, in sample order.
func (n *Network) Accuracy(ds *Dataset) (float64, error) {
	if err := n.checkBatch(ds.Inputs, ds.Targets); err != nil {
		return 0, err
	}
	correct := 0
	for s, in := range ds.Inputs {
		if argmax(n.forward(n.acts, in)) == argmax(ds.Targets[s]) {
			correct++
		}
	}
	return float64(correct) / float64(len(ds.Inputs)), nil
}

// Dataset is a supervised training set.
type Dataset struct {
	Inputs  [][]float64
	Targets [][]float64
}

// Add appends one sample. Input and target are copied together into a
// single backing allocation.
func (d *Dataset) Add(input, target []float64) {
	buf := make([]float64, len(input)+len(target))
	in := buf[:len(input):len(input)]
	tg := buf[len(input):]
	copy(in, input)
	copy(tg, target)
	d.Inputs = append(d.Inputs, in)
	d.Targets = append(d.Targets, tg)
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Inputs) }

// Subset returns the dataset restricted to the given sample indices
// (sharing storage).
func (d *Dataset) Subset(idx []int) *Dataset {
	s := &Dataset{
		Inputs:  make([][]float64, len(idx)),
		Targets: make([][]float64, len(idx)),
	}
	for i, j := range idx {
		s.Inputs[i] = d.Inputs[j]
		s.Targets[i] = d.Targets[j]
	}
	return s
}

// OneHot builds a one-hot target vector of the given width.
func OneHot(width, class int) []float64 {
	t := make([]float64, width)
	if class >= 0 && class < width {
		t[class] = 1
	}
	return t
}

// oldOrderIndex maps index k of the historical [in][out] column-major
// weight layout (bias row last) onto the flat [out][in+bias] row layout,
// for a layer with inN inputs and outN outputs. Save, Load, and New use
// it so the text format and seeded initialization never change.
func oldOrderIndex(k, inN, outN int) int {
	return (k%outN)*(inN+1) + k/outN
}

// Save writes the network in the text format read by Load.
func (n *Network) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "ADAMANT-ANN 1\n")
	fmt.Fprintf(bw, "steepness %s\n", strconv.FormatFloat(n.steepness, 'g', -1, 64))
	fmt.Fprintf(bw, "layers")
	for _, sz := range n.layers {
		fmt.Fprintf(bw, " %d", sz)
	}
	fmt.Fprintln(bw)
	for l := 0; l < len(n.layers)-1; l++ {
		inN, outN := n.layers[l], n.layers[l+1]
		base := n.woff[l]
		fmt.Fprintf(bw, "weights %d", l)
		for k := 0; k < (inN+1)*outN; k++ {
			v := n.weights[base+oldOrderIndex(k, inN, outN)]
			fmt.Fprintf(bw, " %s", strconv.FormatFloat(v, 'g', -1, 64))
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// SaveFile writes the network to path.
func (n *Network) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := n.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a network saved by Save. Malformed input returns an error
// (never panics); shape limits are enforced by Config.Validate before any
// large allocation happens.
func Load(r io.Reader) (*Network, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 16*1024*1024) // grows from 4 KiB as lines demand
	line := func() (string, error) {
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return "", err
			}
			return "", io.ErrUnexpectedEOF
		}
		return sc.Text(), nil
	}
	hdr, err := line()
	if err != nil {
		return nil, err
	}
	if !strings.HasPrefix(hdr, "ADAMANT-ANN 1") {
		return nil, fmt.Errorf("ann: bad header %q", hdr)
	}
	stLine, err := line()
	if err != nil {
		return nil, err
	}
	var steep float64
	if _, err := fmt.Sscanf(stLine, "steepness %g", &steep); err != nil {
		return nil, fmt.Errorf("ann: bad steepness line %q: %w", stLine, err)
	}
	lyLine, err := line()
	if err != nil {
		return nil, err
	}
	fields := strings.Fields(lyLine)
	if len(fields) < 3 || fields[0] != "layers" {
		return nil, fmt.Errorf("ann: bad layers line %q", lyLine)
	}
	layers := make([]int, 0, len(fields)-1)
	for _, f := range fields[1:] {
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("ann: bad layer size %q: %w", f, err)
		}
		layers = append(layers, v)
	}
	n, err := alloc(Config{Layers: layers, Steepness: steep})
	if err != nil {
		return nil, err
	}
	for l := 0; l < len(layers)-1; l++ {
		wl, err := line()
		if err != nil {
			return nil, err
		}
		fields := strings.Fields(wl)
		inN, outN := layers[l], layers[l+1]
		want := (inN+1)*outN + 2
		if len(fields) != want || fields[0] != "weights" || fields[1] != strconv.Itoa(l) {
			return nil, fmt.Errorf("ann: bad weights line for layer %d (%d fields, want %d)",
				l, len(fields), want)
		}
		base := n.woff[l]
		for k, f := range fields[2:] {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("ann: bad weight %q: %w", f, err)
			}
			n.weights[base+oldOrderIndex(k, inN, outN)] = v
		}
	}
	return n, nil
}

// LoadFile reads a network from path.
func LoadFile(path string) (*Network, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
