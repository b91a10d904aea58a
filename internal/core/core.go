// Package core is ADAMANT itself — the ADAptive Middleware And Network
// Transports controller that ties the repository together. At startup it
// (1) probes the cloud environment's computing and networking resources,
// (2) combines them with the application's parameters (receiver count,
// data rate, the QoS metric that matters) into a feature vector,
// (3) asks a Selector — normally the trained artificial neural network —
// for the transport protocol that best serves those resources, and
// (4) configures the DDS middleware with that protocol.
//
// The paper's headline property lives here: because the ANN query is one
// fixed-size forward pass, Decide runs in bounded, sub-10-microsecond time
// regardless of environment, unlike reinforcement-learning configurators
// whose decision time is unbounded.
package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"adamant/internal/ann"
	"adamant/internal/dds"
	"adamant/internal/netem"
	"adamant/internal/probe"
	"adamant/internal/transport"
	"adamant/internal/transport/fountcast"
	"adamant/internal/transport/nakcast"
	"adamant/internal/transport/ricochet"
)

// Metric selects which composite QoS metric the application optimizes.
type Metric int

// Metrics of interest (the paper trains on both, as an input feature).
const (
	// MetricReLate2 optimizes reliability x average latency.
	MetricReLate2 Metric = iota
	// MetricReLate2Jit additionally weights jitter.
	MetricReLate2Jit
)

// String implements fmt.Stringer.
func (m Metric) String() string {
	switch m {
	case MetricReLate2:
		return "ReLate2"
	case MetricReLate2Jit:
		return "ReLate2Jit"
	}
	return fmt.Sprintf("Metric(%d)", int(m))
}

// Metrics returns both composite metrics in stable order.
func Metrics() []Metric { return []Metric{MetricReLate2, MetricReLate2Jit} }

// candidates is the fixed selection space, built once; candidateParams
// holds each candidate's params as key/value pairs, in candidates order.
// Both back the decision hot path, which must not allocate.
var (
	candidates = []transport.Spec{
		nakcast.Spec(50 * time.Millisecond),
		nakcast.Spec(25 * time.Millisecond),
		nakcast.Spec(10 * time.Millisecond),
		nakcast.Spec(1 * time.Millisecond),
		ricochet.Spec(4, 3),
		ricochet.Spec(8, 3),
		fountcast.Spec(fountcast.DefaultK, fountcast.DefaultOverheadPct),
	}
	candidateParams = func() [][][2]string {
		ps := make([][][2]string, len(candidates))
		for i, c := range candidates {
			for k, v := range c.Params {
				ps[i] = append(ps[i], [2]string{k, v})
			}
		}
		return ps
	}()
)

// Candidates is the protocol configuration space ADAMANT selects from —
// the six configurations the paper's experiments sweep (NAKcast with
// 50/25/10/1 ms NAK timeouts, Ricochet with R=4,C=3 and R=8,C=3) plus the
// rateless fountain code at its default K=8 block and 25% repair budget.
// New candidates are appended so trained-model indices stay stable.
func Candidates() []transport.Spec {
	return append([]transport.Spec(nil), candidates...)
}

// NumCandidates is the size of the selection space (the ANN output width).
const NumCandidates = 7

// CandidateIndex returns the index of spec within Candidates: the
// candidate with spec's name and exactly spec's params, whichever map
// instance holds them. It looks each of the candidate's precomputed pairs
// up in spec.Params and allocates nothing.
func CandidateIndex(spec transport.Spec) (int, error) {
	for i, ps := range candidateParams {
		if candidates[i].Name == spec.Name && len(ps) == len(spec.Params) && hasParams(spec.Params, ps) {
			return i, nil
		}
	}
	return 0, fmt.Errorf("core: %s is not a candidate protocol", spec)
}

func hasParams(p transport.Params, kvs [][2]string) bool {
	for _, kv := range kvs {
		if v, ok := p[kv[0]]; !ok || v != kv[1] {
			return false
		}
	}
	return true
}

// Features is the environment + application description fed to a Selector:
// the paper's Table 1 (machine type, network bandwidth, DDS implementation,
// percent loss) and Table 2 (receiver count, sending rate) variables plus
// the metric of interest.
type Features struct {
	MachineMHz    float64
	BandwidthMbps float64
	Impl          dds.Impl
	LossPct       float64
	Receivers     int
	RateHz        float64
	Metric        Metric
	// OverheadPct is the proactive-FEC bandwidth budget the application
	// grants (percent of source bytes spendable on repair traffic); it is
	// what makes the fountain-coded candidate comparable at a fixed cost.
	OverheadPct float64
}

// NumInputs is the ANN input width produced by Vector.
const NumInputs = 10

// Vector encodes the features as normalized ANN inputs in [0, ~1.2]:
// CPU MHz (/3000), log10 bandwidth (/3 from Mbps), one-hot implementation,
// loss (/5), receivers (/15), rate (/100), one-hot metric, FEC overhead
// budget (/100).
func (f Features) Vector() []float64 {
	return f.AppendVector(make([]float64, 0, NumInputs))
}

// AppendVector appends the Vector encoding to dst and returns the extended
// slice. Callers on the decision hot path pass a reused buffer (dst[:0]) so
// encoding does not allocate.
func (f Features) AppendVector(dst []float64) []float64 {
	n := len(dst)
	dst = append(dst, make([]float64, NumInputs)...)
	v := dst[n : n+NumInputs]
	v[0] = f.MachineMHz / 3000
	if f.BandwidthMbps > 0 {
		v[1] = math.Log10(f.BandwidthMbps) / 3
	}
	if f.Impl == dds.ImplA {
		v[2] = 1
	} else {
		v[3] = 1
	}
	v[4] = f.LossPct / 5
	v[5] = float64(f.Receivers) / 15
	v[6] = f.RateHz / 100
	if f.Metric == MetricReLate2 {
		v[7] = 1
	} else {
		v[8] = 1
	}
	v[9] = f.OverheadPct / 100
	return dst
}

// Key returns a canonical string identity for exact-match lookup (the
// TableSelector / manual-configuration baseline).
func (f Features) Key() string {
	return fmt.Sprintf("%gMHz|%gMbps|%s|%g%%|%d|%gHz|%s|oh%g",
		f.MachineMHz, f.BandwidthMbps, f.Impl, f.LossPct, f.Receivers, f.RateHz, f.Metric,
		f.OverheadPct)
}

// String implements fmt.Stringer.
func (f Features) String() string { return f.Key() }

// Selector chooses a transport protocol for an environment.
type Selector interface {
	Select(f Features) (transport.Spec, error)
}

// ANNSelector queries a trained neural network — ADAMANT's production
// selector, with constant-time decisions and generalization to
// environments unknown until runtime.
type ANNSelector struct {
	net *ann.Network
	// buf is the reused input-encoding buffer; Select runs in env callback
	// context (serial), so no synchronization is needed.
	buf []float64
}

var _ Selector = (*ANNSelector)(nil)

// NewANNSelector wraps a trained network; its input/output widths must
// match NumInputs/NumCandidates.
func NewANNSelector(net *ann.Network) (*ANNSelector, error) {
	if net == nil {
		return nil, errors.New("core: nil network")
	}
	layers := net.Layers()
	if layers[0] != NumInputs || layers[len(layers)-1] != NumCandidates {
		return nil, fmt.Errorf("core: network shape %v, want %d inputs and %d outputs",
			layers, NumInputs, NumCandidates)
	}
	return &ANNSelector{net: net}, nil
}

// Select implements Selector. After the first call it does not allocate:
// the input encoding reuses an internal buffer and the result is served
// from the fixed candidate set.
func (s *ANNSelector) Select(f Features) (transport.Spec, error) {
	s.buf = f.AppendVector(s.buf[:0])
	idx, err := s.net.Classify(s.buf)
	if err != nil {
		return transport.Spec{}, err
	}
	return candidates[idx], nil
}

// TableSelector is the manual-configuration baseline the paper contrasts
// with: an exact-match lookup table (the programmatic equivalent of a
// hand-written switch statement). It cannot answer for environments it has
// not seen — the development-complexity and brittleness argument for the
// ANN.
type TableSelector struct {
	table map[string]transport.Spec
}

var _ Selector = (*TableSelector)(nil)

// NewTableSelector builds an empty table.
func NewTableSelector() *TableSelector {
	return &TableSelector{table: make(map[string]transport.Spec)}
}

// Put records the best protocol for an exact environment.
func (s *TableSelector) Put(f Features, spec transport.Spec) { s.table[f.Key()] = spec }

// Len returns the number of table entries.
func (s *TableSelector) Len() int { return len(s.table) }

// ErrUnknownEnvironment is returned by TableSelector for environments not
// in the table.
var ErrUnknownEnvironment = errors.New("core: environment not in configuration table")

// Select implements Selector.
func (s *TableSelector) Select(f Features) (transport.Spec, error) {
	spec, ok := s.table[f.Key()]
	if !ok {
		return transport.Spec{}, fmt.Errorf("%w: %s", ErrUnknownEnvironment, f.Key())
	}
	return spec, nil
}

// HybridSelector answers from the exact table when possible (100% accuracy
// for environments known a priori) and falls back to the ANN for
// environments unknown until runtime — the deployment configuration the
// paper's accuracy figures describe.
type HybridSelector struct {
	Table *TableSelector
	ANN   *ANNSelector
}

var _ Selector = (*HybridSelector)(nil)

// Select implements Selector.
func (s *HybridSelector) Select(f Features) (transport.Spec, error) {
	if s.Table != nil {
		if spec, err := s.Table.Select(f); err == nil {
			return spec, nil
		}
	}
	if s.ANN == nil {
		return transport.Spec{}, errors.New("core: hybrid selector has no ANN fallback")
	}
	return s.ANN.Select(f)
}

// AppParams are the application-side inputs the controller combines with
// the probed environment.
type AppParams struct {
	Receivers int
	RateHz    float64
	LossPct   float64 // expected end-host loss (e.g. from the cloud SLA)
	Impl      dds.Impl
	Metric    Metric
	// OverheadPct is the proactive-FEC bandwidth budget in percent;
	// 0 means the default fountain-code budget.
	OverheadPct float64
}

// overheadOrDefault maps an unset (zero) overhead budget to the fountain
// code's default repair rate so existing callers keep a sensible feature.
func overheadOrDefault(oh float64) float64 {
	if oh <= 0 {
		return fountcast.DefaultOverheadPct
	}
	return oh
}

// Controller is the ADAMANT startup configurator.
type Controller struct {
	source   probe.Source
	selector Selector
	params   AppParams
}

// NewController assembles a controller.
func NewController(source probe.Source, selector Selector, params AppParams) (*Controller, error) {
	if source == nil {
		return nil, errors.New("core: nil probe source")
	}
	if selector == nil {
		return nil, errors.New("core: nil selector")
	}
	if params.Receivers <= 0 || params.RateHz <= 0 {
		return nil, errors.New("core: app params need positive receivers and rate")
	}
	return &Controller{source: source, selector: selector, params: params}, nil
}

// Decision is the controller's output: the features it derived, the chosen
// protocol, and how long each stage took.
type Decision struct {
	Info       probe.Info
	Features   Features
	Spec       transport.Spec
	ProbeTime  time.Duration
	SelectTime time.Duration
}

// Decide probes the environment and selects a transport protocol.
func (c *Controller) Decide() (Decision, error) {
	var d Decision
	t0 := time.Now()
	info, err := c.source.Probe()
	if err != nil {
		return d, fmt.Errorf("core: probing environment: %w", err)
	}
	d.ProbeTime = time.Since(t0)
	d.Info = info

	machine := probe.NearestMachine(info)
	bw := probe.NearestBandwidth(info)
	d.Features = Features{
		MachineMHz:    float64(machine.MHz),
		BandwidthMbps: float64(int64(bw)) / 1e6,
		Impl:          c.params.Impl,
		LossPct:       c.params.LossPct,
		Receivers:     c.params.Receivers,
		RateHz:        c.params.RateHz,
		Metric:        c.params.Metric,
		OverheadPct:   overheadOrDefault(c.params.OverheadPct),
	}
	t1 := time.Now()
	spec, err := c.selector.Select(d.Features)
	if err != nil {
		return d, fmt.Errorf("core: selecting protocol: %w", err)
	}
	d.SelectTime = time.Since(t1)
	d.Spec = spec
	return d, nil
}

// FeaturesFor assembles Features directly from a known environment —
// used by the experiment harness and examples when the environment is
// simulated rather than probed.
func FeaturesFor(m netem.Machine, bw netem.Bandwidth, impl dds.Impl,
	lossPct float64, receivers int, rateHz float64, metric Metric) Features {
	return Features{
		MachineMHz:    float64(m.MHz),
		BandwidthMbps: float64(int64(bw)) / 1e6,
		Impl:          impl,
		LossPct:       lossPct,
		Receivers:     receivers,
		RateHz:        rateHz,
		Metric:        metric,
		OverheadPct:   overheadOrDefault(0),
	}
}
