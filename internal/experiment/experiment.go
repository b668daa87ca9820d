// Package experiment drives the end-to-end measurement pipeline behind every
// figure of the Butterfly paper's evaluation (§VII): stream generation →
// incremental mining → perturbation → (optionally) inference attack →
// privacy/utility metrics, averaged over a run of consecutive windows.
//
// Mining and the clean-output breach analysis depend only on the stream and
// the thresholds (C, K), not on the perturbation setting, so Precompute
// materializes them once and RunPrecomputed evaluates many (ε, δ, scheme)
// settings against the same windows — the layout every figure sweep uses.
package experiment

import (
	"fmt"
	"time"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/itemset"
	"repro/internal/lattice"
	"repro/internal/metrics"
	"repro/internal/mining"
	"repro/internal/mining/moment"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Dataset names a stream generator.
type Dataset struct {
	Name string
	Gen  func(seed uint64) *data.Generator
}

// Datasets returns the two evaluation streams: the BMS-WebView-1 and
// BMS-POS surrogates.
func Datasets() []Dataset {
	return []Dataset{
		{Name: "WebView1", Gen: data.WebViewLike},
		{Name: "POS", Gen: data.POSLike},
	}
}

// Variant names one Butterfly configuration under test.
type Variant struct {
	Name   string
	Scheme core.Scheme
}

// Variants returns the four configurations every figure compares: basic,
// order-preserving (λ=1), hybrid λ=0.4 and ratio-preserving (λ=0), with the
// given order-preserving lookback γ.
func Variants(gamma int) []Variant {
	op := core.OrderPreserving{Gamma: gamma}
	return []Variant{
		{Name: "Basic", Scheme: core.Basic{}},
		{Name: "Opt λ=1", Scheme: op},
		{Name: "Opt λ=0.4", Scheme: core.Hybrid{Lambda: 0.4, Order: op}},
		{Name: "Opt λ=0", Scheme: core.RatioPreserving{}},
	}
}

// Config describes one self-contained measurement run.
type Config struct {
	// Dataset supplies the stream.
	Dataset Dataset
	// WindowSize is the sliding window H.
	WindowSize int
	// Windows is the number of published windows measured.
	Windows int
	// Stride is the number of record slides between publications (>= 1).
	Stride int
	// Params is the Butterfly calibration (C, K, ε, δ).
	Params core.Params
	// Scheme is the bias-setting scheme under test.
	Scheme core.Scheme
	// Seed drives data generation and perturbation.
	Seed uint64
	// RatioK is the (k,1/k) tightness of rrpp; 0 means the paper's 0.95.
	RatioK float64
	// WithAttack enables the inference analysis behind avg_prig. It is the
	// expensive part; utility-only experiments leave it off.
	WithAttack bool
	// PrivacySeeds is the number of independent perturbation runs the
	// privacy metric averages over (0 means 1); see EvalOptions.
	PrivacySeeds int
}

func (c Config) withDefaults() (Config, error) {
	if c.Dataset.Gen == nil {
		return c, fmt.Errorf("experiment: no dataset")
	}
	if c.WindowSize <= 0 {
		return c, fmt.Errorf("experiment: window size %d", c.WindowSize)
	}
	if c.Windows <= 0 {
		return c, fmt.Errorf("experiment: window count %d", c.Windows)
	}
	if c.Stride == 0 {
		c.Stride = 1
	}
	if c.Stride < 0 {
		return c, fmt.Errorf("experiment: stride %d", c.Stride)
	}
	if c.RatioK == 0 {
		c.RatioK = 0.95
	}
	if c.RatioK <= 0 || c.RatioK >= 1 {
		return c, fmt.Errorf("experiment: ratio k %v outside (0,1)", c.RatioK)
	}
	return c, nil
}

// Result aggregates one run.
type Result struct {
	// AvgPred / AvgROPP / AvgRRPP are means of the per-window utility
	// metrics over all measured windows.
	AvgPred, AvgROPP, AvgRRPP float64
	// AvgPrig is the privacy guarantee pooled over every (pattern, window,
	// perturbation-seed) estimate of the lattice-derivable vulnerable
	// patterns (only with WithAttack).
	AvgPrig float64
	// PhvTotal counts inferable vulnerable patterns across all windows.
	PhvTotal int
	// PhvWindows counts windows with at least one inferable pattern.
	PhvWindows int
	// Windows is the number of windows actually measured.
	Windows int
	// MiningTime, OptTime, PerturbTime are cumulative costs of the three
	// pipeline stages (Fig. 8's Mining alg / Opt / Basic).
	MiningTime, OptTime, PerturbTime time.Duration
	// FrequentAvg is the mean number of published itemsets per window.
	FrequentAvg float64
}

// WindowData is one mined window plus its clean-output inference analysis.
type WindowData struct {
	// Mined is the window's frequent itemsets with true supports.
	Mined *mining.Result
	// Breaches are the vulnerable patterns inferable from the clean output
	// (intra-window, plus inter-window against the previous window). Empty
	// when the precompute ran without attack.
	Breaches []attack.Inference
}

// Windows is the reusable, perturbation-independent part of a run.
type Windows struct {
	Dataset     Dataset
	WindowSize  int
	Stride      int
	MinSupport  int
	VulnSupport int
	Seed        uint64
	MiningTime  time.Duration
	Data        []WindowData
}

// Precompute mines `count` consecutive windows of the dataset's stream and,
// when withAttack is set, runs the clean-output inference analysis on each.
func Precompute(ds Dataset, windowSize, count, stride, minSupport, vulnSupport int, seed uint64, withAttack bool) (*Windows, error) {
	if windowSize <= 0 || count <= 0 || stride <= 0 {
		return nil, fmt.Errorf("experiment: bad precompute shape H=%d n=%d stride=%d",
			windowSize, count, stride)
	}
	if minSupport <= vulnSupport || vulnSupport < 1 {
		return nil, fmt.Errorf("experiment: bad thresholds C=%d K=%d", minSupport, vulnSupport)
	}
	gen := ds.Gen(seed)
	miner := moment.New(windowSize, minSupport)
	atkOpts := attack.Options{VulnSupport: vulnSupport}

	w := &Windows{
		Dataset:     ds,
		WindowSize:  windowSize,
		Stride:      stride,
		MinSupport:  minSupport,
		VulnSupport: vulnSupport,
		Seed:        seed,
		Data:        make([]WindowData, 0, count),
	}

	t0 := time.Now()
	for i := 0; i < windowSize; i++ {
		miner.Push(gen.Next())
	}
	w.MiningTime += time.Since(t0)

	var prevClean *attack.View
	for i := 0; i < count; i++ {
		if i > 0 {
			t0 = time.Now()
			for s := 0; s < stride; s++ {
				miner.Push(gen.Next())
			}
			w.MiningTime += time.Since(t0)
		}
		t0 = time.Now()
		mined := miner.Frequent()
		w.MiningTime += time.Since(t0)

		wd := WindowData{Mined: mined}
		if withAttack {
			clean := resultView(mined, windowSize)
			wd.Breaches = attack.IntraWindow(clean, atkOpts)
			if prevClean != nil {
				wd.Breaches = append(wd.Breaches,
					attack.InterWindow(prevClean, clean, stride, atkOpts)...)
			}
			prevClean = clean
		}
		w.Data = append(w.Data, wd)
	}
	return w, nil
}

// EvalOptions controls one RunPrecomputed evaluation.
type EvalOptions struct {
	// Seed drives the perturbation.
	Seed uint64
	// RatioK is the rrpp tightness (0 means 0.95).
	RatioK float64
	// WithAttack enables the avg_prig estimation (requires an
	// attack-enabled precompute to have produced breaches).
	WithAttack bool
	// PrivacySeeds is the number of independent perturbation runs the
	// privacy metric averages over (0 means 1). Consistent republication
	// freezes each itemset's noise for as long as its support is stable, so
	// a single run over consecutive windows observes only a handful of
	// independent draws; the δ floor is a statement about the expectation
	// and needs several independent runs to show through the noise.
	PrivacySeeds int
}

func (o EvalOptions) withDefaults() EvalOptions {
	if o.RatioK == 0 {
		o.RatioK = 0.95
	}
	if o.PrivacySeeds <= 0 {
		o.PrivacySeeds = 1
	}
	return o
}

// RunPrecomputed evaluates one perturbation setting over precomputed
// windows.
func RunPrecomputed(w *Windows, params core.Params, scheme core.Scheme, opts EvalOptions) (Result, error) {
	if err := params.Validate(); err != nil {
		return Result{}, err
	}
	if params.MinSupport != w.MinSupport || params.VulnSupport != w.VulnSupport {
		return Result{}, fmt.Errorf("experiment: params thresholds (C=%d,K=%d) differ from precomputed (C=%d,K=%d)",
			params.MinSupport, params.VulnSupport, w.MinSupport, w.VulnSupport)
	}
	opts = opts.withDefaults()

	runs := 1
	if opts.WithAttack {
		runs = opts.PrivacySeeds
	}
	var res Result
	var preds, ropps, rrpps []float64
	// avg_prig pools every (pattern, window, seed) estimate, matching the
	// paper's "for each p in Phv over 100 continuous windows" protocol.
	var pooled []metrics.PatternEstimate
	// Fig. 8's Opt and Basic costs are the first run's bias.opt and cache
	// span sums, timed by a ring-less tracer on a registry of its own.
	reg := telemetry.NewRegistry()

	for r := 0; r < runs; r++ {
		pub, err := core.NewPublisher(params, scheme, rng.New(opts.Seed^0x5bf0f5+uint64(r)))
		if err != nil {
			return Result{}, err
		}
		var tracer *trace.Tracer // nil, and so untimed, past the first run
		if r == 0 {
			tracer = trace.New(reg, 0)
		}
		for _, wd := range w.Data {
			tw := tracer.StartWindow()
			pub.SetTrace(tw)
			out, err := pub.Publish(wd.Mined, w.WindowSize)
			if err != nil {
				return Result{}, err
			}
			tracer.Commit(tw)
			if r == 0 {
				res.FrequentAvg += float64(wd.Mined.Len())
				pairs := make([]metrics.Pair, 0, wd.Mined.Len())
				for _, fi := range wd.Mined.Itemsets {
					san, ok := out.Support(fi.Set)
					if !ok {
						return Result{}, fmt.Errorf("experiment: %v missing from output", fi.Set)
					}
					pairs = append(pairs, metrics.Pair{True: fi.Support, Sanitized: san})
				}
				preds = append(preds, metrics.AvgPred(pairs))
				ropps = append(ropps, metrics.ROPP(pairs))
				rrpps = append(rrpps, metrics.RRPP(pairs, opts.RatioK))
				res.Windows++
			}

			if opts.WithAttack && len(wd.Breaches) > 0 {
				n := 0
				for _, b := range wd.Breaches {
					e, ok := EstimateBreach(b, out, nil)
					if !ok {
						continue
					}
					pooled = append(pooled, metrics.PatternEstimate{True: b.Support, Estimate: e})
					n++
				}
				if r == 0 && n > 0 {
					res.PhvTotal += n
					res.PhvWindows++
				}
			}
		}
	}
	res.OptTime, res.PerturbTime = spanTime(reg, trace.KindBiasOpt), spanTime(reg, trace.KindCache)

	res.AvgPred = metrics.Mean(preds)
	res.AvgROPP = metrics.Mean(ropps)
	res.AvgRRPP = metrics.Mean(rrpps)
	res.AvgPrig = metrics.AvgPrig(pooled)
	if res.Windows > 0 {
		res.FrequentAvg /= float64(res.Windows)
	}
	res.MiningTime = w.MiningTime
	return res, nil
}

// spanTime returns the summed duration of every committed span of kind k
// in reg.
func spanTime(reg *telemetry.Registry, k trace.Kind) time.Duration {
	h := reg.Histogram(trace.MetricSpanSeconds, "", nil, telemetry.Labels{"span": k.String()})
	return time.Duration(h.Sum() * float64(time.Second))
}

// EstimateBreach computes the §V-C adversary's estimate of one inferred
// pattern from sanitized output: the inclusion–exclusion sum over the
// sanitized lattice X_I^J, exactly as the paper's privacy analysis assumes
// ("the adversary has full access to T̃(X) for all X ∈ X_I^J"). It reports
// ok=false when some lattice member is unpublished — such patterns fall
// outside the analyzed adversary (completing them from bounds produces
// estimates whose error is unbounded and says nothing about the
// perturbation). know optionally overrides published values with exact side
// information (knowledge points), keyed by itemset.Key().
func EstimateBreach(b attack.Inference, out *core.Output, know map[string]int) (float64, bool) {
	lookup := func(x itemset.Itemset) (int, bool) {
		if x.Empty() {
			return out.WindowSize, true
		}
		if v, ok := know[x.Key()]; ok {
			return v, true
		}
		return out.Support(x)
	}
	v, ok, err := lattice.DerivePattern(b.I, b.J, lookup)
	if err != nil || !ok {
		return 0, false
	}
	return float64(v), true
}

// Run executes one self-contained measurement run (Precompute followed by
// RunPrecomputed). Figure sweeps that share thresholds across settings
// should call the two halves directly to avoid re-mining per setting.
func Run(cfg Config) (Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return Result{}, err
	}
	if err := cfg.Params.Validate(); err != nil {
		return Result{}, err
	}
	w, err := Precompute(cfg.Dataset, cfg.WindowSize, cfg.Windows, cfg.Stride,
		cfg.Params.MinSupport, cfg.Params.VulnSupport, cfg.Seed, cfg.WithAttack)
	if err != nil {
		return Result{}, err
	}
	return RunPrecomputed(w, cfg.Params, cfg.Scheme, EvalOptions{
		Seed:         cfg.Seed,
		RatioK:       cfg.RatioK,
		WithAttack:   cfg.WithAttack,
		PrivacySeeds: cfg.PrivacySeeds,
	})
}

// resultView exposes a clean mining result as the adversary's view (true
// supports — the configuration used to FIND inferable patterns).
func resultView(res *mining.Result, windowSize int) *attack.View {
	sets := make([]itemset.Itemset, res.Len())
	sups := make([]int, res.Len())
	for i, fi := range res.Itemsets {
		sets[i] = fi.Set
		sups[i] = fi.Support
	}
	return attack.NewView(windowSize, sets, sups)
}

// outputView exposes sanitized output as the adversary's view.
func outputView(out *core.Output) *attack.View {
	sets := make([]itemset.Itemset, out.Len())
	sups := make([]int, out.Len())
	for i, it := range out.Items {
		sets[i] = it.Set
		sups[i] = it.Support
	}
	return attack.NewView(out.WindowSize, sets, sups)
}
