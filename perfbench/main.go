// Command perfbench is the open-loop delivery benchmark of the live host
// stack: publishers → wire → pubsub broker → host (upstream mux,
// per-session core.Proxy, spool) → wire → devices, in one process.
// Publishes, READs and visits follow seeded Poisson schedules and every
// latency is timed from the scheduled instant, so a stall is charged to
// every arrival queued behind it.
//
//	bash perfbench/run.sh --workload online-narrow --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --compare base.jsonl change.jsonl
//
// The last line of a run is the result object; the line before it carries
// provenance, sample counts and every figure measured.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"lasthop/internal/burst"
	"lasthop/internal/flight"
)

var processStart = time.Now()

func main() {
	var (
		name    = flag.String("workload", "online-narrow", "workload name")
		seed    = flag.Uint64("seed", 1, "schedule seed")
		seconds = flag.Int("seconds", 10, "measured seconds per run")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		out     = flag.String("out", ".bench_build", "directory for spools, spans and watchdog bundles")
		compare = flag.Bool("compare", false, "compare result files (arguments) instead of running")
		bench   = flag.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds, for -compare")
	)
	flag.Parse()
	if *compare {
		os.Exit(compareMain(*bench, flag.Args(), os.Stdout))
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fatal(err)
	}
	if *seconds < 4 || (*traced != 0 && *traced != 1) {
		fatal(fmt.Errorf("need --seconds >= 4 and --trace 0 or 1"))
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	flight.Enable(flight.DefaultRingEvents)
	r := newRun(w, *seed, *out)
	rep := &report{
		Workload: w.name, Seed: *seed, Trace: *traced, Seconds: *seconds,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(),
		Offered: offered(w), Samples: map[string]pct{}, Values: map[string]float64{},
	}
	total := time.Duration(*seconds) * time.Second
	if *traced == 0 {
		err = r.endToEnd(rep, total)
	} else {
		err = r.perLayer(rep, total)
	}
	if err != nil {
		// A wedge or a failed call ends the run: its result is printed with
		// the rest of its arrivals counted as failed, and it exits non-zero
		// without tearing the stack down, which a wedged host would block.
		if err != errWedged {
			rep.Problems = append(rep.Problems, err.Error())
			// A timed-out call is most often a wedge the watchdog has yet
			// to see; give it the time to name the stall in its bundle.
			select {
			case <-r.wedged:
			case <-time.After(8 * time.Second):
				r.wedge("call failed (bundle " + r.dump(r.cur, "call-failed", nil) + ")")
			}
		}
		rep.Wedged = r.why
		rep.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v %s\n", w.name, err, rep.Wedged)
		rep.print(*traced)
		os.Exit(2)
	}
	rep.print(*traced)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// commit names the source revision the binary was built from, when the
// build could see one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	return "unknown"
}

func offered(w workload) map[string]float64 {
	o := map[string]float64{"publish_per_s": w.publishRate, "deliveries_per_s": w.publishRate * float64(w.fanout())}
	if w.readRate > 0 {
		o["read_per_s"] = w.readRate
	}
	if w.visitRate > 0 {
		o["visit_per_s"] = w.visitRate
	}
	return o
}

// setups is how many times a run sets up; setup_s is their median.
const setups = 15

// endToEnd sets up repeatedly, then measures the fixed rate on the last
// stack with tracing off.
func (r *run) endToEnd(rep *report, total time.Duration) error {
	specs := []spec{{name: "warmup", mult: 1, dur: warmup}, {name: "fixed", mult: 1, dur: total}}
	var d *deployment
	for k := 0; k < setups; k++ {
		since := processStart
		if k > 0 {
			// Let the last stack's connections finish closing and collect
			// its garbage, so no set-up is charged for its predecessor.
			time.Sleep(100 * time.Millisecond)
			runtime.GC()
			since = time.Now()
		}
		var err error
		d, err = r.deploy(specs, false, since)
		if err != nil {
			rep.add(d)
			return err
		}
		rep.Setups = append(rep.Setups, d.setup.Seconds())
		rep.SetupCPU = append(rep.SetupCPU, d.setupCPU.Seconds())
		if k < setups-1 {
			d.teardown()
		}
	}
	// Set-up is charged in process CPU, not wall time: hypervisor steal
	// stretched the same set-up's wall time by up to 2x between runs.
	rep.Values["setup_s"] = median(rep.SetupCPU)
	results, err := d.phases()
	if err != nil {
		rep.add(d)
		return err
	}
	fx := results[1]
	rep.Values["cpu_us_per_delivery"] = fx.cpuPerDelivery()
	rep.genLag(fx)
	// The load has stopped and the phase's drain is over, so the device
	// clients can hang up: each keeps every push it was sent until it is
	// read, and the resident set should weigh the host and broker, not the
	// simulated phones.
	if err := r.await(func() error { d.dups += d.st.hangUp(r.regSlot()); return nil }); err != nil {
		rep.add(d)
		return err
	}
	time.Sleep(100 * time.Millisecond)
	runtime.GC()
	debug.FreeOSMemory()
	rep.Values["rss_mb"] = rssMB()
	return d.finish(rep)
}

// perLayer measures the fixed rate and the offered-load ladder untraced,
// for the figures too unsteady for an end-to-end bound and the CPU
// baseline, then the fixed rate again on a fresh stack traced with the
// program's collector sampling, for the layer figures.
func (r *run) perLayer(rep *report, total time.Duration) error {
	// The fixed phase is long enough (6.25 s of a 10 s run) that the
	// 200 READs/s of ondemand-reads leave more than ten samples beyond
	// read_p99_ms.
	specs := []spec{{name: "warmup", mult: 1, dur: warmup}, {name: "fixed", mult: 1, dur: total * 5 / 8}}
	base, err := r.deploy(specs, false, processStart)
	if err != nil {
		rep.add(base)
		return err
	}
	results, err := base.phases()
	if err != nil {
		rep.add(base)
		return err
	}
	fx := results[1]
	untracedCPU := fx.cpuPerDelivery()
	rep.genLag(fx)
	rep.tails(r.w, fx, base)
	if err := base.finish(rep); err != nil {
		return err
	}
	// Each rung runs on a stack of its own, after its own warm-up, so the
	// device clients (which keep every push) hold one rung's deliveries.
	for _, m := range r.w.ladder {
		rung, err := r.deploy([]spec{{name: "warmup", mult: 1, dur: warmup},
			{name: fmt.Sprintf("x%.2f", m), mult: m, dur: total * 3 / 8 / time.Duration(len(r.w.ladder))}}, false, time.Now())
		if err != nil {
			rep.add(rung)
			return err
		}
		results, err := rung.phases()
		if err != nil {
			rep.add(rung)
			return err
		}
		res := results[1]
		rep.Ladder = append(rep.Ladder, rungReport{Mult: res.p.mult, Offered: res.rate(), Carried: res.carried,
			Quantiles: res.quantiles(r.w), Unsent: res.unsent})
		rep.Values["sustained_deliveries_per_s"] = max(rep.Values["sustained_deliveries_per_s"], res.carried)
		if err := rung.finish(rep); err != nil {
			return err
		}
	}

	r.spans = &spanLog{}
	tr, err := r.deploy([]spec{{name: "warmup", mult: 1, dur: warmup}, {name: "traced", mult: 1, dur: total / 4, traced: true}}, true, time.Now())
	if err != nil {
		rep.add(tr)
		return err
	}
	results, err = tr.phases()
	if err != nil {
		rep.add(tr)
		return err
	}
	tp := results[1]
	rep.layers(tp, tr)
	rep.Values["trace.overhead_pct"] = 100 * (tp.cpuPerDelivery() - untracedCPU) / untracedCPU
	if err := tr.finish(rep); err != nil {
		return err
	}
	rep.hostLayers(tr)
	dir := filepath.Join(r.out, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rep.SpanFile = filepath.Join(dir, fmt.Sprintf("%s-seed%d-spans.jsonl", r.w.name, r.seed))
	return r.spans.write(rep.SpanFile)
}

// phases runs every planned phase in order on the same connected
// devices: the sessions are resident, and none reconnects while the
// deployment lives.
func (d *deployment) phases() ([]*phaseResult, error) {
	var out []*phaseResult
	for pi := range d.l.phases {
		res, err := d.runPhase(pi)
		if err != nil {
			return out, err
		}
		out = append(out, res)
		d.results = out
	}
	return out, nil
}

// finish tears the stack down and books its correctness checks: every
// owed on-line copy delivered exactly once, every READ a subset of what
// was published, and the notification pool drained.
func (d *deployment) finish(rep *report) error {
	deadline := time.Now().Add(drainGrace)
	for d.l.owedIn(0, len(d.l.pubs)) > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	d.undelivered = d.l.owedIn(0, len(d.l.pubs))
	err := d.r.await(func() error {
		slot := d.r.regSlot()
		slot.busy.Store(time.Now().UnixNano())
		defer slot.busy.Store(0)
		d.hostStats()
		return nil
	})
	if err != nil {
		rep.add(d)
		return err
	}
	d.teardown()
	rep.add(d)
	return nil
}

// drainedOutstanding polls the notification pool's checked-out count
// until it reaches zero or the grace period passes: egress rings release
// their last frames asynchronously after Close.
func drainedOutstanding(grace time.Duration) int64 {
	deadline := time.Now().Add(grace)
	for {
		n := burst.Notes.Stats().Outstanding()
		if n == 0 || time.Now().After(deadline) {
			return n
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// report is everything a run measured; print emits its provenance line
// and the result line.
type report struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Trace      int                `json:"trace"`
	Seconds    int                `json:"seconds"`
	NumCPU     int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GoVersion  string             `json:"go"`
	Commit     string             `json:"commit"`
	Offered    map[string]float64 `json:"offered"`
	Setups     []float64          `json:"setups_wall_s,omitempty"`
	SetupCPU   []float64          `json:"setups_cpu_s,omitempty"`
	GenLagP99  pct                `json:"fixed_gen_lag_p99_ms"`
	Ladder     []rungReport       `json:"ladder,omitempty"`
	Phases     []phaseReport      `json:"phases,omitempty"`
	Samples    map[string]pct     `json:"samples"`
	Values     map[string]float64 `json:"values"`
	NA         []string           `json:"not_applicable,omitempty"`
	Refused    []string           `json:"refused,omitempty"`
	Problems   []string           `json:"problems,omitempty"`
	Wedged     string             `json:"wedged,omitempty"`
	SpanFile   string             `json:"span_file,omitempty"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	Correct    bool               `json:"correct"`
	PoolOut    int64              `json:"pool_outstanding"`
	Dups       int64              `json:"duplicates"`
}

type phaseReport struct {
	Name        string      `json:"name"`
	Mult        float64     `json:"mult"`
	Publishes   int         `json:"publishes"`
	Reads       int         `json:"reads"`
	Deliveries  int         `json:"deliveries"`
	Unsent      int         `json:"unsent"`
	Undelivered int64       `json:"undelivered_after_drain"`
	Short       []shortfall `json:"shortfalls,omitempty"`
	Failed      int         `json:"failed"`
	StealPct    float64     `json:"steal_pct"`
}

type rungReport struct {
	Mult      float64   `json:"mult"`
	Offered   float64   `json:"delivered_of_rung_per_s"` // the rung's own copies received, over its length
	Carried   float64   `json:"carried_per_s"`           // receipts/s over the rung's last three quarters
	Quantiles []float64 `json:"p50_p90_p99_ms"`          // headline latency; 0 where refused
	Unsent    int       `json:"unsent"`
}

// genLag books how late the generator sent the fixed-rate phase's
// arrivals, the validity guard of every latency the run reports.
func (rep *report) genLag(fx *phaseResult) {
	fx.p.mu.Lock()
	rep.GenLagP99, _ = percentile(append([]float64(nil), fx.p.ss.lag...), 0.99)
	fx.p.mu.Unlock()
}

// layerLatency books a per-layer percentile: absent samples mean the
// workload does not exercise that layer, too few mean refused; both
// report 0 and say which.
func (rep *report) layerLatency(name string, samples []float64, q, scale float64) {
	p, err := percentile(samples, q)
	rep.Samples[name] = p
	switch {
	case len(samples) == 0:
		rep.NA = append(rep.NA, name)
		rep.Values[name] = 0
	case err != nil:
		rep.Refused = append(rep.Refused, name+": "+err.Error())
		rep.Values[name] = 0
	default:
		rep.Values[name] = p.Value * scale
	}
}

// add folds one deployment's attempts, failures and checks into the run.
// Ladder rungs past the knee may leave arrivals unsent; those were never
// attempted. Anywhere else an unsent arrival is a failure, and so is every
// arrival of a phase a wedge kept from finishing.
func (rep *report) add(d *deployment) {
	if d == nil || d.l == nil {
		return
	}
	copies := int64(0)
	if !d.r.w.onDemand {
		copies = int64(d.r.w.fanout())
	}
	for i, p := range d.l.phases {
		if i >= len(d.results) {
			n := int64(len(p.pubs))*(1+copies) + int64(len(p.reads))
			rep.Attempted += n
			rep.Failed += n
			continue
		}
		res := d.results[i]
		p.mu.Lock()
		rep.Phases = append(rep.Phases, phaseReport{Name: p.name, Mult: p.mult, Publishes: len(p.pubs), Reads: len(p.reads),
			Deliveries: res.deliveries, Unsent: res.unsent, Undelivered: res.undeliv, Short: res.short, Failed: p.ss.failed,
			StealPct: res.stealPct()})
		rep.Failed += int64(p.ss.failed)
		p.mu.Unlock()
		pubs := int64(len(p.pubs) - res.unsentPubs)
		rep.Attempted += pubs*(1+copies) + int64(len(p.reads)-res.unsentRead)
		if p.mult == 1 {
			rep.Failed += int64(res.unsent)
		}
	}
	rep.Failed += d.undelivered + d.l.foreign.Load()
	rep.Dups += int64(d.dups) + d.l.dups.Load()
	if d.undelivered > 0 {
		rep.Problems = append(rep.Problems, fmt.Sprintf("%d owed on-line copies never received", d.undelivered))
	}
	if n := d.l.foreign.Load(); n > 0 {
		rep.Problems = append(rep.Problems, fmt.Sprintf("%d receipts or reads of notifications never published to that session", n))
	}
}

// print emits the provenance line, then the result line with the metric
// set the trace mode reports.
func (rep *report) print(traced int) {
	if rep.Wedged == "" {
		rep.PoolOut = drainedOutstanding(2 * time.Second)
		if rep.PoolOut != 0 {
			rep.Problems = append(rep.Problems, fmt.Sprintf("notification pool: %d checked out after teardown", rep.PoolOut))
		}
		if rep.Dups != 0 {
			rep.Problems = append(rep.Problems, fmt.Sprintf("%d duplicate deliveries", rep.Dups))
		}
		rep.Correct = len(rep.Problems) == 0
	}
	if rep.Attempted > 0 {
		rep.Values["failed_pct"] = 100 * float64(rep.Failed) / float64(rep.Attempted)
	}
	defs := endToEnd
	if traced == 1 {
		defs = perLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metric{}
	for _, m := range defs {
		v := rep.Values[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	for k, v := range rep.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			rep.Values[k] = 0
			rep.Refused = append(rep.Refused, k+": not a finite number")
		}
	}
	prov, err := json.Marshal(map[string]any{"perfbench": rep})
	if err != nil {
		prov = []byte(fmt.Sprintf(`{"perfbench":{"workload":%q,"error":%q}}`, rep.Workload, err.Error()))
	}
	fmt.Println(string(prov))
	attempted := rep.Attempted
	if attempted < 1 {
		attempted = 1
	}
	res, _ := json.Marshal(map[string]any{
		"correct": rep.Correct, "attempted": attempted, "failed": rep.Failed, "metrics": metrics,
	})
	fmt.Println(string(res))
}
