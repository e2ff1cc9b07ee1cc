// Command lasthop-benchgate runs the benchmark gates declared in
// table.go and writes one report schema. Allocation gates compare against
// the newest BENCH_PR<n>.json in that schema; files in older shapes are
// history. Time under load is perfbench/'s job: the wall-clock gates here
// run in full runs only. Run it from the module root:
//
//	go run ./cmd/lasthop-benchgate -smoke               # CI sizes
//	go run ./cmd/lasthop-benchgate -out BENCH_PR<n>.json # full run, the next baseline
//
// The report is written even when a gate fails; the exit status is then 1.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"lasthop/internal/loadgen"
)

// schema marks the reports this command writes.
const schema = "lasthop-benchgate/1"

// benchCPU is the -cpu value of every benchmark row; benchmark lines
// carry it as a "-8" name suffix.
const benchCPU = 8

// row is one entry of the table. It runs `go test` on pkgs (benchmarks
// only, when bench is set), or loadgen.Run, or loadgen.RunScenario.
type row struct {
	name     string
	pkgs     []string
	bench    string // -bench pattern
	loadgen  *loadgen.Config
	scenario string
	// smoke and full are iterations per benchmark (-benchtime Nx) or
	// notifications per loadgen run.
	smoke, full int
	// attempts bounds a full run's loadgen attempts. The row stops after
	// the first attempt at which every gate holds, so a rate floor is
	// judged on the best attempt.
	attempts int
	fullOnly bool // the row does not run in smoke runs
	gates    []gate
}

// result is what one row produced.
type result struct {
	bench map[string]benchStats // by name without "Benchmark" and the -cpu suffix
	runs  []*loadgen.Report     // loadgen or scenario attempts, in order
	err   error                 // the command or run itself failed
}

// A gate judges a row's result: check gets the stats of the benchmarks
// the gate names (a missing one fails it) and returns the measured value
// and an error when the gate does not hold. A row whose run failed fails
// every gate. wallClock gates are skipped in smoke runs, where a shared
// runner's clock measures the runner.
type gate struct {
	name      string
	benches   []string
	wallClock bool
	check     func(st []benchStats, res *result, base *report) (float64, error)
}

// errReportOnly marks a value that is recorded but never gated.
var errReportOnly = errors.New("reported, not gated")

// report is the BENCH_PR<n>.json schema.
type report struct {
	Schema      string                     `json:"schema"`
	Smoke       bool                       `json:"smoke"`
	Environment map[string]any             `json:"environment"`
	Baseline    string                     `json:"baseline"`
	Benchmarks  map[string]benchStats      `json:"benchmarks"`
	Loadgen     map[string]*loadgen.Report `json:"loadgen"` // the best attempt per row
	Checks      []check                    `json:"checks"`
	Pass        bool                       `json:"pass"`
	path        string                     // where a baseline was read from
}

// benchStats holds per-unit medians over a benchmark's repetitions.
type benchStats struct {
	NsPerOp       float64 `json:"ns_per_op"`
	NsPerDelivery float64 `json:"ns_per_delivery,omitempty"`
	BytesPerOp    float64 `json:"bytes_per_op"`
	AllocsPerOp   float64 `json:"allocs_per_op"`
	Runs          int     `json:"runs"`
}

// check is one gate's outcome. Status is "pass", "FAIL", "skipped" (a
// wall-clock gate or full-only row in a smoke run) or "reported".
type check struct {
	Row    string  `json:"row"`
	Gate   string  `json:"gate"`
	Status string  `json:"status"`
	Value  float64 `json:"value"`
	Detail string  `json:"detail,omitempty"`
}

func main() {
	smoke := flag.Bool("smoke", false, "CI sizes: one repetition, small volumes, wall-clock gates and full-only rows skipped")
	out := flag.String("out", "BENCH_RUN.json", "report path; commit a full run as BENCH_PR<n>.json to make it the next baseline")
	flag.Parse()
	if err := run(*smoke, *out); err != nil {
		fmt.Fprintln(os.Stderr, "lasthop-benchgate:", err)
		os.Exit(1)
	}
}

func run(smoke bool, out string) error {
	base, err := findBaseline(".", out)
	if err != nil {
		return err
	}
	rep := gateAll(table(), smoke, base, runRow)
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(enc, '\n'), 0o644); err != nil {
		return err
	}
	for _, c := range rep.Checks {
		fmt.Fprintf(os.Stderr, "%-8s %-22s %s = %.4g %s\n", c.Status, c.Row, c.Gate, c.Value, c.Detail)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (baseline %q)\n", out, base.path)
	if !rep.Pass {
		return errors.New("gates failed")
	}
	return nil
}

// gateAll runs every row through runFn and judges its gates.
func gateAll(rows []row, smoke bool, base *report, runFn func(r row, size, count int) result) *report {
	rep := &report{Schema: schema, Smoke: smoke, Baseline: base.path, Pass: true,
		Environment: map[string]any{"go": runtime.Version(), "os": runtime.GOOS, "num_cpu": runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0), "bench_cpu_flag": benchCPU},
		Benchmarks: map[string]benchStats{}, Loadgen: map[string]*loadgen.Report{}}
	for _, r := range rows {
		size, attempts, count := r.full, max(r.attempts, 1), 3
		if smoke {
			size, attempts, count = r.smoke, 1, 1
		}
		var res result
		checks := judge(r, nil, smoke, base) // all skipped for a full-only row in a smoke run
		for attempt := 1; attempt <= attempts && !(smoke && r.fullOnly); attempt++ {
			fmt.Fprintf(os.Stderr, ">> %s (attempt %d of at most %d)\n", r.name, attempt, attempts)
			next := runFn(r, size, count)
			res.bench, res.err, res.runs = next.bench, next.err, append(res.runs, next.runs...)
			if checks = judge(r, &res, smoke, base); res.err != nil || allPass(checks) {
				break
			}
		}
		for name, st := range res.bench {
			rep.Benchmarks[name] = st
		}
		if best := bestRun(res.runs); best != nil {
			rep.Loadgen[r.name] = best
		}
		rep.Pass = rep.Pass && allPass(checks)
		rep.Checks = append(rep.Checks, checks...)
	}
	return rep
}

// judge evaluates a row's gates; with res nil it only records which are
// skipped in a smoke run.
func judge(r row, res *result, smoke bool, base *report) []check {
	var checks []check
	for _, g := range r.gates {
		c := check{Row: r.name, Gate: g.name, Status: "skipped"}
		if res != nil && !(smoke && (r.fullOnly || g.wallClock)) {
			c.Value, c.Status, c.Detail = evaluate(g, res, base)
		}
		checks = append(checks, c)
	}
	return checks
}

func evaluate(g gate, res *result, base *report) (value float64, status, detail string) {
	if res.err != nil {
		return 0, "FAIL", res.err.Error()
	}
	st := make([]benchStats, len(g.benches))
	for i, name := range g.benches {
		var ok bool
		if st[i], ok = res.bench[name]; !ok {
			return 0, "FAIL", "benchmark " + name + " not in the output"
		}
	}
	value, err := g.check(st, res, base)
	switch {
	case errors.Is(err, errReportOnly):
		return value, "reported", ""
	case err != nil:
		return value, "FAIL", err.Error()
	}
	return value, "pass", ""
}

func allPass(checks []check) bool {
	for _, c := range checks {
		if c.Status == "FAIL" {
			return false
		}
	}
	return true
}

// bestRun returns the attempt with the highest delivery rate.
func bestRun(runs []*loadgen.Report) *loadgen.Report {
	var best *loadgen.Report
	for _, r := range runs {
		if best == nil || r.DeliverPerSec > best.DeliverPerSec {
			best = r
		}
	}
	return best
}

// runRow executes one row at the given size; a benchmark row repeats
// count times and keeps the medians.
func runRow(r row, size, count int) result {
	var rep *loadgen.Report
	var err error
	switch {
	case r.loadgen != nil:
		cfg := *r.loadgen
		cfg.Notifications = size
		// Two collections empty the sync.Pools behind the burst pools, so
		// objects an earlier row recycled do not raise this row's hit rate.
		runtime.GC()
		runtime.GC()
		rep, err = loadgen.Run(cfg)
	case r.scenario != "":
		var sc loadgen.Scenario
		if sc, err = loadgen.FindScenario(r.scenario); err == nil {
			rep, err = loadgen.RunScenario(sc, loadgen.ScenarioOptions{})
		}
	default:
		args := []string{"test", "-count=1"}
		if r.bench != "" {
			args = []string{"test", "-run", "^$", "-bench", r.bench, "-benchmem", "-cpu", strconv.Itoa(benchCPU),
				"-benchtime", fmt.Sprintf("%dx", size), "-count", strconv.Itoa(count)}
		}
		args = append(args, r.pkgs...)
		var buf bytes.Buffer
		cmd := exec.Command("go", args...)
		cmd.Stdout, cmd.Stderr = io.MultiWriter(&buf, os.Stderr), os.Stderr
		if err := cmd.Run(); err != nil {
			return result{err: fmt.Errorf("go %s: %w", strings.Join(args, " "), err)}
		}
		return result{bench: parseBench(buf.String(), benchCPU)}
	}
	if err != nil {
		return result{err: err}
	}
	return result{runs: []*loadgen.Report{rep}}
}

// parseBench reduces `go test -bench` output to per-benchmark medians.
// Each value is read by the unit label after it, never by column:
// benchmarks that report extra metrics (ns/delivery) shift the
// -benchmem columns.
func parseBench(out string, cpu int) map[string]benchStats {
	samples := map[string]map[string][]float64{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue // a log line, not a result line
		}
		name := strings.TrimSuffix(strings.TrimPrefix(f[0], "Benchmark"), "-"+strconv.Itoa(cpu))
		if samples[name] == nil {
			samples[name] = map[string][]float64{}
		}
		for i := 2; i+1 < len(f); i += 2 {
			if v, err := strconv.ParseFloat(f[i], 64); err == nil {
				samples[name][f[i+1]] = append(samples[name][f[i+1]], v)
			}
		}
	}
	stats := make(map[string]benchStats, len(samples))
	for name, u := range samples {
		stats[name] = benchStats{median(u["ns/op"]), median(u["ns/delivery"]), median(u["B/op"]), median(u["allocs/op"]), len(u["ns/op"])}
	}
	return stats
}

// median returns the middle value, the lower one for an even count; it
// sorts vs in place.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	return vs[(len(vs)-1)/2]
}

// findBaseline returns the highest-numbered BENCH_PR<n>.json in dir that
// is in this schema, skipping the report about to be written; an empty
// report when there is none.
func findBaseline(dir, exclude string) (*report, error) {
	paths, _ := filepath.Glob(filepath.Join(dir, "BENCH_PR*.json")) // the pattern is well-formed
	skip, _ := filepath.Abs(exclude)
	bestN, best := -1, &report{}
	for _, path := range paths {
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "BENCH_PR"), ".json"))
		if abs, _ := filepath.Abs(path); err != nil || abs == skip {
			continue
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		r := report{path: path}
		if n > bestN && json.Unmarshal(raw, &r) == nil && r.Schema == schema {
			bestN, best = n, &r
		}
	}
	return best, nil
}

func runSucceeds() gate {
	return gate{name: "exits clean", check: func([]benchStats, *result, *report) (float64, error) { return 0, nil }}
}

// allocBudget holds bench's allocs/op at or below limit and at or below
// the baseline's value, where the baseline records one.
func allocBudget(bench string, limit float64) gate {
	return gate{name: fmt.Sprintf("%s allocs/op <= %g and <= baseline", bench, limit), benches: []string{bench},
		check: func(st []benchStats, _ *result, base *report) (float64, error) {
			allocs := st[0].AllocsPerOp
			if allocs > limit {
				return allocs, errors.New("over budget")
			}
			if old, ok := base.Benchmarks[bench]; ok && allocs > old.AllocsPerOp {
				return allocs, fmt.Errorf("regressed past the baseline's %g", old.AllocsPerOp)
			}
			return allocs, nil
		}}
}

// bytesSlack is how far B/op may drift above the baseline's: unlike
// allocs/op it is a mean of byte counts that shift with pool and GC
// timing (±0.5% between identical runs), while a regression worth
// catching — a per-connection buffer growing back — moves it by tens of
// percent.
const bytesSlack = 0.05

// bytesBudget holds bench's B/op at or below limit and within bytesSlack
// of the baseline's value, where the baseline records one.
func bytesBudget(bench string, limit float64) gate {
	return gate{name: fmt.Sprintf("%s B/op <= %g and <= baseline + %g%%", bench, limit, bytesSlack*100), benches: []string{bench},
		check: func(st []benchStats, _ *result, base *report) (float64, error) {
			bytes := st[0].BytesPerOp
			if bytes > limit {
				return bytes, errors.New("over budget")
			}
			if old, ok := base.Benchmarks[bench]; ok && bytes > old.BytesPerOp*(1+bytesSlack) {
				return bytes, fmt.Errorf("regressed past the baseline's %g", old.BytesPerOp)
			}
			return bytes, nil
		}}
}

// ratio is slow's cost over fast's, per delivery where both report it
// and per op otherwise. A zero floor reports the ratio without gating it.
func ratio(slow, fast string, floor float64) gate {
	name := slow + " / " + fast
	if floor > 0 {
		name += fmt.Sprintf(" >= %g", floor)
	}
	return gate{name: name, benches: []string{slow, fast}, check: func(st []benchStats, _ *result, _ *report) (float64, error) {
		r := st[0].NsPerOp / st[1].NsPerOp
		if st[0].NsPerDelivery > 0 && st[1].NsPerDelivery > 0 {
			r = st[0].NsPerDelivery / st[1].NsPerDelivery
		}
		switch {
		case floor == 0:
			return r, errReportOnly
		case r < floor:
			return r, errors.New("below the floor")
		}
		return r, nil
	}}
}

// allocsFlat holds the wide benchmark's allocs/op within slack of the
// narrow one's: one shared encoding per publish at any fan-out width.
func allocsFlat(narrow, wide string, slack float64) gate {
	return gate{name: fmt.Sprintf("%s allocs/op <= %s + %g", wide, narrow, slack), benches: []string{narrow, wide},
		check: func(st []benchStats, _ *result, _ *report) (float64, error) {
			if st[1].AllocsPerOp > st[0].AllocsPerOp+slack {
				return st[1].AllocsPerOp, fmt.Errorf("not flat: %g at the narrow width", st[0].AllocsPerOp)
			}
			return st[1].AllocsPerOp, nil
		}}
}

// exactDelivery requires every attempt to deliver each notification to
// every subscriber of its topic exactly once.
func exactDelivery() gate {
	return gate{name: "delivered exactly, zero duplicates", check: func(_ []benchStats, res *result, _ *report) (float64, error) {
		for i, r := range res.runs {
			want := r.Config.Notifications * (r.Config.Devices / r.Config.Topics)
			if r.Delivered != want || r.Duplicates != 0 {
				return float64(r.Delivered), fmt.Errorf("attempt %d delivered %d of %d, %d duplicates", i+1, r.Delivered, want, r.Duplicates)
			}
		}
		return float64(res.runs[0].Delivered), nil
	}}
}

// poolRecycles requires every attempt's note pool to serve at least
// minHit of its gets from the free list and to hold nothing checked out
// after teardown.
func poolRecycles(minHit float64) gate {
	return gate{name: fmt.Sprintf("pool hit rate >= %g, 0 outstanding", minHit), check: func(_ []benchStats, res *result, _ *report) (float64, error) {
		for i, r := range res.runs {
			if r.PoolHitRate < minHit || r.PoolOutstanding != 0 {
				return r.PoolHitRate, fmt.Errorf("attempt %d: hit rate %.3f, %d outstanding", i+1, r.PoolHitRate, r.PoolOutstanding)
			}
		}
		return res.runs[len(res.runs)-1].PoolHitRate, nil
	}}
}

// minRate holds the best attempt's delivery rate at or above floor.
func minRate(floor float64) gate {
	return gate{name: fmt.Sprintf("best deliveries/s >= %g", floor), wallClock: true, check: func(_ []benchStats, res *result, _ *report) (float64, error) {
		best := bestRun(res.runs).DeliverPerSec
		if best < floor {
			return best, fmt.Errorf("best of %d attempts below the floor", len(res.runs))
		}
		return best, nil
	}}
}

// verdictPasses requires the scenario's budget verdict to pass.
func verdictPasses() gate {
	return gate{name: "verdict passes", check: func(_ []benchStats, res *result, _ *report) (float64, error) {
		v := res.runs[0].Verdict
		if !v.Pass {
			return v.DeliverPerSec, errors.New(strings.Join(v.Failures, "; "))
		}
		return v.DeliverPerSec, nil
	}}
}
