package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lasthop/internal/loadgen"
)

// benchOutput is real `go test -bench -benchmem -cpu 8 -count 2` output
// from the fan-out benchmarks. The ns/delivery column sits between ns/op
// and B/op, so a parser reading B/op and allocs/op by column position
// takes the ns/delivery value for B/op and B/op for allocs/op.
const benchOutput = `goos: linux
goarch: amd64
pkg: lasthop/internal/pubsub
BenchmarkBrokerFanoutWidth/shared/width-1024-8      	    2000	     44770 ns/op	        43.72 ns/delivery	      95 B/op	       1 allocs/op
BenchmarkBrokerFanoutWidth/pertarget/width-1024-8   	    2000	    801284 ns/op	       782.5 ns/delivery	      96 B/op	       3 allocs/op
BenchmarkBrokerFanoutWidth/shared/width-1024-8      	    2000	     40000 ns/op	        39.06 ns/delivery	      97 B/op	       1 allocs/op
BenchmarkBrokerFanoutWidth/pertarget/width-1024-8   	    2000	    700000 ns/op	       683.6 ns/delivery	      96 B/op	       3 allocs/op
BenchmarkHostForwardPath/sessions=1-8         	   20000	      9853 ns/op	    1660 B/op	       7 allocs/op
BenchmarkHostForwardPath logs a line that is not a result
BenchmarkHostSessionSetup-8   	    2000	    373238 ns/op	       105.6 exact-allocs/op	   16839 B/op	     105 allocs/op
BenchmarkProxyRetention-8   	   20000	      1082 ns/op	        92.03 B/event	       0 B/op	       0 allocs/op
PASS
ok  	lasthop/internal/pubsub	2.784s
`

func TestParseBenchByUnit(t *testing.T) {
	got := parseBench(benchOutput, 8)
	want := map[string]benchStats{
		"BrokerFanoutWidth/shared/width-1024":    {NsPerOp: 40000, NsPerDelivery: 39.06, BytesPerOp: 95, AllocsPerOp: 1, Runs: 2},
		"BrokerFanoutWidth/pertarget/width-1024": {NsPerOp: 700000, NsPerDelivery: 683.6, BytesPerOp: 96, AllocsPerOp: 3, Runs: 2},
		"HostForwardPath/sessions=1":             {NsPerOp: 9853, BytesPerOp: 1660, AllocsPerOp: 7, Runs: 1},
		"HostSessionSetup":                       {NsPerOp: 373238, BytesPerOp: 16839, AllocsPerOp: 105, ExactAllocsPerOp: 105.6, Runs: 1},
		"ProxyRetention":                         {NsPerOp: 1082, BytesPerEvent: 92.03, Runs: 1},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d benchmarks %v, want %d", len(got), got, len(want))
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
}

func goodBench() map[string]benchStats {
	return map[string]benchStats{
		"HostForwardPath/sessions=1":             {NsPerOp: 9000, AllocsPerOp: 7},
		"HostForwardPath/sessions=8":             {NsPerOp: 11000, AllocsPerOp: 8},
		"HostSessionSetup":                       {NsPerOp: 300000, BytesPerOp: 17000, AllocsPerOp: 106, ExactAllocsPerOp: 106.4},
		"ProxyNotify":                            {NsPerOp: 2000, AllocsPerOp: 2},
		"ProxyRead":                              {NsPerOp: 1000, AllocsPerOp: 2},
		"ProxyRetention":                         {NsPerOp: 1000, AllocsPerOp: 0, BytesPerEvent: 92},
		"BrokerFanoutWidth/shared/width-8":       {NsPerOp: 2000, NsPerDelivery: 250, AllocsPerOp: 1},
		"BrokerFanoutWidth/shared/width-1024":    {NsPerOp: 40000, NsPerDelivery: 40, AllocsPerOp: 1},
		"BrokerFanoutWidth/pertarget/width-1024": {NsPerOp: 800000, NsPerDelivery: 800, AllocsPerOp: 1},
		"WireFanout/shared/width-1024":           {NsPerOp: 3e6, NsPerDelivery: 3000, AllocsPerOp: 585},
		"WireFanout/pertarget/width-1024":        {NsPerOp: 1e7, NsPerDelivery: 10000, AllocsPerOp: 2233},
		"TimerWheel/Wheel":                       {NsPerOp: 70},
		"TimerWheel/AfterFunc":                   {NsPerOp: 7000, AllocsPerOp: 1},
	}
}

// goodRun is a clean loadgen or scenario report for the row's config.
func goodRun(r row) *loadgen.Report {
	rep := &loadgen.Report{DeliverPerSec: 150000, PoolHitRate: 0.95, Verdict: &loadgen.Verdict{Pass: true}}
	if r.loadgen != nil {
		rep.Config = *r.loadgen
		rep.Config.Notifications = r.full
		rep.Delivered = r.full * (r.loadgen.Devices / r.loadgen.Topics)
	}
	return rep
}

var baseline = &report{Schema: schema, Benchmarks: map[string]benchStats{
	"HostForwardPath/sessions=1": {AllocsPerOp: 7},
	"HostForwardPath/sessions=8": {AllocsPerOp: 8},
	"HostSessionSetup":           {BytesPerOp: 17000, AllocsPerOp: 105, ExactAllocsPerOp: 105.6},
	"ProxyNotify":                {AllocsPerOp: 2},
	"ProxyRead":                  {AllocsPerOp: 2},
	"ProxyRetention":             {AllocsPerOp: 0, BytesPerEvent: 92},
}}

// violations breaks each gate of the table, keyed by gate name; a gate
// with several ways to fail has one fixture per way.
var violations = map[string][]func(res *result){
	"exits clean": {func(res *result) { res.err = errors.New("go test: exit status 1") }},
	"HostForwardPath/sessions=1 allocs/op <= 8 and <= baseline": {
		func(res *result) { res.bench["HostForwardPath/sessions=1"] = benchStats{AllocsPerOp: 9} },
		func(res *result) { res.bench["HostForwardPath/sessions=1"] = benchStats{AllocsPerOp: 8} }, // baseline 7
		func(res *result) { delete(res.bench, "HostForwardPath/sessions=1") },
	},
	"HostForwardPath/sessions=8 allocs/op <= 10 and <= baseline": {
		func(res *result) { res.bench["HostForwardPath/sessions=8"] = benchStats{AllocsPerOp: 11} },
		func(res *result) { res.bench["HostForwardPath/sessions=8"] = benchStats{AllocsPerOp: 9} }, // baseline 8
	},
	"HostSessionSetup exact-allocs/op <= 120 and <= baseline + 1": {
		func(res *result) {
			res.bench["HostSessionSetup"] = benchStats{BytesPerOp: 17000, ExactAllocsPerOp: 120.1}
		},
		func(res *result) {
			res.bench["HostSessionSetup"] = benchStats{BytesPerOp: 17000, ExactAllocsPerOp: 106.7}
		}, // baseline 105.6
		// Only the truncated count: the exact mean went missing.
		func(res *result) { res.bench["HostSessionSetup"] = benchStats{BytesPerOp: 17000, AllocsPerOp: 105} },
	},
	"HostSessionSetup B/op <= 32768 and <= baseline + 5%": {
		// 64 KiB read buffers at both ends of every connection.
		func(res *result) {
			res.bench["HostSessionSetup"] = benchStats{BytesPerOp: 141000, ExactAllocsPerOp: 105.6}
		},
		func(res *result) {
			res.bench["HostSessionSetup"] = benchStats{BytesPerOp: 17900, ExactAllocsPerOp: 105.6}
		}, // baseline 17000
		func(res *result) { delete(res.bench, "HostSessionSetup") },
	},
	"ProxyNotify allocs/op <= 3 and <= baseline": {
		func(res *result) { res.bench["ProxyNotify"] = benchStats{AllocsPerOp: 4} },
		func(res *result) { res.bench["ProxyNotify"] = benchStats{AllocsPerOp: 3} }, // baseline 2
		func(res *result) { delete(res.bench, "ProxyNotify") },
	},
	"ProxyRead allocs/op <= 3 and <= baseline": {
		func(res *result) { res.bench["ProxyRead"] = benchStats{AllocsPerOp: 4} },
		func(res *result) { res.bench["ProxyRead"] = benchStats{AllocsPerOp: 3} }, // baseline 2
	},
	"ProxyRetention allocs/op <= 0 and <= baseline": {
		func(res *result) { res.bench["ProxyRetention"] = benchStats{AllocsPerOp: 1, BytesPerEvent: 92} },
	},
	"ProxyRetention B/event <= 128 and <= baseline + 1": {
		// Three per-event ID maps per topic instead of one.
		func(res *result) { res.bench["ProxyRetention"] = benchStats{BytesPerEvent: 197.4} },
		func(res *result) { res.bench["ProxyRetention"] = benchStats{BytesPerEvent: 93.5} }, // baseline 92
		func(res *result) { res.bench["ProxyRetention"] = benchStats{} },
	},
	"BrokerFanoutWidth/pertarget/width-1024 / BrokerFanoutWidth/shared/width-1024 >= 5": {
		func(res *result) {
			res.bench["BrokerFanoutWidth/pertarget/width-1024"] = benchStats{NsPerOp: 180000, NsPerDelivery: 180}
		},
		func(res *result) { delete(res.bench, "BrokerFanoutWidth/shared/width-1024") },
	},
	"BrokerFanoutWidth/shared/width-1024 allocs/op <= BrokerFanoutWidth/shared/width-8 + 2": {func(res *result) {
		res.bench["BrokerFanoutWidth/shared/width-1024"] = benchStats{NsPerDelivery: 40, AllocsPerOp: 4}
	}},
	"delivered exactly, zero duplicates": {
		func(res *result) { res.runs[0].Delivered-- },
		func(res *result) { res.runs[0].Duplicates = 1 },
	},
	"pool hit rate >= 0.9, 0 outstanding": {
		func(res *result) { res.runs[0].PoolHitRate = 0.85 },
		func(res *result) { res.runs[0].PoolOutstanding = 3 },
	},
	"best deliveries/s >= 100000": {func(res *result) { res.runs[0].DeliverPerSec = 99000 }},
	"verdict passes": {func(res *result) {
		res.runs[0].Verdict = &loadgen.Verdict{Failures: []string{"delivered 19000/s end to end, floor 20500/s"}}
	}},
}

// reportedOnly are the table's ratios that are recorded, never gated.
var reportedOnly = map[string]bool{
	"WireFanout/pertarget/width-1024 / WireFanout/shared/width-1024": true,
	"TimerWheel/AfterFunc / TimerWheel/Wheel":                        true,
}

// TestEveryGateTrips judges each gate of the table on a clean fixture,
// which must pass, and on each of its violations, which must fail it.
func TestEveryGateTrips(t *testing.T) {
	fixture := func(r row) *result {
		return &result{bench: goodBench(), runs: []*loadgen.Report{goodRun(r)}}
	}
	for _, r := range table() {
		for _, g := range r.gates {
			one := r
			one.gates = []gate{g}
			if c := judge(one, fixture(r), false, baseline)[0]; c.Status != "pass" && c.Status != "reported" {
				t.Errorf("%s / %s: %s on the clean fixture: %s", r.name, g.name, c.Status, c.Detail)
			}
			if reportedOnly[g.name] {
				res := fixture(r)
				res.bench[strings.Split(g.name, " / ")[0]] = benchStats{NsPerOp: 1, NsPerDelivery: 1}
				if c := judge(one, res, false, baseline)[0]; c.Status != "reported" {
					t.Errorf("%s / %s: reported ratio judged as a gate: %+v", r.name, g.name, c)
				}
				continue
			}
			breaks := violations[g.name]
			if len(breaks) == 0 {
				t.Errorf("%s / %s: no violating fixture", r.name, g.name)
			}
			for i, violate := range breaks {
				res := fixture(r)
				violate(res)
				if c := judge(one, res, false, baseline)[0]; c.Status != "FAIL" {
					t.Errorf("%s / %s: violation %d did not trip it: %+v", r.name, g.name, i, c)
				}
			}
		}
	}
}

// TestAllocBudgetWithoutBaseline: with no baseline file the budget alone
// holds the line.
func TestAllocBudgetWithoutBaseline(t *testing.T) {
	r := row{name: "fwd", gates: []gate{budget("HostForwardPath/sessions=1", "allocs/op", 8, 0)}}
	for allocs, want := range map[float64]bool{8: true, 9: false} {
		res := &result{bench: map[string]benchStats{"HostForwardPath/sessions=1": {AllocsPerOp: allocs}}}
		if c := judge(r, res, false, &report{})[0]; (c.Status == "pass") != want {
			t.Errorf("%g allocs/op without a baseline: %s, want pass=%v", allocs, c.Status, want)
		}
	}
}

// TestBytesBudgetSlack: B/op may drift within bytesSlack of the baseline
// without failing, and the budget alone holds without a baseline.
func TestBytesBudgetSlack(t *testing.T) {
	r := row{name: "setup", gates: []gate{bytesBudget("HostSessionSetup", 32*1024)}}
	for _, tc := range []struct {
		bytes float64
		base  *report
		want  bool
	}{
		{17800, baseline, true},  // +4.7% over the baseline's 17000
		{17900, baseline, false}, // +5.3%
		{32 * 1024, &report{}, true},
		{32*1024 + 1, &report{}, false},
	} {
		res := &result{bench: map[string]benchStats{"HostSessionSetup": {BytesPerOp: tc.bytes}}}
		if c := judge(r, res, false, tc.base)[0]; (c.Status == "pass") != tc.want {
			t.Errorf("%g B/op (baseline %v): %s, want pass=%v", tc.bytes, tc.base.Benchmarks["HostSessionSetup"], c.Status, tc.want)
		}
	}
}

// TestExactAllocSlack: the exact mean may sit up to the slack above the
// baseline's; a baseline that records only the truncated count (the
// shape before the exact mean was reported) leaves the budget alone.
func TestExactAllocSlack(t *testing.T) {
	r := row{name: "setup", gates: []gate{budget("HostSessionSetup", "exact-allocs/op", 120, 1)}}
	truncated := &report{Benchmarks: map[string]benchStats{"HostSessionSetup": {AllocsPerOp: 105}}}
	for _, tc := range []struct {
		exact float64
		base  *report
		want  bool
	}{
		{106.6, baseline, true}, // baseline 105.6 + 1
		{106.7, baseline, false},
		{119, truncated, true},
		{120, &report{}, true},
		{120.1, &report{}, false},
	} {
		res := &result{bench: map[string]benchStats{"HostSessionSetup": {ExactAllocsPerOp: tc.exact}}}
		if c := judge(r, res, false, tc.base)[0]; (c.Status == "pass") != tc.want {
			t.Errorf("%g exact allocs/op (baseline %v): %s, want pass=%v", tc.exact, tc.base.Benchmarks["HostSessionSetup"], c.Status, tc.want)
		}
	}
}

// TestAttemptsBestOf: a full run retries a rate-gated row until the floor
// holds and keeps the best attempt; a smoke run makes one attempt and
// skips the wall-clock gate and the full-only rows.
func TestAttemptsBestOf(t *testing.T) {
	cfg := &loadgen.Config{Devices: 8, Topics: 2}
	rows := []row{
		{name: "burst", loadgen: cfg, smoke: 10, full: 100, attempts: 5, gates: []gate{exactDelivery(), minRate(100000)}},
		{name: "flash", scenario: "flash-crowd", fullOnly: true, gates: []gate{verdictPasses()}},
	}
	fake := func(rates ...float64) (func(row, int, int) result, *int) {
		calls := 0
		return func(r row, size, _ int) result {
			calls++
			if r.loadgen == nil {
				return result{runs: []*loadgen.Report{{Verdict: &loadgen.Verdict{Pass: true}}}}
			}
			rep := &loadgen.Report{Config: *r.loadgen, Delivered: size * 4, DeliverPerSec: rates[min(calls, len(rates))-1]}
			rep.Config.Notifications = size
			return result{runs: []*loadgen.Report{rep}}
		}, &calls
	}

	runFn, calls := fake(80000, 120000, 90000)
	rep := gateAll(rows, false, &report{}, runFn)
	if !rep.Pass || *calls != 3 { // two burst attempts, one scenario
		t.Fatalf("full run: pass=%v after %d calls, want pass after 3; checks %+v", rep.Pass, *calls, rep.Checks)
	}
	if got := rep.Loadgen["burst"].DeliverPerSec; got != 120000 {
		t.Fatalf("kept the attempt at %v/s, want the best (120000)", got)
	}

	runFn, calls = fake(80000)
	if rep := gateAll(rows, false, &report{}, runFn); rep.Pass || *calls != 6 {
		t.Fatalf("full run below the floor: pass=%v after %d calls, want fail after 6", rep.Pass, *calls)
	}

	runFn, calls = fake(80000)
	rep = gateAll(rows, true, &report{}, runFn)
	if !rep.Pass || *calls != 1 {
		t.Fatalf("smoke run: pass=%v after %d calls, want pass after 1; checks %+v", rep.Pass, *calls, rep.Checks)
	}
	for _, c := range rep.Checks {
		if (c.Gate == "best deliveries/s >= 100000" || c.Row == "flash") != (c.Status == "skipped") {
			t.Errorf("smoke run: %s / %s %s", c.Row, c.Gate, c.Status)
		}
	}
}

// TestFindBaseline picks the highest-numbered report in this schema:
// numerically, not lexically; skipping the file being written; and
// ignoring the committed shapes of the scripts this command replaced.
func TestFindBaseline(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	current := `{"schema": "` + schema + `", "benchmarks": {"HostForwardPath/sessions=1": {"allocs_per_op": 6}}}`
	write("BENCH_PR9.json", current)
	write("BENCH_PR31.json", current)
	write("BENCH_PR40.json", current)
	write("BENCH_PR100.json", `{"benchmark": "an older shape", "measured": {}}`)
	write("BENCH_PR101.json", `not json`)
	write("BENCH_PR31.json.bak", current)
	for _, legacy := range []string{"BENCH_PR2.json", "BENCH_PR5.json", "BENCH_PR7.json", "BENCH_PR10.json"} {
		raw, err := os.ReadFile(filepath.Join("..", "..", legacy))
		if err != nil {
			t.Fatal(err)
		}
		write(strings.Replace(legacy, "PR", "PR9", 1), string(raw)) // BENCH_PR92.json ... BENCH_PR910.json
	}

	base, err := findBaseline(dir, filepath.Join(dir, "BENCH_PR40.json"))
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(base.path) != "BENCH_PR31.json" {
		t.Fatalf("baseline %q, want BENCH_PR31.json", base.path)
	}
	if got := base.Benchmarks["HostForwardPath/sessions=1"].AllocsPerOp; got != 6 {
		t.Fatalf("baseline allocs/op %v, want 6", got)
	}

	base, err = findBaseline(t.TempDir(), "BENCH_RUN.json")
	if err != nil || base.path != "" || base.Benchmarks != nil {
		t.Fatalf("empty dir: baseline %+v %v, want none", base, err)
	}
}
