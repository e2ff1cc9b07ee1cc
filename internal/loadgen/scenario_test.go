package loadgen

import (
	"strings"
	"testing"
	"time"

	"lasthop/internal/trace"
)

// runAtlasScenario executes one atlas entry at CI scale and applies the
// conservation oracle every scenario must satisfy regardless of its own
// budget: the verdict passes, every sampled trace reached exactly one
// terminal outcome, and the waste accounting is well-formed.
func runAtlasScenario(t *testing.T, name string) *Report {
	t.Helper()
	sc, err := FindScenario(name)
	if err != nil {
		t.Fatal(err)
	}
	// A throughput floor in a unit test measures the machine: the race
	// detector, or test binaries sharing the cores, push it under. It is
	// gated where the run owns the CPU (scripts/check_scenarios.sh and
	// the full lasthop-benchgate run); TestBudgetEvaluate covers the
	// floor's verdict branch deterministically.
	sc.Budget.MinDeliverPerSec = 0
	rep, err := RunScenario(sc, ScenarioOptions{Timeout: 90 * time.Second, Logf: t.Logf})
	if err != nil {
		t.Fatalf("scenario %s: %v", name, err)
	}
	v := rep.Verdict
	if v == nil {
		t.Fatalf("scenario %s: no verdict on the report", name)
	}
	if !v.Pass {
		t.Errorf("scenario %s verdict failed:\n  %s", name, strings.Join(v.Failures, "\n  "))
	}

	// Conservation under churn: with 100%% sampling the outcome tally
	// must cover every sampled notification exactly once — reconnects,
	// remaps, and partitions may shuffle *which* outcome, never the sum.
	if rep.TraceConservation != "" {
		t.Errorf("scenario %s: conservation violated: %s", name, rep.TraceConservation)
	}
	var total uint64
	for o, c := range rep.TraceOutcomes {
		if o == "" {
			t.Errorf("scenario %s: %d traces completed without a terminal outcome", name, c)
		}
		total += c
	}
	if total != rep.TraceSampled {
		t.Errorf("scenario %s: outcomes cover %d traces, sampled %d", name, total, rep.TraceSampled)
	}
	if uint64(rep.Published) != rep.TraceSampled {
		t.Errorf("scenario %s: published %d but sampled %d", name, rep.Published, rep.TraceSampled)
	}
	if rep.WastePct < 0 || rep.WastePct > 100 {
		t.Errorf("scenario %s: waste %.2f%% out of range", name, rep.WastePct)
	}
	if st := rep.Collector.Stats(); st.Active != 0 {
		t.Errorf("scenario %s: %d traces still active after FinishActive", name, st.Active)
	}
	return rep
}

func TestScenarioFlashCrowd(t *testing.T) {
	rep := runAtlasScenario(t, "flash-crowd")
	if rep.Verdict.Lost != 0 {
		t.Errorf("flash crowd lost %d notifications", rep.Verdict.Lost)
	}
}

func TestScenarioMassReconnect(t *testing.T) {
	rep := runAtlasScenario(t, "mass-reconnect")
	// The herd must exercise the machinery it exists to stress.
	if got := rep.Collector.Stats(); got.Sampled == 0 {
		t.Fatal("mass reconnect sampled nothing")
	}
}

func TestScenarioRankStorm(t *testing.T) {
	rep := runAtlasScenario(t, "rank-storm")
	if rep.TraceOutcomes[string(trace.OutcomeExpired)] == 0 {
		t.Error("rank storm retired nothing: revisions never reached the delay stage")
	}
}

func TestScenarioRemapChurn(t *testing.T) {
	runAtlasScenario(t, "remap-churn")
}

// quiet-flood is exercised by scripts/check_scenarios.sh: its release
// waits for a real wall-clock minute boundary (up to ~80s), too slow for
// the unit suite.

// TestBudgetEvaluate drives the verdict arithmetic on synthetic reports,
// one violation per case.
func TestBudgetEvaluate(t *testing.T) {
	base := func() *Report {
		return &Report{
			Config:       Config{TraceSample: 1},
			TraceSampled: 100,
			TraceOutcomes: map[string]uint64{
				string(trace.OutcomeRead):   90,
				string(trace.OutcomeWasted): 10,
			},
			WastePct:     10,
			Duplicates:   2,
			HopLatencyMs: map[string]HopQuantiles{"lastHop": {N: 100, P99: 40}},
		}
	}
	cases := []struct {
		name   string
		budget Budget
		mutate func(*Report)
		extra  []string
		want   string // substring of the sole expected failure; "" = pass
	}{
		{
			name:   "pass",
			budget: Budget{MaxDuplicates: 5, MaxWastePct: 15, MinReadPct: 80, HopP99Ms: map[string]float64{"lastHop": 50}},
		},
		{
			name:   "lost over budget",
			budget: Budget{MaxDuplicates: 5, MaxWastePct: 15},
			mutate: func(r *Report) { r.TraceOutcomes[string(trace.OutcomeLost)] = 3 },
			want:   "lost 3 notifications, budget 0",
		},
		{
			name:   "duplicates over budget",
			budget: Budget{MaxDuplicates: 1, MaxWastePct: 15},
			want:   "2 duplicate deliveries, budget 1",
		},
		{
			name:   "waste over budget",
			budget: Budget{MaxDuplicates: 5, MaxWastePct: 5},
			want:   "waste 10.00%, budget 5.00%",
		},
		{
			name:   "read floor",
			budget: Budget{MaxDuplicates: 5, MaxWastePct: 15, MinReadPct: 95},
			want:   "only 90.0% of traces read",
		},
		{
			name:   "expired floor",
			budget: Budget{MaxDuplicates: 5, MaxWastePct: 15, MinExpiredPct: 20},
			want:   "only 0.0% of traces expired",
		},
		{
			name:   "hop over budget",
			budget: Budget{MaxDuplicates: 5, MaxWastePct: 15, HopP99Ms: map[string]float64{"lastHop": 10}},
			want:   `hop "lastHop" p99 40.0ms, budget 10.0ms`,
		},
		{
			name:   "hop unobserved",
			budget: Budget{MaxDuplicates: 5, MaxWastePct: 15, HopP99Ms: map[string]float64{"proxyQueue": 10}},
			want:   `hop "proxyQueue" has no latency observations`,
		},
		{
			name:   "throughput floor",
			budget: Budget{MaxDuplicates: 5, MaxWastePct: 15, MinDeliverPerSec: 20500},
			mutate: func(r *Report) { r.DeliverPerSec = 19000 },
			want:   "delivered 19000/s end to end, floor 20500/s",
		},
		{
			name:   "throughput at the floor",
			budget: Budget{MaxDuplicates: 5, MaxWastePct: 15, MinDeliverPerSec: 20500},
			mutate: func(r *Report) { r.DeliverPerSec = 20500 },
		},
		{
			name:   "conservation violation",
			budget: Budget{MaxDuplicates: 5, MaxWastePct: 15},
			mutate: func(r *Report) { r.TraceConservation = "outcomes cover 99 traces, sampled 100" },
			want:   "trace conservation violated",
		},
		{
			name:   "runner-side failure",
			budget: Budget{MaxDuplicates: 5, MaxWastePct: 15},
			extra:  []string{"device sc-dev-3 received 4 on-line pushes after the quiet release, want 3 (cap 3)"},
			want:   "device sc-dev-3 received 4",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := base()
			if tc.mutate != nil {
				tc.mutate(rep)
			}
			v := tc.budget.Evaluate("synthetic", rep, tc.extra)
			if tc.want == "" {
				if !v.Pass {
					t.Fatalf("want pass, got failures %v", v.Failures)
				}
				return
			}
			if v.Pass {
				t.Fatalf("want failure %q, got pass", tc.want)
			}
			if len(v.Failures) != 1 || !strings.Contains(v.Failures[0], tc.want) {
				t.Fatalf("want sole failure containing %q, got %v", tc.want, v.Failures)
			}
		})
	}
}

// TestAtlasWellFormed keeps every atlas entry self-consistent without
// running it: unique names, a documented failure mode, a zero lost
// budget, and at least one publishing phase.
func TestAtlasWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, sc := range Atlas() {
		if sc.Name == "" || seen[sc.Name] {
			t.Errorf("scenario name %q empty or duplicated", sc.Name)
		}
		seen[sc.Name] = true
		if sc.Description == "" || sc.FailureMode == "" {
			t.Errorf("scenario %s: missing description or failure mode", sc.Name)
		}
		if sc.Budget.MaxLost != 0 {
			t.Errorf("scenario %s: MaxLost %d — the atlas never budgets for loss", sc.Name, sc.Budget.MaxLost)
		}
		if sc.Devices < 1 || sc.Topics < 1 || len(sc.Phases) == 0 {
			t.Errorf("scenario %s: degenerate shape", sc.Name)
		}
		published := false
		for _, ph := range sc.Phases {
			if ph.PublishMean > 0 {
				published = true
			}
		}
		if !published {
			t.Errorf("scenario %s: no phase publishes anything", sc.Name)
		}
		if _, err := FindScenario(sc.Name); err != nil {
			t.Errorf("FindScenario(%s): %v", sc.Name, err)
		}
	}
}
