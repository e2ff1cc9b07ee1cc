package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// benchDef is the part of BENCHMARK.json the compare mode needs.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// bound is one metric's direction and, for end-to-end metrics, its bound.
type bound struct {
	better string
	bound  float64 // 0 for per-layer metrics
	e2e    bool
}

func loadBounds(path string) (map[string]bound, []string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var def benchDef
	if err := json.Unmarshal(b, &def); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]bound{}
	var order []string
	for _, m := range def.EndToEnd {
		out[m.Name] = bound{better: m.Better, bound: m.Bound, e2e: true}
		order = append(order, m.Name)
	}
	for _, m := range def.PerLayer {
		out[m.Name] = bound{better: m.Better}
		order = append(order, m.Name)
	}
	return out, order, nil
}

// runSet is one set of runs: workload → metric → seed → value.
type runSet map[string]map[string]map[uint64]float64

// readRuns collects the provenance lines of benchmark runs from files of
// their standard output (any other line is skipped), and counts the runs
// of each workload whose result was not correct.
func readRuns(path string) (runSet, map[string]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	set, incorrect := runSet{}, map[string]int{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		var line struct {
			Rep *report `json:"perfbench"`
		}
		if json.Unmarshal(sc.Bytes(), &line) != nil || line.Rep == nil {
			continue
		}
		r := line.Rep
		if !r.Correct {
			incorrect[r.Workload]++
		}
		if set[r.Workload] == nil {
			set[r.Workload] = map[string]map[uint64]float64{}
		}
		for name, v := range r.Values {
			if set[r.Workload][name] == nil {
				set[r.Workload][name] = map[uint64]float64{}
			}
			set[r.Workload][name][r.Seed] = v
		}
	}
	return set, incorrect, sc.Err()
}

func values(m map[uint64]float64) []float64 {
	var xs []float64
	for _, v := range m {
		xs = append(xs, v)
	}
	return xs
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// verdict judges set b (the change) against set a (the parent) on one
// metric. Unresolved: the parent's own spread is wider than the bound and
// the change does not beat every parent run. Worse: the change's median
// is worse by more than the bound. Better: the change wins at least nine
// in ten seed pairs and the medians differ by more than the parent's
// interquartile distance. Per-layer metrics have no bound; the parent's
// spread stands in for it.
func verdict(a, b map[uint64]float64, bd bound) string {
	xa, xb := values(a), values(b)
	if len(xa) == 0 || len(xb) == 0 {
		return "missing"
	}
	sign := 1.0 // +1: lower is better
	if bd.better == "higher" {
		sign = -1
	}
	ma, mb := median(xa), median(xb)
	q1, q3 := quartiles(xa)
	limit := bd.bound
	if !bd.e2e {
		limit = spread(xa)
	}
	allBetter := true
	for _, va := range xa {
		for _, vb := range xb {
			if sign*(vb-va) >= 0 {
				allBetter = false
			}
		}
	}
	if spread(xa) > limit && !allBetter && bd.e2e {
		return "unresolved"
	}
	if sign*(mb-ma) > limit*math.Abs(ma) {
		return "worse"
	}
	wins, pairs := 0, 0
	for seed, va := range a {
		if vb, ok := b[seed]; ok {
			pairs++
			if sign*(vb-va) < 0 {
				wins++
			}
		}
	}
	if pairs > 0 && 10*wins >= 9*pairs && math.Abs(mb-ma) > q3-q1 {
		return "better"
	}
	return "unchanged"
}

// compareMain prints, per workload and metric, each set's median and
// quartiles. With one set it reports each spread against its bound (the
// steadiness check: within a third of the bound is steady); with two it
// gives the change's verdict. It returns 1 when an end-to-end metric is
// unsteady (one set) or worse (two sets), or when a run of the last set
// was not correct.
func compareMain(benchPath string, files []string, w io.Writer) int {
	if len(files) < 1 || len(files) > 2 {
		fmt.Fprintln(os.Stderr, "perfbench: -compare takes one or two result files")
		return 2
	}
	bounds, order, err := loadBounds(benchPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	var sets []runSet
	var incorrect map[string]int
	for _, f := range files {
		s, bad, err := readRuns(f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 2
		}
		sets = append(sets, s)
		incorrect = bad
	}
	var names []string
	for wl := range sets[0] {
		names = append(names, wl)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	status := 0
	if len(sets) == 1 {
		fmt.Fprintln(tw, "workload\tmetric\tn\tmedian\tq1\tq3\tspread\tbound\tsteadiness")
	} else {
		fmt.Fprintln(tw, "workload\tmetric\tbase median\tbase q1\tbase q3\tchange median\tchange q1\tchange q3\tbound\tverdict")
	}
	for _, wl := range names {
		for _, m := range order {
			a := sets[0][wl][m]
			bd := bounds[m]
			xa := values(a)
			if len(xa) == 0 {
				continue
			}
			q1, q3 := quartiles(xa)
			if len(sets) == 1 {
				sp := spread(xa)
				state := "-"
				if bd.e2e {
					switch {
					case sp <= bd.bound/3:
						state = "steady"
					case sp <= bd.bound:
						state = "within bound"
					default:
						state = "UNSTEADY"
						status = 1
					}
				}
				fmt.Fprintf(tw, "%s\t%s\t%d\t%.4g\t%.4g\t%.4g\t%.3f\t%g\t%s\n", wl, m, len(xa), median(xa), q1, q3, sp, bd.bound, state)
				continue
			}
			b := sets[1][wl][m]
			xb := values(b)
			v := verdict(a, b, bd)
			if v == "worse" && bd.e2e {
				status = 1
			}
			b1, b3 := quartiles(xb)
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%g\t%s\n", wl, m, median(xa), q1, q3, median(xb), b1, b3, bd.bound, v)
		}
	}
	_ = tw.Flush()
	for _, wl := range names {
		if n := incorrect[wl]; n > 0 {
			fmt.Fprintf(w, "%s: %d runs not correct\n", wl, n)
			status = 1
		}
	}
	return status
}
