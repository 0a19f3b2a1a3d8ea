package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// definition is the part of BENCHMARK.json that -check reads.
type definition struct {
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readDefinition(path string) (definition, error) {
	var def definition
	b, err := os.ReadFile(path)
	if err != nil {
		return def, err
	}
	if err := json.Unmarshal(b, &def); err != nil {
		return def, fmt.Errorf("%s: %w", path, err)
	}
	return def, nil
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	return recs, nil
}

// verdict is -check's judgement of one metric on one workload.
type verdict string

const (
	agree   verdict = "ok"
	better  verdict = "better"
	worse   verdict = "WORSE"
	noisy   verdict = "NOISY"
	exact   verdict = "exact"
	differs verdict = "DIFFERS"
	info    verdict = "-"
)

// failing reports whether the verdict fails the comparison.
func (v verdict) failing() bool { return v == worse || v == noisy || v == differs }

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// judge compares set b against set a for one metric. A bounded metric
// agrees when each set's quartile spread is within the bound (set-up time
// excepted, whose spread is not gated) and b's median is not worse than
// a's by more than the bound. A count must read the same in every run of
// both sets. Other metrics are shown, not judged.
func judge(m boundedMetric, bounded bool, a, b []float64) verdict {
	switch {
	case bounded:
		if m.Name != "setup_s" && (spread(a) > m.Bound || spread(b) > m.Bound) {
			return noisy
		}
		change := relChange(median(a), median(b))
		if m.Better == "higher" {
			change = -change
		}
		switch {
		case change > m.Bound:
			return worse
		case change < -m.Bound:
			return better
		}
		return agree
	case m.Unit == "count":
		for _, x := range append(append([]float64(nil), a...), b...) {
			if x != a[0] {
				return differs
			}
		}
		return exact
	}
	return info
}

// runCheck compares two sets of -o results workload by workload and
// reports whether they agree within BENCHMARK.json's bounds.
func runCheck(defPath, aPath, bPath string, w io.Writer) (bool, error) {
	def, err := readDefinition(defPath)
	if err != nil {
		return false, err
	}
	a, err := readRecords(aPath)
	if err != nil {
		return false, err
	}
	b, err := readRecords(bPath)
	if err != nil {
		return false, err
	}
	ok := true
	for _, set := range []struct {
		path string
		recs []record
	}{{aPath, a}, {bPath, b}} {
		for _, r := range set.recs {
			if !r.Correct || r.Failed != 0 {
				fmt.Fprintf(w, "%s: %s seed %d: correct=%t, %d of %d runs failed\n",
					set.path, r.Workload, r.Seed, r.Correct, r.Failed, r.Attempted)
				ok = false
			}
		}
	}
	byWorkload := func(recs []record) map[string][]record {
		m := map[string][]record{}
		for _, r := range recs {
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m
	}
	wa, wb := byWorkload(a), byWorkload(b)
	var names []string
	for name := range wa {
		if _, both := wb[name]; both {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	values := func(recs []record, metric string) []float64 {
		var xs []float64
		for _, r := range recs {
			if v, ok := r.Metrics[metric]; ok {
				xs = append(xs, v.Value)
			}
		}
		return xs
	}
	fmt.Fprintf(w, "%-15s %-28s %-36s %-36s %8s %6s  %s\n", "workload", "metric",
		"A median [q1 q3] n", "B median [q1 q3] n", "change", "bound", "verdict")
	for _, name := range names {
		for i, m := range append(append([]boundedMetric(nil), def.EndToEnd...), def.PerLayer...) {
			bounded := i < len(def.EndToEnd)
			xa, xb := values(wa[name], m.Name), values(wb[name], m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			v := judge(m, bounded, xa, xb)
			if v.failing() {
				ok = false
			}
			bound := ""
			if bounded {
				bound = fmt.Sprintf("%.0f%%", 100*m.Bound)
			}
			fmt.Fprintf(w, "%-15s %-28s %-36s %-36s %+7.1f%% %6s  %s\n", name, m.Name,
				summary(xa), summary(xb), 100*relChange(median(xa), median(xb)), bound, v)
		}
	}
	return ok, nil
}

// relChange is b's change from a as a share of a.
func relChange(a, b float64) float64 {
	if a == b {
		return 0
	}
	return (b - a) / math.Abs(a)
}

func summary(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g %.4g] n=%d", median(xs), q1, q3, len(xs))
}
