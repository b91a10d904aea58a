package report

import (
	"fmt"
	"io"
	"math"
	"sort"
	"text/tabwriter"
)

// Median returns the median of vs (0 for none).
func Median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// Spread is the distance between the first and third quartile of vs as a
// share of the median, with the quartiles Python's
// statistics.quantiles(vs, n=4) gives (the exclusive method). With fewer
// than two values there is no spread to speak of and it returns 0.
func Spread(vs []float64) float64 {
	n := len(vs)
	med := Median(vs)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	quartile := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return (quartile(3) - quartile(1)) / math.Abs(med)
}

// Compare prints, per workload and end-to-end metric, both medians, how
// much worse b is than a, the bound, and a verdict: "regressed" when b's
// median is worse than a's by more than the bound, "unresolved" when either
// side's spread is wider than the bound (the runs cannot tell), else "ok".
// The Demoted metrics follow, with the change of the median (b against a,
// signed as measured) and no verdict. Traced runs of the same workload and
// seed must also agree exactly on the Exact metrics. It reports whether anything regressed.
func Compare(w io.Writer, a, b File) (regressed bool) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian a\tmedian b\tworse by\tbound\tspread a\tspread b\tn\tverdict")
	for _, wl := range Workloads {
		for _, m := range EndToEnd {
			va, vb := values(a, wl.Name, m.Name, false), values(b, wl.Name, m.Name, false)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := Median(va), Median(vb)
			worse := (mb - ma) / math.Abs(ma)
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := Spread(va), Spread(vb)
			verdict := "ok"
			switch {
			case sa > m.Bound || sb > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
				regressed = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.0f%%\t%.1f%%\t%.1f%%\t%d/%d\t%s\n",
				wl.Name, m.Name, m.Unit, ma, mb, 100*worse, 100*m.Bound, 100*sa, 100*sb, len(va), len(vb), verdict)
		}
	}
	// What the demotion rule moved out of the end-to-end table is still
	// shown, from the traced runs, without bound or verdict.
	for _, wl := range Workloads {
		for _, name := range Demoted {
			va, vb := values(a, wl.Name, name, true), values(b, wl.Name, name, true)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := Median(va), Median(vb)
			fmt.Fprintf(tw, "%s\t%s\t\t%.6g\t%.6g\t%+.1f%%\t\t%.1f%%\t%.1f%%\t%d/%d\tunbounded\n",
				wl.Name, name, ma, mb, 100*(mb-ma)/math.Abs(ma), 100*Spread(va), 100*Spread(vb), len(va), len(vb))
		}
	}
	tw.Flush()
	for _, ra := range a.Runs {
		for _, rb := range b.Runs {
			if !ra.Trace || !rb.Trace || ra.Workload != rb.Workload || ra.Seed != rb.Seed {
				continue
			}
			for _, name := range Exact {
				if va, vb := ra.Metrics[name].Value, rb.Metrics[name].Value; va != vb {
					fmt.Fprintf(w, "%s seed %d: %s changed from %v to %v: a behaviour change\n", ra.Workload, ra.Seed, name, va, vb)
					regressed = true
				}
			}
		}
	}
	return regressed
}

// values collects one metric across a file's traced or untraced runs of a
// workload.
func values(f File, workload, metric string, traced bool) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Workload != workload || r.Trace != traced {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}
