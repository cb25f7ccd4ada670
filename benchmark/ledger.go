package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"text/tabwriter"
)

// ledger is the machine-readable record of benchmark runs: the file
// -out appends to and -compare reads. Running the benchmark several
// times into one ledger gives -compare the medians and spreads it needs.
type ledger struct {
	// Env describes the machine of the first run appended.
	Env  map[string]string `json:"env"`
	Runs []*result         `json:"runs"`
}

func readLedger(path string) (*ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}

// appendLedger adds one run to the ledger at path, creating it if needed.
func appendLedger(path string, res *result) error {
	l, err := readLedger(path)
	if errors.Is(err, os.ErrNotExist) {
		l = &ledger{Env: map[string]string{
			"go":         runtime.Version(),
			"goos":       runtime.GOOS,
			"goarch":     runtime.GOARCH,
			"nproc":      fmt.Sprint(runtime.NumCPU()),
			"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		}}
	} else if err != nil {
		return err
	}
	l.Runs = append(l.Runs, res)
	// One run per line: the file stays greppable and diffs run by run.
	env, err := json.Marshal(l.Env)
	if err != nil {
		return err
	}
	var out bytes.Buffer
	fmt.Fprintf(&out, "{\"env\":%s,\n\"runs\":[", env)
	for i, r := range l.Runs {
		run, err := json.Marshal(r)
		if err != nil {
			return err
		}
		if i > 0 {
			out.WriteByte(',')
		}
		out.WriteByte('\n')
		out.Write(run)
	}
	out.WriteString("\n]}\n")
	return os.WriteFile(path, out.Bytes(), 0o644)
}

// values collects one end-to-end metric of one workload over a ledger's
// untraced runs.
func (l *ledger) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range l.Runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == 0 {
			out = append(out, m.Value)
		}
	}
	return out
}

// verdictFor applies the no-regression rule of the choosing-metrics guide
// to one workload × metric: regressed when the new median is worse than
// the old by more than the bound; unresolved when either side's
// run-to-run spread is wider than the bound, unless every new run reads
// better than every old one; otherwise unchanged.
func verdictFor(d metricDef, old, new []float64) string {
	mo, mn := median(old), median(new)
	worse := (mn - mo) / mo
	if d.Better == "higher" {
		worse = (mo - mn) / mo
	}
	if spread(old) > d.Bound || spread(new) > d.Bound {
		so, sn := sorted(old), sorted(new)
		allBetter := sn[len(sn)-1] < so[0]
		if d.Better == "higher" {
			allBetter = sn[0] > so[len(so)-1]
		}
		if !allBetter {
			return "unresolved"
		}
	}
	if worse > d.Bound {
		return "regressed"
	}
	return "unchanged"
}

// compareLedgers prints one row per workload × end-to-end metric and
// reports whether any row regressed.
func compareLedgers(w io.Writer, oldPath, newPath string) (regressed bool, err error) {
	old, err := readLedger(oldPath)
	if err != nil {
		return false, err
	}
	new, err := readLedger(newPath)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told median\tnew median\tnew/old (base: old)\tbound\told spread\tnew spread\truns\tverdict")
	rows := 0
	for _, wl := range workloads {
		for _, d := range endToEnd {
			o, n := old.values(wl.Name, d.Name), new.values(wl.Name, d.Name)
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			rows++
			v := verdictFor(d, o, n)
			regressed = regressed || v == "regressed"
			fmt.Fprintf(tw, "%s\t%s\t%.4f %s\t%.4f %s\t%.3f\t%.0f%%\t%.1f%%\t%.1f%%\t%d/%d\t%s\n",
				wl.Name, d.Name, median(o), d.Unit, median(n), d.Unit, median(n)/median(o),
				100*d.Bound, 100*spread(o), 100*spread(n), len(o), len(n), v)
		}
	}
	if err := tw.Flush(); err != nil {
		return false, err
	}
	if rows == 0 {
		return false, errors.New("the two ledgers share no workload with untraced runs")
	}
	return regressed, nil
}
