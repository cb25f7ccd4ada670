package main

import (
	"context"
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/metarepair"
)

// goldenSeed is the seed whose outputs are committed under expected/.
const goldenSeed = 1

//go:embed expected
var expectedFS embed.FS

// verdict is one backtested candidate as the golden files record it: the
// repair's description, whether it was accepted, and the KS statistic to
// five decimals (a string, so comparison is exact).
type verdict struct {
	Desc     string `json:"desc"`
	Accepted bool   `json:"accepted"`
	KS       string `json:"ks"`
}

// verdictsOf lists a report's evaluated candidates in cost order. Only a
// first-accepted early stop leaves candidates out.
func verdictsOf(rep *metarepair.Report) []verdict {
	out := make([]verdict, 0, len(rep.Results))
	for i, r := range rep.Results {
		if rep.IsEvaluated(i) {
			out = append(out, verdict{r.Candidate.Describe(), r.Accepted, fmt.Sprintf("%.5f", r.KS)})
		}
	}
	return out
}

// golden maps cell name to the cell's full cost-ordered verdict vector.
type golden map[string][]verdict

// loadGolden returns the committed outputs of a workload at goldenSeed,
// or nil for any other seed — those runs are held to the IntuitiveFix
// oracle and to op-to-op determinism instead.
func loadGolden(w workload, seed int64) (golden, error) {
	if seed != goldenSeed {
		return nil, nil
	}
	data, err := expectedFS.ReadFile("expected/" + w.Name + ".json")
	if err != nil {
		return nil, fmt.Errorf("no golden outputs for %s (run with -write-expected): %w", w.Name, err)
	}
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("expected/%s.json: %w", w.Name, err)
	}
	return g, nil
}

// checker judges every op's outputs against a reference: the golden
// vector at goldenSeed, otherwise what the cell produced first in this
// run, so that any seed at least holds the program to determinism.
type checker struct {
	mu   sync.Mutex // service clients check concurrently
	want golden
	// seen is checkSubset's reference at seeds without a golden vector:
	// cell → description → the first verdict seen for it.
	seen map[string]map[string]verdict
}

func newChecker(g golden) *checker {
	if g == nil {
		g = golden{}
	}
	return &checker{want: g, seen: map[string]map[string]verdict{}}
}

// check judges a full report: the scenario's intuitive fix must be among
// the accepted repairs and the cost-ordered verdict vector must equal the
// cell's reference.
func (c *checker) check(cellName, intuitiveFix string, got []verdict) error {
	if err := hasAcceptedFix(intuitiveFix, got); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	want, ok := c.want[cellName]
	if !ok {
		c.want[cellName] = got
		return nil
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d verdicts, reference has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("verdict %d is %+v, reference %+v", i, got[i], want[i])
		}
	}
	return nil
}

// checkSubset judges an early-stopped (first-accepted) report. Which
// candidates were evaluated before the stop depends on which batch
// finished first — with two accepted repairs in different batches, either
// may be the one returned — so the report must hold some accepted repair,
// and every evaluated candidate must carry the reference verdict of the
// same description.
func (c *checker) checkSubset(cellName string, got []verdict) error {
	if hasAcceptedFix("", got) != nil {
		return errors.New("the report holds no accepted repair")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ref := c.seen[cellName]
	if ref == nil {
		ref = map[string]verdict{}
		for _, v := range c.want[cellName] {
			ref[v.Desc] = v
		}
		c.seen[cellName] = ref
	}
	_, closed := c.want[cellName] // a golden vector lists every candidate there is
	for _, v := range got {
		w, ok := ref[v.Desc]
		switch {
		case ok && v != w:
			return fmt.Errorf("verdict %+v, reference %+v", v, w)
		case !ok && closed:
			return fmt.Errorf("candidate %q is not in the reference", v.Desc)
		case !ok:
			ref[v.Desc] = v
		}
	}
	return nil
}

// hasAcceptedFix reports whether an accepted repair's description
// contains intuitiveFix ("" matches any accepted repair).
func hasAcceptedFix(intuitiveFix string, got []verdict) error {
	for _, v := range got {
		if v.Accepted && strings.Contains(v.Desc, intuitiveFix) {
			return nil
		}
	}
	return fmt.Errorf("no accepted repair matches the intuitive fix %q", intuitiveFix)
}

// writeExpected regenerates the golden files in dir: every cell of every
// workload at goldenSeed under the reference composition (full
// evaluation, barrier pipeline). Production runs are then checked against
// these on every op, which is what shows the two paths agree.
func writeExpected(ctx context.Context, dir string) error {
	reference := []metarepair.Option{
		metarepair.WithEvalMode(metarepair.EvalFull),
		metarepair.WithPipelineMode(metarepair.PipelineBarrier),
	}
	for _, w := range workloads {
		g := golden{}
		for _, c := range w.seeded(goldenSeed) {
			c.Store = false // the reference replays from memory
			in, err := instantiate(c, "", nil)
			if err != nil {
				return err
			}
			sess, _, err := in.sc.Diagnose(append(append([]metarepair.Option{}, c.Opts...), reference...)...)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", w.Name, c.Name, err)
			}
			rep, err := sess.Repair(ctx, in.sc.Symptom(), in.sc.Backtest())
			if err != nil {
				return fmt.Errorf("%s/%s: %w", w.Name, c.Name, err)
			}
			g[c.Name] = verdictsOf(rep)
			if err := hasAcceptedFix(in.sc.IntuitiveFix, g[c.Name]); err != nil {
				return fmt.Errorf("%s/%s: %w", w.Name, c.Name, err)
			}
		}
		data, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, w.Name+".json"), append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}
