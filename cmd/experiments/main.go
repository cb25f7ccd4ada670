// Command experiments regenerates every table and figure of the paper's
// evaluation section on the simulated substrate and prints them in order.
//
// Usage:
//
//	experiments [-quick] [-only table1,table2,table3,table6,fig9a,fig9b,fig9c,fig10,overhead,suite,ablations]
//
// -quick shrinks workloads and scaling series so the full run finishes in
// well under a minute; without it the run matches EXPERIMENTS.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/scenario"
)

func main() {
	var (
		quick = flag.Bool("quick", false, "smaller workloads and scaling series")
		only  = flag.String("only", "", "comma-separated subset of experiments to run")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	sc := scenario.Scale{Switches: 19, Flows: 900}
	sizes := []int{19, 49, 79, 109, 139, 169}
	lineSizes := []int{100, 300, 500, 700, 900}
	events := 30000
	if *quick {
		sc.Flows = 500
		sizes = []int{19, 49, 79}
		lineSizes = []int{100, 300, 500}
		events = 8000
	}

	want := map[string]bool{}
	for _, part := range strings.Split(*only, ",") {
		if part = strings.TrimSpace(part); part != "" {
			want[part] = true
		}
	}
	run := func(name string) bool { return len(want) == 0 || want[name] }
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		os.Exit(1)
	}

	total := time.Now()

	if run("table1") {
		rows, err := experiments.Table1(ctx, sc)
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.FormatTable1(rows))
	}
	if run("table2") {
		rows, err := experiments.CandidateTable(ctx, scenario.Q1Spec().MustInstantiate(sc))
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.FormatCandidates("Table 2: Q1 candidate repairs (3 accepted / 5 rejected, KS statistic)", rows))
	}
	if run("table6") {
		for _, name := range []string{"Q2", "Q3", "Q4", "Q5"} {
			s, err := scenario.Instantiate(name, sc)
			if err != nil {
				fail(err)
			}
			rows, err := experiments.CandidateTable(ctx, s)
			if err != nil {
				fail(err)
			}
			fmt.Println(experiments.FormatCandidates(
				fmt.Sprintf("Table 6(%s): %s candidate repairs", strings.ToLower(name[1:]), name), rows))
		}
	}
	if run("table3") {
		rows, err := experiments.Table3(ctx, sc)
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.FormatTable3(rows))
	}
	if run("fig9a") {
		rows, err := experiments.Figure9a(ctx, sc)
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.FormatFigure9a(rows))
	}
	if run("fig9b") {
		rows, err := experiments.Figure9b(ctx, sc, 9)
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.FormatFigure9b(rows))
	}
	if run("fig9c") {
		rows, err := experiments.Figure9c(ctx, sizes, sc.Flows)
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.FormatFigure9c(rows))
	}
	if run("fig10") {
		rows, err := experiments.Figure10(ctx, lineSizes, sc)
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.FormatFigure10(rows))
	}
	if run("overhead") {
		rep, err := experiments.Overhead(sc, events)
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.FormatOverhead(rep))
	}
	if run("suite") {
		scales := []scenario.Scale{sc, {Switches: 49, Flows: sc.Flows}}
		if *quick {
			scales = scales[:1]
		}
		m, err := experiments.SuiteMatrix(ctx, scales, 0)
		if m != nil {
			fmt.Println(m.Render())
		}
		if err != nil {
			fail(err)
		}
	}
	if run("ablations") {
		oSteps, fSteps, oCands, fCands, err := experiments.AblationCostOrder(ctx, sc)
		if err != nil {
			fail(err)
		}
		fmt.Printf("Ablation (cost order): ordered %d steps -> %d candidates; uniform-cost %d steps -> %d candidates\n",
			oSteps, oCands, fSteps, fCands)
		with, without, err := experiments.AblationCoalescing(ctx, sc)
		if err != nil {
			fail(err)
		}
		fmt.Printf("Ablation (coalescing): shared backtest %v with, %v without\n", with, without)
		barrier, streaming, overlap, err := experiments.AblationPipeline(ctx, sc, 0)
		if err != nil {
			fail(err)
		}
		fmt.Printf("Ablation (pipeline): barrier %v, streaming %v (%v explore/replay overlap)\n\n",
			barrier.Round(time.Millisecond), streaming.Round(time.Millisecond), overlap.Round(time.Millisecond))
	}

	fmt.Printf("all experiments completed in %v\n", time.Since(total).Round(time.Millisecond))
}
