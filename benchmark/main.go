// Command benchmark measures repair turnaround end to end and layer by
// layer on four named workloads. benchmark/README.md describes the
// workloads, the metrics and how to read them; BENCHMARK.json at the
// repository root is the contract the driver runs this against.
//
//	bash benchmark/run.sh --workload table1 --seed 1 --seconds 30 --trace 0
//	bash benchmark/run.sh --workload table1 --seed 1 --seconds 30 --trace 1
//	bash benchmark/run.sh -out benchmark/ledger/BENCH_11.json   # all workloads, both modes
//	bash benchmark/run.sh -compare old.json new.json
//
// run.sh builds this package and cmd/metarepaird into .bench_build/ and
// passes -daemon and -scratch; building is therefore outside every metric.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"syscall"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds: how long the measured
// loop of one run lasts unless the command line says otherwise.
const defaultSeconds = 30

func main() {
	var cfg runConfig
	workloadName := flag.String("workload", "", "workload to run (default: all four, each mode, each in a child process)")
	flag.Int64Var(&cfg.Seed, "seed", 1, "input seed: rotates cell order and raises each cell's flow count by 0-1%")
	flag.Float64Var(&cfg.Seconds, "seconds", defaultSeconds, "how long the measured loop runs")
	flag.IntVar(&cfg.Trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	flag.IntVar(&cfg.Rounds, "rounds", 0, "run this many rounds (service: jobs) instead of -seconds")
	flag.StringVar(&cfg.Scratch, "scratch", "", "directory for stores and daemon data (default: the system temp dir)")
	flag.StringVar(&cfg.Spans, "spans", "", "traced runs write their spans to this file")
	flag.StringVar(&cfg.Daemon, "daemon", "", "metarepaird binary (needed by the service workload)")
	out := flag.String("out", "", "append every run's result to this ledger file")
	compare := flag.Bool("compare", false, "compare two ledgers: -compare old.json new.json")
	expected := flag.String("write-expected", "", "regenerate the golden outputs into this directory and exit")
	timeout := flag.Duration("timeout", 170*time.Second, "give up on a single run after this long")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare needs two ledger files")
			break
		}
		var regressed bool
		if regressed, err = compareLedgers(os.Stdout, flag.Arg(0), flag.Arg(1)); err == nil && regressed {
			os.Exit(1)
		}
	case *expected != "":
		err = writeExpected(ctx, *expected)
	case *workloadName == "":
		err = runAll(ctx)
	default:
		err = runOne(ctx, *workloadName, cfg, *out, *timeout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// errIncorrect marks a run that measured but whose outputs were wrong.
var errIncorrect = errors.New("run incorrect: an op failed or a reconciliation check did not hold")

// runOne runs one workload in this process, prints every metric, appends
// the result to the ledger, and prints the contract line last.
func runOne(ctx context.Context, name string, cfg runConfig, ledger string, timeout time.Duration) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if cfg.Trace != 0 && cfg.Trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if cfg.Scratch != "" {
		if err := os.MkdirAll(cfg.Scratch, 0o755); err != nil {
			return err
		}
	}
	if cfg.Scratch, err = os.MkdirTemp(cfg.Scratch, "run-"); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.Scratch)
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	var res *result
	if w.Service {
		res, err = runService(ctx, w, cfg)
	} else {
		res, err = runInProcess(ctx, w, cfg)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	res.fill()
	res.Correct = res.Failed == 0 && len(res.Notes) == 0
	fmt.Print(res.text())
	if ledger != "" {
		if err := appendLedger(ledger, res); err != nil {
			return err
		}
	}
	fmt.Println(res.contractLine())
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// runAll runs every workload untraced and traced, each run in a fresh
// child process so that no run inherits another's heap, caches or CPU
// accounting. Flags pass through unchanged.
func runAll(ctx context.Context) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			args := []string{"-workload", w.Name, "-trace", fmt.Sprint(trace)}
			flag.Visit(func(f *flag.Flag) {
				if f.Name != "workload" && f.Name != "trace" && f.Name != "spans" {
					args = append(args, "-"+f.Name, f.Value.String())
				}
			})
			cmd := exec.CommandContext(ctx, self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			// The child cleans up after itself when asked to stop.
			cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
			cmd.WaitDelay = stopTimeout + 5*time.Second
			if err := cmd.Run(); err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				failed = append(failed, fmt.Sprintf("%s/trace=%d: %v", w.Name, trace, err))
			}
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d run(s) failed: %v", len(failed), failed)
	}
	return nil
}
