// Command campaignbench is the campaign-path benchmark (see ../README.md).
//
//	go run ./bench/campaignbench -seed 1 -o bench/out/result.json
//	go run ./bench/campaignbench -seed 1 -trace 1
//	go run ./bench/campaignbench -workload remote_durable -seed 7 -seconds 18 -trace 0
//	go run ./bench/campaignbench -compare a.json b.json
//	go run ./bench/campaignbench -benchmark-json > BENCHMARK.json
//
// Without -workload it runs all six workloads; with one it also prints, as
// the last line of standard output, the driver's JSON object. Every output
// check runs on every repetition and a failed check fails the command.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"fairflow/bench"
)

func main() {
	workload := flag.String("workload", "", "run one workload (default: all six)")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	secs := flag.Float64("seconds", bench.RunSeconds, "measuring time per workload")
	trace := flag.Int("trace", 0, "1 = the traced run: per-layer metrics, ledger, bench/out/<workload>.trace.json")
	out := flag.String("o", "", "write the result JSON here")
	workdir := flag.String("workdir", "", "empty directory to work in (default: a unique child of /dev/shm, else of the temp dir, else of .)")
	quick := flag.Bool("quick", false, "smoke sizes: N ≤ 200, one repetition")
	compare := flag.Bool("compare", false, "compare two result files: campaignbench -compare a.json b.json")
	benchmarkJSON := flag.Bool("benchmark-json", false, "print the root BENCHMARK.json this program implements")
	flag.Parse()

	if *compare {
		os.Exit(compareFiles(flag.Args()))
	}
	if *benchmarkJSON {
		data, err := bench.BenchmarkJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "campaignbench:", err)
			os.Exit(1)
		}
		os.Stdout.Write(data)
		return
	}
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}

	// SIGINT/SIGTERM cancel the campaign in flight; Run then removes its
	// work directory on the way out like on any other path.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opts := bench.Options{
		Seed: *seed, Seconds: *secs, Trace: *trace == 1, Quick: *quick,
		WorkDir: *workdir, OutDir: "bench/out", Stdout: os.Stdout,
	}
	var names []string
	if *workload != "" {
		names = []string{*workload}
	}
	res, err := bench.Run(ctx, opts, names...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench:", err)
		os.Exit(1)
	}
	if *out != "" {
		if err := res.WriteFile(*out); err != nil {
			fmt.Fprintln(os.Stderr, "campaignbench:", err)
			os.Exit(1)
		}
	}
	if *workload != "" {
		line, err := res.Workloads[0].ContractLine()
		if err != nil {
			fmt.Fprintln(os.Stderr, "campaignbench:", err)
			os.Exit(1)
		}
		fmt.Printf("%s\n", line)
	}
}

func compareFiles(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: campaignbench -compare a.json b.json")
		return 2
	}
	a, err := bench.ReadResult(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench:", err)
		return 2
	}
	b, err := bench.ReadResult(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench:", err)
		return 2
	}
	diffs := bench.Compare(a, b)
	for _, d := range diffs {
		fmt.Println(d)
	}
	if len(diffs) > 0 {
		return 1
	}
	fmt.Println("campaignbench: every (workload, end-to-end metric) pair agrees within its bound")
	return 0
}
