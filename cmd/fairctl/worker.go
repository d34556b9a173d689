package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"fairflow/internal/cas"
	"fairflow/internal/cheetah"
	"fairflow/internal/remote"
	"fairflow/internal/savanna"
	"fairflow/internal/telemetry"
	"fairflow/internal/telemetry/eventlog"
)

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }

// workerCmd implements "fairctl worker": join a coordinator as a remote
// execution worker, running each assigned run through a command template
// (the same {param} substitution as "savanna run"). With -cas the worker
// keeps a local action cache seeded from the coordinator's lease grant, so
// repeated campaigns skip already-computed runs and only digests cross the
// wire; -out names which files each run produces for collection.
//
// The worker exits 0 when a coordinator drains it. A coordinator that is not
// listening yet, or that died, is redialed until -dial-wait passes without an
// attach, so workers may be started before the coordinator and survive its
// replacement by a successor.
func workerCmd(args []string) {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	connect := fs.String("connect", "", "coordinator address (host:port)")
	name := fs.String("name", "", "worker name (default: coordinator-assigned)")
	slots := fs.Int("slots", 1, "concurrent runs this worker executes")
	workdir := fs.String("workdir", "", "root for per-run working directories (default: a temp dir)")
	timeout := fs.Duration("timeout", 0, "per-process walltime (0 = none)")
	dialWait := fs.Duration("dial-wait", 30*time.Second, "keep redialing a coordinator that is not (or no longer) listening for this long")
	casDir := fs.String("cas", "", "artifact store directory for the worker-side memo cache")
	var outs multiFlag
	fs.Var(&outs, "out", "output artifact as name:relpath under the run's working directory (repeatable)")
	fs.Parse(args)

	if *connect == "" {
		fatal(fmt.Errorf("worker needs -connect"))
	}
	command := fs.Args()
	if len(command) == 0 {
		fatal(fmt.Errorf("worker needs a command template after -- (placeholders: {param})"))
	}
	if *workdir == "" {
		dir, err := os.MkdirTemp("", "fairctl-worker-*")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(dir)
		*workdir = dir
	}

	outputs := map[string]string{} // artifact name → relpath in run dir
	for _, o := range outs {
		n, rel, ok := strings.Cut(o, ":")
		if !ok || n == "" || rel == "" {
			fatal(fmt.Errorf("worker: -out wants name:relpath, got %q", o))
		}
		outputs[n] = rel
	}

	w := &remote.Worker{
		Name:  *name,
		Addr:  *connect,
		Slots: *slots,
		Executor: &savanna.ProcessExecutor{
			Command:  command,
			WorkRoot: *workdir,
			Timeout:  *timeout,
		},
		// Full local telemetry plane: run spans, queue-wait/exec histograms
		// and events all ship back to the coordinator piggybacked on the
		// heartbeat cadence, so the campaign renders as one merged trace.
		Tracer:  telemetry.NewTracer(),
		Metrics: telemetry.NewRegistry(),
		Events:  eventlog.NewLog(),
	}
	runDir := func(run cheetah.Run) string {
		return filepath.Join(*workdir, filepath.FromSlash(run.ID))
	}
	if *casDir != "" {
		store, err := cas.Open(*casDir)
		if err != nil {
			fatal(err)
		}
		cache, err := cas.OpenActionCache(filepath.Join(*casDir, "actions.json"), store)
		if err != nil {
			fatal(err)
		}
		w.Cache = cache
		if len(outputs) > 0 {
			w.Collect = func(run cheetah.Run) (map[string]string, error) {
				paths := map[string]string{}
				for n, rel := range outputs {
					paths[n] = filepath.Join(runDir(run), filepath.FromSlash(rel))
				}
				return paths, nil
			}
			w.Restore = func(run cheetah.Run, got map[string]cas.Digest) error {
				for n, rel := range outputs {
					d, ok := got[n]
					if !ok {
						return fmt.Errorf("cached result is missing output %q", n)
					}
					dst := filepath.Join(runDir(run), filepath.FromSlash(rel))
					if err := store.Materialize(d, dst); err != nil {
						return err
					}
				}
				return nil
			}
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The worker outlives coordinator incarnations: it reconnects with
	// jittered backoff (the initial not-yet-listening window included) and
	// replays its outcome spool to whichever successor fences in
	// (DESIGN.md §4j), giving up after -dial-wait without an attach.
	w.ReconnectWait = *dialWait
	if err := w.Serve(ctx); err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "fairctl: worker drained, exiting")
}
