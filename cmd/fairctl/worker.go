package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
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
// keeps a memo in that store, keyed by the command it runs (commandDigest),
// so a repeated campaign of the same command skips already-computed runs and
// only digests cross the wire; -out names which files each run produces for
// collection.
//
// The worker exits 0 when a coordinator drains it. A coordinator that is not
// listening yet, or that died, is redialed until -dial-wait passes without an
// attach, so workers may be started before the coordinator and survive its
// replacement by a successor.
func workerCmd(args []string) {
	w, cleanup, err := newWorker(args)
	if err != nil {
		fatal(err)
	}
	defer cleanup()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The worker outlives coordinator incarnations: it reconnects with
	// jittered backoff (the initial not-yet-listening window included) and
	// replays its outcome spool to whichever successor fences in
	// (DESIGN.md §4j), giving up after -dial-wait without an attach.
	if err := w.Serve(ctx); err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "fairctl: worker drained, exiting")
}

// newWorker builds the worker "fairctl worker args" runs. cleanup removes
// the temporary -workdir, when one was made.
func newWorker(args []string) (w *remote.Worker, cleanup func(), err error) {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	connect := fs.String("connect", "", "coordinator address (host:port)")
	name := fs.String("name", "", "worker name (default: coordinator-assigned)")
	slots := fs.Int("slots", 1, "concurrent runs this worker executes")
	workdir := fs.String("workdir", "", "root for per-run working directories (default: a temp dir)")
	timeout := fs.Duration("timeout", 0, "per-process walltime (0 = none)")
	dialWait := fs.Duration("dial-wait", 30*time.Second, "keep redialing a coordinator that is not (or no longer) listening for this long")
	casDir := fs.String("cas", "", "artifact store directory for the worker's memo, keyed by the command it runs")
	var outs multiFlag
	fs.Var(&outs, "out", "output artifact as name:relpath under the run's working directory (repeatable)")
	fs.Parse(args)

	if *connect == "" {
		return nil, nil, fmt.Errorf("worker needs -connect")
	}
	command := fs.Args()
	if len(command) == 0 {
		return nil, nil, fmt.Errorf("worker needs a command template after -- (placeholders: {param})")
	}
	outputs := map[string]string{} // artifact name → relpath in run dir
	for _, o := range outs {
		n, rel, ok := strings.Cut(o, ":")
		if !ok || n == "" || rel == "" {
			return nil, nil, fmt.Errorf("worker: -out wants name:relpath, got %q", o)
		}
		outputs[n] = rel
	}
	var memo *savanna.Memo
	if *casDir != "" {
		if memo, err = openMemo(*casDir, command, outputs); err != nil {
			return nil, nil, err
		}
	}
	cleanup = func() {}
	if *workdir == "" {
		dir, err := os.MkdirTemp("", "fairctl-worker-*")
		if err != nil {
			return nil, nil, err
		}
		cleanup = func() { os.RemoveAll(dir) }
		*workdir = dir
	}
	if memo != nil && len(outputs) > 0 {
		runDir := func(run cheetah.Run) string {
			return filepath.Join(*workdir, filepath.FromSlash(run.ID))
		}
		memo.Collect = func(run cheetah.Run) (map[string]string, error) {
			paths := map[string]string{}
			for n, rel := range outputs {
				paths[n] = filepath.Join(runDir(run), filepath.FromSlash(rel))
			}
			return paths, nil
		}
		memo.Restore = func(run cheetah.Run, got map[string]cas.Digest) error {
			for n, rel := range outputs {
				d, ok := got[n]
				if !ok {
					return fmt.Errorf("cached result is missing output %q", n)
				}
				if err := memo.Cache.Store().Materialize(d, filepath.Join(runDir(run), filepath.FromSlash(rel))); err != nil {
					return err
				}
			}
			return nil
		}
	}

	return &remote.Worker{
		Name:  *name,
		Addr:  *connect,
		Slots: *slots,
		Executor: &savanna.ProcessExecutor{
			Command:  command,
			WorkRoot: *workdir,
			Timeout:  *timeout,
		},
		Memo:          memo,
		ReconnectWait: *dialWait,
		// Full local telemetry plane: session spans, queue-wait/exec
		// histograms and events ship back to the coordinator piggybacked on
		// the heartbeat cadence, and each run's span rides its outcome, so
		// the campaign renders as one merged trace.
		Tracer:  telemetry.NewTracer(),
		Metrics: telemetry.NewRegistry(),
		Events:  eventlog.NewLog(),
	}, cleanup, nil
}

// openMemo opens the memo in the store at dir for the command template and
// its outputs.
func openMemo(dir string, command []string, outputs map[string]string) (*savanna.Memo, error) {
	store, err := cas.Open(dir)
	if err != nil {
		return nil, err
	}
	cache, err := cas.OpenActionCache(filepath.Join(dir, "actions.json"), store)
	if err != nil {
		return nil, err
	}
	component, err := commandDigest(command, outputs)
	if err != nil {
		return nil, err
	}
	return &savanna.Memo{Cache: cache, ComponentDigest: component}, nil
}

// commandDigest is the memo's component: the digest of a recipe over what
// the worker executes — the command template, the outputs it collects (name
// and relative path) and the content of the program the template's first
// word resolves to on PATH. Nothing local to one worker enters it (its name,
// its -workdir), so workers on different machines running the same command
// share hits, and a changed command, output list or program misses.
func commandDigest(command []string, outputs map[string]string) (string, error) {
	program, err := exec.LookPath(command[0])
	if err != nil {
		return "", fmt.Errorf("worker: resolving the command: %w", err)
	}
	content, _, err := cas.HashFile(program)
	if err != nil {
		return "", fmt.Errorf("worker: hashing the command's program: %w", err)
	}
	params := make(map[string]string, len(command)+len(outputs))
	for i, arg := range command {
		params["argv:"+strconv.Itoa(i)] = arg
	}
	for n, rel := range outputs {
		params["out:"+n] = rel
	}
	return string(cas.Recipe{Kind: "fairctl/worker-command@v1", Params: params, Inputs: []cas.Digest{content}}.Digest()), nil
}
