package savanna

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"fairflow/internal/cheetah"
	"fairflow/internal/resilience"
	"fairflow/internal/telemetry"
)

// ProcessExecutor runs each campaign run as an operating-system process —
// the backend that "translates a high-level campaign description into
// actual system and scheduler calls". The command line is a template with
// {param} placeholders substituted from the run's sweep point; each run
// executes in its own working directory under the campaign directory (the
// Cheetah directory schema), with stdout/stderr captured to files.
type ProcessExecutor struct {
	// Command is the argv template; each element may contain {param}
	// placeholders, plus the builtins {run_id}, {group}, {sweep}.
	Command []string
	// WorkRoot, when non-empty, hosts per-run working directories
	// (WorkRoot/<run id>), each given the run's params.json at attempt
	// start (cheetah.WriteParams). Empty runs in the current directory.
	WorkRoot string
	// Timeout bounds each process (0 = no limit) — the per-run walltime.
	// Each process inherits the environment plus its sweep parameters as
	// SWEEP_<NAME>, RUN_ID, and, when the attempt context carries an active
	// telemetry span, its traceparent encoding as TRACEPARENT.
	Timeout time.Duration
}

// Substitute expands {param} placeholders in one template string.
func Substitute(tmpl string, run cheetah.Run) (string, error) {
	out := strings.ReplaceAll(tmpl, "{run_id}", run.ID)
	out = strings.ReplaceAll(out, "{group}", run.Group)
	out = strings.ReplaceAll(out, "{sweep}", run.Sweep)
	for k, v := range run.Params {
		out = strings.ReplaceAll(out, "{"+k+"}", v)
	}
	if i := strings.IndexByte(out, '{'); i >= 0 {
		if j := strings.IndexByte(out[i:], '}'); j >= 0 {
			return "", fmt.Errorf("savanna: unresolved placeholder %q in %q", out[i:i+j+1], tmpl)
		}
	}
	return out, nil
}

// Execute implements Executor.
func (p *ProcessExecutor) Execute(run cheetah.Run) error {
	return p.ExecuteContext(context.Background(), run)
}

// ExecuteContext implements ContextExecutor: when ctx ends — per-run
// deadline, campaign cancellation, or an operator interrupt — the child's
// whole process group is killed, so a wedged subprocess (or anything it
// forked) cannot hold a worker hostage. Timeout still applies on top as the
// executor-local walltime.
func (p *ProcessExecutor) ExecuteContext(ctx context.Context, run cheetah.Run) error {
	if len(p.Command) == 0 {
		return fmt.Errorf("savanna: process executor needs a command")
	}
	argv := make([]string, len(p.Command))
	for i, tmpl := range p.Command {
		expanded, err := Substitute(tmpl, run)
		if err != nil {
			return resilience.MarkPermanent(err) // a bad template fails every attempt
		}
		argv[i] = expanded
	}

	if p.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.Timeout)
		defer cancel()
	}
	cmd := exec.CommandContext(ctx, argv[0], argv[1:]...)
	// Kill the child's process group, not just the child: runs are often
	// wrapper scripts, and an orphaned grandchild would keep the run's files
	// open. WaitDelay bounds how long Wait lingers after the kill if the
	// child wedged in an unkillable state or a grandchild inherited stdout.
	setProcessGroup(cmd)
	cmd.Cancel = func() error { return killProcessGroup(cmd) }
	cmd.WaitDelay = 5 * time.Second

	if p.WorkRoot != "" {
		dir := filepath.Join(p.WorkRoot, filepath.FromSlash(run.ID))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		if err := cheetah.WriteParams(dir, run.Params); err != nil {
			return err
		}
		cmd.Dir = dir
		stdout, err := os.Create(filepath.Join(dir, "stdout.log"))
		if err != nil {
			return err
		}
		defer stdout.Close()
		stderr, err := os.Create(filepath.Join(dir, "stderr.log"))
		if err != nil {
			return err
		}
		defer stderr.Close()
		cmd.Stdout, cmd.Stderr = stdout, stderr
	}

	env := os.Environ()
	for k, v := range run.Params {
		env = append(env, "SWEEP_"+strings.ToUpper(k)+"="+v)
	}
	env = append(env, "RUN_ID="+run.ID)
	// Export the active span's wire identity so instrumented applications
	// can parent their own telemetry under this run — the trace chain
	// follows the computation across the process boundary.
	if sc := telemetry.SpanContextFromContext(ctx); sc.Valid() {
		env = append(env, "TRACEPARENT="+sc.String())
	}
	cmd.Env = env

	if err := cmd.Start(); err != nil {
		return fmt.Errorf("savanna: run %s: %w", run.ID, err)
	}
	// Sample the child's peak RSS from /proc while it lives: rusage at exit
	// already carries the high-water mark, but a run that wedges and gets
	// process-group-killed may take WaitDelay to reap — the live sampler has
	// the peak either way, and the two merge by max below.
	var livePeak atomic.Int64
	samplerStop := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		ticker := time.NewTicker(100 * time.Millisecond)
		defer ticker.Stop()
		pid := cmd.Process.Pid
		for {
			select {
			case <-samplerStop:
				return
			case <-ticker.C:
				if rss, ok := procPeakRSS(pid); ok && rss > livePeak.Load() {
					livePeak.Store(rss)
				}
			}
		}
	}()
	waitErr := cmd.Wait()
	close(samplerStop)
	<-samplerDone
	// Harvest the kernel's accounting on every exit path — including the
	// deadline kill, where Wait returns an error but ProcessState is still
	// populated from the reap.
	if sink := ResourceSinkFrom(ctx); sink != nil {
		usage, ok := processUsage(cmd.ProcessState)
		if peak := livePeak.Load(); peak > usage.MaxRSSBytes {
			usage.MaxRSSBytes = peak
			ok = true
		}
		if ok {
			sink.Accumulate(usage)
		}
	}
	if waitErr != nil {
		if ctx.Err() == context.DeadlineExceeded {
			// Wrap the context error so resilience.Classify reads this as
			// ClassDeadline without an explicit mark.
			return fmt.Errorf("savanna: run %s exceeded walltime: %w", run.ID, context.DeadlineExceeded)
		}
		if ctx.Err() != nil {
			return fmt.Errorf("savanna: run %s cancelled: %w", run.ID, ctx.Err())
		}
		// A clean non-zero exit is the application rejecting its parameters —
		// deterministic, so retrying wastes the budget. Spawn errors and
		// signal deaths stay transient (the default class).
		var exit *exec.ExitError
		if errors.As(waitErr, &exit) && exit.Exited() {
			return resilience.MarkPermanent(fmt.Errorf("savanna: run %s: %w", run.ID, waitErr))
		}
		return fmt.Errorf("savanna: run %s: %w", run.ID, waitErr)
	}
	return nil
}
